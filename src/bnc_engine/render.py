"""Deterministic TikZ and DOT emitters for the two-column diagrams.

Layout follows the usual convention: two dashed vertical lines, nodes
numbered top to bottom, left-column nodes for 'l' positions and right
for 'r'; block spines run vertically between the columns with ribs out
to their nodes, and top-gap spines continue through the upper edge.
One picture, _tikz, and one graph, _dot, draw both kinds: a partition
is the diagram whose strings are its blocks, none reaching the top
gap, so the two differ only in their node and string styles.
"""

from __future__ import annotations

from .bimult import crosses
from .diagrams import LRDiagram
from .partitions import ChiMap, SetPartition

WIDTH = 1.5
STEP = 0.5
SHADE_COLOURS = ("orange", "blue", "green!60!black", "purple", "teal", "brown")


def _node_y(i: int, n: int) -> float:
    return (n - i + 1) * STEP


def _spine_depth(members: tuple[int, ...], others) -> int:
    """How many other strings' spines pass this one's top node."""
    j = min(members)
    return sum(1 for nodes, top in others if nodes != members and crosses(nodes, top, j))


def _spine_x(side: str, depth: int) -> float:
    if side == "l":
        return round(0.35 + 0.22 * depth, 3)
    return round(WIDTH - 0.35 - 0.22 * depth, 3)


def _tikz(n: int, side, strings, order, node, string) -> str:
    """The two-column picture on nodes 1..n: side(i) is node i's column,
    strings the (nodes, reaches_top) pairs and order the top strings,
    leftmost first.  node(i) gives node i's draw style and radius, and
    string(nodes) a string's draw style.  A closed one-node string has
    no spine and no rib."""
    top = (n + 1) * STEP
    lines = [
        "\\begin{tikzpicture}[baseline]",
        f"\\draw[thick, dashed] (0,{top}) -- (0,0) -- ({WIDTH}, 0) -- ({WIDTH},{top});",
    ]
    x = {i: 0 if side(i) == "l" else WIDTH for i in range(1, n + 1)}
    for i in range(1, n + 1):
        anchor = "left" if side(i) == "l" else "right"
        y = _node_y(i, n)
        style, radius = node(i)
        lines.append(f"\\draw[{style}] ({x[i]}, {y}) circle ({radius});")
        lines.append(f"\\node[{anchor}] at ({x[i]}, {y}) {{${i}$}};")
    for nodes, reaches in strings:
        if reaches:
            sx = round(WIDTH * (order.index(nodes) + 1) / (len(order) + 1), 3)
            y_top = top
        elif len(nodes) < 2:
            continue
        else:
            sx = _spine_x(side(nodes[0]), _spine_depth(nodes, strings))
            y_top = _node_y(nodes[0], n)
        style = string(nodes)
        y_bot = _node_y(nodes[-1], n)
        lines.append(f"\\draw[{style}] ({sx}, {y_top}) -- ({sx}, {y_bot});")
        for i in nodes:
            y = _node_y(i, n)
            lines.append(f"\\draw[{style}] ({x[i]}, {y}) -- ({sx}, {y});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def tikz_bnc(chi: ChiMap, pi: SetPartition) -> str:
    """Two-column picture of a partition: its blocks as closed strings."""
    strings = [(blk, False) for blk in pi.blocks()]
    return _tikz(
        chi.n, chi.side, strings, (), lambda i: ("fill=black", 0.06), lambda _: "thick"
    )


def tikz_lr(diagram: LRDiagram) -> str:
    """Shaded string diagram with top-gap spines, one colour per shade."""
    colour_of: dict = {}
    for shade in diagram.eps.colours:
        colour_of.setdefault(shade, SHADE_COLOURS[len(colour_of) % len(SHADE_COLOURS)])

    def colour(i):
        return colour_of[diagram.eps.colour(i)]

    return _tikz(
        diagram.n,
        diagram.chi.side,
        diagram.strings,
        diagram.spine_order,
        lambda i: (f"{colour(i)}, fill={colour(i)}", 0.05),
        lambda nodes: f"{colour(nodes[0])}, thick",
    )


def tikz_standalone(body: str) -> str:
    return (
        "\\documentclass[tikz]{standalone}\n\\begin{document}\n"
        + body
        + "\\end{document}\n"
    )


def _dot(name: str, labels, strings, gap: bool) -> str:
    """A graph with node i labelled labels[i - 1], each string's nodes
    chained, and a top-gap box, when gap, that the top strings meet at
    their first node."""
    lines = [f"graph {name} {{", "  rankdir=TB;"]
    if gap:
        lines.append('  gap [label="top gap", shape=box];')
    for i, label in enumerate(labels, start=1):
        lines.append(f'  n{i} [label="{label}", shape=circle];')
    for nodes, reaches in strings:
        for a, b in zip(nodes, nodes[1:]):
            lines.append(f"  n{a} -- n{b};")
        if reaches:
            lines.append(f"  n{nodes[0]} -- gap;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_bnc(chi: ChiMap, pi: SetPartition) -> str:
    """Partition as a graph: nodes per position, edges chain each block."""
    labels = [f"{i}:{chi.side(i)}" for i in range(1, chi.n + 1)]
    return _dot("bnc", labels, [(blk, False) for blk in pi.blocks()], False)


def dot_lr(diagram: LRDiagram) -> str:
    d = diagram
    labels = [f"{i}:{d.chi.side(i)}:{d.eps.colour(i)}" for i in range(1, d.n + 1)]
    return _dot("lr", labels, d.strings, True)
