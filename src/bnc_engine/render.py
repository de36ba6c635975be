"""Deterministic TikZ and DOT emitters for the two-column diagrams.

Layout follows the usual convention: two dashed vertical lines, nodes
numbered top to bottom, left-column nodes for 'l' positions and right
for 'r'; block spines run vertically between the columns with ribs out
to their nodes, and top-gap spines continue through the upper edge.
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


def tikz_preamble(lines: list[str], top: float):
    lines.append("\\begin{tikzpicture}[baseline]")
    lines.append(
        f"\\draw[thick, dashed] (0,{top}) -- (0,0) -- ({WIDTH}, 0) -- ({WIDTH},{top});"
    )


def tikz_bnc(chi: ChiMap, pi: SetPartition) -> str:
    """Two-column picture of a partition; blocks drawn with spines."""
    n = chi.n
    top = (n + 1) * STEP
    lines: list[str] = []
    tikz_preamble(lines, top)
    for i in range(1, n + 1):
        x = 0 if chi.side(i) == "l" else WIDTH
        anchor = "left" if chi.side(i) == "l" else "right"
        y = _node_y(i, n)
        lines.append(f"\\draw[fill=black] ({x}, {y}) circle (0.06);")
        lines.append(f"\\node[{anchor}] at ({x}, {y}) {{${i}$}};")
    strings = [(blk, False) for blk in pi.blocks()]
    for blk in pi.blocks():
        if len(blk) < 2:
            continue
        depth = _spine_depth(blk, strings)
        sx = _spine_x(chi.side(min(blk)), depth)
        y_top, y_bot = _node_y(min(blk), n), _node_y(max(blk), n)
        lines.append(f"\\draw[thick] ({sx}, {y_top}) -- ({sx}, {y_bot});")
        for i in blk:
            x = 0 if chi.side(i) == "l" else WIDTH
            y = _node_y(i, n)
            lines.append(f"\\draw[thick] ({x}, {y}) -- ({sx}, {y});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def tikz_lr(diagram: LRDiagram) -> str:
    """Shaded string diagram with top-gap spines."""
    n = diagram.n
    top = (n + 1) * STEP
    lines: list[str] = []
    tikz_preamble(lines, top)
    colour_of = {}
    for i in range(1, n + 1):
        shade = diagram.eps.colour(i)
        if shade not in colour_of:
            colour_of[shade] = SHADE_COLOURS[len(colour_of) % len(SHADE_COLOURS)]
    for i in range(1, n + 1):
        x = 0 if diagram.chi.side(i) == "l" else WIDTH
        anchor = "left" if diagram.chi.side(i) == "l" else "right"
        y = _node_y(i, n)
        col = colour_of[diagram.eps.colour(i)]
        lines.append(f"\\draw[{col}, fill={col}] ({x}, {y}) circle (0.05);")
        lines.append(f"\\node[{anchor}] at ({x}, {y}) {{${i}$}};")
    m = len(diagram.spine_order)
    for nodes, reaches in diagram.strings:
        col = colour_of[diagram.eps.colour(nodes[0])]
        if reaches:
            rank = diagram.spine_order.index(nodes)
            sx = round(WIDTH * (rank + 1) / (m + 1), 3)
            y_bot = _node_y(max(nodes), n)
            lines.append(f"\\draw[{col}, thick] ({sx}, {top}) -- ({sx}, {y_bot});")
        else:
            if len(nodes) < 2:
                continue
            depth = _spine_depth(nodes, diagram.strings)
            sx = _spine_x(diagram.chi.side(min(nodes)), depth)
            y_top, y_bot = _node_y(min(nodes), n), _node_y(max(nodes), n)
            lines.append(f"\\draw[{col}, thick] ({sx}, {y_top}) -- ({sx}, {y_bot});")
        for i in nodes:
            x = 0 if diagram.chi.side(i) == "l" else WIDTH
            y = _node_y(i, n)
            lines.append(f"\\draw[{col}, thick] ({x}, {y}) -- ({sx}, {y});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def tikz_standalone(body: str) -> str:
    return (
        "\\documentclass[tikz]{standalone}\n\\begin{document}\n"
        + body
        + "\\end{document}\n"
    )


def dot_bnc(chi: ChiMap, pi: SetPartition) -> str:
    """Partition as a graph: nodes per position, edges chain each block."""
    lines = ["graph bnc {", "  rankdir=TB;"]
    for i in range(1, chi.n + 1):
        side = chi.side(i)
        lines.append(f'  n{i} [label="{i}:{side}", shape=circle];')
    for blk in pi.blocks():
        for a, b in zip(blk, blk[1:]):
            lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_lr(diagram: LRDiagram) -> str:
    lines = ["graph lr {", "  rankdir=TB;", '  gap [label="top gap", shape=box];']
    for i in range(1, diagram.n + 1):
        side = diagram.chi.side(i)
        shade = diagram.eps.colour(i)
        lines.append(f'  n{i} [label="{i}:{side}:{shade}", shape=circle];')
    for nodes, reaches in diagram.strings:
        for a, b in zip(nodes, nodes[1:]):
            lines.append(f"  n{a} -- n{b};")
        if reaches:
            lines.append(f"  n{min(nodes)} -- gap;")
    lines.append("}")
    return "\n".join(lines) + "\n"
