"""Command-line front end.

Subcommands: enumerate {bnc,lr,lrlat,bncffb}, mobius, moments,
cumulants, verify {bb-axioms,bifree,ffb-system,ffb-independence,
ffb-sweep,lr-decompose}, render.  Identical invocations produce identical bytes;
BNC_ENGINE_CAP overrides the enumeration caps.

Exit codes: 0 success, 2 argument or parse error, 3 cap exceeded,
4 fixture axiom failure, 5 failed verification claim, 70 internal error
(a fault in the engine rather than in its input), 141 stdout closed by
its reader (as `| head` does; 128 + SIGPIPE, printing nothing).  A
failed claim is a report, printed in full on stdout, not an error.
Every error prints one `error: ...` line on stderr; errors.py defines
the codes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .algebra import CheckReport, check_bb_axioms
from .bimodule import module_operator
from .cumulants import (
    AlgebraMomentContext,
    bifree_moment_check,
    cumulant_table,
    moment_cumulant_roundtrip,
    moment_table,
)
from .diagrams import (
    LR_CAP,
    LRDiagram,
    enumerate_lr,
    lateral_closure,
    lr_k,
)
from .errors import (
    BROKEN_PIPE,
    CLAIM_FAILED,
    INTERNAL,
    BncError,
    FixtureError,
    InputError,
)
from .ffb import (
    check_ffb_independence,
    check_ffb_system,
    check_single_colour_moments,
    ffb_sweep,
    verify_system_gives_ffb,
)
from .fixtures import load_space, load_system, sample_side_element, scalar_module
from .freeprod import (
    DepthExceeded,
    FreeMomentContext,
    apply_chain,
    lr_decompose,
    reduced_free_product,
)
from .partitions import (
    ChiMap,
    EpsilonMap,
    SetPartition,
    build_context,
    check_cap,
    enumerate_bnc,
    enumerate_bnc_ffb,
    is_bnc,
    lr_replacement,
    mobius,
)
from .render import dot_bnc, dot_lr, tikz_bnc, tikz_lr, tikz_standalone


def _parsed(args, flag: str, parse, *extra):
    """parse(the text of --flag, *extra); a missing flag or an input
    fault in its text is reported against the flag."""
    text = getattr(args, flag)
    if text is None:
        raise InputError(f"--{flag} is required")
    try:
        return parse(text, *extra)
    except InputError as e:
        raise InputError(f"--{flag}: {e}") from None


def _colouring(text: str) -> ChiMap:
    """A two-letter colouring: only enumerate bncffb's --chihat takes 'b'."""
    chi = ChiMap.parse(text)
    if "b" in chi.sides:
        raise InputError(f"{text!r} is not a two-letter colouring over l and r")
    return chi


def _at_least(args, flag: str, low: int):
    """Refuse a run whose integer flag is below the least usable value."""
    if getattr(args, flag.replace("-", "_")) < low:
        raise InputError(f"--{flag} must be at least {low}")


def _parse_partition(text: str, n: int) -> SetPartition:
    """n positions as a restricted-growth string ('0,1,0') or as blocks
    ('{1,3},{2}')."""
    text = "".join(text.split())
    if re.fullmatch(r"\d+(,\d+)*", text):
        pi = SetPartition(tuple(int(t) for t in text.split(",")))
    elif re.fullmatch(r"\{\d+(,\d+)*\}(,\{\d+(,\d+)*\})*", text):
        blocks = re.findall(r"\{([\d,]+)\}", text)
        pi = SetPartition.from_blocks(n, [[int(t) for t in b.split(",")] for b in blocks])
    else:
        raise InputError(f"cannot parse partition {text!r}")
    if pi.n != n:
        raise InputError(f"partition of {pi.n} positions against a colouring of {n}")
    return pi


def _diagram(text: str) -> LRDiagram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not JSON: {e}") from None
    return LRDiagram.from_json(data)


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_enumerate(args) -> int:
    kind = args.what
    if kind == "bnc":
        parts = enumerate_bnc(build_context(_parsed(args, "chi", _colouring)))
        payload = {
            "chi": args.chi,
            "count": len(parts),
            "partitions": [list(p.rgs) for p in parts],
            "pretty": [p.pretty() for p in parts],
        }
    elif kind == "bncffb":
        fctx = lr_replacement(_parsed(args, "chihat", ChiMap.parse))
        parts = enumerate_bnc_ffb(fctx)
        payload = {
            "chihat": args.chihat,
            "chi": str(fctx.chi),
            "bottom": fctx.bottom.pretty(),
            "count": len(parts),
            "partitions": [list(p.rgs) for p in parts],
            "pretty": [p.pretty() for p in parts],
        }
    else:
        chi = _parsed(args, "chi", _colouring)
        eps = _parsed(args, "eps", EpsilonMap.parse)
        if args.k is not None:
            _at_least(args, "k", 0)
        fam = enumerate_lr(chi, eps)
        if kind == "lrlat":
            fam = lateral_closure(fam)
        if args.k is not None:
            fam = lr_k(fam, args.k)
        payload = {
            "chi": args.chi,
            "eps": list(eps.colours),
            "closure": fam.closure_flag,
            "count": len(fam),
            "diagrams": [d.to_json() for d in fam.diagrams],
        }
    if args.format == "text":
        print(f"count: {payload['count']}")
        for line in payload.get("pretty", []):
            print(line)
        for d in payload.get("diagrams", []):
            print(json.dumps(d, sort_keys=True))
    else:
        _emit(payload)
    return 0


def cmd_mobius(args) -> int:
    ctx = build_context(_parsed(args, "chi", _colouring))
    pi = _parsed(args, "pi", _parse_partition, ctx.n)
    sigma = _parsed(args, "sigma", _parse_partition, ctx.n)
    value = mobius(pi, sigma, ctx)
    _emit({"chi": args.chi, "pi": list(pi.rgs), "sigma": list(sigma.rgs), "mu": value})
    return 0


def _sampled_word(space, chi: ChiMap, seed: int):
    rng = random.Random(seed)
    return [
        sample_side_element(space, chi.side(i), rng) for i in range(1, chi.n + 1)
    ]


def cmd_tables(args, cumulants: bool) -> int:
    space = _parsed(args, "fixture", load_space)
    if not check_bb_axioms(space).ok:
        raise FixtureError(f"fixture {args.fixture!r} fails the compatibility axioms")
    chi = _parsed(args, "chi", _colouring)
    if not chi.n:
        raise InputError("--chi must have at least one position")
    ctx = build_context(chi)
    Z = _sampled_word(space, chi, args.seed)
    mf = AlgebraMomentContext(space)
    moments = moment_table(ctx, Z, mf)
    # roundtrip_ok is printed for both kinds, so both need the cumulants
    kappas = cumulant_table(ctx, Z, mf, moments=moments)
    table = kappas if cumulants else moments
    payload = {
        "chi": args.chi,
        "fixture": args.fixture,
        "seed": args.seed,
        "kind": "cumulants" if cumulants else "moments",
        "operands": [[str(c) for c in z.coeffs] for z in Z],
        "entries": [
            {"pi": list(rgs), "value": [str(c) for c in val.coeffs]}
            for rgs, val in sorted(table.items())
        ],
        "roundtrip_ok": moment_cumulant_roundtrip(ctx, moments, kappas),
    }
    _emit(payload)
    return 0


def _report_exit(rep) -> int:
    _emit(rep.to_json())
    return 0 if rep.ok else CLAIM_FAILED


# each verify target's default --fixture, of the kind it loads
VERIFY_FIXTURE = {
    "bb-axioms": "m2-scalar",
    "ffb-system": "doubled-m2",
    "ffb-independence": "doubled-m2",
    "ffb-sweep": "doubled-dual",
}


def cmd_verify(args) -> int:
    what = args.what
    if what == "bifree":
        return _verify_bifree(args)
    if what == "lr-decompose":
        return _verify_decompose(args)
    if args.fixture is None:
        args.fixture = VERIFY_FIXTURE[what]
    if what == "bb-axioms":
        rep = check_bb_axioms(_parsed(args, "fixture", load_space))
        _emit(rep.to_json())
        return 0 if rep.ok else FixtureError.code
    # ffb-sweep's words run to --max-n letters, the systems' to --word-cap
    cap = "max-n" if what == "ffb-sweep" else "word-cap"
    _at_least(args, cap, 1)
    size = args.max_n if what == "ffb-sweep" else args.word_cap
    if what == "ffb-sweep":  # a word of n̂ letters expands to up to 2n̂ positions
        check_cap(2 * args.max_n, name="2 * --max-n")
    depth = args.depth if args.depth is not None else 2 * size
    if depth < 1:
        raise InputError(f"--depth (default 2 * --{cap}) must be at least 1")
    system = _parsed(args, "fixture", load_system, depth)
    if what == "ffb-sweep":
        rep = ffb_sweep(system, args.max_n)
    elif what == "ffb-system":
        rep = check_ffb_system(system, args.word_cap)
        rep.claims.extend(check_single_colour_moments(system, args.word_cap).claims)
    else:
        rep = check_ffb_independence(system, args.word_cap)
        rep.claims.extend(verify_system_gives_ffb(system, min(args.word_cap, 3)).claims)
    return _report_exit(rep)


def _scalar_modules(dims: str) -> dict:
    """One scalar module per colour, from --dims complement dimensions."""
    if not re.fullmatch(r"\d+(,\d+)*", dims):
        raise InputError(f"dimensions must be non-negative integers, not {dims!r}")
    return {k: scalar_module(int(t)) for k, t in enumerate(dims.split(","), start=1)}


def _random_operator(mod, rng: random.Random):
    m = [[rng.randint(-2, 2) for _ in range(mod.dim)] for _ in range(mod.dim)]
    return module_operator(mod, m)


def _verify_bifree(args) -> int:
    """Mixed-colour moment criterion on a representation-built family."""
    _at_least(args, "word-cap", 2)
    check_cap(args.word_cap, name="--word-cap")  # not only once a draw passes it
    _at_least(args, "trials", 1)
    rng = random.Random(args.seed)
    mods = _parsed(args, "dims", _scalar_modules)
    if len(mods) < 2:
        raise InputError("--dims must list at least two colours")
    fp = reduced_free_product(mods, args.word_cap)
    mf = FreeMomentContext(fp)
    rep = CheckReport()
    failures = 0
    for trial in range(args.trials):
        n = rng.randint(2, args.word_cap)
        sides = [rng.choice("lr") for _ in range(n)]
        colours = [rng.choice(sorted(mods)) for _ in range(n)]
        if len(set(colours)) < 2:
            colours[0] = 1
            colours[-1] = 2
        Z = [((s, k, _random_operator(mods[k], rng)),) for s, k in zip(sides, colours)]
        word_rep = bifree_moment_check(
            ChiMap(tuple(sides)), EpsilonMap(tuple(colours)), Z, mf
        )
        if not word_rep.ok:
            failures += 1
            for c in word_rep.claims:
                if c["status"] == "fail":
                    rep.claims.append(c)
    rep.record(f"bifree-criterion ({args.trials} sampled words)", failures == 0)
    return _report_exit(rep)


def _verify_decompose(args) -> int:
    """lr_decompose against the word applied directly, on sampled words."""
    _at_least(args, "max-n", 1)
    check_cap(args.max_n, LR_CAP, "--max-n")  # lr_decompose has no cap of its own
    _at_least(args, "trials", 1)
    rng = random.Random(args.seed)
    mods = _parsed(args, "dims", _scalar_modules)
    rep = CheckReport()
    ok_all = True
    for trial in range(args.trials):
        n = rng.randint(1, args.max_n)
        fp = reduced_free_product(mods, max(n, 1))
        ops = []
        for _ in range(n):
            s = rng.choice("lr")
            k = rng.choice(sorted(mods))
            ops.append((s, k, _random_operator(mods[k], rng)))
        dec = lr_decompose(ops, fp)
        direct = apply_chain(fp, ops, fp.unit())
        good = fp.equal(dec.direct, direct) and fp.equal(dec.reconstruction(), direct)
        if not good:
            ok_all = False
            rep.record(f"trial-{trial}", False, witness={"n": n})
    rep.record(f"lr-decompose ({args.trials} sampled words)", ok_all)
    return _report_exit(rep)


def cmd_render(args) -> int:
    if args.kind == "bnc":
        chi = _parsed(args, "chi", _colouring)
        pi = _parsed(args, "pi", _parse_partition, chi.n)
        if not is_bnc(pi, build_context(chi)):
            raise InputError(f"--pi is not bi-non-crossing for --chi {chi}")
        body = tikz_bnc(chi, pi) if args.format == "tikz" else dot_bnc(chi, pi)
    else:
        if args.json:
            diagram = _parsed(args, "json", _diagram)
        else:
            chi = _parsed(args, "chi", _colouring)
            eps = _parsed(args, "eps", EpsilonMap.parse)
            fam = enumerate_lr(chi, eps)
            if args.index is None or not 0 <= args.index < len(fam):
                raise InputError(f"--index must select one of the {len(fam)} diagrams")
            diagram = fam.diagrams[args.index]
        body = tikz_lr(diagram) if args.format == "tikz" else dot_lr(diagram)
    if args.format == "tikz" and args.standalone:
        body = tikz_standalone(body)
    sys.stdout.write(body)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bnc-engine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="list partitions or diagrams")
    pe.add_argument("what", choices=["bnc", "lr", "lrlat", "bncffb"])
    pe.add_argument("--chi", default=None)
    pe.add_argument("--chihat", default=None)
    pe.add_argument("--eps", default=None)
    pe.add_argument("--k", type=int, default=None, help="top-gap string count filter")
    pe.add_argument("--format", choices=["json", "text"], default="json")
    pe.set_defaults(func=cmd_enumerate)

    pm = sub.add_parser("mobius", help="incidence inverse on an interval")
    pm.add_argument("--chi", required=True)
    pm.add_argument("--pi", required=True)
    pm.add_argument("--sigma", required=True)
    pm.set_defaults(func=cmd_mobius)

    for name in ("moments", "cumulants"):
        pt = sub.add_parser(name, help=f"{name} table on sampled operands")
        pt.add_argument("--chi", required=True)
        pt.add_argument("--fixture", default="m2-scalar")
        pt.add_argument("--seed", type=int, default=0)
        pt.set_defaults(func=lambda a, c=(name == "cumulants"): cmd_tables(a, c))

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument(
        "what",
        choices=["bb-axioms", "bifree", "ffb-system", "ffb-independence", "ffb-sweep",
                 "lr-decompose"],
    )
    pv.add_argument("--fixture", default=None,
                    help="default: m2-scalar for bb-axioms, doubled-m2 for the systems, "
                    "doubled-dual for ffb-sweep")
    pv.add_argument("--word-cap", type=int, default=4)
    pv.add_argument("--depth", type=int, default=None,
                    help="free-product truncation depth "
                    "(default 2*word-cap, for ffb-sweep 2*max-n)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=10)
    pv.add_argument("--max-n", type=int, default=4)
    pv.add_argument("--dims", default="2,3", help="complement dims per colour")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("render", help="diagram markup")
    pr.add_argument("--kind", choices=["bnc", "lr"], required=True)
    pr.add_argument("--chi", default=None)
    pr.add_argument("--eps", default=None)
    pr.add_argument("--pi", default=None)
    pr.add_argument("--index", type=int, default=None)
    pr.add_argument("--json", default=None, help="inline diagram JSON")
    pr.add_argument("--format", choices=["tikz", "dot"], default="tikz")
    pr.add_argument("--standalone", action="store_true")
    pr.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except DepthExceeded as e:
        # only the verify targets take a depth, from --depth
        print(f"error: --depth is too small: {e}", file=sys.stderr)
        return e.code
    except BncError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
