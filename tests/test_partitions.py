import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnc_engine.partitions import (
    AlphabetError,
    CapExceeded,
    ChiMap,
    EpsilonMap,
    SetPartition,
    build_context,
    catalan,
    enumerate_bnc,
    enumerate_bnc_ffb,
    is_bnc,
    is_noncrossing_rgs,
    lr_replacement,
    meet,
    mobius,
    mobius_fast,
    nc_row,
    refines,
)
from bnc_engine.partitions import _canonical_rgs, _mu_to_top, _noncrossing_partitions
from oracles import all_partitions, interval_below, join, keeps_boolean_pairs

PAPER_CHI = ChiMap.parse("lrlllr")  # lefts {1,3,4,5}, rights {2,6}


def test_s_chi_examples():
    assert build_context(ChiMap.parse("llll")).s_chi == (1, 2, 3, 4)
    assert build_context(ChiMap.parse("rr")).s_chi == (2, 1)
    assert build_context(PAPER_CHI).s_chi == (1, 3, 4, 5, 6, 2)


def test_alphabet_guard():
    with pytest.raises(AlphabetError):
        ChiMap(("l", "b"))
    with pytest.raises(AlphabetError):
        build_context(ChiMap.parse("lbr"))


def test_figure_membership():
    ctx = build_context(PAPER_CHI)
    pi = SetPartition.from_blocks(6, [[1, 2, 5, 6], [3, 4]])
    sigma = SetPartition.from_blocks(6, [[1, 4, 5, 6], [2, 3]])
    assert is_bnc(pi, ctx)
    assert not is_bnc(sigma, ctx)
    assert is_bnc(SetPartition.full(6), ctx)


def test_enumeration_counts_against_catalan():
    rng = random.Random(2)
    for n in range(0, 7):
        sides = tuple(rng.choice("lr") for _ in range(n))
        ctx = build_context(ChiMap(sides))
        parts = enumerate_bnc(ctx)
        assert len(parts) == catalan(n)
        assert len(set(parts)) == len(parts)
        assert parts == sorted(parts)


def test_enumeration_matches_bruteforce_filter():
    for sides in iproduct("lr", repeat=5):
        ctx = build_context(ChiMap(sides))
        brute = {p.rgs for p in all_partitions(5) if is_bnc(p, ctx)}
        assert brute == {p.rgs for p in enumerate_bnc(ctx)}


def test_cap_exceeded():
    ctx = build_context(ChiMap(("l",) * 11))
    with pytest.raises(CapExceeded):
        enumerate_bnc(ctx)
    # mobius reads the NC(n) kernel directly, not through the lattice
    with pytest.raises(CapExceeded, match="n=11 exceeds cap 10"):
        mobius(SetPartition.singletons(11), SetPartition.full(11), ctx)


def test_meet_join_examples():
    ctx = build_context(ChiMap.parse("lrlr"))
    a = SetPartition.from_blocks(4, [[1, 3], [2], [4]])
    b = SetPartition.from_blocks(4, [[2, 4], [1], [3]])
    j = join(a, b, ctx)
    assert is_bnc(j, ctx)
    assert refines(a, j) and refines(b, j)
    # minimal upper bound by brute force
    uppers = [
        p for p in enumerate_bnc(ctx) if refines(a, p) and refines(b, p)
    ]
    best = min(uppers, key=lambda p: (p.num_blocks * -1,))
    assert all(refines(j, u) for u in uppers)
    assert meet(a, a) == a
    assert refines(SetPartition.singletons(4), a)


def test_join_is_least_upper_bound_exhaustive():
    for n in range(0, 5):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            parts = enumerate_bnc(ctx)
            for a in parts:
                for b in parts:
                    j = join(a, b, ctx)
                    assert is_bnc(j, ctx) and refines(a, j) and refines(b, j)
                    for u in parts:
                        if refines(a, u) and refines(b, u):
                            assert refines(j, u)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lattice_laws_random(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    sides = data.draw(st.tuples(*[st.sampled_from("lr")] * n))
    ctx = build_context(ChiMap(tuple(sides)))
    parts = enumerate_bnc(ctx)
    x = data.draw(st.sampled_from(parts))
    y = data.draw(st.sampled_from(parts))
    m = meet(x, y)
    assert is_bnc(m, ctx)
    j = join(x, y, ctx)
    assert meet(x, j) == x  # absorption
    assert join(x, m, ctx) == x
    assert meet(x, x) == x and join(x, x, ctx) == x


def test_mobius_basics():
    ctx2 = build_context(ChiMap.parse("ll"))
    assert mobius(SetPartition.full(2), SetPartition.full(2), ctx2) == 1
    assert mobius(SetPartition.singletons(2), SetPartition.full(2), ctx2) == -1
    for sides in iproduct("lr", repeat=3):
        ctx3 = build_context(ChiMap(sides))
        assert mobius(SetPartition.singletons(3), SetPartition.full(3), ctx3) == 2
    # incomparable arguments give zero
    ctx4 = build_context(ChiMap.parse("llll"))
    a = SetPartition.from_blocks(4, [[1, 2], [3], [4]])
    b = SetPartition.from_blocks(4, [[1], [2], [3, 4]])
    assert mobius(a, b, ctx4) == 0


def test_mobius_signed_catalan_crosscheck():
    # closed form for the bottom-to-top value, used only as a cross-check
    for n in range(1, 7):
        ctx = build_context(ChiMap(("l",) * n))
        val = mobius(SetPartition.singletons(n), SetPartition.full(n), ctx)
        assert val == (-1) ** (n - 1) * catalan(n - 1)


def test_mobius_inversion_small():
    for sides in (("l", "r", "l"), ("r", "r", "l", "l")):
        ctx = build_context(ChiMap(sides))
        parts = enumerate_bnc(ctx)
        for pi in parts:
            for sigma in parts:
                if not refines(pi, sigma):
                    continue
                taus = [t for t in parts if refines(pi, t) and refines(t, sigma)]
                expect = 1 if pi == sigma else 0
                assert sum(mobius(t, sigma, ctx) for t in taus) == expect
                assert sum(mobius(pi, t, ctx) for t in taus) == expect


def _rgs_refines(fine, coarse):
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(fine, coarse))


def _recursive_mobius(nc):
    """mu on NC(n) by the defining recursion: mu(p, p) = 1 and
    mu(p, s) = -(sum of mu(p, t) over p <= t < s)."""
    below = {s: [t for t in nc if t != s and _rgs_refines(t, s)] for s in nc}
    finest_first = sorted(nc, key=lambda r: -len(set(r)))
    mu = {}
    for p in nc:
        for s in finest_first:
            if s == p:
                mu[p, s] = 1
            elif _rgs_refines(p, s):
                mu[p, s] = -sum(mu[p, t] for t in below[s] if (p, t) in mu)
    return mu


def test_closed_form_mobius_matches_recursion():
    # all-l colouring: s_chi is the identity, so the lattice is NC(n)
    pairs = 0
    for n in range(0, 8):
        ctx = build_context(ChiMap(("l",) * n))
        nc = [p.rgs for p in enumerate_bnc(ctx)]
        for (p, s), val in _recursive_mobius(nc).items():
            assert mobius_fast(SetPartition(p), SetPartition(s), ctx) == val
            pairs += 1
    assert pairs == 9525  # intervals of NC(n): C(3n, n) / (2n + 1), 7752 at n = 7


def test_interval_below_matches_lattice_filter():
    for n in range(0, 6):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            parts = enumerate_bnc(ctx)
            for sigma in parts:
                expect = [
                    (pi.rgs, mobius_fast(pi, sigma, ctx))
                    for pi in parts
                    if refines(pi, sigma)
                ]
                assert sorted(interval_below(sigma, ctx)) == expect


def _nc_row_by_canonical_labels(n: int, t: int):
    """The reference construction of row t of the NC(n) kernel: each pick
    of one non-crossing partition per block of sigma labelled block by
    block, canonicalised to an rgs, and looked up."""
    index = {rgs: u for u, rgs in enumerate(_noncrossing_partitions(n))}
    s = _noncrossing_partitions(n)[t]
    blocks = [[u for u, c in enumerate(s) if c == w] for w in range(len(set(s)))]
    pairs = []
    for pick in iproduct(*(_noncrossing_partitions(len(blk)) for blk in blocks)):
        labels = [0] * n
        mu = 1
        for w, (blk, tau) in enumerate(zip(blocks, pick)):
            mu *= _mu_to_top(tau)
            for u, b in zip(blk, tau):
                labels[u] = w * n + b
        pairs.append((index[_canonical_rgs(labels)], mu))
    pairs.sort()
    return [u for u, _ in pairs], [mu for _, mu in pairs]


def test_nc_rows_match_canonical_label_construction():
    for n in range(0, 8):
        for t in range(len(_noncrossing_partitions(n))):
            below, mus = nc_row(n, t)
            assert below.typecode == "H" and mus.typecode == "q"
            assert (list(below), list(mus)) == _nc_row_by_canonical_labels(n, t), (n, t)


def test_lr_replacement_examples():
    f = lr_replacement(ChiMap.parse("lbrb"))
    assert str(f.chi) == "llrrlr"
    assert f.f == (1, 2, 4, 5)
    assert f.bottom.pretty() == "{1},{2,3},{4},{5,6}"
    plain = lr_replacement(ChiMap("lr", three_letter=True))
    assert str(plain.chi) == "lr"
    assert plain.bottom == SetPartition.singletons(2)
    single = lr_replacement(ChiMap.parse("b"))
    assert str(single.chi) == "lr"
    assert single.bottom == SetPartition.full(2)


def test_bnc_ffb_examples():
    fctx = lr_replacement(ChiMap.parse("rbl"))
    parts = enumerate_bnc_ffb(fctx)
    assert len(parts) == 4
    assert {p.pretty() for p in parts} == {
        "{1},{2,3},{4}",
        "{1,2,3},{4}",
        "{1},{2,3,4}",
        "{1,2,3,4}",
    }
    # no boolean slots: the whole lattice
    plain = lr_replacement(ChiMap("rl", three_letter=True))
    assert len(enumerate_bnc_ffb(plain)) == catalan(2)
    # two boolean slots: interval above the paired bottom; only the
    # bottom itself and the full block keep both pairs together
    bb = lr_replacement(ChiMap.parse("bb"))
    parts = enumerate_bnc_ffb(bb)
    assert len(parts) == 2
    ctx = build_context(bb.chi)
    for p in enumerate_bnc(ctx):
        assert keeps_boolean_pairs(p.rgs, bb) == refines(bb.bottom, p)


def test_bnc_ffb_is_interval():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        sides = tuple(rng.choice("lrb") for _ in range(n))
        fctx = lr_replacement(ChiMap(sides, three_letter=True))
        if fctx.n > 8:
            continue
        ctx = build_context(fctx.chi)
        members = enumerate_bnc_ffb(fctx)
        interval = [
            p for p in enumerate_bnc(ctx)
            if refines(fctx.bottom, p) and refines(p, SetPartition.full(fctx.n))
        ]
        assert members == interval
        # the order-based rule against the pair definition
        assert members == [
            p for p in enumerate_bnc(ctx) if keeps_boolean_pairs(p.rgs, fctx)
        ]


def test_colour_classes_partition():
    eps = EpsilonMap((2, 7, 2, 7))
    assert eps.as_partition().pretty() == "{1,3},{2,4}"


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=7))
def test_noncrossing_test_agrees_with_definition(labels):
    # canonicalize into an rgs first
    order = {}
    rgs = tuple(order.setdefault(b, len(order)) for b in labels)
    got = is_noncrossing_rgs(rgs)
    crossing = False
    n = len(rgs)
    for a1 in range(n):
        for b1 in range(a1 + 1, n):
            for a2 in range(b1 + 1, n):
                for b2 in range(a2 + 1, n):
                    if (
                        rgs[a1] == rgs[a2]
                        and rgs[b1] == rgs[b2]
                        and rgs[a1] != rgs[b1]
                    ):
                        crossing = True
    assert got == (not crossing)


def test_restricted_mobius_inversion_on_sublattice():
    # the incidence inverse restricted to the boolean-pair interval
    # satisfies the same two sum identities there
    for text in ("rbl", "bb", "lbr", "brb"):
        fctx = lr_replacement(ChiMap.parse(text))
        ctx = build_context(fctx.chi)
        members = enumerate_bnc_ffb(fctx)
        for pi in members:
            for sigma in members:
                if not refines(pi, sigma):
                    continue
                taus = [
                    t for t in members if refines(pi, t) and refines(t, sigma)
                ]
                expect = 1 if pi == sigma else 0
                assert sum(mobius(t, sigma, ctx) for t in taus) == expect
                assert sum(mobius(pi, t, ctx) for t in taus) == expect


def test_cap_override_via_environment(monkeypatch):
    monkeypatch.setenv("BNC_ENGINE_CAP", "11")
    ctx = build_context(ChiMap(("l",) * 11))
    assert len(enumerate_bnc(ctx)) == catalan(11)
