import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnc_engine.diagrams import (
    DiagramFamily,
    LRDiagram,
    SuffixMismatch,
    chi_extensions,
    enumerate_lr,
    filter_boolean,
    lateral_closure,
    lr_k,
    make_diagram,
    single_cuts,
)
from bnc_engine.partitions import CapExceeded, ChiMap, EpsilonMap, is_bnc, build_context
from oracles import restrict, to_partition

CHI = ChiMap.parse("lrl")
EPS = EpsilonMap((1, 1, 2))


def family():
    return enumerate_lr(CHI, EPS)


def test_empty_and_single_node_families():
    empty = enumerate_lr(ChiMap(()), EpsilonMap(()))
    assert len(empty) == 1
    one = enumerate_lr(ChiMap.parse("l"), EpsilonMap((1,)))
    assert len(one) == 2
    tops = sorted(d.top_count() for d in one.diagrams)
    assert tops == [0, 1]


def test_worked_example_family_of_eight():
    fam = family()
    assert len(fam) == 8
    keys = {(d.strings, d.spine_order) for d in fam.diagrams}
    # the complete collection, up to relabelling of the construction
    expected = {
        ((((1,), False), ((2,), False), ((3,), False)), ()),
        ((((1,), True), ((2,), False), ((3,), False)), ((1,),)),
        ((((1, 2), False), ((3,), False)), ()),
        ((((1, 2), True), ((3,), False)), ((1, 2),)),
        ((((1,), False), ((2,), False), ((3,), True)), ((3,),)),
        ((((1,), True), ((2,), False), ((3,), True)), ((1,), (3,))),
        ((((1,), False), ((2,), True), ((3,), True)), ((3,), (2,))),
        ((((1,), True), ((2,), True), ((3,), True)), ((1,), (3,), (2,))),
    }
    assert keys == expected


def test_family_size_doubles_with_each_node():
    rng = random.Random(3)
    for n in range(0, 6):
        sides = tuple(rng.choice("lr") for _ in range(n))
        cols = tuple(rng.choice([1, 2]) for _ in range(n))
        fam = enumerate_lr(ChiMap(sides), EpsilonMap(cols))
        assert len(fam) == 2 ** n


def test_lr_k_filters():
    fam = family()
    lr0 = lr_k(fam, 0)
    assert {to_partition(d).pretty() for d in lr0.diagrams} == {
        "{1},{2},{3}",
        "{1,2},{3}",
    }
    assert len(lr_k(fam, 1)) == 3
    assert len(lr_k(fam, 5)) == 0


def test_string_free_diagrams_are_bnc():
    for d in lr_k(family(), 0).diagrams:
        assert is_bnc(to_partition(d), build_context(CHI))


def test_lr0_blocks_are_monochromatic():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 5)
        sides = tuple(rng.choice("lr") for _ in range(n))
        cols = tuple(rng.choice([1, 2]) for _ in range(n))
        eps = EpsilonMap(cols)
        for d in lr_k(enumerate_lr(ChiMap(sides), eps), 0).diagrams:
            for nodes, _ in d.strings:
                assert len({eps.colour(i) for i in nodes}) == 1


def test_cut_rule_examples():
    # string through {1,2} with no top spine: one admissible cut
    d = make_diagram(
        ChiMap.parse("ll"), EpsilonMap((1, 1)), [((1, 2), False)], []
    )
    cuts = list(single_cuts(d))
    assert len(cuts) == 1
    assert cuts[0][0].strings == (((1,), False), ((2,), False))
    # the top-spined variant keeps the flag on the upper part
    fam = family()
    e4 = next(
        d for d in fam.diagrams if d.strings == (((1, 2), True), ((3,), False))
    )
    cuts = [c for c, _ in single_cuts(e4)]
    assert len(cuts) == 1
    assert cuts[0].strings == (((1,), True), ((2,), False), ((3,), False))
    assert cuts[0].spine_order == ((1,),)


def test_lateral_closure_properties():
    fam = family()
    lat = lateral_closure(fam)
    assert fam.keys() <= lat.keys()
    assert lateral_closure(lat).keys() == lat.keys()  # idempotent
    # string-free diagrams are unchanged
    frozen = lr_k(fam, 0)
    assert lateral_closure(frozen).keys() >= frozen.keys()
    # monotone
    sub = fam.with_diagrams(fam.diagrams[:3])
    assert lateral_closure(sub).keys() <= lat.keys()


def is_realizable(d: LRDiagram) -> bool:
    """Membership in the lateral closure of the plain family."""
    lat = lateral_closure(enumerate_lr(d.chi, d.eps))
    return d.key() in lat.keys()


def test_closure_members_realizable():
    for sides in iproduct("lr", repeat=4):
        for cols in iproduct([1, 2], repeat=4):
            lat = lateral_closure(enumerate_lr(ChiMap(sides), EpsilonMap(cols)))
            sample = lat.diagrams[:: max(1, len(lat) // 6)]
            for d in sample:
                assert is_realizable(d)


def test_filter_boolean_splits_family():
    lat = lateral_closure(family())
    kept, removed = filter_boolean(lat, 2)
    assert kept.keys() | removed.keys() == lat.keys()
    assert not (kept.keys() & removed.keys())
    for d in kept.diagrams:
        shades = d.top_shades()
        assert shades == () or shades == (2,)
    # orange top spine on node 1 is removed at colour 2
    e2 = make_diagram(
        CHI, EPS, [((1,), True), ((2,), False), ((3,), False)], [(1,)]
    )
    assert e2.key() in removed.keys()
    # a synthetic diagram with two same-colour top strings is removed
    chi2 = ChiMap.parse("ll")
    eps2 = EpsilonMap((2, 2))
    twin = make_diagram(chi2, eps2, [((1,), True), ((2,), True)], [(1,), (2,)])
    fam2 = DiagramFamily(chi2, eps2, (twin,), "lateral")
    kept2, removed2 = filter_boolean(fam2, 2)
    assert len(kept2) == 0 and len(removed2) == 1


def test_restriction_is_identity_at_one():
    lat = lateral_closure(family())
    for d in lat.diagrams:
        assert restrict(d, 1).key() == d.key()
        assert restrict(d, d.n + 1).n == 0


def test_restriction_of_plain_members_is_plain():
    for sides in iproduct("lr", repeat=4):
        cols = (1, 2, 1, 2)
        chi, eps = ChiMap(sides), EpsilonMap(cols)
        plain = enumerate_lr(chi, eps)
        for i in range(1, 6):
            sub = enumerate_lr(ChiMap(sides[i - 1:]), EpsilonMap(cols[i - 1:]))
            for d in plain.diagrams:
                assert restrict(d, i).key() in sub.keys()


def test_extension_identity_and_composition():
    fam = lateral_closure(family())
    assert chi_extensions(fam, CHI, EPS).keys() == fam.keys()
    sub = lateral_closure(enumerate_lr(ChiMap.parse("l"), EpsilonMap((2,))))
    two = chi_extensions(sub, ChiMap.parse("rl"), EpsilonMap((1, 2)))
    assert chi_extensions(two, CHI, EPS).keys() == chi_extensions(sub, CHI, EPS).keys()
    empty_fam = lateral_closure(enumerate_lr(ChiMap(()), EpsilonMap(())))
    assert chi_extensions(empty_fam, CHI, EPS).keys() == fam.keys()


def test_extensions_cut_only_above_the_suffix():
    # an extension follows from a seed by cuts whose upper rib lies above
    # the suffix start, so it groups the suffix's nodes as the seed's
    # restriction does; one-diagram families are not cut-closed, so a
    # cut inside the suffix would show
    for sides, cols in (("lrlr", (1, 2, 1, 2)), ("llrl", (1, 1, 1, 1))):
        chi, eps = ChiMap.parse(sides), EpsilonMap(cols)
        for i in (2, 3, 4):
            sub = lateral_closure(
                enumerate_lr(ChiMap.parse(sides[i - 1 :]), EpsilonMap(cols[i - 1 :]))
            )
            for d in sub.diagrams:
                ext = chi_extensions(sub.with_diagrams([d]), chi, eps)
                assert ext.diagrams
                for e in ext.diagrams:
                    assert [s for s, _ in restrict(e, i).strings] == [
                        s for s, _ in d.strings
                    ]


def test_extensions_match_restrictions_by_spine_order():
    """A full-closure diagram seeds a suffix family's extensions when its
    restriction is a member, spine order included: each member's
    extensions hold every diagram whose restriction is that member, and
    a member with its top strings listed in reverse, which no
    restriction gives, has no extensions."""
    reversed_members = 0
    for sides, cols in (("lrlr", (1, 2, 1, 2)), ("rllr", (2, 1, 2, 1))):
        chi, eps = ChiMap.parse(sides), EpsilonMap(cols)
        full = lateral_closure(enumerate_lr(chi, eps))
        for i in (2, 3):
            sub = lateral_closure(
                enumerate_lr(ChiMap.parse(sides[i - 1 :]), EpsilonMap(cols[i - 1 :]))
            )
            for d in sub.diagrams:
                ext = chi_extensions(sub.with_diagrams([d]), chi, eps).keys()
                seeds = {e.key() for e in full.diagrams if restrict(e, i) == d}
                assert seeds and seeds <= ext
                if d.top_count() < 2:
                    continue
                swapped = sub.with_diagrams(
                    [make_diagram(d.chi, d.eps, d.strings, d.spine_order[::-1])]
                )
                assert not swapped.keys() & sub.keys()
                assert not chi_extensions(swapped, chi, eps).diagrams
                reversed_members += 1
    assert reversed_members


def test_extension_suffix_mismatch():
    sub = lateral_closure(enumerate_lr(ChiMap.parse("r"), EpsilonMap((2,))))
    with pytest.raises(SuffixMismatch):
        chi_extensions(sub, CHI, EPS)


def test_diagram_json_roundtrip():
    for d in lateral_closure(family()).diagrams:
        assert LRDiagram.from_json(d.to_json()).key() == d.key()


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_lr(ChiMap(("l",) * 9), EpsilonMap((1,) * 9))


def test_chi_extensions_reuses_the_closure_and_checks_the_cap(monkeypatch):
    """chi_extensions keeps the word's full lateral closure in an LRU of
    16: a second call reads the kept closure and gives the same family,
    and the diagram cap is checked on every call, hit or miss."""
    chi, eps = ChiMap.parse("lrlr"), EpsilonMap((1, 2, 1, 2))
    sub = lateral_closure(enumerate_lr(ChiMap.parse("lr"), EpsilonMap((1, 2))))
    closures = []
    real = lateral_closure

    def counting(fam):
        closures.append(fam.chi)
        return real(fam)

    monkeypatch.setattr("bnc_engine.diagrams.lateral_closure", counting)
    chi_extensions(sub, chi, eps)  # may be kept from an earlier test
    closures.clear()
    first = chi_extensions(sub, chi, eps)
    assert chi_extensions(sub, chi, eps) == first
    assert closures == []
    monkeypatch.setenv("BNC_ENGINE_CAP", "3")
    with pytest.raises(CapExceeded):
        chi_extensions(sub, chi, eps)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closure_against_cut_reachability(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    sides = tuple(data.draw(st.sampled_from("lr")) for _ in range(n))
    cols = tuple(data.draw(st.sampled_from([1, 2])) for _ in range(n))
    fam = enumerate_lr(ChiMap(sides), EpsilonMap(cols))
    lat = lateral_closure(fam)
    # every closure member is reachable by cuts from a plain member
    reached = set(fam.keys())
    frontier = list(fam.diagrams)
    while frontier:
        d = frontier.pop()
        for cut, _ in single_cuts(d):
            if cut.key() not in reached:
                reached.add(cut.key())
                frontier.append(cut)
    assert reached == lat.keys()
