from __future__ import annotations

import itertools
import random
import sys

import pytest

from slamlog.classify import Caps, classify
from slamlog.fixtures import (
    b_n,
    digraph,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
    weak_rules_template,
)
from slamlog.homsolver import (
    HomSearcher,
    SignatureMismatch,
    WitnessError,
    _neighbour_masks,
    _scan_support,
    _support,
    arc_consistency,
    core_of,
    enumerate_homomorphisms,
    find_homomorphism,
    find_isomorphism,
    hom_equivalent,
    is_core,
    is_homomorphism,
    is_isomorphic,
)
from slamlog.polymorph import absorptive_check
from slamlog.structures import make_structure


def _random_digraph(rng, max_size=4):
    n = rng.randrange(1, max_size + 1)
    pool = list(itertools.product(range(n), repeat=2))
    edges = set(rng.sample(pool, rng.randrange(len(pool) + 1)))
    return make_structure("A", (("E", 2),), n, {"E": edges})


def _brute_force_hom(a, b):
    """The lexicographically smallest homomorphism, or None."""
    for h in itertools.product(range(b.size), repeat=a.size):
        if is_homomorphism(a, b, h):
            return h
    return None


def test_find_homomorphism_agrees_with_brute_force():
    rng = random.Random(3)
    hits = 0
    for _ in range(120):
        a = _random_digraph(rng)
        b = _random_digraph(rng, max_size=3)
        got = find_homomorphism(a, b)
        want = _brute_force_hom(a, b)
        assert got == want
        if got is not None:
            assert is_homomorphism(a, b, got)
            hits += 1
    assert hits > 20


def _brute_force_ac(a, b):
    """Greatest arc-consistent candidate sets by the definition: keep a value
    at a position of a tuple while some target tuple inside the candidate
    sets takes it there.  None on wipeout."""
    if a.size and not b.size:
        return None
    sets = [frozenset(range(b.size))] * a.size
    changed = True
    while changed:
        changed = False
        for rel_a, rel_b in zip(a.relations, b.relations):
            for t in rel_a:
                inside = [u for u in rel_b
                          if all(u[j] in sets[e] for j, e in enumerate(t))]
                for j, e in enumerate(t):
                    kept = sets[e] & {u[j] for u in inside}
                    if kept != sets[e]:
                        if not kept:
                            return None
                        sets[e] = kept
                        changed = True
    return tuple(sets)


def _random_structure(rng, signature, size, density):
    return make_structure("A", signature, size, {
        name: {t for t in itertools.product(range(size), repeat=arity)
               if rng.random() < density}
        for name, arity in signature})


def test_mask_revision_equals_the_row_scan():
    # A loop atom (e, e) is not pruned to the diagonal: the edge 0 -> 1
    # supports 0 at its first position and 1 at its second.
    assert _support((0, 0), _neighbour_masks({(0, 1)}, 2), [0b11]) == \
        [0b01, 0b10]
    rng = random.Random(31)
    atoms = [(0, 1), (1, 0), (1, 2), (0, 0), (2, 2)]
    for size in (1, 2, 7, 9, 17):
        full = (1 << size) - 1
        pool = list(itertools.product(range(size), repeat=2))
        relations = [set(), set(pool)] + [
            set(rng.sample(pool, rng.randrange(len(pool) + 1)))
            for _ in range(8)]
        for rel in relations:
            masks, rows = _neighbour_masks(rel, size), sorted(rel)
            for _ in range(30):
                cand = [rng.choice((0, full, rng.randrange(full + 1)))
                        for _ in range(3)]
                for t in atoms:
                    assert _support(t, masks, cand) == \
                        _scan_support(t, rows, cand), (size, rel, cand, t)


@pytest.mark.parametrize("signature", [
    (("E", 2),),
    (("E", 2), ("R", 3), ("U", 1)),
])
def test_search_and_arc_consistency_match_brute_force_on_larger_targets(
        signature):
    rng = random.Random(37)
    hits = 0
    for _ in range(30):
        b = _random_structure(rng, signature, rng.randrange(9, 12),
                              rng.choice((0.05, 0.15, 0.3)))
        a = _random_structure(rng, signature, rng.randrange(1, 5),
                              rng.choice((0.2, 0.4)))
        got = arc_consistency(a, b)
        want = _brute_force_ac(a, b)
        assert got == want
        homs = list(enumerate_homomorphisms(a, b))
        assert homs == [
            h for h in itertools.product(range(b.size), repeat=a.size)
            if is_homomorphism(a, b, h)]
        assert find_homomorphism(a, b) == (homs[0] if homs else None)
        hits += bool(homs)
    assert 5 < hits < 30


def test_find_on_wide_instance_needs_no_recursion():
    # 2,000 disjoint edges: one branching decision per edge, twice the
    # default recursion limit.
    limit = sys.getrecursionlimit()
    count = 2000
    rng = random.Random(21)
    perm = list(range(2 * count))
    rng.shuffle(perm)
    a = make_structure("A", (("E", 2),), 2 * count, {
        "E": {(perm[2 * i], perm[2 * i + 1]) for i in range(count)}})
    c3 = directed_cycle(3)
    h = find_homomorphism(a, c3)
    assert h is not None and is_homomorphism(a, c3, h)
    assert sys.getrecursionlimit() == limit


def _complete(n, shift=0):
    return {(u + shift, v + shift)
            for u in range(n) for v in range(n) if u != v}


def test_search_does_not_branch_on_isolated_elements(propagations):
    # K4 -> K3 fails after 9 propagations.  `find` gives each of i isolated
    # vertices numbered before it its least value without a propagation,
    # and `enumerate` tries one value of each before it backjumps past them;
    # branching on them repeated the search per assignment: 93, 849, 7,653
    # and 68,889 propagations for i = 2, 4, 6, 8.
    k3 = make_structure("K3", (("E", 2),), 3, {"E": _complete(3)})
    for i in range(0, 9, 2):
        a = make_structure("A", (("E", 2),), i + 4, {"E": _complete(4, i)})
        propagations.clear()
        assert find_homomorphism(a, k3) is None
        assert len(propagations) == 9
        propagations.clear()
        assert list(enumerate_homomorphisms(a, k3)) == []
        assert len(propagations) == 9 + i
    # where the rest is satisfiable, every value of an isolated vertex is
    # still enumerated, in lexicographic order
    a = make_structure("A", (("E", 2),), 6, {"E": {(1, 2), (2, 4), (4, 1)}})
    assert list(enumerate_homomorphisms(a, k3)) == [
        h for h in itertools.product(range(3), repeat=6)
        if is_homomorphism(a, k3, h)]


def test_search_backjumps_past_other_components(propagations):
    # K4 -> K3 after i disjoint edges numbered first: each edge branches
    # twice, then the failing K4 jumps back past every edge frame.
    # Re-exploring K4 per assignment of the edges took 63, 387, 2,331,
    # 13,995 and 83,979 propagations for i = 1..5.
    k3 = make_structure("K3", (("E", 2),), 3, {"E": _complete(3)})
    for i in range(6):
        edges = {(2 * j, 2 * j + 1) for j in range(i)}
        a = make_structure("A", (("E", 2),), 2 * i + 4,
                           {"E": edges | _complete(4, 2 * i)})
        propagations.clear()
        assert find_homomorphism(a, k3) is None
        assert len(propagations) == 9 + 2 * i


def test_absorptive_check_on_a_disconnected_indicator_ends_at_once(
        propagations):
    # The set systems this check maps are mostly in no tuple, plus a few
    # small pieces; before the backjump the search took 19 propagations,
    # and before the isolated-element rule over 20 s.
    b = make_structure("B", (("U", 1), ("R", 3)), 4,
                       {"U": set(), "R": {(2, 3, 0), (3, 2, 3)}})
    assert absorptive_check(b, 12, 18, stream_cap=2**12).status == "no"
    assert len(propagations) <= 2


def test_find_rejects_a_wrong_witness(monkeypatch):
    monkeypatch.setattr(HomSearcher, "enumerate",
                        lambda self, a, limit=None: iter([(0,) * a.size]))
    with pytest.raises(WitnessError):
        find_homomorphism(path(3), path(3))


def test_weak_rules_sweep_ends_inconclusive_at_its_cap():
    # At (k0, n0) = (12, 40) WeakRules has more than 2^14 set systems, so
    # the exact check raises at the stream cap.  Every fallback pair up to
    # (2, 3) fits under the cap and passes, which refutes nothing and
    # proves nothing.
    caps = Caps(stream_cap=2 ** 14, max_k=2, max_n=3)
    report = classify(weak_rules_template(), caps)
    assert report.verdicts["caterpillar_lam"].value == "inconclusive"
    assert report.verdicts["slam"].value == "inconclusive"
    cap = report.witnesses["caterpillar_lam"]
    assert cap["kind"] == "cap"
    assert sorted(map(tuple, cap["checked"] + cap["skipped"])) == [
        (k, n) for k in (1, 2) for n in (1, 2, 3)]


_SIGNATURE = (("U", 1), ("E", 2), ("R", 3))


def _part(rng, size, density):
    return _random_structure(rng, _SIGNATURE, size, density)


def _disjoint_union(parts, order):
    """The disjoint union of `parts`, the elements of part i numbered as
    order[offset_i + e]."""
    rels, offset = {name: set() for name, _ in _SIGNATURE}, 0
    for p in parts:
        for (name, _), rel in zip(_SIGNATURE, p.relations):
            rels[name] |= {tuple(order[offset + e] for e in t) for t in rel}
        offset += p.size
    return make_structure("A", _SIGNATURE, offset, rels)


def _multi_component_source(rng, b):
    """A source of a few parts with atoms, some atom-free elements, and
    often a part with no homomorphism to b numbered first or last; the
    other elements are interleaved between parts half of the time."""
    parts = [_part(rng, rng.randrange(1, 3), rng.choice((0.2, 0.4)))
             for _ in range(rng.randrange(1, 3))]
    parts += [_part(rng, 1, 0.0) for _ in range(rng.randrange(3))]
    size = sum(p.size for p in parts)
    order = list(range(size))
    if rng.random() < 0.5:
        rng.shuffle(order)
    where = rng.choice(("first", "last", None))
    if where is not None:
        for _ in range(20):
            bad = _part(rng, rng.randrange(1, 3), 0.5)
            if _brute_force_hom(bad, b) is None:
                if where == "first":
                    parts.insert(0, bad)
                    order = list(range(bad.size)) + [
                        bad.size + e for e in order]
                else:
                    parts.append(bad)
                    order += range(size, size + bad.size)
                break
    return _disjoint_union(parts, order)


def _homs_in_order(a, b):
    return [h for h in itertools.product(range(b.size), repeat=a.size)
            if is_homomorphism(a, b, h)]


def test_enumerate_homomorphisms_matches_brute_force_count():
    rng = random.Random(5)
    for _ in range(60):
        a = _random_digraph(rng, max_size=3)
        b = _random_digraph(rng, max_size=3)
        assert list(enumerate_homomorphisms(a, b)) == _homs_in_order(a, b)
    # The component {0, 2, 4, 5} fails under 0 = 1 only once 2 branches,
    # with the frame of 1 (edge (1, 3)) between them: the backjump must stop
    # at 0's frame, whose value 2 gives every homomorphism.  Random sources
    # this small rarely need that.
    a = digraph(6, [(0, 5), (2, 4), (5, 2), (5, 4), (1, 3)])
    b = digraph(3, [(0, 2), (1, 0), (1, 2), (2, 1)])
    assert list(enumerate_homomorphisms(a, b)) == _homs_in_order(a, b) != []
    # Sources of several components, against U/1, E/2 and R/3 together:
    # full enumeration, `limit=2` and `find` keep lexicographic order.
    rng = random.Random(18)
    kinds = {"none": 0, "one": 0, "several": 0}
    for _ in range(300):
        b = _part(rng, rng.randrange(1, 4), rng.choice((0.3, 0.6)))
        a = _multi_component_source(rng, b)
        want = _homs_in_order(a, b)
        assert list(enumerate_homomorphisms(a, b)) == want
        assert list(enumerate_homomorphisms(a, b, limit=2)) == want[:2]
        assert find_homomorphism(a, b) == (want[0] if want else None)
        kinds[("none", "one", "several")[min(len(want), 2)]] += 1
    assert min(kinds.values()) > 15, kinds


def test_path_into_longer_path_counts():
    assert len(list(enumerate_homomorphisms(path(2), path(3)))) == 2
    assert len(list(enumerate_homomorphisms(directed_cycle(3),
                                            directed_cycle(3)))) == 3


def test_arc_consistency_sound_and_incomplete():
    rng = random.Random(9)
    for _ in range(120):
        a = _random_digraph(rng)
        b = _random_digraph(rng, max_size=3)
        sets = arc_consistency(a, b)
        hom = find_homomorphism(a, b)
        if hom is not None:
            assert sets is not None
            assert all(hom[v] in sets[v] for v in range(a.size))
    # the 2-cycle passes arc consistency against the 3-cycle but has no map
    c2, c3 = directed_cycle(2), directed_cycle(3)
    assert arc_consistency(c2, c3) is not None
    assert find_homomorphism(c2, c3) is None


def test_core_fixture_values():
    assert is_core(path(3))
    assert is_core(transitive_tournament(3))
    assert is_core(directed_cycle(3))
    union = make_structure(
        "A", (("E", 2),), 5, {"E": {(0, 1), (2, 3), (3, 4)}}
    )
    assert not is_core(union)
    core, retract = core_of(union)
    assert core.size == 3
    assert is_isomorphic(core, path(3))
    assert is_homomorphism(union, core, retract)


def test_core_of_properties_random():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_digraph(rng)
        c, retract = core_of(a)
        assert is_core(c)
        assert hom_equivalent(a, c)
        assert c.size <= a.size
        assert is_homomorphism(a, c, retract)
        assert set(retract) == set(range(c.size))
        assert is_isomorphic(core_of(c)[0], c)


def test_isomorphism_on_shuffled_copy():
    rng = random.Random(17)
    for _ in range(40):
        a = _random_digraph(rng)
        perm = list(range(a.size))
        rng.shuffle(perm)
        shuffled = make_structure(
            "A", (("E", 2),), a.size,
            {"E": {(perm[u], perm[v]) for u, v in a.rel("E")}},
        )
        iso = find_isomorphism(a, shuffled)
        assert iso is not None
        assert set(iso) == set(range(a.size))
        assert is_homomorphism(a, shuffled, iso)


def test_isomorphism_rejects_different_edge_counts():
    a = make_structure("A", (("E", 2),), 2, {"E": {(0, 1)}})
    b = make_structure("B", (("E", 2),), 2, {"E": {(0, 1), (1, 0)}})
    assert find_isomorphism(a, b) is None
    assert not is_isomorphic(a, b)


def test_signature_mismatch_raises():
    a = make_structure("A", (("E", 2),), 2, {"E": {(0, 1)}})
    with pytest.raises(SignatureMismatch):
        find_homomorphism(a, st_con())


def test_fixture_templates_are_cores():
    for b in (path(2), transitive_tournament(3), b_n(2), st_con(),
              horn_sat()):
        assert is_core(b)
