from __future__ import annotations

import itertools
import random
import sys

import pytest

from slamlog.classify import Caps, classify
from slamlog.fixtures import (
    b_n,
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
        assert (None if got is None else got.sets) == want
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


def test_search_does_not_branch_on_isolated_elements(monkeypatch):
    # K4 -> K3 fails after 9 propagations.  Branching on each of i isolated
    # vertices numbered before it repeated that search per assignment:
    # 93, 849, 7,653 and 68,889 propagations for i = 2, 4, 6, 8.
    calls = []
    propagate = HomSearcher._propagate_from

    def counting(*args):
        calls.append(None)
        return propagate(*args)
    monkeypatch.setattr(HomSearcher, "_propagate_from",
                        staticmethod(counting))
    k3 = make_structure("K3", (("E", 2),), 3, {"E": _complete(3)})
    for i in range(0, 9, 2):
        calls.clear()
        a = make_structure("A", (("E", 2),), i + 4, {"E": _complete(4, i)})
        assert find_homomorphism(a, k3) is None
        assert len(calls) == 9 + i
    # where the rest is satisfiable, every value of an isolated vertex is
    # still enumerated, in lexicographic order
    a = make_structure("A", (("E", 2),), 6, {"E": {(1, 2), (2, 4), (4, 1)}})
    assert list(enumerate_homomorphisms(a, k3)) == [
        h for h in itertools.product(range(3), repeat=6)
        if is_homomorphism(a, k3, h)]


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


def test_enumerate_homomorphisms_matches_brute_force_count():
    rng = random.Random(5)
    for _ in range(60):
        a = _random_digraph(rng, max_size=3)
        b = _random_digraph(rng, max_size=3)
        got = sorted(enumerate_homomorphisms(a, b))
        want = sorted(
            h for h in itertools.product(range(b.size), repeat=a.size)
            if is_homomorphism(a, b, h)
        )
        assert [tuple(h) for h in got] == want


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
            assert all(hom[v] in sets.sets[v] for v in range(a.size))
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
