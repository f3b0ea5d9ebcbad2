from __future__ import annotations

import itertools
import random

import pytest

from slamlog.fixtures import (
    b_n,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
)
from slamlog.homsolver import WitnessError, is_homomorphism
from slamlog.polymorph import (
    CapExceeded,
    ConditionFormatError,
    OperationTable,
    absorptive_check,
    block_symmetric_absorptive,
    brute_force_search,
    condition_pairs,
    explicit_condition,
    find_polymorphism_satisfying,
    indicator_structure,
    lattice_polymorphisms,
    parse_condition,
    quasi_majority,
    quasi_maltsev,
    quasi_minority,
    render_condition,
    totally_symmetric,
    totally_symmetric_check,
)
from slamlog.polymorph import (
    _enumerate_antichains,
    _power_codes,
    _tuple_code,
)
from slamlog.structures import make_structure


def _two_element_templates():
    """All templates with one binary and one unary relation on {0, 1}."""
    pairs = list(itertools.product(range(2), repeat=2))
    singles = [(0,), (1,)]
    out = []
    for emask in range(16):
        edges = {pairs[i] for i in range(4) if emask >> i & 1}
        for umask in range(4):
            unary = {singles[i] for i in range(2) if umask >> i & 1}
            out.append(make_structure(
                "B", (("E", 2), ("U", 1)), 2, {"E": edges, "U": unary}
            ))
    return out


def _satisfies_literally(table, pairs):
    return all(table.apply(l) == table.apply(r) for l, r in pairs)


# --- conditions ----------------------------------------------------------------

def test_condition_render_parse_round_trip():
    conds = [
        quasi_maltsev(),
        quasi_majority(),
        quasi_minority(),
        totally_symmetric(3),
        block_symmetric_absorptive(2, 3),
        explicit_condition(2, [(("x", "y"), ("y", "x"))]),
    ]
    for c in conds:
        assert parse_condition(render_condition(c)) == c


def test_parse_condition_rejects_garbage():
    with pytest.raises(ConditionFormatError):
        parse_condition("cond no-such-thing")
    with pytest.raises(ConditionFormatError):
        parse_condition("nonsense")


def test_quasi_maltsev_pairs_are_the_textbook_identities():
    got = set(condition_pairs(quasi_maltsev(), 2))
    want = set()
    for x in range(2):
        for y in range(2):
            want.add(((x, x, y), (y, x, x)))
            want.add(((y, x, x), (y, y, y)))
    assert got == want


def test_known_tables_against_the_ternary_conditions():
    # ternary xor is quasi Maltsev but fails the extra minority identity
    # m(x,y,x) = m(x,x,x), which constants satisfy trivially
    xor = OperationTable(3, 2, tuple(
        (a ^ b ^ c) for a, b, c in itertools.product(range(2), repeat=3)
    ))
    assert _satisfies_literally(xor, condition_pairs(quasi_maltsev(), 2))
    assert not _satisfies_literally(xor, condition_pairs(quasi_minority(), 2))
    const = OperationTable(3, 2, (0,) * 8)
    assert _satisfies_literally(const, condition_pairs(quasi_minority(), 2))
    maj = OperationTable(3, 2, tuple(
        1 if a + b + c >= 2 else 0
        for a, b, c in itertools.product(range(2), repeat=3)
    ))
    assert _satisfies_literally(maj, condition_pairs(quasi_majority(), 2))
    assert not _satisfies_literally(maj, condition_pairs(quasi_maltsev(), 2))


def test_quasi_minority_pairs_extend_quasi_maltsev():
    qm = set(condition_pairs(quasi_maltsev(), 2))
    qmin = set(condition_pairs(quasi_minority(), 2))
    assert qm < qmin
    assert ((0, 1, 0), (0, 0, 0)) in qmin


# --- indicator structures --------------------------------------------------------

def test_quasi_maltsev_indicator_of_single_edge():
    ind, class_of = indicator_structure(path(2), quasi_maltsev())
    code = lambda t: t[0] * 4 + t[1] * 2 + t[2]
    merged = [
        {(0, 0, 0), (1, 1, 0), (0, 1, 1)},
        {(1, 1, 1), (0, 0, 1), (1, 0, 0)},
        {(0, 1, 0)},
        {(1, 0, 1)},
    ]
    assert ind.size == 4
    for group in merged:
        classes = {class_of[code(t)] for t in group}
        assert len(classes) == 1
    assert len({class_of[code(next(iter(g)))] for g in merged}) == 4
    zero = class_of[code((0, 0, 0))]
    one = class_of[code((1, 1, 1))]
    assert set(ind.rel("E")) == {(zero, one)}


def test_find_polymorphism_witness_is_valid():
    for b, cond in [
        (path(2), quasi_maltsev()),
        (directed_cycle(3), quasi_maltsev()),
        (horn_sat(), totally_symmetric(3)),
    ]:
        table = find_polymorphism_satisfying(b, cond)
        assert table is not None
        assert table.is_polymorphism_of(b)
        assert _satisfies_literally(table, condition_pairs(cond, b.size))


def test_horn_sat_has_no_quasi_majority_or_maltsev():
    hs = horn_sat()
    for cond in (quasi_majority(), quasi_maltsev()):
        assert find_polymorphism_satisfying(hs, cond) is None
        assert brute_force_search(hs, cond) is None


def test_transitive_tournament_has_no_quasi_maltsev():
    t3 = transitive_tournament(3)
    assert find_polymorphism_satisfying(t3, quasi_maltsev()) is None
    assert brute_force_search(t3, quasi_maltsev()) is None


def test_indicator_agrees_with_brute_force_on_two_element_templates():
    rng = random.Random(23)
    templates = _two_element_templates()
    cond = quasi_maltsev()
    for b in rng.sample(templates, 16):
        got = find_polymorphism_satisfying(b, cond)
        want = brute_force_search(b, cond)
        assert (got is None) == (want is None)


# --- lattice and totally symmetric checks ----------------------------------------

def test_lattice_polymorphisms_fixture_values():
    for b in (path(2), path(3), transitive_tournament(3), st_con()):
        pair = lattice_polymorphisms(b)
        assert pair is not None
        meet, join = pair
        assert meet.is_polymorphism_of(b)
        assert join.is_polymorphism_of(b)
        # absorption laws of a lattice over the witnessing order
        for x in range(b.size):
            for y in range(b.size):
                assert meet.apply((x, join.apply((x, y)))) == x
                assert join.apply((x, meet.apply((x, y)))) == x
    assert lattice_polymorphisms(b_n(2)) is None
    assert lattice_polymorphisms(horn_sat()) is None


def test_totally_symmetric_check_fixture_values():
    for b in (path(2), horn_sat(), b_n(2), st_con()):
        r = totally_symmetric_check(b)
        assert r.ok
        assert is_homomorphism(r.power, b, r.hom)
        witness = r.witness_map()
        assert set(witness) == set(r.subsets)
    r = totally_symmetric_check(directed_cycle(3))
    assert not r.ok and r.hom is None and r.witness_map() is None


# --- absorptive machinery ---------------------------------------------------------

def _absorptive_constraint_classes():
    """Value-equality classes of arity-4 tables forced by the (2, 2)
    block-symmetric absorptive identities on {0, 1}, from the definition."""
    tuples = list(itertools.product(range(2), repeat=4))
    parent = {t: t for t in tuples}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        parent[find(a)] = find(b)

    blocks = lambda t: (frozenset(t[0:2]), frozenset(t[2:4]))
    for t, u in itertools.combinations(tuples, 2):
        if set(blocks(t)) == set(blocks(u)):
            union(t, u)
    for t in tuples:
        s1, s2 = blocks(t)
        if s2 <= s1:
            w = tuple(sorted(s2)) if len(s2) == 2 else (min(s2), min(s2))
            union(t, w + w)
    classes = {}
    for t in tuples:
        classes.setdefault(find(t), []).append(t)
    return list(classes.values())


def _absorptive_exists_literal(b):
    classes = _absorptive_constraint_classes()
    for values in itertools.product(range(2), repeat=len(classes)):
        table = {t: v for cls, v in zip(classes, values) for t in cls}
        f = OperationTable(4, 2, tuple(
            table[t] for t in itertools.product(range(2), repeat=4)
        ))
        if f.is_polymorphism_of(b):
            return True
    return False


def test_absorptive_check_matches_literal_oracle_at_2_2():
    for b in (path(2), b_n(2), horn_sat(), st_con()):
        want = "yes" if _absorptive_exists_literal(b) else "no"
        for strategy in ("dense", "setsystem"):
            r = absorptive_check(b, 2, 2, strategy=strategy)
            assert r.status == want, (b.name, strategy)
            if r.status == "yes" and r.witness_table is not None:
                assert r.witness_table.is_polymorphism_of(b)


def test_absorptive_fixture_statuses():
    assert absorptive_check(path(2), 2, 2).status == "yes"
    assert absorptive_check(st_con(), 2, 2).status == "yes"
    assert absorptive_check(horn_sat(), 2, 2).status == "no"


def test_absorptive_witness_satisfies_identities():
    r = absorptive_check(path(2), 2, 2, strategy="dense")
    assert r.status == "yes"
    t = r.witness_table
    assert t is not None and t.arity == 4
    assert _satisfies_literally(
        t, condition_pairs(block_symmetric_absorptive(2, 2), 2)
    )


def test_brute_force_search_witness_is_valid():
    got = brute_force_search(path(2), quasi_maltsev())
    assert got is not None
    assert got.is_polymorphism_of(path(2))
    assert _satisfies_literally(got, condition_pairs(quasi_maltsev(), 2))


def test_wrong_witness_raises_even_without_asserts(monkeypatch):
    # A search that returns the constant map: P3 has no loop, so the table
    # is no polymorphism, and the check must say so without `assert`.
    monkeypatch.setattr("slamlog.polymorph.find_homomorphism",
                        lambda a, b: (0,) * a.size)
    with pytest.raises(WitnessError):
        find_polymorphism_satisfying(path(3), quasi_maltsev())


# --- power-product kernel -----------------------------------------------------

def _literal_power_codes(rows, m, size):
    return [
        tuple(_tuple_code(tuple(u[i] for u in combo), size)
              for i in range(len(rows[0])))
        for combo in itertools.product(rows, repeat=m)
    ]


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_power_codes_match_the_literal_product(arity, m):
    size = 3
    space = list(itertools.product(range(size), repeat=arity))
    rows = sorted(random.Random(10 * arity + m).sample(space, 3))
    want = _literal_power_codes(rows, m, size)
    assert list(_power_codes(rows, m, size, stream_cap=len(want))) == want


def test_power_codes_of_an_empty_relation_are_empty_under_any_cap():
    assert list(_power_codes([], 4, 2, stream_cap=0)) == []


def test_power_codes_raise_exactly_above_the_stream_cap():
    rows = [(0, 1), (1, 2), (2, 0)]
    assert len(list(_power_codes(rows, 4, 3, stream_cap=81))) == 81
    with pytest.raises(CapExceeded, match="3\\^4 tuple combinations"):
        next(_power_codes(rows, 4, 3, stream_cap=80))


# --- set-system enumeration ---------------------------------------------------

def _literal_antichains(subsets, n, cap):
    """Every antichain of at most n blocks, enumerated in full, with the
    cap compared before each extension."""
    out = []

    def extend(start, chosen):
        if len(out) > cap:
            raise CapExceeded(f"more than {cap} set systems")
        if chosen:
            out.append(frozenset(chosen))
        if len(chosen) == n:
            return
        for i in range(start, len(subsets)):
            if any(subsets[i] <= o or o <= subsets[i] for o in chosen):
                continue
            extend(i + 1, chosen + [subsets[i]])

    extend(0, [])
    return sorted(out, key=lambda blocks: sorted(sorted(s) for s in blocks))


@pytest.mark.parametrize("size,k,n", [(4, 1, 3), (3, 2, 2), (3, 3, 3),
                                      (4, 2, 3), (4, 4, 2)])
def test_antichain_enumeration_matches_the_full_enumeration(size, k, n):
    subsets = [frozenset(s) for r in range(1, k + 1)
               for s in itertools.combinations(range(size), r)]
    total = len(_literal_antichains(subsets, n, cap=1 << 20))
    for cap in range(total + 3):
        try:
            want = _literal_antichains(subsets, n, cap)
        except CapExceeded:
            want = None
        try:
            got = [ss.blocks for ss in _enumerate_antichains(subsets, n, cap)]
        except CapExceeded:
            got = None
        assert got == want, cap
