from __future__ import annotations

import itertools
import random

import pytest
from polymorph_oracle import (
    brute_force_search,
    canonical_set_system,
    lattice_polymorphisms_literal,
    setsystem_structure_literal,
    subset_power_literal,
)

from slamlog.fixtures import (
    b_n,
    caterpillar_example,
    directed_cycle,
    f_n,
    horn_sat,
    non_caterpillar_example,
    path,
    st_con,
    transitive_tournament,
    unfolding_tree,
    weak_rules_instance,
    weak_rules_template,
)
from slamlog.homsolver import (
    HomSearcher,
    WitnessError,
    find_homomorphism,
    is_homomorphism,
)
from slamlog.polymorph import (
    DEFAULT_STREAM_CAP,
    CapExceeded,
    OperationTable,
    absorptive_check,
    block_symmetric_absorptive,
    closure_partition,
    condition_pairs,
    find_polymorphism_satisfying,
    indicator_structure,
    lattice_polymorphisms,
    quasi_majority,
    quasi_maltsev,
    quasi_minority,
    subset_power_structure,
    totally_symmetric_check,
)
from slamlog.polymorph import (
    _blocks_of,
    _enumerate_antichains,
    _power_codes,
    _setsystem_structure,
    _tuple_code,
)
from slamlog.structures import Signature, Structure, make_structure


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
        (horn_sat(), block_symmetric_absorptive(1, 3)),
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


def test_lattice_polymorphisms_equal_the_matrix_search():
    """The mask search returns the literal `leq` search's first pair on
    seeded templates of 1-5 elements; five-element ones are sparse, so
    that a few of them exhaust every candidate order and most do not."""
    rng = random.Random(2311)
    outcomes = set()
    for _ in range(60):
        n = rng.randrange(1, 6)
        density = rng.random() * (0.3 if n == 5 else 1.0)
        symbols = (("E", 2),) + ((("U", 1),) if rng.random() < 0.5 else ())
        b = make_structure("A", symbols, n, {
            sym: {t for t in itertools.product(range(n), repeat=ar)
                  if rng.random() < density} for sym, ar in symbols})
        got = lattice_polymorphisms(b)
        want = lattice_polymorphisms_literal(b)
        assert (got and (got[0].values, got[1].values)) == \
            (want and (want[0].values, want[1].values))
        outcomes.add((n, got is None))
    assert {(5, True), (5, False), (4, True), (4, False)} <= outcomes


def test_totally_symmetric_check_fixture_values():
    for b in (path(2), horn_sat(), b_n(2), st_con()):
        hom = totally_symmetric_check(b)
        assert is_homomorphism(subset_power_structure(b), b, hom)
        # entry m is the image of the subset with bit mask m + 1, so sending
        # a tuple to the image of its entry set is totally symmetric
        table = OperationTable(3, b.size, tuple(
            hom[sum(1 << v for v in set(t)) - 1]
            for t in itertools.product(range(b.size), repeat=3)))
        assert table.is_polymorphism_of(b)
        assert table.satisfies(block_symmetric_absorptive(1, 3))
    assert totally_symmetric_check(directed_cycle(3)) is None


# The built-in fixtures the literal subset power can reach; the 13-element
# unfolded tree would need 8191^2 candidate tuples.
SUBSET_POWER_FIXTURES = [
    path(2), path(3), path(4), transitive_tournament(3),
    transitive_tournament(4), b_n(2), b_n(3), st_con(), horn_sat(),
    directed_cycle(3), directed_cycle(4), f_n(3), non_caterpillar_example(),
    weak_rules_template(), weak_rules_instance(), caterpillar_example(),
    unfolding_tree(),
]


def _random_structures(count, seed):
    """Seeded structures of 1-4 elements with one to three relations of
    arity 1-3, each a random set of at most six tuples, and empty in
    about one case in seven."""
    rng = random.Random(seed)
    for i in range(count):
        size = rng.randint(1, 4)
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        rels = []
        for ar in arities:
            space = list(itertools.product(range(size), repeat=ar))
            take = 0 if rng.random() < 0.15 else \
                rng.randint(1, min(len(space), 6))
            rels.append(frozenset(rng.sample(space, take)))
        yield Structure(
            signature=Signature(tuple((f"R{j}", ar)
                                      for j, ar in enumerate(arities))),
            size=size, relations=tuple(rels), name=f"rand{i}")


def test_subset_power_closure_equals_the_literal_power():
    randoms = list(_random_structures(320, seed=4))
    assert any(not rel for b in randoms for rel in b.relations)
    assert {ar for b in randoms for _, ar in b.signature.symbols} == {1, 2, 3}
    assert {b.size for b in randoms} == {1, 2, 3, 4}
    for b in SUBSET_POWER_FIXTURES + randoms:
        assert subset_power_structure(b) == subset_power_literal(b), b.name


def test_subset_power_closure_counts_against_the_stream_cap():
    # T4's one relation closes to 27 subset tuples
    assert len(subset_power_structure(transitive_tournament(4),
                                      stream_cap=27).relations[0]) == 27
    with pytest.raises(CapExceeded, match="more than 26 tuples"):
        subset_power_structure(transitive_tournament(4), stream_cap=26)
    with pytest.raises(CapExceeded):
        totally_symmetric_check(transitive_tournament(4), stream_cap=16)


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


def _table_of_map(systems, hom, size, k, n):
    """The operation a set-system witness stands for: each tuple goes to
    the value of the canonical set system of its blocks."""
    lookup = dict(zip(systems, hom))
    return OperationTable(k * n, size, tuple(
        lookup[canonical_set_system(_blocks_of(t, k))]
        for t in itertools.product(range(size), repeat=k * n)
    ))


def test_absorptive_check_matches_literal_oracle_at_2_2():
    cond = block_symmetric_absorptive(2, 2)
    for b in (path(2), b_n(2), horn_sat(), st_con()):
        want = "yes" if _absorptive_exists_literal(b) else "no"
        r = absorptive_check(b, 2, 2)
        assert r.status == want, b.name
        set_table = None if r.hom is None else \
            _table_of_map(r.systems, r.hom, b.size, 2, 2)
        dense_table = find_polymorphism_satisfying(b, cond)
        for oracle, table in (("dense", dense_table),
                              ("setsystem", set_table)):
            assert (table is not None) == (want == "yes"), (b.name, oracle)
            if table is not None:
                assert table.satisfies(cond)
                assert table.is_polymorphism_of(b)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("k,n", [(1, 2), (2, 1), (1, 3), (2, 2), (2, 3),
                                 (3, 2)])
def test_set_systems_are_the_absorptive_identity_classes(size, k, n):
    # absorptive_check reports only its map because canonical set systems
    # and the classes of the dense closure are the same thing.
    part = closure_partition(block_symmetric_absorptive(k, n), size)
    system_of = {}
    for code, t in enumerate(itertools.product(range(size), repeat=k * n)):
        ss = canonical_set_system(_blocks_of(t, k))
        assert system_of.setdefault(part.find(code), ss) == ss, t
    assert len(set(system_of.values())) == len(system_of)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_element_blocks_identify_tuples_by_entry_set(size, n):
    # block_symmetric_absorptive(1, n) is the totally symmetric condition
    part = closure_partition(block_symmetric_absorptive(1, n), size)
    class_of = {}
    for code, t in enumerate(itertools.product(range(size), repeat=n)):
        assert class_of.setdefault(frozenset(t), part.find(code)) == \
            part.find(code), t
    assert len(set(class_of.values())) == len(class_of)


@pytest.mark.parametrize("k,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_setsystem_structure_equals_the_literal_construction(k, n):
    templates = [b for b in SUBSET_POWER_FIXTURES if b.size <= 4]
    templates += _random_structures(60, seed=k * 10 + n)
    for b in templates:
        assert _setsystem_structure(b, k, n, DEFAULT_STREAM_CAP) == \
            setsystem_structure_literal(b, k, n), b.name


def _unless_capped(build, *args):
    try:
        return build(*args)
    except CapExceeded:
        return None


def _covering_randoms(count, seed):
    """Seeded random templates with unary, binary, ternary and empty
    relations among them."""
    randoms = list(_random_structures(count, seed))
    assert any(not rel for b in randoms for rel in b.relations)
    assert {ar for b in randoms for _, ar in b.signature.symbols} == {1, 2, 3}
    return randoms


@pytest.mark.parametrize("k,n", [(1, 2), (2, 1), (1, 3), (2, 2)])
def test_setsystem_structure_raises_exactly_where_the_literal_one_does(k, n):
    # every cap from 0 until the literal construction has fitted three times
    for b in _covering_randoms(20, seed=50 + 10 * k + n):
        fitted = 0
        for cap in itertools.count():
            want = _unless_capped(setsystem_structure_literal, b, k, n, cap)
            assert _unless_capped(_setsystem_structure, b, k, n, cap) == \
                want, (b.name, cap)
            fitted += want is not None
            if fitted == 3:
                break


def test_k_1_and_n_1_absorptive_checks_pass_where_the_subset_power_maps_home():
    # S(1, n) and S(k, 1) are substructures of the subset power, so a
    # homomorphism of the subset power restricts to both
    rng = random.Random(2402)
    passed = capped = 0
    for b in _covering_randoms(2400, seed=2402):
        cap = rng.choice((4, 16, 64, DEFAULT_STREAM_CAP))
        if _unless_capped(totally_symmetric_check, b, cap) is None:
            continue
        for k, n in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1)]:
            res = _unless_capped(absorptive_check, b, k, n, cap)
            if res is None:
                capped += 1
            else:
                assert res.status == "yes", (b.name, k, n, cap)
                passed += 1
    assert passed > 10 * capped > 0


def test_subset_power_raises_exactly_where_the_literal_power_is_over_cap():
    for b in _covering_randoms(40, seed=9):
        power = subset_power_literal(b)
        largest = max(map(len, power.relations))
        for cap in range(largest + 3):
            assert _unless_capped(subset_power_structure, b, cap) == \
                (None if largest > cap else power), (b.name, cap)


def test_absorptive_results_hold_the_literal_systems_and_homomorphism():
    cases = ((path(3), 2, 2), (horn_sat(), 2, 2),
             (caterpillar_example(), 2, 3), (weak_rules_template(), 1, 3))
    results = [absorptive_check(*case) for case in cases]
    assert [r.status for r in results] == ["yes", "no", "yes", "yes"]
    for r, (b, k, n) in zip(results, cases):
        struct, systems = setsystem_structure_literal(b, k, n)
        assert (r.systems, r.indicator_size) == (systems, struct.size)
        assert r.hom == find_homomorphism(struct, b)


def test_setsystem_strategy_rejects_a_wrong_map(monkeypatch):
    # The constant map sends every set system to 0, and P2 has no loop.
    monkeypatch.setattr(HomSearcher, "enumerate",
                        lambda self, a, limit=None: iter([(0,) * a.size]))
    with pytest.raises(WitnessError):
        absorptive_check(path(2), 2, 2)


def test_absorptive_fixture_statuses():
    assert absorptive_check(path(2), 2, 2).status == "yes"
    assert absorptive_check(st_con(), 2, 2).status == "yes"
    assert absorptive_check(horn_sat(), 2, 2).status == "no"


def test_absorptive_witness_satisfies_identities():
    t = find_polymorphism_satisfying(path(2), block_symmetric_absorptive(2, 2))
    assert t is not None and t.arity == 4
    assert _satisfies_literally(
        t, condition_pairs(block_symmetric_absorptive(2, 2), 2)
    )


def test_brute_force_search_witness_is_valid():
    got = brute_force_search(path(2), quasi_maltsev())
    assert got is not None
    assert got.is_polymorphism_of(path(2))
    assert _satisfies_literally(got, condition_pairs(quasi_maltsev(), 2))


def test_dense_cap_refuses_before_the_partition_is_built(monkeypatch):
    # The partition alone would hold 2^16 codes.
    def no_partition(c, domain_size):
        raise AssertionError("closure partition built over the dense cap")
    monkeypatch.setattr("slamlog.polymorph.closure_partition", no_partition)
    with pytest.raises(CapExceeded, match="exceeds dense cap"):
        find_polymorphism_satisfying(
            path(2), block_symmetric_absorptive(4, 4), dense_cap=1 << 15)


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
                                      (4, 2, 3), (4, 4, 2), (4, 4, 3)])
def test_antichain_enumeration_matches_the_full_enumeration(size, k, n):
    subsets = [frozenset(s) for r in range(1, k + 1)
               for s in itertools.combinations(range(size), r)]
    blocks = sorted(tuple(sorted(s)) for s in subsets)
    masks = [sum(1 << v for v in s) for s in blocks]
    up = [sum(1 << j for j, d in enumerate(masks) if c & d == c)
          for c in masks]
    total = len(_literal_antichains(subsets, n, cap=1 << 20))
    for cap in range(total + 3):
        try:
            want = _literal_antichains(subsets, n, cap)
        except CapExceeded:
            want = None
        try:
            keys, ups = _enumerate_antichains(blocks, up, n, cap)
        except CapExceeded:
            got = None
        else:
            got = [frozenset(map(frozenset, key)) for key in keys]
            assert len(set(ups)) == len(ups), cap
        assert got == want, cap
