from __future__ import annotations

import itertools
import json
import math
import types
from collections import Counter

import pytest
from test_acceptance import VERDICT_TABLE

from slamlog import datalog, homsolver, polymorph
from slamlog.classify import (
    Caps,
    NotSlam,
    Verdict,
    _sweep_instances,
    classify,
    emit_slam,
    enumerate_instances,
    verify_duality_pair,
    verify_program_solves,
)
from slamlog.datalog import canonical_program, fragment_of
from slamlog.fixtures import (
    b_n,
    caterpillar_example,
    digraph,
    directed_cycle,
    f_n,
    horn_sat,
    non_caterpillar_example,
    path,
    st_con,
    transitive_tournament,
    weak_rules_template,
)
from slamlog.homsolver import core_of, is_homomorphism
from slamlog.polymorph import (
    CapExceeded,
    OperationTable,
    condition_pairs,
    quasi_maltsev,
)
from slamlog.structures import Signature, make_structure


EXPECTED = {
    "P2": ("yes", "yes", "yes", "yes"),
    "P3": ("yes", "yes", "yes", "yes"),
    "T3": ("yes", "no", "yes", "no"),
    "B2": ("yes", "no", "yes", "no"),
    "D2": ("yes", "no", "yes", "no"),
    "HornSat": ("yes", "no", "no", "no"),
    "C3": ("no", "yes", "no", "no"),
}

FIXTURES = {
    "P2": path(2),
    "P3": path(3),
    "T3": transitive_tournament(3),
    "B2": b_n(2),
    "D2": st_con(),
    "HornSat": horn_sat(),
    "C3": directed_cycle(3),
}


def test_package_attribute_classify_is_the_module():
    import slamlog
    import slamlog.classify as m

    assert isinstance(m, types.ModuleType) and m is slamlog.classify
    assert m.Caps is Caps and m.classify is classify


def test_fixture_verdict_table():
    for name, b in FIXTURES.items():
        rep = classify(b)
        got = (
            rep.verdicts["tree_duality"].value,
            rep.verdicts["quasi_maltsev"].value,
            rep.verdicts["caterpillar_lam"].value,
            rep.verdicts["slam"].value,
        )
        assert got == EXPECTED[name], name


def test_report_json_is_deterministic_and_timing_free():
    rep1 = classify(path(2))
    rep2 = classify(path(2))
    assert rep1.to_json(include_timing=False) == rep2.to_json(include_timing=False)
    blob = json.loads(rep1.to_json(include_timing=False))
    assert "timing_ms" not in blob
    assert "timing_ms" in json.loads(rep1.to_json())
    assert blob["size"] == 2 and blob["m"] == 2
    assert blob["k0"] == 4 and blob["n0"] == 4


def test_quasi_maltsev_witness_in_report():
    rep = classify(path(2))
    blob = rep.witnesses["quasi_maltsev"]["table"]
    from slamlog.polymorph import OperationTable
    table = OperationTable(blob["arity"], blob["size"], tuple(blob["values"]))
    assert table.is_polymorphism_of(path(2))
    pairs = condition_pairs(quasi_maltsev(), 2)
    assert all(table.apply(l) == table.apply(r) for l, r in pairs)


def test_caterpillar_witness_kinds():
    assert classify(path(2)).witnesses["caterpillar_lam"]["kind"] == "lattice"
    assert classify(b_n(2)).witnesses["caterpillar_lam"]["kind"] == "absorptive"


def test_lattice_on_core_witness_names_its_core():
    # a zigzag: not a core, and its six elements are too many for the
    # lattice search, but its core, a single edge, has lattice polymorphisms
    b = digraph(6, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5)])
    rep = classify(b)
    assert rep.verdicts["caterpillar_lam"].value == "yes"
    assert rep.verdicts["slam"].value == "yes"
    witness = rep.witnesses["caterpillar_lam"]
    assert witness["kind"] == "lattice_on_core"
    core, retraction = core_of(b)
    assert witness["core_size"] == core.size
    assert witness["retraction"] == list(retraction)
    assert is_homomorphism(b, core, witness["retraction"])
    join, meet = (OperationTable(**witness[op]) for op in ("join", "meet"))
    assert join.is_polymorphism_of(core) and meet.is_polymorphism_of(core)
    elements = range(core.size)
    for x, y in itertools.product(elements, repeat=2):
        assert join.apply((x, y)) == join.apply((y, x))
        assert meet.apply((x, y)) == meet.apply((y, x))
        assert meet.apply((x, join.apply((x, y)))) == x
        assert join.apply((x, meet.apply((x, y)))) == x
        for z in elements:
            assert join.apply((join.apply((x, y)), z)) == \
                join.apply((x, join.apply((y, z))))
            assert meet.apply((meet.apply((x, y)), z)) == \
                meet.apply((x, meet.apply((y, z))))


def test_horn_sat_refutation_names_the_pair():
    rep = classify(horn_sat())
    v = rep.verdicts["caterpillar_lam"]
    assert v.value == "no" and "(2, 2)" in v.detail


def test_emit_slam_matches_canonical_program():
    assert emit_slam(path(2)) == canonical_program(path(2), "slam")
    assert fragment_of(emit_slam(path(3))).slam


def test_emit_slam_raises_with_report():
    with pytest.raises(NotSlam) as exc:
        emit_slam(transitive_tournament(3))
    assert exc.value.report.verdicts["slam"].value == "no"


def test_tiny_caps_leave_b2_inconclusive():
    caps = Caps(dense_cap=8, stream_cap=8, max_k=1, max_n=1)
    rep = classify(b_n(2), caps)
    assert rep.verdicts["caterpillar_lam"].value == "inconclusive"
    assert rep.verdicts["slam"].value == "inconclusive"
    with pytest.raises(NotSlam):
        emit_slam(b_n(2), caps)


def test_inconclusive_slam_names_the_inconclusive_check():
    # quasi Maltsev alone is capped: its detail, not the caterpillar's
    rep = classify(path(3), Caps(dense_cap=8))
    qm, cat = rep.verdicts["quasi_maltsev"], rep.verdicts["caterpillar_lam"]
    assert (qm.value, cat.value) == ("inconclusive", "yes")
    assert rep.verdicts["slam"] == Verdict("inconclusive", qm.detail)
    # both capped: the caterpillar detail, as before
    rep = classify(b_n(2), Caps(dense_cap=8, stream_cap=8, max_k=1, max_n=1))
    qm, cat = rep.verdicts["quasi_maltsev"], rep.verdicts["caterpillar_lam"]
    assert qm.value == cat.value == "inconclusive"
    assert rep.verdicts["slam"] == Verdict("inconclusive", cat.detail)


def test_subset_power_cap_leaves_tree_duality_inconclusive():
    # T4's subset power relation closes to 27 tuples, over a cap of 16
    rep = classify(transitive_tournament(4), Caps(stream_cap=16))
    tree = rep.verdicts["tree_duality"]
    assert tree.value == "inconclusive" and "16" in tree.detail
    assert "tree_duality" not in rep.witnesses
    # caterpillar duality still tries its own certificates
    assert rep.verdicts["caterpillar_lam"].value == "yes"
    assert rep.witnesses["caterpillar_lam"]["kind"] == "lattice"


def _verdicts(rep):
    return tuple(rep.verdicts[k].value for k in
                 ("tree_duality", "quasi_maltsev", "caterpillar_lam", "slam"))


def test_classify_runs_no_dense_absorptive_check(monkeypatch):
    # The benchmark's classify runs: 13 fixtures at default caps and three
    # capped six-element templates.
    runs = [(b, Caps()) for b in (
        path(2), path(3), path(4), transitive_tournament(3),
        transitive_tournament(4), b_n(2), b_n(3), st_con(), horn_sat(),
        directed_cycle(3), directed_cycle(4), f_n(3),
        non_caterpillar_example())]
    lowered = Caps(stream_cap=1 << 12, max_k=2, max_n=2)
    runs += [(weak_rules_template(), lowered),
             (caterpillar_example(), lowered),
             (weak_rules_template(), Caps(stream_cap=1 << 14, max_k=2,
                                          max_n=3))]
    want = [_verdicts(classify(b, caps)) for b, caps in runs]
    closure_partition = polymorph.closure_partition

    def no_absorptive(c, domain_size):
        if c.kind == "absorptive":
            raise AssertionError("dense absorptive check in classify")
        return closure_partition(c, domain_size)
    monkeypatch.setattr(polymorph, "closure_partition", no_absorptive)
    got = [_verdicts(classify(b, caps)) for b, caps in runs]
    assert got == want
    for (b, _), verdicts in zip(runs, got):
        assert verdicts == VERDICT_TABLE.get(b.name, verdicts), b.name
    assert sum(b.name in VERDICT_TABLE for b, _ in runs) == 7


def test_enumerate_instances_counts():
    sig = Signature((("E", 2),))
    assert len(list(enumerate_instances(sig, 2))) == 16
    assert len(list(enumerate_instances(sig, 3))) == 512
    mixed = Signature((("E", 2), ("U", 1)))
    assert len(list(enumerate_instances(mixed, 2))) == 16 * 4


@pytest.mark.parametrize("symbols", [(("E", 2),), (("U", 1), ("E", 2))])
def test_loopless_stream_is_the_full_stream_filtered(symbols):
    sig = Signature(symbols)
    full = [a for a in enumerate_instances(sig, 3)
            if all(len(set(t)) == len(t) for rel in a.relations for t in rel)]
    assert list(enumerate_instances(sig, 3, loopless=True)) == full


def test_loopless_digraphs_of_size_4():
    sig = Signature((("E", 2),))
    assert sum(1 for _ in enumerate_instances(sig, 4, loopless=True)) == 4096


def test_verify_program_solves_path_template():
    p = canonical_program(path(2), "slam")
    rep = verify_program_solves(p, path(2), size_cap=3)
    # sizes 0 through 3 with loops allowed: 1 + 2 + 16 + 512
    assert rep.holds and rep.checked == 531 and not rep.counterexamples
    rep8 = verify_program_solves(p, path(2), size_cap=3, jobs=4)
    assert rep8.holds and rep8.checked == rep.checked


def test_verify_program_solves_finds_counterexamples():
    p = canonical_program(transitive_tournament(3), "slam")
    rep = verify_program_solves(p, transitive_tournament(3), size_cap=2)
    assert not rep.holds
    assert rep.counterexamples


def test_sweeps_need_a_size_cap_or_an_instance_stream():
    p = canonical_program(path(2), "slam")
    with pytest.raises(ValueError, match="need size_cap or an explicit"):
        verify_program_solves(p, path(2))

def test_verify_duality_pair_small():
    rep = verify_duality_pair([path(3)], path(2), 3)
    assert rep.holds
    bad = verify_duality_pair([path(4)], path(2), 3)
    assert not bad.holds


def test_a_sweep_builds_one_searcher_for_its_template(monkeypatch):
    template = path(2)
    targets = []
    init = homsolver.HomSearcher.__init__

    def counting_init(self, target):
        targets.append(target)
        init(self, target)
    monkeypatch.setattr(homsolver.HomSearcher, "__init__", counting_init)

    def template_searchers(sweep):
        targets.clear()
        assert sweep().holds
        return sum(target is template for target in targets)

    # one searcher per class would be 335 and 117
    assert template_searchers(
        lambda: verify_duality_pair([path(3)], template, 4)) == 1
    slam = emit_slam(template)
    assert template_searchers(
        lambda: verify_program_solves(slam, template, 3)) == 1


def test_sweep_report_json():
    rep = verify_duality_pair([path(3)], path(2), 2)
    blob = json.loads(rep.to_json())
    assert blob["holds"] is True
    assert blob["checked"] == rep.checked


# --- isomorph-free sweeps against the labeled oracle --------------------------

DIGRAPH = Signature((("E", 2),))
MIXED = Signature((("U", 1), ("E", 2)))


def _labeled(signature, size_cap):
    """The labeled stream the built-in sweep stands for: every instance up
    to size 3, loopless ones from size 4 on."""
    for size in range(size_cap + 1):
        yield from enumerate_instances(signature, size, loopless=size > 3)


def _without_classes(report):
    blob = json.loads(report.to_json())
    del blob["classes"]
    return blob


def _assert_matches_labeled(sweep):
    """`sweep(labeled)` run isomorph-free and over the labeled stream
    must check the same instances, give the same verdict and list the same
    counterexamples in the same order."""
    fast = sweep(None)
    slow = sweep(True)
    assert fast.checked == slow.checked
    assert fast.holds == slow.holds
    assert fast.counterexamples == slow.counterexamples
    assert _without_classes(fast) == _without_classes(slow)
    assert slow.classes == slow.checked
    assert fast.classes < fast.checked
    return fast


@pytest.mark.parametrize("obstruction, template, failures", [
    (path(3), path(2), (0, 0)),
    (path(4), transitive_tournament(3), (0, 0)),
    (path(4), path(2), (12, 276)),
    (path(3), path(3), (6, 114)),
    (path(2), path(2), (14, 100)),
], ids=["P3-P2", "P4-T3", "P4-P2", "P3-P3", "P2-P2"])
@pytest.mark.parametrize("size_cap", [3, 4])
def test_isomorph_free_duality_sweep_matches_labeled(obstruction, template,
                                                     failures, size_cap):
    def sweep(labeled):
        return verify_duality_pair(
            [obstruction], template, size_cap,
            instances=_labeled(DIGRAPH, size_cap) if labeled else None)
    rep = _assert_matches_labeled(sweep)
    assert len(rep.counterexamples) == failures[size_cap - 3]
    assert (rep.checked, rep.classes) == {3: (531, 117),
                                          4: (4627, 335)}[size_cap]


@pytest.mark.parametrize("source, kind, template, failures", [
    (path(2), "slam", path(2), 0),
    (transitive_tournament(3), "slam", transitive_tournament(3), 501),
    # derives goal on no instance this small, so only "no homomorphism to
    # the template" is inferred from smaller instances
    (directed_cycle(3), "lam", directed_cycle(3), 505),
    # a wrong pair, where both properties are inferred
    (transitive_tournament(3), "lam", path(2), 12),
], ids=["P2", "T3", "lam-C3", "lam-T3-P2"])
def test_isomorph_free_program_sweep_matches_labeled(source, kind, template,
                                                     failures):
    program = canonical_program(source, kind)

    def sweep(labeled):
        return verify_program_solves(
            program, template, 3,
            instances=_labeled(DIGRAPH, 3) if labeled else None)
    rep = _assert_matches_labeled(sweep)
    assert len(rep.counterexamples) == failures


def test_a_sweep_infers_what_an_instance_with_one_tuple_less_settles(
        monkeypatch):
    calls = Counter()
    find, evaluate = homsolver.HomSearcher.find, datalog.evaluate

    def counting_find(self, a):
        calls["find"] += 1
        return find(self, a)

    def counting_evaluate(*args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(homsolver.HomSearcher, "find", counting_find)
    monkeypatch.setattr("slamlog.classify.evaluate", counting_evaluate)
    slam = canonical_program(path(2), "slam")
    # testing every class would take 2 finds for each of 335 classes, and
    # one evaluation for each of 117
    assert verify_duality_pair([path(3)], path(2), 4).holds
    assert calls["find"] <= 60
    calls.clear()
    assert verify_program_solves(slam, path(2), 3).holds
    assert calls["evaluate"] <= 20
    # an explicit stream is the uninferred reference
    calls.clear()
    verify_program_solves(slam, path(2), instances=_labeled(DIGRAPH, 3))
    assert calls == {"find": 531, "evaluate": 531}


def test_isomorph_free_sweep_matches_labeled_on_two_symbols():
    # U/1 takes the high bits of a mask and E/2 the low ones, so ascending
    # masks must still be the labeled stream's order
    template = make_structure("B", MIXED.symbols, 2,
                              {"U": {(1,)}, "E": {(0, 1)}})
    obstruction = make_structure("F", MIXED.symbols, 2,
                                 {"U": {(0,)}, "E": {(1, 0)}})

    def sweep(labeled):
        return verify_duality_pair(
            [obstruction], template, 3,
            instances=_labeled(MIXED, 3) if labeled else None)
    rep = _assert_matches_labeled(sweep)
    assert rep.checked == 1 + 4 + 64 + 4096 and rep.classes == 793
    assert len(rep.counterexamples) > 100


@pytest.mark.parametrize("signature, size_cap, classes", [
    (DIGRAPH, 5, [1, 2, 10, 104, 218, 9608]),   # OEIS A000595, A000273
    (MIXED, 3, [1, 4, 36, 752]),
    # 2^n labeled instances on n elements but n! permutations of them
    (Signature((("U", 1),)), 10, list(range(1, 12))),
], ids=["digraphs", "U-E", "unary"])
def test_class_counts_and_orbit_sums(signature, size_cap, classes):
    count, labeled = Counter(), Counter()
    for build, orbit_size, *_ in _sweep_instances(signature, size_cap):
        size = build().size
        count[size] += 1
        labeled[size] += orbit_size
    assert [count[s] for s in range(size_cap + 1)] == classes
    bits = [sum(s ** ar if s <= 3 else math.perm(s, ar)
                for _, ar in signature.symbols) for s in range(size_cap + 1)]
    assert [labeled[s] for s in range(size_cap + 1)] == [2 ** b for b in bits]


@pytest.mark.parametrize("signature, size_cap, count", [
    (DIGRAPH, 4, 4627),   # orbits under every permutation
    (MIXED, 3, 4165),
    # on 6 elements and more, orbits are closed under a transposition and
    # a cycle instead
    (Signature((("U", 1),)), 8, 511),
], ids=["digraphs", "U-E", "unary"])
def test_orbits_partition_the_labeled_stream(signature, size_cap, count):
    labeled = list(_labeled(signature, size_cap))
    members = [a for _, _, orbit, *_ in _sweep_instances(signature, size_cap)
               for _, a in orbit()]
    assert len(members) == len(labeled) == count
    assert Counter(members) == Counter(labeled)


def test_a_negative_size_cap_is_refused():
    with pytest.raises(ValueError, match="negative size cap"):
        verify_duality_pair([path(3)], path(2), -3)
    with pytest.raises(ValueError, match="negative size cap"):
        verify_program_solves(canonical_program(path(2), "slam"), path(2),
                              -1)


def test_every_small_digraph_verdict_holds_on_its_own_programs():
    """The paper's theorem on all 116 digraphs of 1 to 3 vertices: a "yes"
    for tree duality, caterpillar duality or slam means that the canonical
    am, lam or slam program solves CSP(B), so a sweep that finds a
    counterexample forces "no"."""
    templates = [build() for build, *_ in _sweep_instances(DIGRAPH, 3)][1:]
    assert len(templates) == 116
    failing = Counter()
    for b in templates:
        verdicts = classify(b).verdicts
        value = {key: verdicts[key].value
                 for key in ("tree_duality", "caterpillar_lam", "slam")}
        assert "inconclusive" not in value.values(), b
        if value["slam"] == "yes":
            assert value["caterpillar_lam"] == "yes", b
        if value["caterpillar_lam"] == "yes":
            assert value["tree_duality"] == "yes", b
        for key, kind, size_cap in (("tree_duality", "am", 2),
                                    ("caterpillar_lam", "lam", 3),
                                    ("slam", "slam", 3)):
            rep = verify_program_solves(canonical_program(b, kind), b,
                                        size_cap)
            if not rep.holds:
                assert value[key] == "no", (b, kind)
                failing[kind] += 1
    assert failing == {"am": 11, "lam": 11, "slam": 12}


def test_every_two_element_unary_binary_verdict_holds_on_its_own_programs():
    """The same check on the 36 templates over U/1 and E/2 with two
    elements, up to isomorphism."""
    templates = [b for b in (build() for build, *_ in
                             _sweep_instances(MIXED, 2)) if b.size == 2]
    assert len(templates) == 36
    failing = Counter()
    for b in templates:
        verdicts = classify(b).verdicts
        value = {key: verdicts[key].value
                 for key in ("tree_duality", "caterpillar_lam", "slam")}
        assert "inconclusive" not in value.values(), b
        if value["slam"] == "yes":
            assert value["caterpillar_lam"] == "yes", b
        if value["caterpillar_lam"] == "yes":
            assert value["tree_duality"] == "yes", b
        for key, kind, size_cap in (("tree_duality", "am", 2),
                                    ("caterpillar_lam", "lam", 3),
                                    ("slam", "slam", 3)):
            rep = verify_program_solves(canonical_program(b, kind), b,
                                        size_cap)
            if not rep.holds:
                assert value[key] == "no", (b, kind)
                failing[kind] += 1
    assert failing == {"am": 3, "lam": 3, "slam": 4}


@pytest.mark.parametrize("edges", [
    [(0, 3), (1, 0), (1, 2), (1, 3), (2, 0)],
    [(0, 2), (0, 3), (1, 0), (1, 3), (2, 3)],
])
def test_lam_programs_of_two_undecided_four_vertex_cores_pass_size_4(edges):
    # two loopless cores whose caterpillar verdict ends inconclusive at
    # (k0, n0); their verdicts are left unpinned, the sweep is not
    b = digraph(4, edges)
    rep = verify_program_solves(canonical_program(b, "lam"), b, 4)
    assert rep.holds
    assert rep.checked == 4627 and rep.classes == 335


def test_classify_refuses_an_empty_template(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran on the empty template")
    monkeypatch.setattr("slamlog.classify.totally_symmetric_check", no_check)
    empty = make_structure("Empty", (("E", 2),), 0, {})
    with pytest.raises(ValueError, match="^template Empty has an empty "
                                         "domain$"):
        classify(empty)
    with pytest.raises(ValueError, match="^template Empty has an empty "
                                         "domain$"):
        emit_slam(empty)


def test_sweep_over_the_stream_cap_raises_before_sweeping():
    with pytest.raises(CapExceeded, match="size 6 has 2\\^30"):
        verify_duality_pair([path(3)], path(2), 6)
    ternary = make_structure("R", (("R", 3),), 2, {"R": {(0, 0, 1)}})
    with pytest.raises(CapExceeded, match="size 3 has 2\\^27"):
        verify_duality_pair([ternary], ternary, 3)
    # size 2 is within the cap: 1 + 2^1 + 2^8 instances
    assert verify_duality_pair([ternary], ternary, 2).checked == 259



def test_caterpillar_refutes_at_k0_n0():
    # every pair of the sweep passes up to (4, 4), but (k0, n0) refutes
    b = make_structure("R3", (("U0", 1), ("U1", 1), ("R", 3)), 2, {
        "U0": {(0,)}, "U1": {(1,)},
        "R": {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)}})
    rep = classify(b)
    assert (rep.k0, rep.n0) == (6, 6)
    v = rep.verdicts["caterpillar_lam"]
    assert v.value == "no"
    assert v.detail == "no absorptive polymorphism at (k0, n0) = (6, 6)"
    assert rep.witnesses["caterpillar_lam"] == {
        "kind": "absorptive_fail", "k": 6, "n": 6, "strategy": "setsystem"}


def test_caterpillar_sweep_names_the_pairs_it_checked_and_skipped():
    rep = classify(horn_sat(), Caps(stream_cap=64))
    v = rep.verdicts["caterpillar_lam"]
    assert v.value == "inconclusive"
    assert v.detail == \
        "(k0, n0) = (6, 6) out of reach; all checked pairs passed"
    witness = rep.witnesses["caterpillar_lam"]
    assert witness["kind"] == "cap"
    assert witness["checked"] == [[1, 1], [1, 2], [2, 1], [1, 3], [3, 1]]
    assert len(witness["skipped"]) == 11
    assert sorted(map(tuple, witness["checked"] + witness["skipped"])) == \
        list(itertools.product(range(1, 5), repeat=2))


def test_the_sweep_runs_no_absorptive_check_for_k_1_or_n_1(monkeypatch):
    # Once the subset power maps home, a sweep pair with k = 1 or n = 1
    # passes; only (k0, n0) and the larger pairs are checked.
    calls = []
    check = polymorph.absorptive_check

    def counting(b, k, n, **kwargs):
        calls.append((k, n))
        return check(b, k, n, **kwargs)
    monkeypatch.setattr("slamlog.classify.absorptive_check", counting)
    rep = classify(horn_sat())
    assert rep.verdicts["caterpillar_lam"].value == "no"
    assert calls == [(6, 6), (2, 2)]
    calls.clear()
    classify(b_n(3))
    assert len(calls) == 3


@pytest.mark.parametrize("field", ["dense_cap", "stream_cap", "max_k",
                                   "max_n"])
def test_a_negative_cap_is_refused(field):
    with pytest.raises(ValueError, match=f"negative {field}"):
        Caps(**{field: -1})
    rep = classify(path(2), Caps(**{field: 0}))
    assert rep.caps.to_json()[field] == 0
