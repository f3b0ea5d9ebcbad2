from __future__ import annotations

import json
import math
import types
from collections import Counter

import pytest
from test_acceptance import VERDICT_TABLE

from slamlog import polymorph
from slamlog.classify import (
    Caps,
    NotSlam,
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
    directed_cycle,
    f_n,
    horn_sat,
    non_caterpillar_example,
    path,
    st_con,
    transitive_tournament,
    weak_rules_template,
)
from slamlog.polymorph import CapExceeded, condition_pairs, quasi_maltsev
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


def test_verify_duality_pair_small():
    rep = verify_duality_pair([path(3)], path(2), 3)
    assert rep.holds
    bad = verify_duality_pair([path(4)], path(2), 3)
    assert not bad.holds


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


@pytest.mark.parametrize("template, failures", [
    (path(2), 0), (transitive_tournament(3), 501)], ids=["P2", "T3"])
def test_isomorph_free_program_sweep_matches_labeled(template, failures):
    program = canonical_program(template, "slam")

    def sweep(labeled):
        return verify_program_solves(
            program, template, 3,
            instances=_labeled(DIGRAPH, 3) if labeled else None)
    rep = _assert_matches_labeled(sweep)
    assert len(rep.counterexamples) == failures


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
    for rep, orbit_size, _ in _sweep_instances(signature, size_cap):
        count[rep.size] += 1
        labeled[rep.size] += orbit_size
    assert [count[s] for s in range(size_cap + 1)] == classes
    bits = [sum(s ** ar if s <= 3 else math.perm(s, ar)
                for _, ar in signature.symbols) for s in range(size_cap + 1)]
    assert [labeled[s] for s in range(size_cap + 1)] == [2 ** b for b in bits]


def test_orbits_partition_the_labeled_stream():
    labeled = list(_labeled(DIGRAPH, 4))
    members = [a for _, _, orbit in _sweep_instances(DIGRAPH, 4)
               for _, a in orbit()]
    assert len(members) == len(labeled) == 4627
    assert Counter(members) == Counter(labeled)


def test_sweep_over_the_stream_cap_raises_before_sweeping():
    with pytest.raises(CapExceeded, match="size 6 has 2\\^30"):
        verify_duality_pair([path(3)], path(2), 6)
    ternary = make_structure("R", (("R", 3),), 2, {"R": {(0, 0, 1)}})
    with pytest.raises(CapExceeded, match="size 3 has 2\\^27"):
        verify_duality_pair([ternary], ternary, 3)
    # size 2 is within the cap: 1 + 2^1 + 2^8 instances
    assert verify_duality_pair([ternary], ternary, 2).checked == 259

