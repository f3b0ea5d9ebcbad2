from __future__ import annotations

import json

import pytest

from slamlog.classify import (
    Caps,
    NotSlam,
    classify,
    emit_slam,
    enumerate_instances,
    verify_duality_pair,
    verify_program_solves,
)
from slamlog.datalog import canonical_program, fragment_of
from slamlog.fixtures import (
    b_n,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
)
from slamlog.polymorph import condition_pairs, quasi_maltsev
from slamlog.structures import Signature


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
