from __future__ import annotations

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import slamlog
from slamlog import gadget
from slamlog.fixtures import path
from slamlog.gadget import (
    GadgetFormatError,
    PPPowerSpec,
    apply_gadget_reduction,
    parse_ppower_spec,
    pp_power,
    render_ppower_spec,
)
from slamlog.homsolver import (
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
)
from slamlog.polymorph import DEFAULT_STREAM_CAP, CapExceeded
from slamlog.structures import canonical_database, make_structure


SQUARE = "ppower d=1 from E/2\nrel E/2 := exists z1 . E(x1,z1), E(z1,x2)\n"
IDENTITY = "ppower d=1 from E/2\nrel E/2 := E(x1,x2)\n"


def _random_spec(rng):
    source_symbols = [("E", 2)] + ([("U", 1)] if rng.random() < 0.4 else [])
    d = rng.choice((1, 1, 2))
    target_symbols = [(f"R{i}", rng.choice((1, 2)))
                      for i in range(rng.randrange(1, 3))]
    lines = [
        f"ppower d={d} from "
        + ",".join(f"{s}/{a}" for s, a in source_symbols)
    ]
    for sym, ar in target_symbols:
        free = [f"x{i + 1}" for i in range(d * ar)]
        bound = [f"z{i + 1}" for i in range(rng.randrange(0, 3))]
        pool = free + bound
        conjuncts = []
        for _ in range(rng.randrange(1, 4)):
            s, a = rng.choice(source_symbols)
            conjuncts.append(f"{s}({','.join(rng.choice(pool) for _ in range(a))})")
        if rng.random() < 0.4:
            conjuncts.append(f"{rng.choice(pool)}={rng.choice(pool)}")
        body = ", ".join(conjuncts)
        if bound:
            body = f"exists {' '.join(bound)} . {body}"
        lines.append(f"rel {sym}/{ar} := {body}")
    return parse_ppower_spec("\n".join(lines))


def _random_structure(rng, signature, max_size=3):
    n = rng.randrange(1, max_size + 1)
    rels = {}
    for sym, ar in signature.symbols:
        pool = list(itertools.product(range(n), repeat=ar))
        rels[sym] = set(rng.sample(pool, rng.randrange(len(pool) + 1)))
    return make_structure("A", signature.symbols, n, rels)


# --- text format ------------------------------------------------------------------

def test_parse_render_round_trip():
    text = (
        "# squares the edge relation\n"
        "ppower d=2 from E/2,U/1\n"
        "rel R/1 := exists z1 . E(x1,z1), U(x2), x1=x2 ;\n"
        "rel S/2 := E(x1,x3), E(x2,x4)\n"
    )
    spec = parse_ppower_spec(text)
    assert parse_ppower_spec(render_ppower_spec(spec)) == spec
    assert spec.dimension == 2
    assert set(spec.target.names()) == {"R", "S"}


@pytest.mark.parametrize("text,fragment", [
    ("rel E/2 := E(x1,x2)", "must start"),
    ("ppower d=0 from E/2\nrel E/2 := E(x1,x2)", "at least 1"),
    ("ppower d=1 from E/2\nrel E/2 := F(x1,x2)", "unknown source"),
    ("ppower d=1 from E/2\nrel E/2 := E(x1,x2), E(z9,x1)", "neither free nor bound"),
    ("ppower d=1 from E/2\nrel E/2 := E(x1)", "arity"),
    ("ppower d=1 from E/2\nrel E/2 := E(x1,x2) ;\nrel E/2 := E(x2,x1)", "duplicate"),
    ("ppower d=1 from E/2\nwhat", "bad segment"),
    ("ppower d=1 from E/2\nrel E/2 := E(x1,x2)), (E(x2,x1)",
     "unbalanced parentheses"),
    ("ppower d=1 from E/2\nrel E/2 := E(x1,x2), (E(x2,x1)",
     "unbalanced parentheses"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GadgetFormatError, match=fragment):
        parse_ppower_spec(text)


def test_spec_validation_rejects_query_over_wrong_signature():
    good = parse_ppower_spec(IDENTITY)
    other = parse_ppower_spec("ppower d=1 from F/2\nrel E/2 := F(x1,x2)")
    with pytest.raises(GadgetFormatError, match="source signature"):
        PPPowerSpec(dimension=1, source=good.source, target=good.target,
                    queries=other.queries)


# --- pp powers ----------------------------------------------------------------------

def test_identity_power_reproduces_the_template():
    spec = parse_ppower_spec(IDENTITY)
    b = path(3)
    assert pp_power(b, spec).rel("E") == b.rel("E")


def test_square_of_a_path():
    spec = parse_ppower_spec(SQUARE)
    assert sorted(pp_power(path(3), spec).rel("E")) == [(0, 2)]


def test_dimension_two_uses_tuple_coding():
    spec = parse_ppower_spec(
        "ppower d=2 from E/2\nrel E/2 := E(x1,x3), E(x2,x4), x1=x2")
    sq = pp_power(path(2), spec)
    assert sq.size == 4
    # (0,0) -> (1,1) is the only edge; big-endian pair codes
    assert sorted(sq.rel("E")) == [(0, 3)]


def test_unconstrained_coordinate_ranges_over_the_domain():
    spec = parse_ppower_spec("ppower d=1 from E/2\nrel E/2 := E(x1,x1)")
    loopy = make_structure("B", (("E", 2),), 2, {"E": {(0, 0), (0, 1)}})
    assert sorted(pp_power(loopy, spec).rel("E")) == [(0, 0), (0, 1)]


# --- gadget reductions ----------------------------------------------------------------

def test_pp_power_refuses_a_query_over_the_stream_cap(monkeypatch):
    # E(x1,z) holds for x1 in {0, 1} of P3, and x2 is free: 6 solutions
    spec = parse_ppower_spec(
        "ppower d=2 from E/2\nrel U/1 := exists z . E(x1,z)\n")
    monkeypatch.setattr("slamlog.gadget.DEFAULT_STREAM_CAP", 6)
    assert len(pp_power(path(3), spec).rel("U")) == 6
    monkeypatch.setattr("slamlog.gadget.DEFAULT_STREAM_CAP", 5)
    with pytest.raises(CapExceeded, match="U has more than 5 solutions"):
        pp_power(path(3), spec)


def test_pp_power_refuses_free_coordinates_over_the_cap_after_one_solution(
        monkeypatch):
    drawn = []

    def counted(a, b):
        for hom in enumerate_homomorphisms(a, b):
            drawn.append(hom)
            yield hom
    monkeypatch.setattr(gadget, "enumerate_homomorphisms", counted)
    # x2..x20 occur in no atom: 3^19 times 2 solutions on P3
    spec = parse_ppower_spec(
        "ppower d=10 from E/2 ; rel E/2 := exists z . E(x1,z)")
    with pytest.raises(CapExceeded, match=f"E has more than "
                       f"{DEFAULT_STREAM_CAP} solutions"):
        pp_power(path(3), spec)
    assert len(drawn) <= 1
    # without a loop in P3 there is no solution at all
    spec = parse_ppower_spec("ppower d=10 from E/2 ; rel E/2 := E(x1,x1)")
    drawn.clear()
    assert pp_power(path(3), spec).rel("E") == frozenset() and not drawn
    # on P2, x2 is free and x1 = 0 the one choice: 2 solutions
    spec = parse_ppower_spec("ppower d=2 from E/2\nrel U/1 := "
                             "exists z . E(x1,z)\n")
    monkeypatch.setattr(gadget, "DEFAULT_STREAM_CAP", 2)
    assert sorted(pp_power(path(2), spec).rel("U")) == [(0,), (1,)]
    monkeypatch.setattr(gadget, "DEFAULT_STREAM_CAP", 1)
    drawn.clear()
    with pytest.raises(CapExceeded, match="U has more than 1 solutions"):
        pp_power(path(2), spec)
    assert len(drawn) == 1


def test_gadget_is_imported_on_first_use():
    code = ("import sys, slamlog, slamlog.cli\n"
            "assert 'slamlog.gadget' not in sys.modules\n"
            "from slamlog import pp_power\n"
            "assert pp_power is sys.modules['slamlog.gadget'].pp_power\n")
    src = str(Path(slamlog.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)
    assert sorted(slamlog.__all__) == [
        "AbsorptiveResult", "Atom", "CapExceeded", "Caps",
        "ClassificationReport", "ConjunctiveQuery", "DatalogFormatError",
        "Derivation", "DerivationStep", "EvalResult", "FragmentFlags",
        "GadgetFormatError", "IncidenceGraph", "MinorCondition", "NotSlam",
        "OperationTable", "PPPowerSpec", "Partition", "Program",
        "RepairFailed", "Rule", "ShapeFlags", "Signature",
        "SignatureMismatch", "Structure", "StructureFormatError",
        "SweepReport", "UnfoldError", "Verdict", "WitnessError",
        "absorptive_check", "apply_gadget_reduction", "arc_consistency",
        "block_symmetric_absorptive", "canonical_database",
        "canonical_program", "canonical_query", "canonical_rule_key",
        "classify", "condition_pairs", "core_of", "datalog", "emit_slam",
        "enumerate_homomorphisms", "enumerate_instances", "evaluate",
        "find_homomorphism", "find_isomorphism",
        "find_polymorphism_satisfying", "fragment_of", "gadget",
        "hom_equivalent", "homsolver", "incidence_graph",
        "indicator_structure", "is_core", "is_homomorphism",
        "is_isomorphic", "lattice_polymorphisms", "longest_path",
        "make_structure", "name_subset", "parse_ppower_spec",
        "parse_program", "parse_structure", "polymorph", "pp_power",
        "quasi_majority", "quasi_maltsev", "quasi_minority",
        "render_ppower_spec", "render_program", "render_structure",
        "repair_to_symmetric", "reverse_rule", "shape_of", "structures",
        "subset_name", "subset_power_structure", "totally_symmetric_check",
        "unfold", "verify_duality_pair", "verify_program_solves"]
    assert slamlog.gadget is gadget and slamlog.pp_power is pp_power


def test_identity_reduction_is_isomorphic_to_the_instance():
    spec = parse_ppower_spec(IDENTITY)
    c = path(3)
    assert is_isomorphic(apply_gadget_reduction(spec, c), c)


def test_square_reduction_subdivides_edges():
    spec = parse_ppower_spec(SQUARE)
    c = make_structure("A", (("E", 2),), 2, {"E": {(0, 1)}})
    red = apply_gadget_reduction(spec, c)
    assert red.size == 3
    assert is_isomorphic(red, path(3))


def test_equality_merges_base_nodes():
    spec = parse_ppower_spec("ppower d=1 from E/2\nrel E/2 := E(x1,x2), x1=x2")
    c = make_structure("A", (("E", 2),), 2, {"E": {(0, 1)}})
    red = apply_gadget_reduction(spec, c)
    assert red.size == 1
    assert set(red.rel("E")) == {(0, 0)}


def test_reduction_is_deterministic():
    rng = random.Random(41)
    spec = _random_spec(rng)
    c = _random_structure(rng, spec.target)
    assert apply_gadget_reduction(spec, c) == apply_gadget_reduction(spec, c)


def test_reduction_base_node_count():
    spec = parse_ppower_spec(SQUARE)
    c = make_structure("A", (("E", 2),), 3, {"E": {(0, 1), (1, 2)}})
    red = apply_gadget_reduction(spec, c)
    # one base node per instance element (d=1) plus one bound node per edge
    db_size = canonical_database(spec.query("E"))[0].size
    assert red.size <= c.size * spec.dimension + len(c.rel("E")) * (db_size - 2)
    assert red.size == 5


def test_reduction_contract_on_seeded_triples():
    rng = random.Random(4242)
    failures = 0
    for _ in range(120):
        spec = _random_spec(rng)
        b = _random_structure(rng, spec.source)
        c = _random_structure(rng, spec.target)
        left = find_homomorphism(c, pp_power(b, spec)) is not None
        right = find_homomorphism(apply_gadget_reduction(spec, c), b) is not None
        failures += left != right
    assert failures == 0
