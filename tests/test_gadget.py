from __future__ import annotations

import itertools
import random

import pytest

from slamlog.fixtures import path
from slamlog.gadget import (
    GadgetFormatError,
    PPPowerSpec,
    apply_gadget_reduction,
    parse_ppower_spec,
    pp_power,
    render_ppower_spec,
)
from slamlog.homsolver import find_homomorphism, is_isomorphic
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
