"""End-to-end acceptance criteria for the slam Datalog toolkit.

Each test checks one numbered criterion at its stated tolerance and prints a
single PASS line with the measured numbers (visible under pytest -s).  The
random sweeps are seeded, so two runs of the suite see the same instances.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from slamlog.classify import (
    classify,
    emit_slam,
    enumerate_instances,
    verify_duality_pair,
)
from slamlog.datalog import (
    canonical_program,
    evaluate,
    fragment_of,
    repair_to_symmetric,
)
from slamlog.fixtures import (
    DIGRAPH_SIG,
    UNFOLD_A,
    UNFOLD_B,
    b_n,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
    unfolded_tree_expected,
    unfolding_tree,
    weak_rules_instance,
    weak_rules_template,
)
from slamlog.gadget import apply_gadget_reduction, parse_ppower_spec, pp_power
from slamlog.homsolver import find_homomorphism, find_isomorphism
from slamlog.polymorph import (
    absorptive_check,
    brute_force_search,
    find_polymorphism_satisfying,
    quasi_majority,
    quasi_maltsev,
    quasi_minority,
)
from slamlog.structures import (
    Signature,
    Structure,
    make_structure,
    shape_of,
    unfold,
)


FIXTURES = {
    "P2": path(2),
    "P3": path(3),
    "T3": transitive_tournament(3),
    "B2": b_n(2),
    "D2": st_con(),
    "HornSat": horn_sat(),
    "C3": directed_cycle(3),
}

# (tree duality, quasi Maltsev, caterpillar duality / lam, slam)
VERDICT_TABLE = {
    "P2": ("yes", "yes", "yes", "yes"),
    "P3": ("yes", "yes", "yes", "yes"),
    "T3": ("yes", "no", "yes", "no"),
    "B2": ("yes", "no", "yes", "no"),
    "D2": ("yes", "no", "yes", "no"),
    "HornSat": ("yes", "no", "no", "no"),
    "C3": ("no", "yes", "no", "no"),
}


def _digraph_instances():
    """All labeled digraphs with at most 4 vertices: every loopless 4-vertex
    digraph plus every digraph (loops allowed) on up to 3 vertices."""
    for size in (1, 2, 3):
        yield from enumerate_instances(Signature(DIGRAPH_SIG), size)
    yield from enumerate_instances(Signature(DIGRAPH_SIG), 4, loopless=True)


def _random_satisfiable(b, rng, max_size):
    """Instance built around a random map into b, so a homomorphism exists."""
    n = rng.randrange(1, max_size + 1)
    image = [rng.randrange(b.size) for _ in range(n)]
    rels = []
    for sym, ar, rel in b.relation_items():
        cands = [t for t in itertools.product(range(n), repeat=ar)
                 if tuple(image[v] for v in t) in rel]
        take = rng.randrange(0, len(cands) + 1) if cands else 0
        rels.append(frozenset(rng.sample(cands, take)))
    return Structure(signature=b.signature, size=n, relations=tuple(rels),
                     name="A")


def _random_caterpillar(rng, max_elements=10):
    """Digraph whose incidence graph is a caterpillar with a long spine."""
    spine = rng.randrange(4, 8)
    legs = rng.randrange(0, max_elements - spine + 1)
    n = spine + legs
    edges = set()
    for v in range(spine - 1):
        edges.add((v, v + 1) if rng.random() < 0.5 else (v + 1, v))
    for i in range(legs):
        leg = spine + i
        host = rng.randrange(1, spine - 1)
        edges.add((host, leg) if rng.random() < 0.5 else (leg, host))
    return make_structure("A", (("E", 2),), n, {"E": edges}), spine


def test_acceptance_01_fixture_verdict_table():
    start = time.perf_counter()
    got = {}
    for name, b in FIXTURES.items():
        rep = classify(b)
        got[name] = (
            rep.verdicts["tree_duality"].value,
            rep.verdicts["quasi_maltsev"].value,
            rep.verdicts["caterpillar_lam"].value,
            rep.verdicts["slam"].value,
        )
    elapsed = time.perf_counter() - start
    assert got == VERDICT_TABLE
    assert elapsed < 60
    print(f"ACCEPTANCE 1: PASS - 7 fixture verdicts exact in {elapsed:.1f}s")


def test_acceptance_02_emitted_slam_solves_paths_exhaustively():
    start = time.perf_counter()
    checked = disagreements = 0
    for name in ("P2", "P3"):
        b = FIXTURES[name]
        program = emit_slam(b)
        assert fragment_of(program).slam
        for a in _digraph_instances():
            sat = find_homomorphism(a, b) is not None
            goal = evaluate(program, a, stop_at_goal=True).goal
            disagreements += goal == sat
            checked += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert checked == 2 * (2 + 16 + 512 + 4096)
    assert elapsed < 60
    print(f"ACCEPTANCE 2: PASS - {checked} instances, 0 disagreements, "
          f"{elapsed:.1f}s")


def test_acceptance_03_soundness_on_satisfiable_instances():
    start = time.perf_counter()
    rng = random.Random(20240817)
    per_template = 10_000
    total = 0
    for name, b in FIXTURES.items():
        max_size = 3 if b.signature.max_arity() > 2 else 4
        programs = [canonical_program(b, f) for f in ("am", "lam", "slam")]
        for i in range(per_template):
            a = _random_satisfiable(b, rng, max_size)
            r = evaluate(programs[i % 3], a, stop_at_goal=True)
            assert not r.goal, (name, i)
            total += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 3: PASS - {total} satisfiable instances, "
          f"0 goal derivations, {elapsed:.1f}s")


def test_acceptance_04_symmetrization_of_lam_refutations():
    start = time.perf_counter()
    repaired = 0
    for name in ("P2", "P3"):
        b = FIXTURES[name]
        lam = canonical_program(b, "lam")
        slam = canonical_program(b, "slam")
        for a in _digraph_instances():
            r = evaluate(lam, a, stop_at_goal=True)
            s = evaluate(slam, a, stop_at_goal=True)
            assert r.goal == s.goal, name
            if r.goal:
                rep = repair_to_symmetric(r.trace, b)
                assert rep.program == slam
                assert rep.steps[-1].fact == ("goal", ())
                repaired += 1

    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    r = evaluate(lam, weak_rules_instance(), stop_at_goal=True)
    assert [s.fact for s in r.trace.steps] == [
        ("P{0}", (0,)), ("P{2}", (1,)), ("goal", ())]
    rep = repair_to_symmetric(r.trace, wt)
    assert [s.fact for s in rep.steps] == [
        ("P{0_1}", (0,)), ("P{2}", (1,)), ("goal", ())]
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 4: PASS - verdicts identical, {repaired} refutations "
          f"repaired, weakened chain reproduced, {elapsed:.1f}s")


def test_acceptance_05_indicator_agrees_with_brute_force():
    start = time.perf_counter()
    pairs = list(itertools.product(range(2), repeat=2))
    singles = [(0,), (1,)]
    conditions = (quasi_maltsev(), quasi_minority(), quasi_majority())
    checked = 0
    for emask in range(16):
        for umask in range(4):
            b = make_structure(
                "B", (("E", 2), ("U", 1)), 2,
                {"E": {pairs[i] for i in range(4) if emask >> i & 1},
                 "U": {singles[i] for i in range(2) if umask >> i & 1}},
            )
            for cond in conditions:
                fast = find_polymorphism_satisfying(b, cond)
                slow = brute_force_search(b, cond)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.is_polymorphism_of(b)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 64 * 3
    assert elapsed < 120
    print(f"ACCEPTANCE 5: PASS - {checked} template/condition pairs agree, "
          f"{elapsed:.1f}s")


def test_acceptance_06_absorptive_bound_machinery():
    start = time.perf_counter()
    big = absorptive_check(path(2), 4, 4, strategy="dense")
    dense_elapsed = time.perf_counter() - start
    assert big.status == "yes"
    assert big.indicator_size <= 2 ** 16
    assert dense_elapsed < 120

    agreements = 0
    for b in (path(2), b_n(2), horn_sat(), st_con()):
        for k, n in ((1, 2), (2, 2), (2, 3)):
            dense = absorptive_check(b, k, n, strategy="dense")
            sets = absorptive_check(b, k, n, strategy="setsystem")
            assert dense.status == sets.status, (b.name, k, n)
            agreements += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 6: PASS - dense (4,4) yes in {dense_elapsed:.1f}s, "
          f"{agreements} strategy agreements, {elapsed:.1f}s total")


def test_acceptance_07_unfolding_properties():
    start = time.perf_counter()
    rng = random.Random(7771)
    templates = [(name, FIXTURES[name],
                  canonical_program(FIXTURES[name], "slam"))
                 for name in ("P2", "P3")]
    goal_preserved = 0
    for _ in range(20):
        t, spine = _random_caterpillar(rng)
        assert shape_of(t).caterpillar
        a, b = sorted(rng.sample(range(1, spine - 1), 2))
        u = unfold(t, a, b)
        assert shape_of(u).caterpillar
        assert find_homomorphism(u, t) is not None
        for _, template, program in templates:
            if evaluate(program, t, stop_at_goal=True).goal:
                assert evaluate(program, u, stop_at_goal=True).goal
                goal_preserved += 1

    got = unfold(unfolding_tree(), UNFOLD_A, UNFOLD_B)
    assert find_isomorphism(got, unfolded_tree_expected()) is not None
    elapsed = time.perf_counter() - start
    assert goal_preserved > 0
    print(f"ACCEPTANCE 7: PASS - 20 unfoldings stay caterpillars and map "
          f"home, {goal_preserved} goal preservations, figure fixture "
          f"reproduced, {elapsed:.1f}s")


def test_acceptance_08_gadget_reduction_contract():
    start = time.perf_counter()
    rng = random.Random(90210)
    failures = 0
    for _ in range(1000):
        spec = _random_gadget_spec(rng)
        b = _random_instance(rng, spec.source)
        c = _random_instance(rng, spec.target)
        left = find_homomorphism(c, pp_power(b, spec)) is not None
        right = find_homomorphism(apply_gadget_reduction(spec, c), b) is not None
        failures += left != right
    elapsed = time.perf_counter() - start
    assert failures == 0
    print(f"ACCEPTANCE 8: PASS - 1000 seeded gadget triples, 0 contract "
          f"failures, {elapsed:.1f}s")


def _random_gadget_spec(rng):
    source_symbols = [("E", 2)] + ([("U", 1)] if rng.random() < 0.4 else [])
    d = rng.choice((1, 1, 2))
    lines = [
        "ppower d=%d from %s"
        % (d, ",".join(f"{s}/{a}" for s, a in source_symbols))
    ]
    for i in range(rng.randrange(1, 3)):
        ar = rng.choice((1, 2))
        free = [f"x{j + 1}" for j in range(d * ar)]
        bound = [f"z{j + 1}" for j in range(rng.randrange(0, 3))]
        pool = free + bound
        conjuncts = []
        for _ in range(rng.randrange(1, 4)):
            s, a = rng.choice(source_symbols)
            conjuncts.append(
                f"{s}({','.join(rng.choice(pool) for _ in range(a))})")
        if rng.random() < 0.4:
            conjuncts.append(f"{rng.choice(pool)}={rng.choice(pool)}")
        body = ", ".join(conjuncts)
        if bound:
            body = f"exists {' '.join(bound)} . {body}"
        lines.append(f"rel R{i}/{ar} := {body}")
    return parse_ppower_spec("\n".join(lines))


def _random_instance(rng, signature, max_size=3):
    n = rng.randrange(1, max_size + 1)
    rels = {}
    for sym, ar in signature.symbols:
        pool = list(itertools.product(range(n), repeat=ar))
        rels[sym] = set(rng.sample(pool, rng.randrange(len(pool) + 1)))
    return make_structure("A", signature.symbols, n, rels)


def test_acceptance_09_duality_pairs():
    start = time.perf_counter()
    first = verify_duality_pair([path(3)], path(2), 5)
    assert first.holds, first.counterexamples[:1]
    second = verify_duality_pair([path(4)], transitive_tournament(3), 4)
    assert second.holds, second.counterexamples[:1]
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 9: PASS - (P3, P2) over {first.checked} and "
          f"(P4, T3) over {second.checked} instances, {elapsed:.1f}s")


def _suite_report(jobs):
    reports = {
        name: json.loads(classify(b).to_json(include_timing=False))
        for name, b in sorted(FIXTURES.items())
    }
    sweeps = {
        "p2_duality": json.loads(
            verify_duality_pair([path(3)], path(2), 3, jobs=jobs).to_json()),
        "p2_solves": json.loads(
            verify_duality_pair([path(4)], transitive_tournament(3), 3,
                                jobs=jobs).to_json()),
    }
    return json.dumps({"classify": reports, "sweeps": sweeps},
                      sort_keys=True, indent=2)


def test_acceptance_10_deterministic_reports():
    start = time.perf_counter()
    serial_one = _suite_report(jobs=1)
    serial_two = _suite_report(jobs=1)
    parallel = _suite_report(jobs=8)
    elapsed = time.perf_counter() - start
    assert serial_one == serial_two
    assert serial_one == parallel
    print(f"ACCEPTANCE 10: PASS - reports byte-identical across two runs and "
          f"jobs 1 vs 8, {elapsed:.1f}s")
