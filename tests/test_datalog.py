from __future__ import annotations

import copy
import gc
import itertools
import random

import pytest
from datalog_oracle import evaluate_grounded

from slamlog import datalog
from slamlog.classify import enumerate_instances
from slamlog.datalog import (
    Atom,
    DatalogFormatError,
    Derivation,
    DerivationStep,
    Program,
    RepairFailed,
    Rule,
    canonical_program,
    canonical_rule_key,
    evaluate,
    fragment_of,
    name_subset,
    parse_program,
    render_program,
    repair_to_symmetric,
    reverse_rule,
    subset_name,
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
    weak_rules_instance,
    weak_rules_template,
)
from slamlog.homsolver import arc_consistency, find_homomorphism
from slamlog.polymorph import CapExceeded
from slamlog.structures import Signature, make_structure


DIGRAPH_SIG = Signature((("E", 2),))


def _rule_by_text(program, text):
    key = canonical_rule_key(parse_program(text, signature=program.signature).rules[0])
    for i, rule in enumerate(program.rules):
        if canonical_rule_key(rule) == key:
            return i
    raise AssertionError(f"rule not found: {text}")


# --- parsing and rendering -----------------------------------------------------

def test_parse_render_round_trip():
    text = "P(x) :- E(x,y).\nQ(y) :- E(x,y), P(x).\ngoal :- U(x), Q(x).\n"
    p = parse_program(text)
    assert render_program(p) == text
    assert parse_program(render_program(p)) == p


def test_nullary_idb_round_trip():
    # a nullary IDB keeps its parentheses; only goal is written bare
    text = "N() :- E(x,y).\ngoal :- E(x,y), N().\n"
    p = parse_program(text)
    assert render_program(p) == text
    assert parse_program(render_program(p)) == p


def test_parse_infers_edb_symbols():
    p = parse_program("P(x) :- E(x,y).\ngoal :- E(x,y), P(y).")
    assert "E" in p.signature
    assert "P" not in p.signature


@pytest.mark.parametrize("text,fragment", [
    ("P(x) :- E(y, z).", "unsafe"),
    ("goal(x) :- E(x, y).", "goal takes no arguments"),
    ("P(x) :- E(x, y).\nP(x, y) :- E(x, y).", "arities"),
    ("P(x :- E(x, y).", "bad atom"),
    ("P(x) :- .", "empty body"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(DatalogFormatError, match=fragment):
        parse_program(text)


def test_parse_rejects_edb_head_with_explicit_signature():
    with pytest.raises(DatalogFormatError, match="rule head"):
        parse_program("E(x,y) :- E(y,x), P(x).\nP(x) :- E(x,y).",
                      signature=DIGRAPH_SIG)


def test_subset_names_round_trip():
    assert subset_name(frozenset()) == "Pempty"
    assert subset_name({2, 0}) == "P{0_2}"
    assert name_subset("P{0_2}") == frozenset({0, 2})
    assert name_subset("Pempty") == frozenset()
    assert name_subset("Q") is None


# --- fragments and rule surgery --------------------------------------------------

def test_fragment_flags():
    monadic_arc = parse_program(
        "P(x) :- E(x,y).\nQ(y) :- E(x,y), P(x).\nP(x) :- E(x,y), Q(y).\n"
        "goal :- E(x,y), Q(x).", signature=DIGRAPH_SIG)
    flags = fragment_of(monadic_arc)
    assert flags.monadic and flags.arc and flags.linear and flags.symmetric
    assert flags.slam

    binary_idb = parse_program("R(x,y) :- E(x,y).", signature=DIGRAPH_SIG)
    assert not fragment_of(binary_idb).monadic

    two_edb = parse_program("P(y) :- E(x,y), E(y,z).", signature=DIGRAPH_SIG)
    assert not fragment_of(two_edb).arc

    two_idb = parse_program(
        "P(x) :- E(x,y).\nQ(x) :- E(x,y), P(x), P(y).", signature=DIGRAPH_SIG)
    assert not fragment_of(two_idb).linear

    one_way = parse_program(
        "P(x) :- E(x,y).\nQ(y) :- E(x,y), P(x).", signature=DIGRAPH_SIG)
    assert not fragment_of(one_way).symmetric
    assert not fragment_of(one_way).slam


def test_goal_rules_do_not_break_symmetry():
    p = parse_program(
        "P(x) :- E(x,y).\ngoal :- E(x,y), P(y).", signature=DIGRAPH_SIG)
    assert fragment_of(p).symmetric


def test_reverse_rule_swaps_head_and_body_idb():
    p = parse_program("Q(y) :- E(x,y), P(x).\nP(x) :- E(x,y).",
                      signature=DIGRAPH_SIG)
    rule = p.rules[0]
    rev = reverse_rule(rule, p.signature)
    assert rev.head.pred == "P"
    assert any(a.pred == "Q" for a in rev.body)
    assert reverse_rule(rev, p.signature) == rule


def test_reverse_rule_rejects_goal_and_pure_edb():
    p = parse_program("P(x) :- E(x,y).\ngoal :- E(x,y), P(y).",
                      signature=DIGRAPH_SIG)
    with pytest.raises(ValueError):
        reverse_rule(p.rules[0], p.signature)
    with pytest.raises(ValueError):
        reverse_rule(p.rules[1], p.signature)


def test_canonical_rule_key_invariances():
    a = parse_program("P(x) :- E(x,y), Q(y), R(x).").rules[0]
    b = parse_program("P(u) :- R(u), Q(v), E(u,v).").rules[0]
    assert canonical_rule_key(a) == canonical_rule_key(b)
    c = parse_program("P(y) :- E(x,y), Q(y), R(x).").rules[0]
    assert canonical_rule_key(a) != canonical_rule_key(c)


# --- canonical programs -----------------------------------------------------------

def test_canonical_program_rule_counts():
    table = {
        (path(2), "am"): 181, (path(2), "lam"): 57, (path(2), "slam"): 41,
        (path(3), "am"): 973, (path(3), "lam"): 153, (path(3), "slam"): 73,
        (transitive_tournament(3), "lam"): 145,
        (transitive_tournament(3), "slam"): 57,
        (horn_sat(), "am"): 1127, (horn_sat(), "lam"): 108,
        (horn_sat(), "slam"): 55,
    }
    for (b, fragment), want in table.items():
        assert len(canonical_program(b, fragment).rules) == want, (b.name, fragment)


def test_canonical_program_fragment_flags():
    for b in (path(2), horn_sat()):
        am = fragment_of(canonical_program(b, "am"))
        assert am.monadic and am.arc
        lam = fragment_of(canonical_program(b, "lam"))
        assert lam.monadic and lam.arc and lam.linear
        slam = fragment_of(canonical_program(b, "slam"))
        assert slam.slam
    # an am body may constrain several positions at once
    assert not fragment_of(canonical_program(horn_sat(), "am")).linear


def test_canonical_am_program_over_the_stream_cap_raises():
    # (r*S + 1) * ((S + 1)^r - 1) candidates per r-ary relation, S = 2^|B|
    for b in (non_caterpillar_example(), caterpillar_example()):
        with pytest.raises(CapExceeded):
            canonical_program(b, "am")
    assert fragment_of(canonical_program(non_caterpillar_example(),
                                         "slam")).slam


def test_canonical_program_rejects_unknown_fragment():
    with pytest.raises(ValueError):
        canonical_program(path(2), "full")


def test_slam_rules_close_under_reversal():
    p = canonical_program(path(3), "slam")
    keys = {canonical_rule_key(r) for r in p.rules}
    for rule in p.rules:
        if rule.head.pred == "goal":
            continue
        if not any(a.pred not in p.signature for a in rule.body):
            continue
        assert canonical_rule_key(reverse_rule(rule, p.signature)) in keys


# --- evaluation --------------------------------------------------------------------

def test_program_of_a_path_rejects_the_longer_path():
    for k in (2, 3):
        p = canonical_program(path(k), "slam")
        good = make_structure("A", (("E", 2),), k,
                              {"E": set(path(k).rel("E"))})
        bad = make_structure("A", (("E", 2),), k + 1,
                             {"E": set(path(k + 1).rel("E"))})
        assert not evaluate(p, good).goal
        assert evaluate(p, bad).goal


def test_am_equals_arc_consistency_on_small_digraphs():
    b = path(2)
    am = canonical_program(b, "am")
    for a in enumerate_instances(DIGRAPH_SIG, 3):
        wipeout = arc_consistency(a, b) is None
        assert evaluate(am, a, stop_at_goal=True).goal == wipeout


def test_lam_and_slam_decide_homomorphism_for_paths():
    b = path(2)
    lam = canonical_program(b, "lam")
    slam = canonical_program(b, "slam")
    for a in enumerate_instances(DIGRAPH_SIG, 3):
        no_hom = find_homomorphism(a, b) is None
        assert evaluate(lam, a, stop_at_goal=True).goal == no_hom
        assert evaluate(slam, a, stop_at_goal=True).goal == no_hom


def test_evaluate_is_deterministic():
    b = path(2)
    lam = canonical_program(b, "lam")
    a = make_structure("A", (("E", 2),), 3,
                       {"E": {(0, 1), (1, 2), (2, 0)}})
    r1 = evaluate(lam, a)
    r2 = evaluate(lam, a)
    assert r1.facts == r2.facts and r1.goal and r2.goal
    assert r1.trace.to_json() == r2.trace.to_json()


def test_stop_at_goal_truncates_facts():
    b = path(2)
    lam = canonical_program(b, "lam")
    a = make_structure("A", (("E", 2),), 4,
                       {"E": {(0, 0), (1, 2), (2, 3), (3, 1)}})
    full = evaluate(lam, a)
    short = evaluate(lam, a, stop_at_goal=True)
    assert full.goal and short.goal
    assert short.facts <= full.facts


def test_trace_only_for_linear_programs():
    b = horn_sat()
    am = canonical_program(b, "am")
    a = make_structure("A", b.signature.symbols, 1,
                       {"U0": {(0,)}, "U1": {(0,)}, "C": set()})
    r = evaluate(am, a)
    assert r.goal and r.trace is None


def test_trace_is_a_connected_chain():
    b = path(3)
    lam = canonical_program(b, "lam")
    a = make_structure("A", (("E", 2),), 4,
                       {"E": {(0, 1), (1, 2), (2, 3), (3, 0)}})
    r = evaluate(lam, a, stop_at_goal=True)
    assert r.goal
    steps = r.trace.steps
    assert steps[-1].fact == ("goal", ())
    for prev, step in zip(steps, steps[1:]):
        rule = lam.rules[step.rule_index]
        idb = [at for at in rule.body if at.pred not in lam.signature]
        assert idb and idb[0].pred == prev.fact[0]


def _outcome(result):
    trace = result.trace.to_json() if result.trace is not None else None
    return result.facts, result.goal, trace


def _agrees_with_grounding(p, a) -> bool:
    """Compare with full grounding, with and without stop_at_goal, and
    return whether the goal was derived."""
    for stop in (False, True):
        got = _outcome(evaluate(p, a, stop_at_goal=stop))
        assert got == _outcome(evaluate_grounded(p, a, stop_at_goal=stop)), \
            (stop, a)
    return got[1]


def _random_instance(signature, rng, size):
    rels = {sym: {tuple(rng.randrange(size) for _ in range(ar))
                  for _ in range(rng.randrange(2 * size + 2))}
            for sym, ar in signature.symbols}
    return make_structure("A", signature.symbols, size, rels)


def test_on_demand_grounding_equals_full_grounding_on_fixtures():
    rng = random.Random(6061)
    templates = (path(2), path(3), path(4), transitive_tournament(3), b_n(2),
                 st_con(), horn_sat(), directed_cycle(3), directed_cycle(4),
                 f_n(3))
    goals = 0
    for b in templates:
        for fragment in ("am", "lam", "slam"):
            if fragment == "am" and b.size > 3:
                continue
            p = canonical_program(b, fragment)
            # the oracle grounds every rule, so big programs get few runs
            for _ in range(2 if len(p.rules) > 10_000 else 10):
                a = _random_instance(b.signature, rng, rng.randrange(1, 7))
                goals += _agrees_with_grounding(p, a)
    assert goals > 50


HAND_PROGRAM = """
S(x) :- E(x,y).
T(x) :- R(x), S(x).
G(x) :- E(x,y), E(y,z), T(z).
H(x) :- T(x), G(x).
U(x,y) :- E(x,z), E(z,y).
A(x) :- E(x,y), H(y).
A(x) :- E(x,y), U(y,y).
B(y) :- E(x,y), A(x), A(y).
C(x) :- E(x,x), B(x), A(x).
N() :- E(x,y), C(y).
D(x) :- E(x,y), N().
V(x,y) :- E(x,y), U(y,x).
W(x) :- R(x).
W(y) :- E(x,y), V(x,y), W(x).
goal :- E(x,y), D(x), D(y), W(y).
"""

# Arc rules that differ only in their head predicate form one run: A, B, C
# on P; then X, another shape, breaks it and D resumes it as a new run; L, M
# need equal columns.  Which goal rule fires first depends on the order the
# run's heads are queued in.
RUN_PROGRAM = """
P(x) :- R(x).
A(y) :- E(x,y), P(x).
B(y) :- E(x,y), P(x).
C(y) :- E(x,y), P(x).
X(x) :- E(x,y), P(x).
D(y) :- E(x,y), P(x).
L(x) :- E(x,x), P(x).
M(x) :- E(x,x), P(x).
P(y) :- E(x,y), B(x).
P(x) :- E(x,y), M(y).
goal :- G(x), A(x).
goal :- R(x), C(x).
goal :- G(x), D(x).
goal :- R(x), L(x).
goal :- G(x), X(x).
"""

# S and T form a run with two IDB body atoms, under P and under Q.
TWO_IDB_RUN_PROGRAM = """
P(x) :- R(x).
Q(y) :- E(x,y), P(x).
S(y) :- E(x,y), P(x), Q(y).
T(y) :- E(x,y), P(x), Q(y).
P(y) :- E(x,y), S(x).
Q(x) :- E(x,y), T(y).
goal :- G(x), T(x).
"""


def _runs(p):
    """The runs of arc rules in p's users index: (IDB predicate, EDB
    predicate, equality pairs, IDB body atoms, head predicates)."""
    return [(q, e[1], e[2], len(e[4]), [head for _, head in e[5]])
            for q, entries in datalog._compiled_rules(p)[2].items()
            for e in entries if e[0] is not None]


def test_on_demand_grounding_equals_full_grounding_on_hand_programs():
    rng = random.Random(6062)
    p = parse_program(HAND_PROGRAM)
    kinds = [c[0] for c in datalog._compiled_rules(p)[0]]
    assert kinds.count("gen") == 3 and kinds.count("arc") == 12
    linear = parse_program("P(x) :- E(x,y).\nQ(y) :- E(x,y), P(x).\n"
                           "Q(x) :- E(x,y), P(y).\ngoal :- R(x), Q(x).\n"
                           "goal :- E(x,x), Q(x).\n")
    runs = parse_program(RUN_PROGRAM)
    assert [r for r in _runs(runs) if r[0] == "P"] == [
        ("P", "E", (), 1, ["A", "B", "C"]), ("P", "E", (), 1, ["X"]),
        ("P", "E", (), 1, ["D"]), ("P", "E", ((0, 1),), 1, ["L", "M"])]
    two_idb = parse_program(TWO_IDB_RUN_PROGRAM)
    assert [r for r in _runs(two_idb) if r[4] == ["S", "T"]] == [
        ("P", "E", (), 2, ["S", "T"]), ("Q", "E", (), 2, ["S", "T"])]
    goals = 0
    for i in range(150):
        for prog in (p, linear, runs, two_idb):
            a = _random_instance(prog.signature, rng, rng.randrange(1, 6))
            if i % 5 == 0:
                empty = {sym: set() if sym == "R" else a.rel(sym)
                         for sym, _ in prog.signature.symbols}
                a = make_structure("A", prog.signature.symbols, a.size, empty)
            goals += _agrees_with_grounding(prog, a)
    assert goals > 40


def test_signature_mismatch_on_evaluate():
    p = canonical_program(path(2), "slam")
    a = make_structure("A", (("F", 2),), 2, {"F": {(0, 1)}})
    with pytest.raises(Exception):
        evaluate(p, a)


# --- symmetrization ------------------------------------------------------------------

def test_weak_rules_program_keeps_only_symmetric_movement():
    wt = weak_rules_template()
    slam = canonical_program(wt, "slam")
    lam = canonical_program(wt, "lam")
    asym = "P{2}(x2) :- E(x1,x2), P{0}(x1)."
    _rule_by_text(lam, asym)
    with pytest.raises(AssertionError):
        _rule_by_text(slam, asym)
    fwd = _rule_by_text(slam, "P{2}(x2) :- E(x1,x2), P{0_1}(x1).")
    rev = _rule_by_text(slam, "P{0_1}(x1) :- E(x1,x2), P{2}(x2).")
    assert fwd != rev


def test_weak_rules_repair_reproduces_the_weakened_chain():
    wt = weak_rules_template()
    wi = weak_rules_instance()
    lam = canonical_program(wt, "lam")
    r = evaluate(lam, wi, stop_at_goal=True)
    assert r.goal
    facts = [s.fact for s in r.trace.steps]
    assert facts == [("P{0}", (0,)), ("P{2}", (1,)), ("goal", ())]
    rep = repair_to_symmetric(r.trace, wt)
    assert rep.program == canonical_program(wt, "slam")
    assert [s.fact for s in rep.steps] == [
        ("P{0_1}", (0,)), ("P{2}", (1,)), ("goal", ())]
    assert fragment_of(rep.program).slam


def test_repair_accepts_hand_built_derivation():
    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    steps = (
        DerivationStep(("P{0}", (0,)),
                       _rule_by_text(lam, "P{0}(x1) :- C0(x1)."),
                       (("x1", 0),)),
        DerivationStep(("P{2}", (1,)),
                       _rule_by_text(lam, "P{2}(x2) :- E(x1,x2), P{0}(x1)."),
                       (("x2", 1), ("x1", 0))),
        DerivationStep(("goal", ()),
                       _rule_by_text(lam, "goal :- C4(x1), P{2}(x1)."),
                       (("x1", 1),)),
    )
    rep = repair_to_symmetric(Derivation(program=lam, steps=steps), wt)
    assert [s.fact[0] for s in rep.steps] == ["P{0_1}", "P{2}", "goal"]


def test_repair_on_every_lam_refutation_of_paths():
    for k in (2, 3):
        b = path(k)
        lam = canonical_program(b, "lam")
        slam = canonical_program(b, "slam")
        repaired = 0
        for a in enumerate_instances(DIGRAPH_SIG, 3):
            r = evaluate(lam, a, stop_at_goal=True)
            s = evaluate(slam, a, stop_at_goal=True)
            assert r.goal == s.goal
            if r.goal:
                rep = repair_to_symmetric(r.trace, b)
                assert rep.steps[-1].fact == ("goal", ())
                repaired += 1
        assert repaired > 400


def test_repair_fails_where_slam_is_strictly_weaker():
    t3 = transitive_tournament(3)
    lam = canonical_program(t3, "lam")
    loop = make_structure("A", (("E", 2),), 1, {"E": {(0, 0)}})
    r = evaluate(lam, loop, stop_at_goal=True)
    assert r.goal
    assert not evaluate(canonical_program(t3, "slam"), loop).goal
    with pytest.raises(RepairFailed):
        repair_to_symmetric(r.trace, t3)


def test_repair_rejects_invalid_derivations():
    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    bogus = Derivation(program=lam, steps=(
        DerivationStep(("P{5}", (0,)),
                       _rule_by_text(lam, "P{0}(x1) :- C0(x1)."),
                       (("x1", 0),)),
    ))
    with pytest.raises(RepairFailed):
        repair_to_symmetric(bogus, wt)


def test_derivation_to_json_shape():
    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    r = evaluate(lam, weak_rules_instance(), stop_at_goal=True)
    blob = r.trace.to_json()
    assert [e["fact"][0] for e in blob] == ["P{0}", "P{2}", "goal"]
    assert all(set(e) == {"fact", "rule", "bindings"} for e in blob)


def test_compiled_rules_live_only_as_long_as_their_program():
    c3 = make_structure("C3", (("E", 2),), 3, {"E": {(0, 1), (1, 2), (2, 0)}})
    p = canonical_program(path(2), "slam")
    dup = copy.copy(p)
    first = evaluate(p, c3, stop_at_goal=True)
    again = evaluate(dup, c3, stop_at_goal=True)
    assert first.goal and again.goal and again.trace is not None
    assert {id(p), id(dup)} <= set(datalog._COMPILED_CACHE)
    key = id(p)
    del p, first
    gc.collect()
    assert key not in datalog._COMPILED_CACHE
    assert id(dup) in datalog._COMPILED_CACHE
