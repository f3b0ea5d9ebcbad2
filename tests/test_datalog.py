from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import random

import pytest
from datalog_oracle import (
    canonical_rules,
    evaluate_grounded,
    random_instance,
    random_program,
)

from slamlog import datalog
from slamlog.classify import enumerate_instances
from slamlog.datalog import (
    GOAL,
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
    digraph,
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


def _rule_by_key(program):
    """canonical_rule_key -> the index of the last rule with that key, the
    scan that repair_to_symmetric once made for every repaired rule."""
    return {canonical_rule_key(rule): i for i, rule in enumerate(program.rules)}


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


def test_canonical_programs_are_every_valid_rule_of_their_shape():
    """canonical_program renders its rules from the template's blocks;
    the brute-force enumeration reads the definition instead."""
    for b in (path(2), path(3), transitive_tournament(3), b_n(2),
              directed_cycle(3), horn_sat()):
        for fragment in datalog.FRAGMENTS:
            got = {canonical_rule_key(rule)
                   for rule in canonical_program(b, fragment).rules}
            want = {canonical_rule_key(rule)
                    for rule in canonical_rules(b, fragment)}
            assert got == want, (b.name, fragment)


def test_subset_tables_equal_their_closed_forms():
    for n in range(7):
        assert datalog._subset_names(n) == \
            [subset_name(tuple(datalog._bits(m))) for m in range(1 << n)]
        empty = make_structure(f"E{n}", (), n, {})
        for fragment in datalog.FRAGMENTS:
            dominated = datalog._canonical_tables(empty, fragment)[4]
            assert dominated == ([0] * (1 << n) if fragment == "slam" else [
                sum(1 << t for t in range(s) if t & s == t)
                for s in range(1 << n)]), (n, fragment)


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


# slam(P4) pops a run with two targets here whose larger head derives new
# facts: fired row-major instead of rule-major, those come before the goal
# and stop_at_goal returns 80 facts instead of 78.  In am and lam a run's
# heads are the supersets of its smallest, which derives at least what they
# derive, so there the order never shows.
RUN_ORDER_WITNESS = (8, [(0, 1), (0, 7), (1, 2), (2, 6), (3, 2), (4, 3),
                         (5, 4)])


FIXTURES = (path(2), path(3), path(4), transitive_tournament(3),
            directed_cycle(3), b_n(2), st_con(), horn_sat(), f_n(3))


def _parsed_canonical_programs():
    """(template, fragment, canonical program, the same rules parsed back)
    for every fixture and fragment, am up to three elements."""
    for b in FIXTURES:
        for fragment in ("am", "lam", "slam"):
            if fragment == "am" and b.size > 3:
                continue
            p = canonical_program(b, fragment)
            parsed = parse_program(p.render(), p.signature)
            assert parsed.origin is None and parsed == p
            yield b, fragment, p, parsed


def test_canonical_tables_equal_the_generic_path():
    """Canonical rules parsed back have no origin but canonical shape, so
    they run from tables compiled from their rules; full grounding is the
    reference."""
    rng = random.Random(6063)
    goals = traces = 0
    for b, fragment, p, parsed in _parsed_canonical_programs():
        # solve runs am on at most 10 vertices; am(F3) has 16,630 rules
        sizes = (1, 2, 3, 4, 7, 10, 30, 60) if fragment != "am" else \
            (1, 2, 3, 4, 7, 10) if len(p.rules) < 10_000 else (2, 7)
        instances = [_random_instance(b.signature, rng, size)
                     for size in sizes]
        if b.name == "P4":
            instances.append(digraph(*RUN_ORDER_WITNESS))
        for a in instances:
            for stop in (False, True):
                got = _outcome(evaluate(parsed, a, stop_at_goal=stop))
                assert got == _outcome(evaluate_grounded(
                    parsed, a, stop_at_goal=stop)), \
                    (b.name, fragment, a.size, stop)
                goals += got[1]
                traces += got[2] is not None
    assert goals > 200 and traces > 100


def _merged_runs(runs, rename):
    """Each stretch of runs with equal (keys, head position, checks) as one
    run: (keys, head position, checks, heads, {head: rule index}), with the
    heads renamed to subset masks.  A run starts a stretch only where the
    ids of its heads do not ascend from the last run's, and every stretch
    fires its rules in rule order."""
    out = []
    last = None
    for keys, head, checks, heads, ref in runs:
        ids = list(datalog._bits(heads))
        indices = [datalog._rule_index(ref, s) for s in ids]
        assert indices == sorted(indices)
        rules = dict(zip([rename(head, s) for s in ids], indices))
        if out and out[-1][:3] == [keys, head, checks]:
            assert ids[0] <= last, "a run split while its ids ascend"
            assert min(rules.values()) > max(out[-1][4].values())
            out[-1][3] |= sum(1 << s for s in rules)
            out[-1][4].update(rules)
        else:
            out.append([keys, head, checks, sum(1 << s for s in rules),
                        rules])
        last = ids[-1]
    return [tuple(run) for run in out]


def test_rule_tables_equal_block_tables():
    """The tables compiled from a canonical program's rules are those of
    its template's blocks, up to renaming the IDB ids and splitting a run
    where its ids descend: the same runs with the same heads, and the same
    rule index for each head."""
    for b, fragment, _, parsed in _parsed_canonical_programs():
        initial, users, linear, names, dominated = \
            datalog._rule_tables(parsed)
        want_initial, want_users, want_linear, _, want_dominated = \
            datalog._canonical_tables(b, fragment)
        mask = [sum(1 << e for e in name_subset(name)) for name in names]

        def renamed(head, s):       # a goal rule's head subset is 0
            return s if head is None else mask[s]

        def flat(groups):           # each run with its relation and keys
            return [((rel, keys), *run) for rel, keys, runs in groups
                    for run in runs]

        def renamed_checks(runs):
            return [(keys, head, tuple([(x, mask[c]) for x, c in checks]),
                     heads, ref) for keys, head, checks, heads, ref in runs]

        assert linear == want_linear and not any(dominated)
        assert any(want_dominated) == (fragment != "slam")
        assert _merged_runs(flat(initial), renamed) == \
            _merged_runs(flat(want_initial), lambda head, s: s)
        got_users = [[] for _ in want_users]
        for q, groups in enumerate(users):
            got_users[mask[q]] = _merged_runs(renamed_checks(flat(groups)),
                                              renamed)
        assert got_users == [_merged_runs(flat(groups), lambda head, s: s)
                             for groups in want_users], (b.name, fragment)
        # no two groups in a row share their relation and keys
        for groups in (initial, *users, want_initial, *want_users):
            assert all(x[:2] != y[:2] for x, y in zip(groups, groups[1:]))


def test_canonical_programs_never_compile_rules(monkeypatch):
    def refuse(p):
        raise AssertionError("_rule_tables reached")
    monkeypatch.setattr(datalog, "_rule_tables", refuse)
    rng = random.Random(6064)
    for b in (path(3), horn_sat()):
        for fragment in ("am", "lam", "slam"):
            p = canonical_program(b, fragment)
            for size in (3, 10):
                a = _random_instance(b.signature, rng, size)
                evaluate(copy.copy(p), a)
    parsed = parse_program(p.render(), p.signature)
    with pytest.raises(AssertionError, match="_rule_tables reached"):
        evaluate(parsed, a)


def test_origin_is_provenance_only():
    b = path(2)
    p = canonical_program(b, "slam")
    assert p.origin[0] is b and p.origin[1] == "slam"
    assert copy.copy(p).origin == p.origin
    for other in (dataclasses.replace(p, rules=p.rules[:-1]),
                  dataclasses.replace(p, rules=p.rules),
                  parse_program(p.render(), p.signature)):
        assert other.origin is None
    same = parse_program(p.render(), p.signature)
    assert same == p and hash(same) == hash(p) and repr(same) == repr(p)
    assert "origin" not in repr(p)


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
# on P; then X, with another head position, breaks it and D resumes it as a
# new run.  L, M repeat a variable, so the program is grounded up front;
# without them it runs from tables.  Which goal rule fires first depends on
# the order the run's heads are queued in.
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
    """The runs in the users tables of p: (IDB predicate, relation, keys,
    head position, checks, head predicates in firing order)."""
    _, users, _, names, _ = datalog._rule_tables(p)
    return [(names[q], rel, keys, head,
             tuple([(x, names[c]) for x, c in checks]),
             [GOAL if head is None else names[s]
              for s in datalog._bits(heads)])
            for q, groups in enumerate(users) for rel, keys, runs in groups
            for head, checks, heads, _ in runs]


def test_on_demand_grounding_equals_full_grounding_on_hand_programs():
    """Programs of canonical shape run from tables compiled from their
    rules; the rest (two EDB atoms, a repeated variable, a non-unary or
    EDB-free IDB rule) are grounded up front.  Both equal the oracle."""
    rng = random.Random(6062)
    p = parse_program(HAND_PROGRAM)
    linear = parse_program("P(x) :- E(x,y).\nQ(y) :- E(x,y), P(x).\n"
                           "Q(x) :- E(x,y), P(y).\ngoal :- R(x), Q(x).\n"
                           "goal :- E(x,x), Q(x).\n")
    runs = parse_program(RUN_PROGRAM)
    arc_runs = parse_program("\n".join(
        line for line in RUN_PROGRAM.splitlines() if "E(x,x)" not in line),
        runs.signature)
    two_idb = parse_program(TWO_IDB_RUN_PROGRAM)
    for prog in (p, linear, runs):
        assert datalog._rule_tables(prog) is None
    on_p = (("E", 0),)
    assert [r for r in _runs(arc_runs) if r[0] == "P"] == [
        ("P", "E", on_p, 1, (), ["A", "B", "C"]),
        ("P", "E", on_p, 0, (), ["X"]), ("P", "E", on_p, 1, (), ["D"])]
    checks = ((0, "P"), (1, "Q"))
    assert [r for r in _runs(two_idb) if r[5] == ["S", "T"]] == [
        ("P", "E", on_p, 1, checks, ["S", "T"]),
        ("Q", "E", (("E", 1),), 1, checks, ["S", "T"])]
    assert ("T", "G", (("G", 0),), None, (), ["goal"]) in _runs(two_idb)
    goals = 0
    for i in range(150):
        for prog in (p, linear, runs, arc_runs, two_idb):
            a = _random_instance(prog.signature, rng, rng.randrange(1, 6))
            if i % 5 == 0:
                empty = {sym: set() if sym == "R" else a.rel(sym)
                         for sym, _ in prog.signature.symbols}
                a = make_structure("A", prog.signature.symbols, a.size, empty)
            goals += _agrees_with_grounding(prog, a)
    assert goals > 40


def test_grounded_path_equals_full_grounding_on_seeded_programs():
    """Seeded programs not of canonical shape, on instances of 0-3
    elements, with and without stop_at_goal."""
    rng = random.Random(6065)
    seen = dict.fromkeys(("two EDB atoms", "repeated variable", "S", "N",
                          "IDB-only body", "empty instance"), 0)
    goals = traces = 0
    for _ in range(400):
        p = random_program(rng)
        for rule in p.rules:
            edb, idb = datalog._body_split(rule, p.signature)
            seen["two EDB atoms"] += len(edb) > 1
            seen["repeated variable"] += any(
                len(set(atom.args)) < len(atom.args) for atom in edb)
            seen["IDB-only body"] += not edb
        preds = {atom.pred for rule in p.rules
                 for atom in (rule.head, *rule.body)}
        seen["S"] += "S" in preds
        seen["N"] += "N" in preds
        a = random_instance(rng)
        seen["empty instance"] += a.size == 0
        goals += _agrees_with_grounding(p, a)
        traces += evaluate(p, a).trace is not None
    assert min(seen.values()) > 20 and goals > 80 and traces > 30, \
        (seen, goals, traces)


# P is numbered 0, C 1, Q 2, D 3 and X 4 by first occurrence, so the arc
# rules D, C on P have descending ids.  Fired by ascending id as one run, C
# would be derived before D at 1, X(2) would come from C(1) instead of D(1),
# and the trace would differ from full grounding's.
DESCENDING_RUN_PROGRAM = """
P(x) :- E(x,y).
C(y) :- E(x,y), Q(x).
D(y) :- E(x,y), P(x).
C(y) :- E(x,y), P(x).
X(y) :- E(x,y), C(x).
X(y) :- E(x,y), D(x).
goal :- E(x,y), X(y).
Q(y) :- E(x,y), X(x).
"""


def test_runs_from_rules_fire_in_rule_order():
    p = parse_program(DESCENDING_RUN_PROGRAM)
    assert _agrees_with_grounding(p, digraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert [r[5] for r in _runs(p) if r[0] == "P"] == [["D"], ["C"]]


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
    slam = canonical_program(wt, "slam")
    rep = repair_to_symmetric(r.trace, slam)
    assert rep.program is slam
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
    rep = repair_to_symmetric(Derivation(program=lam, steps=steps),
                              canonical_program(wt, "slam"))
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
                rep = repair_to_symmetric(r.trace, slam)
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
        repair_to_symmetric(r.trace, canonical_program(t3, "slam"))


def test_repair_rejects_invalid_derivations():
    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    bogus = Derivation(program=lam, steps=(
        DerivationStep(("P{5}", (0,)),
                       _rule_by_text(lam, "P{0}(x1) :- C0(x1)."),
                       (("x1", 0),)),
    ))
    with pytest.raises(RepairFailed):
        repair_to_symmetric(bogus, canonical_program(wt, "slam"))


def test_repair_needs_the_canonical_slam_program():
    wt = weak_rules_template()
    lam = canonical_program(wt, "lam")
    r = evaluate(lam, weak_rules_instance(), stop_at_goal=True)
    slam = canonical_program(wt, "slam")
    # a lam program, and the slam rules without their origin
    for other in (lam, dataclasses.replace(slam)):
        with pytest.raises(ValueError, match="canonical_program"):
            repair_to_symmetric(r.trace, other)
    assert repair_to_symmetric(r.trace, copy.copy(slam)).steps == \
        repair_to_symmetric(r.trace, slam).steps


def test_repair_looks_up_every_slam_rule_in_the_tables():
    for b in (path(2), path(3), path(4), transitive_tournament(3), b_n(2),
              weak_rules_template()):
        slam = canonical_program(b, "slam")
        by_key = _rule_by_key(slam)
        assert len(by_key) == len(slam.rules), b.name
        for i, rule in enumerate(slam.rules):
            # _lookup raises unless exactly one run matches
            assert datalog._lookup(slam, datalog._step(rule, b)) == i == \
                by_key[canonical_rule_key(rule)], (b.name, rule.render())


def test_repaired_steps_bind_the_slam_rules_own_variables():
    p3 = path(3)
    p = parse_program("P{1_2}(y) :- E(x,y).\n"
                      "P{2}(y) :- E(x,y), P{1_2}(x).\n"
                      "goal :- E(y,z), P{2}(y).\n", signature=p3.signature)
    a = path(4)
    r = evaluate(p, a, stop_at_goal=True)
    assert r.goal
    slam = canonical_program(p3, "slam")
    rep = repair_to_symmetric(r.trace, slam)
    assert len(rep.steps) == len(r.trace.steps) == 3
    previous = None
    for step in rep.steps:
        rule = slam.rules[step.rule_index]
        env = dict(step.bindings)
        assert set(env) == {v for atom in rule.body for v in atom.args}
        edb = [atom for atom in rule.body if atom.pred == "E"]
        idb = [atom for atom in rule.body if atom.pred != "E"]
        assert [tuple(env[v] for v in atom.args) in a.rel("E")
                for atom in edb] == [True]
        assert step.fact == (rule.head.pred,
                             tuple(env[v] for v in rule.head.args))
        assert [(atom.pred, (env[atom.args[0]],)) for atom in idb] == \
            ([previous] if previous else [])
        previous = step.fact
    assert rep.steps[0].bindings == (("x2", 1), ("x1", 0))


def test_repair_refuses_a_rule_that_repeats_a_variable():
    p = parse_program("P{0_1}(x) :- E(x,x).\n"
                      "goal :- E(x,y), P{0_1}(x).\n", signature=DIGRAPH_SIG)
    loop = make_structure("A", (("E", 2),), 1, {"E": {(0, 0)}})
    r = evaluate(p, loop, stop_at_goal=True)
    assert r.goal and len(r.trace.steps) == 2
    with pytest.raises(RepairFailed, match="repeats a variable in 'E\\(x,x\\)'"):
        repair_to_symmetric(r.trace, canonical_program(path(2), "slam"))


def _hand_derivation(text, steps):
    """A derivation over P2's signature by the rules of text; steps are
    (rule index, bindings), and only the last step's fact, goal, counts."""
    p = parse_program(text, signature=DIGRAPH_SIG)
    facts = [("P{1}", (1,))] * (len(steps) - 1) + [("goal", ())]
    return Derivation(program=p, steps=tuple(
        DerivationStep(fact, i, tuple(env.items()))
        for fact, (i, env) in zip(facts, steps)))


GOAL_ON_1 = "goal :- E(x,y), P{1}(x).\n"


@pytest.mark.parametrize("text,steps,message", [
    ("P{1}(y) :- E(x,y), E(y,z).\n" + GOAL_ON_1,
     [(0, {"x": 0, "y": 1, "z": 1}), (1, {"x": 1, "y": 0})],
     "is not linear arc over an EDB atom"),
    ("P{5}(y) :- E(x,y).\ngoal :- E(x,y), P{5}(x).\n",
     [(0, {"x": 0, "y": 1}), (1, {"x": 1, "y": 0})],
     "'P\\{5\\}\\(y\\)' in .* is not a subset IDB on its EDB atom"),
    ("P{0}(y) :- E(x,y).\ngoal :- E(x,y), P{0}(x).\n",
     [(0, {"x": 0, "y": 1}), (1, {"x": 0, "y": 1})],
     "invalid rule 'P\\{0\\}\\(y\\) :- E\\(x,y\\).'"),
    ("P{1}(y) :- E(x,y).\n" + GOAL_ON_1,
     [(0, {"y": 1}), (1, {"x": 1, "y": 0})],
     "a step does not bind 'x'"),
    (GOAL_ON_1, [(0, {"x": 1, "y": 0})],
     "steps do not run from an EDB-only rule to the goal"),
    ("P{1}(y) :- E(x,y).\n" + GOAL_ON_1,
     [(0, {"x": 0, "y": 1}), (1, {"x": 0, "y": 1})],
     "chain steps do not link up"),
])
def test_repair_refuses_each_malformed_derivation(text, steps, message):
    d = _hand_derivation(text, steps)
    with pytest.raises(RepairFailed, match=message):
        repair_to_symmetric(d, canonical_program(path(2), "slam"))


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
