"""Reference Datalog evaluator that grounds every rule against every tuple
before it starts, then runs the worklist with a countdown per ground
instance.  `slamlog.datalog.evaluate` runs arc monadic programs from
integer tables, compiled from a template's rule blocks or from the rules,
and must return the same facts, goal and trace; the differential tests in
test_datalog.py hold it to that, for canonical programs, the same programs
parsed back and hand-written ones.  Slow and memory-hungry on large
programs, so kept out of the package."""

from __future__ import annotations

import itertools
from collections import deque

from slamlog.datalog import (
    GOAL_FACT,
    Derivation,
    DerivationStep,
    EvalResult,
    Program,
)
from slamlog.homsolver import SignatureMismatch
from slamlog.structures import Structure


def _compile_rule(rule, sig):
    """Arc rules (one EDB atom binding every variable) ground by position
    indexing into the rows; everything else by a generic matcher."""
    variables = list(dict.fromkeys(
        v for atom in (rule.head, *rule.body) for v in atom.args))
    edb = [atom for atom in rule.body if atom.pred in sig]
    idb = [atom for atom in rule.body if atom.pred not in sig]
    if len(edb) == 1 and all(v in edb[0].args for v in variables):
        args = edb[0].args
        eq_pairs = [(i, j) for i in range(len(args))
                    for j in range(i + 1, len(args)) if args[i] == args[j]]
        var_pos = [args.index(v) for v in variables]
        head_pos = [args.index(v) for v in rule.head.args]
        idb_pos = [(atom.pred, [args.index(v) for v in atom.args])
                   for atom in idb]
        return ("arc", variables, edb[0].pred, eq_pairs, var_pos,
                rule.head.pred, head_pos, idb_pos)
    return ("gen", variables, edb, rule.head, idb)


def _ground_rule(compiled, a, rows_of):
    """All substitutions of one compiled rule: EDB rows sorted, spare
    variables ascending.  Yields (bindings, head fact, IDB body facts)."""
    if compiled[0] == "arc":
        _, variables, pred, eq_pairs, var_pos, head_pred, head_pos, \
            idb_pos = compiled
        for t in rows_of(pred):
            if any(t[i] != t[j] for i, j in eq_pairs):
                continue
            yield (
                tuple(zip(variables, (t[p] for p in var_pos))),
                (head_pred, tuple(t[p] for p in head_pos)),
                tuple((q, tuple(t[p] for p in poss)) for q, poss in idb_pos),
            )
        return

    _, variables, edb, head, idb = compiled

    def matches(env, atom_idx):
        if atom_idx == len(edb):
            spare = [v for v in variables if v not in env]
            for values in itertools.product(range(a.size), repeat=len(spare)):
                yield {**env, **dict(zip(spare, values))}
            return
        atom = edb[atom_idx]
        for t in rows_of(atom.pred):
            env2 = dict(env)
            if all(env2.setdefault(v, x) == x for v, x in zip(atom.args, t)):
                yield from matches(env2, atom_idx + 1)

    for env in matches({}, 0):
        yield (tuple((v, env[v]) for v in variables),
               (head.pred, tuple(env[v] for v in head.args)),
               tuple((atom.pred, tuple(env[v] for v in atom.args))
                     for atom in idb))


def evaluate_grounded(p: Program, a: Structure,
                      stop_at_goal: bool = False) -> EvalResult:
    """Least fixpoint of the program on the instance, every rule grounded
    up front.  Facts are derived in worklist order seeded by (rule index,
    substitution); an instance fires when the count of its distinct IDB
    body facts not yet popped reaches 0, and the first derivation of each
    fact is remembered."""
    if p.signature != a.signature:
        raise SignatureMismatch(
            f"program over {p.signature} evaluated on {a.signature}")
    sorted_rows: dict[str, list] = {}

    def rows_of(pred):
        if pred not in sorted_rows:
            sorted_rows[pred] = sorted(a.rel(pred))
        return sorted_rows[pred]

    instances = []           # (rule_idx, bindings, head, body facts)
    waiting: dict = {}       # fact -> list of instance indices
    counts = []
    for rule_idx, rule in enumerate(p.rules):
        compiled = _compile_rule(rule, p.signature)
        for bindings, head, body in _ground_rule(compiled, a, rows_of):
            inst = len(instances)
            unique = tuple(dict.fromkeys(body))
            instances.append((rule_idx, bindings, head, body))
            counts.append(len(unique))
            for fact in unique:
                waiting.setdefault(fact, []).append(inst)

    provenance: dict = {}
    queue = deque()

    def derive(inst):
        rule_idx, bindings, head, body = instances[inst]
        if head not in provenance:
            provenance[head] = (rule_idx, bindings, body)
            queue.append(head)

    for inst, count in enumerate(counts):
        if count == 0:
            derive(inst)

    while queue and not (stop_at_goal and GOAL_FACT in provenance):
        fact = queue.popleft()
        for inst in waiting.get(fact, ()):
            counts[inst] -= 1
            if counts[inst] == 0:
                derive(inst)
                if stop_at_goal and instances[inst][2] == GOAL_FACT:
                    break

    goal = GOAL_FACT in provenance
    linear = all(sum(atom.pred not in p.signature for atom in rule.body) <= 1
                 for rule in p.rules)
    trace = None
    if goal and linear:
        steps = []
        fact = GOAL_FACT
        while True:
            rule_idx, bindings, body = provenance[fact]
            steps.append(DerivationStep(fact=fact, rule_index=rule_idx,
                                        bindings=bindings))
            if not body:
                break
            fact = body[0]
        trace = Derivation(program=p, steps=tuple(reversed(steps)))
    return EvalResult(facts=frozenset(provenance), goal=goal, trace=trace)
