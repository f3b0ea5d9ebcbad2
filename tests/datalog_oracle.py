"""Reference Datalog evaluator that grounds every rule against every tuple
before it starts, then runs the worklist with a countdown per ground
instance.  `slamlog.datalog.evaluate` runs arc monadic programs from
integer tables, compiled from a template's rule blocks or from the rules,
and must return the same facts, goal and trace; the differential tests in
test_datalog.py hold it to that, for canonical programs, the same programs
parsed back and hand-written ones.  Slow and memory-hungry on large
programs, so kept out of the package.

`canonical_rules` lists the valid rules of a canonical program's shape by
trying every candidate against the template's rows, as the definition
reads, for comparison with `slamlog.datalog.canonical_program`.

`random_program` and `random_instance` draw seeded programs of other
shapes, and instances of up to three elements, for the grounded path."""

from __future__ import annotations

import itertools
from collections import deque

from slamlog.datalog import (
    GOAL,
    GOAL_FACT,
    Atom,
    Derivation,
    DerivationStep,
    EvalResult,
    Program,
    Rule,
    _rule_tables,
    subset_name,
)
from slamlog.homsolver import SignatureMismatch
from slamlog.structures import Signature, Structure, make_structure


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


def canonical_rules(b: Structure, fragment: str) -> list[Rule]:
    """Every valid rule of the shape of the canonical `fragment` program of
    the template: for each relation R(x1, ..., xr), the rules whose body is
    R(x1, ..., xr) and subset atoms P_t(xi) at distinct positions (at most
    one in lam and slam), with a head P_s(xj) or goal.  A rule is valid
    when every row of R that puts each xi in its t puts xj in s; a goal
    rule, when no row does.  slam keeps a rule with a subset atom in its
    body only when its reverse, with head and body subset atoms swapped,
    is valid too.  Last comes goal :- Pempty(x1)."""
    subsets = [frozenset(c) for k in range(b.size + 1)
               for c in itertools.combinations(range(b.size), k)]
    out = []
    for (sym, r), rows in zip(b.signature.symbols, b.relations):
        xs = tuple(f"x{i + 1}" for i in range(r))

        def valid(body, y=None, s=()):
            """Whether each row with u[x] in t for every (x, t) of body has
            u[y] in s; for a goal rule (y None), whether there is none."""
            return all(y is not None and u[y] in s for u in rows
                       if all(u[x] in t for x, t in body))

        for k in range((r if fragment == "am" else 1) + 1):
            for positions in itertools.combinations(range(r), k):
                for ts in itertools.product(subsets, repeat=k):
                    body = tuple(zip(positions, ts))
                    atoms = (Atom(sym, xs), *[Atom(subset_name(t), (xs[x],))
                                              for x, t in body])
                    if valid(body):
                        out.append(Rule(Atom(GOAL, ()), atoms))
                    for y in range(r):
                        for s in subsets:
                            if not valid(body, y, s):
                                continue
                            if fragment == "slam" and body and \
                                    not valid(((y, s),), *body[0]):
                                continue
                            out.append(Rule(Atom(subset_name(s), (xs[y],)),
                                            atoms))
    out.append(Rule(Atom(GOAL, ()), (Atom(subset_name(()), ("x1",)),)))
    return out


GROUNDED_EDB = Signature((("E", 2), ("U", 1), ("R", 3)))
GROUNDED_IDB = (("P", 1), ("Q", 1), ("S", 2), ("N", 0))


def random_program(rng) -> Program:
    """A program over E/2, U/1 and R/3 with IDBs P/1, Q/1, S/2 and N/0, not
    of canonical shape: three to six rules, the last a goal rule, each body
    up to three EDB atoms and up to two IDB atoms over the variables x, y
    and z, so bodies may join EDB atoms, repeat a variable or hold IDB atoms
    only.  Drawn again while the program compiles to tables."""
    while True:
        rules = []
        for i in range(rng.randrange(3, 7)):
            preds = rng.choices(GROUNDED_EDB.symbols, k=rng.choice(
                (0, 1, 1, 2, 2, 3))) + \
                rng.choices(GROUNDED_IDB, k=rng.choice((0, 0, 1, 1, 2)))
            if not preds:
                preds = [rng.choice(GROUNDED_IDB)]
            body = tuple(Atom(pred, tuple(rng.choices("xyz", k=ar)))
                         for pred, ar in preds)
            bound = sorted({v for atom in body for v in atom.args})
            heads = [(GOAL, 0)] if i == 0 else [(GOAL, 0)] + \
                [(q, ar) for q, ar in GROUNDED_IDB if bound or not ar]
            pred, ar = rng.choice(heads)
            head = Atom(pred, tuple(rng.choices(bound, k=ar)))
            rules.append(Rule(head, body))
        p = Program(GROUNDED_EDB, tuple(rules[1:] + rules[:1]))
        if _rule_tables(p) is None:
            return p


def random_instance(rng) -> Structure:
    """An instance over E/2, U/1 and R/3 of 0-3 elements, holding each tuple
    with probability one half."""
    size = rng.randrange(4)
    rels = {sym: [t for t in itertools.product(range(size), repeat=ar)
                  if rng.random() < 0.5]
            for sym, ar in GROUNDED_EDB.symbols}
    return make_structure("A", GROUNDED_EDB.symbols, size, rels)
