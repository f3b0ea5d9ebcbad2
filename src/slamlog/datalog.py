"""Datalog with monadic IDBs: parser, fixpoint evaluator with derivation
traces, fragment recognition, canonical program generators, and the
symmetrization repair that turns linear goal derivations into symmetric ones.

Fragments are combinations of four restrictions: monadic (IDB arity at most
one), arc (at most one EDB atom per body), linear (at most one IDB atom per
body), and symmetric (rule reversal closure).  The canonical programs of
width (1,k) collect every valid rule of the respective shape for a fixed
template.
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from collections import deque
from dataclasses import dataclass

from .homsolver import SignatureMismatch
from .structures import Signature, Structure, split_top_level

GOAL = "goal"

_IDENT = r"[A-Za-z_][A-Za-z0-9_'{}]*"
_IDENT_RE = re.compile(_IDENT)
_ATOM_RE = re.compile(rf"^({_IDENT})\s*\(([^()]*)\)$")
_SUBSET_RE = re.compile(r"^P\{(\d+(?:_\d+)*)\}$")


class DatalogFormatError(ValueError):
    """Raised when program text cannot be parsed or validated."""


class RepairFailed(Exception):
    """The symmetrized goal rule is invalid for the template."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]

    def render(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        if not self.body:
            raise DatalogFormatError(f"unsafe rule {self.render()!r}: empty body")
        body_vars = {v for a in self.body for v in a.args}
        for v in self.head.args:
            if v not in body_vars:
                raise DatalogFormatError(
                    f"unsafe rule {self.render()!r}: head variable {v!r} "
                    "not bound in the body"
                )

    def render(self) -> str:
        return "{} :- {}.".format(
            self.head.render(), ", ".join(a.render() for a in self.body)
        )


@dataclass(frozen=True)
class Program:
    """Rules over an EDB signature; IDB predicates are everything else."""

    signature: Signature
    rules: tuple[Rule, ...]

    def __post_init__(self):
        arities: dict[str, int] = {}
        for rule in self.rules:
            if rule.head.pred in self.signature:
                raise DatalogFormatError(
                    f"EDB symbol {rule.head.pred!r} used as a rule head"
                )
            if rule.head.pred == GOAL and rule.head.args:
                raise DatalogFormatError("goal takes no arguments")
            for atom in rule.body:
                if atom.pred == GOAL:
                    raise DatalogFormatError("goal cannot occur in a body")
            for atom in (rule.head, *rule.body):
                if atom.pred in self.signature:
                    expected = self.signature.arity(atom.pred)
                    if len(atom.args) != expected:
                        raise DatalogFormatError(
                            f"{atom.pred!r} expects {expected} arguments, "
                            f"got {len(atom.args)}"
                        )
                else:
                    seen = arities.setdefault(atom.pred, len(atom.args))
                    if seen != len(atom.args):
                        raise DatalogFormatError(
                            f"IDB {atom.pred!r} used with arities "
                            f"{seen} and {len(atom.args)}"
                        )

    def idb_arities(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                if atom.pred not in self.signature:
                    out.setdefault(atom.pred, len(atom.args))
        return out

    def render(self) -> str:
        return "\n".join(rule.render() for rule in self.rules) + "\n"


GOAL_FACT = (GOAL, ())


@dataclass(frozen=True)
class DerivationStep:
    fact: tuple[str, tuple[int, ...]]
    rule_index: int
    bindings: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Derivation:
    """A single linear chain of rule applications ending in a fact."""

    program: Program
    steps: tuple[DerivationStep, ...]

    def to_json(self) -> list:
        return [
            {
                "fact": [step.fact[0], list(step.fact[1])],
                "rule": step.rule_index,
                "bindings": {v: x for v, x in step.bindings},
            }
            for step in self.steps
        ]


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

def _parse_atom(text: str, line_no: int) -> Atom:
    text = text.strip()
    if text == GOAL:
        return Atom(GOAL, ())
    m = _ATOM_RE.match(text)
    if not m:
        raise DatalogFormatError(f"line {line_no}: bad atom {text!r}")
    args = tuple(v.strip() for v in m.group(2).split(",")) if m.group(2).strip() \
        else ()
    for v in args:
        if not _IDENT_RE.fullmatch(v):
            raise DatalogFormatError(f"line {line_no}: bad variable {v!r}")
    return Atom(m.group(1), args)


def parse_program(text: str, signature: Signature | None = None) -> Program:
    """Parse one rule per line; predicates absent from the signature are
    IDBs.  Without an explicit signature, every predicate that never occurs
    in a rule head is taken to be an EDB."""
    rules = []
    raw: list[tuple[int, str, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise DatalogFormatError(f"line {line_no}: rule must end with '.'")
        line = line[:-1]
        if ":-" not in line:
            raise DatalogFormatError(f"line {line_no}: missing ':-'")
        head_text, body_text = line.split(":-", 1)
        raw.append((line_no, head_text, body_text))
    parsed = []
    for line_no, head_text, body_text in raw:
        head = _parse_atom(head_text, line_no)
        try:
            body_parts = [p for p in split_top_level(body_text) if p]
        except ValueError as exc:
            raise DatalogFormatError(
                f"line {line_no}: unbalanced '{exc}'") from None
        if not body_parts:
            raise DatalogFormatError(f"line {line_no}: empty body")
        body = tuple(_parse_atom(p, line_no) for p in body_parts)
        parsed.append((line_no, head, body))
    if signature is None:
        head_preds = {head.pred for _, head, _ in parsed}
        edb = []
        for _, _, body in parsed:
            for atom in body:
                name = atom.pred
                if name in head_preds or name == GOAL:
                    continue
                if name not in {s for s, _ in edb}:
                    edb.append((name, len(atom.args)))
        signature = Signature(symbols=tuple(edb))
    for line_no, head, body in parsed:
        try:
            rules.append(Rule(head=head, body=body))
        except DatalogFormatError as exc:
            raise DatalogFormatError(f"line {line_no}: {exc}") from None
    try:
        return Program(signature=signature, rules=tuple(rules))
    except DatalogFormatError as exc:
        raise DatalogFormatError(str(exc)) from None


def render_program(p: Program) -> str:
    return p.render()


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FragmentFlags:
    monadic: bool
    arc: bool
    linear: bool
    symmetric: bool

    @property
    def slam(self) -> bool:
        return self.monadic and self.arc and self.linear and self.symmetric


def _body_split(rule: Rule, sig: Signature):
    edb = [a for a in rule.body if a.pred in sig]
    idb = [a for a in rule.body if a.pred not in sig]
    return edb, idb


def canonical_rule_key(rule: Rule):
    """Rule identity up to variable renaming and body reordering."""
    best = None
    for perm in itertools.permutations(rule.body):
        names: dict[str, int] = {}
        for v in rule.head.args:
            names.setdefault(v, len(names))
        for atom in perm:
            for v in atom.args:
                names.setdefault(v, len(names))
        key = (
            rule.head.pred,
            tuple(names[v] for v in rule.head.args),
            tuple((a.pred, tuple(names[v] for v in a.args)) for a in perm),
        )
        if best is None or key < best:
            best = key
    return best


def reverse_rule(rule: Rule, signature: Signature) -> Rule:
    """Swap the head with the first IDB atom of the body, keeping the EDB
    conjuncts in place.  Applying it twice gives the rule back."""
    if rule.head.pred == GOAL:
        raise ValueError("goal rules have no reverse")
    for i, atom in enumerate(rule.body):
        if atom.pred not in signature:
            body = list(rule.body)
            new_head = body[i]
            body[i] = rule.head
            return Rule(head=new_head, body=tuple(body))
    raise ValueError("rule body contains no IDB atom")


def fragment_of(p: Program) -> FragmentFlags:
    arities = p.idb_arities()
    monadic = all(ar <= 1 for ar in arities.values())
    arc = True
    linear = True
    for rule in p.rules:
        edb, idb = _body_split(rule, p.signature)
        if len(edb) > 1:
            arc = False
        if len(idb) > 1:
            linear = False
    keys = {canonical_rule_key(r) for r in p.rules}
    symmetric = True
    for rule in p.rules:
        if rule.head.pred == GOAL:
            continue
        _, idb = _body_split(rule, p.signature)
        if not idb:
            continue
        if canonical_rule_key(reverse_rule(rule, p.signature)) not in keys:
            symmetric = False
            break
    return FragmentFlags(monadic=monadic, arc=arc, linear=linear,
                         symmetric=symmetric)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    facts: frozenset
    goal: bool
    trace: Derivation | None


def _rule_variables(rule: Rule) -> list[str]:
    seen: list[str] = []
    for atom in (rule.head, *rule.body):
        for v in atom.args:
            if v not in seen:
                seen.append(v)
    return seen


def _compile_rule(rule: Rule, sig: Signature):
    """Precompute the grounding plan for one rule.

    Connected arc rules (one EDB atom binding every variable) ground by pure
    position indexing into the relation rows; everything else goes through
    the generic recursive matcher.
    """
    variables = tuple(_rule_variables(rule))
    edb, idb = _body_split(rule, sig)

    if len(edb) == 1 and all(v in edb[0].args for v in variables):
        args = edb[0].args
        eq_pairs = tuple((i, j) for i in range(len(args))
                         for j in range(i + 1, len(args)) if args[i] == args[j])
        var_pos = tuple(args.index(v) for v in variables)
        head_pos = tuple(args.index(v) for v in rule.head.args)
        idb_pos = tuple((atom.pred, tuple(args.index(v) for v in atom.args))
                        for atom in idb)
        return ("arc", variables, edb[0].pred, eq_pairs, var_pos,
                rule.head.pred, head_pos, idb_pos)
    return ("gen", variables, tuple(edb), rule.head, tuple(idb))


# id(program) -> (weak reference to it, compiled rules, linear flag).  The
# key is identity, not equality, so hashing a program is never needed and a
# copy compiles afresh; an entry is dropped when its program is collected.
_COMPILED_CACHE: dict[int, tuple] = {}


def _compiled_rules(p: Program) -> tuple[tuple, bool]:
    """The compiled rules of p, and whether every body has at most one IDB
    atom (the linear fragment, which decides whether a trace is kept)."""
    entry = _COMPILED_CACHE.get(id(p))
    if entry is not None and entry[0]() is p:
        return entry[1], entry[2]
    compiled = tuple(_compile_rule(rule, p.signature) for rule in p.rules)
    linear = all(len(_body_split(rule, p.signature)[1]) <= 1
                 for rule in p.rules)
    _COMPILED_CACHE[id(p)] = (weakref.ref(p), compiled, linear)
    weakref.finalize(p, _COMPILED_CACHE.pop, id(p), None).atexit = False
    return compiled, linear


def _ground_rule(compiled, a: Structure, rows_of):
    """All substitutions of one compiled rule, deterministic (EDB rows
    sorted, spare variables ascending).  Yields (binder, head fact, IDB body
    facts); the binder is resolved to a bindings tuple lazily because only
    the few instances that actually derive a fact ever need one."""
    if compiled[0] == "arc":
        _, variables, pred, eq_pairs, var_pos, head_pred, head_pos, \
            idb_pos = compiled
        for t in rows_of(pred):
            if eq_pairs and any(t[i] != t[j] for i, j in eq_pairs):
                continue
            yield (
                ("lazy", variables, var_pos, t),
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
            ok = True
            for v, x in zip(atom.args, t):
                if env2.setdefault(v, x) != x:
                    ok = False
                    break
            if ok:
                yield from matches(env2, atom_idx + 1)

    for env in matches({}, 0):
        bindings = tuple((v, env[v]) for v in variables)
        head_fact = (head.pred, tuple(env[v] for v in head.args))
        body_facts = tuple(
            (atom.pred, tuple(env[v] for v in atom.args)) for atom in idb
        )
        yield bindings, head_fact, body_facts


def _resolve_bindings(binder) -> tuple:
    if binder and binder[0] == "lazy":
        _, variables, var_pos, t = binder
        return tuple(zip(variables, (t[p] for p in var_pos)))
    return binder


def evaluate(p: Program, a: Structure, stop_at_goal: bool = False) -> EvalResult:
    """Least fixpoint of the program on the instance.

    Facts are derived in worklist order seeded by (rule index, substitution);
    the first derivation of each fact is remembered, so traces are
    reproducible.  With stop_at_goal the fixpoint is cut short as soon as the
    goal fires and the fact set may be partial.
    """
    if p.signature != a.signature:
        raise SignatureMismatch(
            f"program over {p.signature} evaluated on {a.signature}"
        )
    sorted_rows: dict[str, list] = {}

    def rows_of(pred: str) -> list:
        if pred not in sorted_rows:
            sorted_rows[pred] = sorted(a.rel(pred))
        return sorted_rows[pred]

    instances = []           # (rule_idx, binder, head, body facts)
    waiting: dict = {}       # fact -> list of instance indices
    counts = []
    compiled_rules, linear = _compiled_rules(p)
    for rule_idx, compiled in enumerate(compiled_rules):
        for binder, head, body in _ground_rule(compiled, a, rows_of):
            inst = len(instances)
            unique = tuple(dict.fromkeys(body)) if body else ()
            instances.append((rule_idx, binder, head, body))
            counts.append(len(unique))
            for fact in unique:
                waiting.setdefault(fact, []).append(inst)

    provenance: dict = {}
    queue = deque()

    def derive(fact, inst):
        if fact in provenance:
            return
        rule_idx, binder, _, body = instances[inst]
        provenance[fact] = (rule_idx, _resolve_bindings(binder), body)
        queue.append(fact)

    for inst, count in enumerate(counts):
        if count == 0:
            derive(instances[inst][2], inst)

    goal_seen = GOAL_FACT in provenance
    while queue and not (stop_at_goal and goal_seen):
        fact = queue.popleft()
        for inst in waiting.get(fact, ()):
            counts[inst] -= 1
            if counts[inst] == 0:
                head = instances[inst][2]
                derive(head, inst)
                if head == GOAL_FACT:
                    goal_seen = True
                    if stop_at_goal:
                        break

    facts = frozenset(provenance)
    goal = GOAL_FACT in provenance
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
    return EvalResult(facts=facts, goal=goal, trace=trace)


# ---------------------------------------------------------------------------
# Canonical programs
# ---------------------------------------------------------------------------

FRAGMENTS = ("am", "lam", "slam")


def subset_name(s) -> str:
    if not s:
        return "Pempty"
    return "P{" + "_".join(str(e) for e in sorted(s)) + "}"


def name_subset(name: str) -> frozenset[int] | None:
    if name == "Pempty":
        return frozenset()
    m = _SUBSET_RE.match(name)
    if not m:
        return None
    return frozenset(int(x) for x in m.group(1).split("_"))


@functools.lru_cache(maxsize=128)
def canonical_program(b: Structure, fragment: str) -> Program:
    """The canonical program of width (1, max arity) for the template.

    All valid rules of the fragment shapes are included: subset IDBs P_S,
    rules moving along one EDB atom, and the goal rules.  For slam, a rule
    with a body IDB is kept only when its reverse is valid as well; for am,
    bodies may constrain several positions of the EDB atom at once.
    """
    if fragment not in FRAGMENTS:
        raise ValueError(f"unknown fragment {fragment!r}")
    n = b.size
    subsets = [frozenset(v for v in range(n) if (mask >> v) & 1)
               for mask in range(1 << n)]
    rules: list[Rule] = []

    def atom_vars(r):
        return tuple(f"x{i + 1}" for i in range(r))

    def edb_atom(sym, r):
        return Atom(sym, atom_vars(r))

    for sym, r, rel in b.relation_items():
        rows = sorted(rel)
        variables = atom_vars(r)
        for y in range(r):
            proj = frozenset(t[y] for t in rows)
            for s in subsets:
                if proj <= s:
                    rules.append(Rule(
                        head=Atom(subset_name(s), (variables[y],)),
                        body=(edb_atom(sym, r),),
                    ))

    def moved(rows, constraints, y):
        image = set()
        for t in rows:
            if all(t[x] in tx for x, tx in constraints):
                image.add(t[y])
        return image

    for sym, r, rel in b.relation_items():
        rows = sorted(rel)
        variables = atom_vars(r)
        if fragment in ("lam", "slam"):
            for y in range(r):
                for x in range(r):
                    for s in subsets:
                        for t in subsets:
                            if not moved(rows, ((x, t),), y) <= s:
                                continue
                            if fragment == "slam" and \
                                    not moved(rows, ((y, s),), x) <= t:
                                continue
                            rules.append(Rule(
                                head=Atom(subset_name(s), (variables[y],)),
                                body=(
                                    edb_atom(sym, r),
                                    Atom(subset_name(t), (variables[x],)),
                                ),
                            ))
        else:
            for y in range(r):
                for vmask in range(1, 1 << r):
                    positions = [x for x in range(r) if (vmask >> x) & 1]
                    for combo in itertools.product(subsets,
                                                   repeat=len(positions)):
                        constraints = tuple(zip(positions, combo))
                        for s in subsets:
                            if moved(rows, constraints, y) <= s:
                                rules.append(Rule(
                                    head=Atom(subset_name(s),
                                              (variables[y],)),
                                    body=(
                                        edb_atom(sym, r),
                                        *(Atom(subset_name(tx),
                                               (variables[x],))
                                          for x, tx in constraints),
                                    ),
                                ))

    for sym, r, rel in b.relation_items():
        rows = sorted(rel)
        variables = atom_vars(r)
        if fragment in ("lam", "slam"):
            for x in range(r):
                for t in subsets:
                    if not any(u[x] in t for u in rows):
                        rules.append(Rule(
                            head=Atom(GOAL, ()),
                            body=(
                                edb_atom(sym, r),
                                Atom(subset_name(t), (variables[x],)),
                            ),
                        ))
        else:
            for vmask in range(1, 1 << r):
                positions = [x for x in range(r) if (vmask >> x) & 1]
                for combo in itertools.product(subsets,
                                               repeat=len(positions)):
                    constraints = tuple(zip(positions, combo))
                    if not any(
                        all(t[x] in tx for x, tx in constraints)
                        for t in rows
                    ):
                        rules.append(Rule(
                            head=Atom(GOAL, ()),
                            body=(
                                edb_atom(sym, r),
                                *(Atom(subset_name(tx), (variables[x],))
                                  for x, tx in constraints),
                            ),
                        ))

    for sym, r, rel in b.relation_items():
        if not rel:
            rules.append(Rule(head=Atom(GOAL, ()),
                              body=(edb_atom(sym, r),)))
    rules.append(Rule(head=Atom(GOAL, ()),
                      body=(Atom(subset_name(frozenset()), ("x1",)),)))
    return Program(signature=b.signature, rules=tuple(rules))


# ---------------------------------------------------------------------------
# Symmetrization repair
# ---------------------------------------------------------------------------

def _step_pieces(rule: Rule, sig: Signature):
    edb, idb = _body_split(rule, sig)
    if len(edb) > 1 or len(idb) > 1:
        raise RepairFailed(f"rule {rule.render()!r} is not linear arc")
    if idb and len(idb[0].args) != 1:
        raise RepairFailed(f"rule {rule.render()!r} has a non-monadic IDB")
    return (edb[0] if edb else None), (idb[0] if idb else None)


def _head_subset(rule: Rule, size: int) -> frozenset[int]:
    s = name_subset(rule.head.pred)
    if s is None or any(e >= size for e in s) or len(rule.head.args) != 1:
        raise RepairFailed(f"head {rule.head.pred!r} is not a subset IDB")
    return s


def _check_valid(rule: Rule, b: Structure) -> None:
    """The input rules must be valid implications for the template."""
    edb, idb = _step_pieces(rule, b.signature)
    head = rule.head
    if head.pred == GOAL:
        if edb is None:
            t = name_subset(idb.pred)
            if t is None or t:
                raise RepairFailed(f"invalid goal rule {rule.render()!r}")
            return
        rows = b.rel(edb.pred)
        if idb is None:
            if rows:
                raise RepairFailed(f"invalid goal rule {rule.render()!r}")
            return
        t = name_subset(idb.pred)
        x = edb.args.index(idb.args[0])
        if any(u[x] in t for u in rows):
            raise RepairFailed(f"invalid goal rule {rule.render()!r}")
        return
    s = _head_subset(rule, b.size)
    if edb is None or head.args[0] not in edb.args:
        raise RepairFailed(f"rule {rule.render()!r} is not connected")
    rows = b.rel(edb.pred)
    y = edb.args.index(head.args[0])
    if idb is None:
        if not all(u[y] in s for u in rows):
            raise RepairFailed(f"invalid rule {rule.render()!r}")
        return
    t = name_subset(idb.pred)
    if t is None or idb.args[0] not in edb.args:
        raise RepairFailed(f"rule {rule.render()!r} is not connected")
    x = edb.args.index(idb.args[0])
    if not all(u[y] in s for u in rows if u[x] in t):
        raise RepairFailed(f"invalid rule {rule.render()!r}")


def repair_to_symmetric(d: Derivation, b: Structure) -> Derivation:
    """Rebuild a linear goal derivation with rules of the canonical slam
    program.

    The step relations are extracted from the used rules, the initial sets
    are shrunk to the reachable minimum, and the whole chain is closed under
    forward images and backward preimages.  The closure makes every middle
    rule symmetric; RepairFailed signals that the final goal rule became
    invalid, which cannot happen for templates with a quasi Maltsev
    polymorphism.
    """
    if not d.steps or d.steps[-1].fact != GOAL_FACT:
        raise RepairFailed("derivation does not end in the goal")
    sig = b.signature
    for step in d.steps:
        _check_valid(d.program.rules[step.rule_index], b)

    goal_step = d.steps[-1]
    goal_rule = d.program.rules[goal_step.rule_index]
    goal_edb, goal_idb = _step_pieces(goal_rule, sig)
    slam = canonical_program(b, "slam")
    slam_index = {canonical_rule_key(r): i for i, r in enumerate(slam.rules)}

    def locate(rule: Rule) -> int:
        key = canonical_rule_key(rule)
        if key not in slam_index:
            raise RepairFailed(f"rule {rule.render()!r} missing from the "
                               "canonical slam program")
        return slam_index[key]

    if goal_idb is None:
        # empty-relation goal rule, already symmetric
        if len(d.steps) != 1:
            raise RepairFailed("goal rule uses no IDB but the chain is longer")
        step = DerivationStep(fact=GOAL_FACT, rule_index=locate(goal_rule),
                              bindings=goal_step.bindings)
        return Derivation(program=slam, steps=(step,))

    chain = d.steps[:-1]
    if not chain:
        raise RepairFailed("goal rule consumes a fact that was never derived")

    base_rule = d.program.rules[chain[0].rule_index]
    base_edb, base_idb = _step_pieces(base_rule, sig)
    if base_idb is not None or base_edb is None:
        raise RepairFailed("chain does not start at an EDB-only rule")
    y = base_edb.args.index(base_rule.head.args[0])
    current = frozenset(t[y] for t in b.rel(base_edb.pred))
    sets = [current]

    arrows = []
    for pos, step in enumerate(chain[1:], start=1):
        rule = d.program.rules[step.rule_index]
        edb, idb = _step_pieces(rule, sig)
        if edb is None or idb is None:
            raise RepairFailed("middle step is missing an EDB or IDB atom")
        prev = chain[pos - 1]
        env = dict(step.bindings)
        if (idb.pred, (env[idb.args[0]],)) != prev.fact:
            raise RepairFailed("chain steps do not link up")
        x = edb.args.index(idb.args[0])
        yy = edb.args.index(rule.head.args[0])
        rows = b.rel(edb.pred)
        if x == yy:
            arrow = frozenset((t[x], t[x]) for t in rows)
        else:
            arrow = frozenset((t[x], t[yy]) for t in rows)
        arrows.append(arrow)
        current = frozenset(v for u, v in arrow if u in current)
        sets.append(current)

    qsets = [set(s) for s in sets]
    changed = True
    while changed:
        changed = False
        for i, arrow in enumerate(arrows):
            fwd = {v for u, v in arrow if u in qsets[i]}
            if not fwd <= qsets[i + 1]:
                qsets[i + 1] |= fwd
                changed = True
            back = {u for u, v in arrow if v in qsets[i + 1]}
            if not back <= qsets[i]:
                qsets[i] |= back
                changed = True

    env = dict(goal_step.bindings)
    if (goal_idb.pred, (env[goal_idb.args[0]],)) != chain[-1].fact:
        raise RepairFailed("goal step does not consume the chain's last fact")
    if goal_edb is None:
        blocked = frozenset(range(b.size))
    else:
        x = goal_edb.args.index(goal_idb.args[0])
        blocked = frozenset(t[x] for t in b.rel(goal_edb.pred))
    if qsets[-1] & blocked:
        raise RepairFailed(
            f"repaired goal rule invalid: {sorted(qsets[-1] & blocked)} "
            "still allowed by the template"
        )

    new_steps = []
    for i, step in enumerate(chain):
        rule = d.program.rules[step.rule_index]
        edb, idb = _step_pieces(rule, sig)
        head = Atom(subset_name(qsets[i]), rule.head.args)
        if idb is None:
            new_rule = Rule(head=head, body=(edb,))
        else:
            new_rule = Rule(head=head, body=(
                edb, Atom(subset_name(qsets[i - 1]), idb.args)))
        env = dict(step.bindings)
        fact = (subset_name(qsets[i]), (env[rule.head.args[0]],))
        new_steps.append(DerivationStep(
            fact=fact, rule_index=locate(new_rule), bindings=step.bindings))

    if goal_edb is None:
        new_goal = Rule(head=Atom(GOAL, ()),
                        body=(Atom(subset_name(qsets[-1]), goal_idb.args),))
    else:
        new_goal = Rule(head=Atom(GOAL, ()), body=(
            goal_edb, Atom(subset_name(qsets[-1]), goal_idb.args)))
    new_steps.append(DerivationStep(
        fact=GOAL_FACT, rule_index=locate(new_goal),
        bindings=goal_step.bindings))
    return Derivation(program=slam, steps=tuple(new_steps))
