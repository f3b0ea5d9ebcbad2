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

import itertools
import re
import weakref
from collections import deque
from dataclasses import dataclass

from .homsolver import SignatureMismatch
from .polymorph import DEFAULT_STREAM_CAP, CapExceeded
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
        if self.pred == GOAL and not self.args:
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


def _rule_plan(rule: Rule, sig: Signature):
    """The grounding plan of every rule of rule's shape (head args and, per
    body atom, whether it is EDB and its args), with body atoms named by
    their index instead of their predicate.

    Arc rules (one EDB atom binding every variable) ground by position
    indexing into the rows of that atom; everything else goes through the
    generic recursive matcher.
    """
    variables = tuple(dict.fromkeys(
        [v for atom in (rule.head, *rule.body) for v in atom.args]))
    edb = [i for i, atom in enumerate(rule.body) if atom.pred in sig]
    idb = [i for i, atom in enumerate(rule.body) if atom.pred not in sig]

    if len(edb) == 1 and set(variables) <= set(rule.body[edb[0]].args):
        args = rule.body[edb[0]].args
        pos = {v: args.index(v) for v in variables}
        # each repeated position paired with the first one of its variable
        eq_pairs = tuple([(pos[v], i) for i, v in enumerate(args)
                          if pos[v] != i])
        return ("arc", variables, edb[0], eq_pairs, tuple(pos.values()),
                tuple([pos[v] for v in rule.head.args]),
                tuple([(i, tuple([pos[v] for v in rule.body[i].args]))
                       for i in idb]))
    return ("gen", variables, tuple(edb), tuple(idb))


def _compile_rule(rule: Rule, plan):
    """The plan of rule's shape with rule's predicates put in."""
    body = rule.body
    if plan[0] == "arc":
        kind, variables, e, eq_pairs, var_pos, head_pos, idb = plan
        return (kind, variables, body[e].pred, eq_pairs, var_pos,
                rule.head.pred, head_pos,
                tuple([(body[i].pred, poss) for i, poss in idb]))
    kind, variables, edb, idb = plan
    return (kind, variables, tuple([body[i] for i in edb]), rule.head,
            tuple([body[i] for i in idb]))


# id(program) -> (weak reference to it, compiled rules, linear flag, users).
# The key is identity, not equality, so hashing a program is never needed and
# a copy compiles afresh; an entry is dropped when its program is collected.
_COMPILED_CACHE: dict[int, tuple] = {}


def _compiled_rules(p: Program) -> tuple[tuple, bool, dict]:
    """The compiled rules of p; whether every body has at most one IDB atom
    (the linear fragment, which decides whether a trace is kept); and, for
    each IDB predicate, the rules whose bodies use it in ascending order.

    A rule that is not an arc rule is listed as (None, rule index).  Arc
    rules are listed in runs: consecutive rules with the same EDB predicate,
    distinct positions of the predicate in the atom (its keys), equality
    pairs, head positions and IDB body atoms, which differ only in their
    head predicate, as (keys, EDB predicate, equality pairs, head
    positions, IDB body atoms, [(rule index, head predicate), ...]).
    Plans are compiled once per rule shape; canonical programs have few."""
    entry = _COMPILED_CACHE.get(id(p))
    if entry is not None and entry[0]() is p:
        return entry[1:]
    sig = p.signature
    edb = frozenset(sig.names())
    plans: dict = {}
    compiled = []
    linear = True
    users: dict[str, list] = {}     # IDB predicate -> entries, as above
    for rule_idx, rule in enumerate(p.rules):
        shape = (rule.head.args,
                 tuple([(atom.pred in edb, atom.args) for atom in rule.body]))
        plan = plans.get(shape)
        if plan is None:
            plan = plans[shape] = _rule_plan(rule, sig)
        c = _compile_rule(rule, plan)
        compiled.append(c)
        if c[0] != "arc":
            linear = linear and len(c[4]) <= 1
            for q in dict.fromkeys([atom.pred for atom in c[4]]):
                users.setdefault(q, []).append((None, rule_idx))
            continue
        _, _, pred, eq_pairs, _, head_pred, head_pos, idb_pos = c
        linear = linear and len(idb_pos) <= 1
        by_q: dict = {}             # IDB predicate -> its distinct positions
        for q, poss in idb_pos:
            by_q.setdefault(q, {})[poss] = None
        for q, keys in by_q.items():
            run = (tuple(keys), pred, eq_pairs, head_pos, idb_pos)
            entries = users.setdefault(q, [])
            if entries and entries[-1][:5] == run:
                entries[-1][5].append((rule_idx, head_pred))
            else:
                entries.append((*run, [(rule_idx, head_pred)]))
    compiled = tuple(compiled)
    _COMPILED_CACHE[id(p)] = (weakref.ref(p), compiled, linear, users)
    weakref.finalize(p, _COMPILED_CACHE.pop, id(p), None).atexit = False
    return compiled, linear, users


def _ground_rule(compiled, a: Structure, rows_of):
    """All substitutions of a compiled rule that is not an arc rule,
    deterministic (EDB rows sorted, spare variables ascending).  Yields
    (bindings, head fact, IDB body facts)."""
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
        bindings = tuple((v, env[v]) for v in variables)
        head_fact = (head.pred, tuple(env[v] for v in head.args))
        body_facts = tuple(
            (atom.pred, tuple(env[v] for v in atom.args)) for atom in idb
        )
        yield bindings, head_fact, body_facts


def evaluate(p: Program, a: Structure, stop_at_goal: bool = False) -> EvalResult:
    """Least fixpoint of the program on the instance.

    Rules are grounded on demand.  Rules without an IDB body atom are
    grounded first and derive their heads in (rule index, substitution)
    order.  When a fact is popped from the worklist, each arc rule that uses
    its predicate is grounded against just the EDB rows that agree with the
    fact, and a ground instance fires once all of its IDB body facts have
    been popped; rules are visited in index order and rows in sorted order.
    A run of arc rules that differ only in their head predicate looks the
    rows up and filters them once, then fires rule by rule over them.
    Every fact is therefore derived by the same instance, and facts, goal
    and trace are equal to those of grounding every rule against every tuple
    up front.  The first derivation of each fact is remembered, so traces
    are reproducible.  With stop_at_goal the fixpoint is cut short as soon as
    the goal fires and the fact set may be partial.
    """
    if p.signature != a.signature:
        raise SignatureMismatch(
            f"program over {p.signature} evaluated on {a.signature}"
        )
    compiled_rules, linear, users = _compiled_rules(p)
    index: dict = {}         # (pred, positions) -> projection -> sorted rows

    def rows_at(pred: str, poss: tuple = (), args: tuple = ()) -> list:
        by_args = index.get((pred, poss))
        if by_args is None:
            by_args = index[pred, poss] = {}
            for t in sorted(a.rel(pred)):
                by_args.setdefault(tuple([t[i] for i in poss]), []).append(t)
        return by_args.get(args, ())

    provenance: dict = {}    # fact -> (rule index, row or bindings, body)
    queue = deque()

    def derive(head, rule_idx, binder, body) -> bool:
        """Record the first derivation; True when the evaluation stops."""
        provenance[head] = (rule_idx, binder, body)
        queue.append(head)
        return stop_at_goal and head == GOAL_FACT

    waiting: dict = {}       # (rule index, fact) -> ground instances
    for rule_idx, c in enumerate(compiled_rules):
        if c[0] == "arc":
            _, _, pred, eq_pairs, _, head_pred, head_pos, idb_pos = c
            if idb_pos:
                continue
            for t in rows_at(pred):
                head = (head_pred, tuple([t[i] for i in head_pos]))
                if head not in provenance and \
                        all(t[i] == t[j] for i, j in eq_pairs):
                    derive(head, rule_idx, t, ())
            continue
        for bindings, head, body in _ground_rule(c, a, rows_at):
            if body:
                for fact in dict.fromkeys(body):
                    waiting.setdefault((rule_idx, fact), []).append(
                        (bindings, head, body))
            elif head not in provenance:
                derive(head, rule_idx, bindings, ())

    popped = set()
    stop = stop_at_goal and GOAL_FACT in provenance
    while queue and not stop:
        fact = queue.popleft()
        popped.add(fact)
        for entry in users.get(fact[0], ()):
            if entry[0] is None:
                rule_idx = entry[1]
                for bindings, head, body in waiting.get((rule_idx, fact), ()):
                    if head in provenance or \
                            not all(f in popped for f in body):
                        continue
                    if stop := derive(head, rule_idx, bindings, body):
                        break
            else:
                keys, pred, eq_pairs, head_pos, idb_pos, heads = entry
                if len(keys) == 1:
                    rows = rows_at(pred, keys[0], fact[1])
                else:
                    rows = sorted({t for poss in keys
                                   for t in rows_at(pred, poss, fact[1])})
                # the rows every rule of the run fires on, with head args
                ready = []
                for t in rows:
                    if eq_pairs and not all(t[i] == t[j] for i, j in eq_pairs):
                        continue
                    if len(idb_pos) == 1:   # the row agrees with the fact
                        body = (fact,)
                    else:
                        body = tuple([(q, tuple([t[i] for i in poss]))
                                      for q, poss in idb_pos])
                        if not all(f in popped for f in body):
                            continue
                    ready.append((t, tuple([t[i] for i in head_pos]), body))
                # rule-major, as if each rule of the run were visited alone
                for rule_idx, head_pred in heads:
                    for t, args, body in ready:
                        head = (head_pred, args)
                        if head not in provenance and \
                                (stop := derive(head, rule_idx, t, body)):
                            break
                    if stop:
                        break
            if stop:
                break

    facts = frozenset(provenance)
    goal = GOAL_FACT in provenance
    trace = None
    if goal and linear:
        steps = []
        fact = GOAL_FACT
        while True:
            rule_idx, binder, body = provenance[fact]
            c = compiled_rules[rule_idx]
            if c[0] == "arc":
                binder = tuple(zip(c[1], (binder[i] for i in c[4])))
            steps.append(DerivationStep(fact=fact, rule_index=rule_idx,
                                        bindings=binder))
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


def canonical_program(b: Structure, fragment: str) -> Program:
    """The canonical program of width (1, max arity) for the template.

    All valid rules of the fragment shapes are included: subset IDBs P_S,
    rules moving along one EDB atom, and the goal rules.  For slam, a rule
    with a body IDB is kept only when its reverse is valid as well; for am,
    bodies may constrain several positions of the EDB atom at once, and
    CapExceeded is raised before anything is built when the am candidates
    exceed the stream cap.
    """
    if fragment not in FRAGMENTS:
        raise ValueError(f"unknown fragment {fragment!r}")
    n = b.size
    if fragment == "am":
        # per r-ary relation, sum_k C(r,k) S^k = (S+1)^r - 1 constrained
        # bodies, each with r*S heads and one goal
        s = 1 << n
        candidates = sum((r * s + 1) * ((s + 1) ** r - 1)
                         for _, r, _ in b.relation_items())
        if candidates > DEFAULT_STREAM_CAP:
            raise CapExceeded(
                f"canonical am program of a {n}-element template has "
                f"{candidates} candidate rules, over the stream cap "
                f"{DEFAULT_STREAM_CAP}")
    subsets = [frozenset(v for v in range(n) if (mask >> v) & 1)
               for mask in range(1 << n)]
    names = {s: subset_name(s) for s in subsets}
    rules: list[Rule] = []

    def atom_vars(r):
        return tuple(f"x{i + 1}" for i in range(r))

    def edb_atom(sym, r):
        return Atom(sym, atom_vars(r))

    for sym, r, rel in b.relation_items():
        rows = sorted(rel)
        variables = atom_vars(r)
        edb = edb_atom(sym, r)
        for y in range(r):
            proj = frozenset(t[y] for t in rows)
            for s in subsets:
                if proj <= s:
                    rules.append(Rule(
                        head=Atom(names[s], (variables[y],)),
                        body=(edb,),
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
        edb = edb_atom(sym, r)
        if fragment in ("lam", "slam"):
            for y in range(r):
                for x in range(r):
                    # images of every subset from x to y and back
                    forth = [moved(rows, ((x, t),), y) for t in subsets]
                    back = [moved(rows, ((y, s),), x) for s in subsets]
                    for s, back_s in zip(subsets, back):
                        for t, forth_t in zip(subsets, forth):
                            if not forth_t <= s:
                                continue
                            if fragment == "slam" and not back_s <= t:
                                continue
                            rules.append(Rule(
                                head=Atom(names[s], (variables[y],)),
                                body=(
                                    edb,
                                    Atom(names[t], (variables[x],)),
                                ),
                            ))
        else:
            for y in range(r):
                for vmask in range(1, 1 << r):
                    positions = [x for x in range(r) if (vmask >> x) & 1]
                    for combo in itertools.product(subsets,
                                                   repeat=len(positions)):
                        constraints = tuple(zip(positions, combo))
                        image = moved(rows, constraints, y)
                        for s in subsets:
                            if image <= s:
                                rules.append(Rule(
                                    head=Atom(names[s],
                                              (variables[y],)),
                                    body=(
                                        edb,
                                        *(Atom(names[tx],
                                               (variables[x],))
                                          for x, tx in constraints),
                                    ),
                                ))

    for sym, r, rel in b.relation_items():
        rows = sorted(rel)
        variables = atom_vars(r)
        edb = edb_atom(sym, r)
        if fragment in ("lam", "slam"):
            for x in range(r):
                for t in subsets:
                    if not any(u[x] in t for u in rows):
                        rules.append(Rule(
                            head=Atom(GOAL, ()),
                            body=(
                                edb,
                                Atom(names[t], (variables[x],)),
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
                                edb,
                                *(Atom(names[tx], (variables[x],))
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

    def locate(rule: Rule) -> int:
        """The index of the last slam rule equal to rule up to renaming."""
        key = canonical_rule_key(rule)
        for i in reversed(range(len(slam.rules))):
            other = slam.rules[i]
            if other.head.pred == rule.head.pred and \
                    canonical_rule_key(other) == key:
                return i
        raise RepairFailed(f"rule {rule.render()!r} missing from the "
                           "canonical slam program")

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
