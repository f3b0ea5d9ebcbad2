"""Datalog with monadic IDBs: parser, fixpoint evaluator with derivation
traces, fragment recognition, canonical program generators, and the
symmetrization repair that turns linear goal derivations into symmetric ones.

The evaluator has one worklist, over integer tables that arc monadic
programs compile to: a canonical program from its template's rule blocks,
any other program of the same shape from its rules.  Programs of any other
shape are grounded up front, by the one search loop over the
homomorphisms from each rule's canonical database.

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
from dataclasses import dataclass, field

from .homsolver import HomSearcher, SignatureMismatch
from .polymorph import DEFAULT_STREAM_CAP, CapExceeded
from .structures import (
    ConjunctiveQuery,
    Signature,
    Structure,
    canonical_database,
    split_top_level,
)

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
    """Rules over an EDB signature; IDB predicates are everything else.

    `origin` is (template, fragment) when canonical_program built the
    program, else None.  Such a program renders its rules from the
    template's blocks on the first read of `rules`, and checks them then.
    `copy.copy` keeps origin, and the rules if they were read;
    `dataclasses.replace` and parsing drop it.  Equality, hashing and repr
    are those of the signature and rules, so they read the rules.
    """

    signature: Signature
    rules: tuple[Rule, ...]
    origin: tuple[Structure, str] | None = field(
        default=None, init=False, compare=False, repr=False)

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

    def __getattr__(self, name):
        # reached only for attributes missing from the instance and class
        if name != "rules" or self.origin is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "rules", _canonical_rules(*self.origin))
        self.__post_init__()
        return self.rules

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
    return Program(signature=signature, rules=tuple(rules))


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


# id(program) -> (weak reference to it, its tables or None).  The key is
# identity, not equality, so hashing a program is never needed and a copy
# compiles afresh; an entry is dropped when its program is collected.
_COMPILED_CACHE: dict[int, tuple] = {}


def _compiled(p: Program):
    """The worklist tables of p, computed once per program object: from its
    template's blocks when canonical_program built it, else from its rules;
    None when p is not of canonical shape."""
    entry = _COMPILED_CACHE.get(id(p))
    if entry is not None and entry[0]() is p:
        return entry[1]
    value = _canonical_tables(*p.origin) if p.origin is not None else \
        _rule_tables(p)
    _COMPILED_CACHE[id(p)] = (weakref.ref(p), value)
    weakref.finalize(p, _COMPILED_CACHE.pop, id(p), None).atexit = False
    return value


def _rule_tables(p: Program):
    """The tables of _canonical_tables, read off p's rules instead of a
    template's blocks; None unless p has canonical shape.

    A program has canonical shape when every rule has one EDB atom whose
    variables are pairwise distinct and hold every other variable of the
    rule, its IDB atoms are unary, and its head is unary or goal.  The one
    rule without an EDB atom is goal :- P(x).  IDB predicates are numbered
    by first occurrence, and a run is a stretch of users[q] with equal
    (relation, keys, head position, checks) and ascending head ids, so that
    its heads fire in rule order; a goal rule has head subset 0.  A run's
    ref is its {head: rule index}; no subset dominates another.
    """
    sig = p.signature
    ids: dict[str, int] = {}
    initial: list = []
    users: list[list] = []
    linear = True
    for rule_idx, rule in enumerate(p.rules):
        edb, idb = _body_split(rule, sig)
        if len(edb) == 1 and len(set(edb[0].args)) == len(edb[0].args):
            rel, args = edb[0].pred, edb[0].args
        elif not edb and len(idb) == 1 and rule.head.pred == GOAL:
            rel, args = None, idb[0].args
        else:
            return None
        goal = rule.head.pred == GOAL
        for atom in idb if goal else (rule.head, *idb):
            if len(atom.args) != 1 or atom.args[0] not in args:
                return None
            if atom.pred not in ids:
                ids[atom.pred] = len(ids)
                users.append([])
        s, head = (0, None) if goal else \
            (ids[rule.head.pred], args.index(rule.head.args[0]))
        linear = linear and len(idb) <= 1
        positions = [args.index(atom.args[0]) for atom in idb]
        body = [ids[atom.pred] for atom in idb]
        checks = tuple(zip(positions, body)) if len(idb) > 1 else ()
        keys: dict = {} if idb else {None: ()}  # IDB id -> its body columns
        for x, q in zip(positions, body):
            keys[q] = keys.get(q, ()) + ((rel, x),)
        for q, columns in keys.items():
            entries = initial if q is None else users[q]
            run = entries[-1][2][-1] if entries and \
                entries[-1][:2] == (rel, columns) else None
            if run is None or run[:2] != [head, checks] or run[2] >> s:
                run = [head, checks, 0, {}]
                _add_run(entries, rel, columns, run)
            run[2] |= 1 << s     # its heads so far all come before s
            run[3][s] = rule_idx
    return initial, users, linear, list(ids), [0] * len(ids)


def _add_run(entries, rel, keys, run) -> None:
    """Append run to the last group of entries if it has rel and keys."""
    if entries and entries[-1][1] == keys and entries[-1][0] == rel:
        entries[-1][2].append(run)
    else:
        entries.append((rel, keys, [run]))


def _rule_index(ref, s: int) -> int:
    """The index of the rule with head s in the run at ref, its {head: rule
    index} or (block, i) for pair i of (pairs, by_head, start, head
    position) of a block."""
    if isinstance(ref, dict):
        return ref[s]
    (pairs, by_head, start, _), i = ref
    below = (1 << s) - 1
    heads = [mask for _, mask in pairs]
    if by_head:     # all rules with smaller heads, then those of s before i
        return start + sum([(h & below).bit_count() for h in heads]) + \
            sum([h >> s & 1 for h in heads[:i]])
    return start + sum([h.bit_count() for h in heads[:i]]) + \
        (heads[i] & below).bit_count()


def evaluate(p: Program, a: Structure, stop_at_goal: bool = False) -> EvalResult:
    """Least fixpoint of the program on the instance.

    A program of canonical shape (see _rule_tables) runs from integer
    tables.  A program that canonical_program built (its `origin` is set)
    compiles them from its template's rule blocks, any other from its
    rules, to the same tables.  For each IDB predicate they list the runs of
    rules whose bodies use it, a run being a mask of heads whose rules
    differ only in their head.  Rules without an IDB body atom fire first,
    in rule order over sorted rows.  A worklist then pops (predicate,
    element) states; each group of runs that uses the popped predicate
    looks up the rows that agree with it once.  A run whose checks name a
    subset popped at no entry of these rows, or whose ready rows (those
    whose IDB body facts have all been popped) already have all of its
    heads, is skipped, as it would derive nothing; any other fires its
    heads in ascending order, which is rule order, over its ready rows.  A
    program of any other shape is grounded up front and run with a
    countdown per ground instance.

    Either way facts are derived in the order of grounding every rule
    against every row up front, so facts, goal and trace are those of that
    full grounding.  The first derivation of each fact is remembered, so
    traces are reproducible; a trace is kept for linear programs (at most
    one IDB atom per body).  A step of a program with an origin binds
    x{y+1} for its head position y, then the other x{i+1}, to its row, as
    its rule would, so that its rules are never rendered.  With
    stop_at_goal the fixpoint is cut short as soon as the goal fires and
    the fact set may be partial.
    """
    if p.signature != a.signature:
        raise SignatureMismatch(
            f"program over {p.signature} evaluated on {a.signature}"
        )
    tables = _compiled(p)
    if tables is None:
        return _evaluate_grounded(p, a, stop_at_goal)
    initial, users, linear, names, dominated = tables
    rows_of = {}
    # (relation, position) -> element -> rows; goal :- P(x1) reads (None, 0)
    columns: dict = {(None, 0): {v: [(v,)] for v in range(a.size)}}
    for sym, r in a.signature.symbols:
        rows_of[sym] = sorted(a.rel(sym))
        for x in range(r):
            by_value = columns[sym, x] = {}
            for t in rows_of[sym]:
                by_value.setdefault(t[x], []).append(t)

    # a state (q, element) stands for the fact names[q](element); each
    # element has a mask of the predicates derived for it and of those popped
    derived = [0] * a.size
    popped = [0] * a.size
    provenance: dict = {}    # state or GOAL_FACT -> (run ref, row, body)
    queue = deque()

    for rel, _, runs in initial:
        rows = rows_of[rel]
        for head, _, heads, ref in runs:
            if head is None:
                if rows and GOAL_FACT not in provenance:
                    provenance[GOAL_FACT] = (ref, rows[0], None)
                continue
            for s in _bits(heads):
                bit = 1 << s
                for t in rows:
                    w = t[head]
                    if not derived[w] & bit:
                        derived[w] |= bit
                        provenance[s, w] = (ref, t, None)
                        queue.append((s, w))

    stop = stop_at_goal and GOAL_FACT in provenance
    while queue and not stop:
        state = queue.popleft()
        q, v = state
        seen = popped[v]
        popped[v] = seen | 1 << q
        if seen & dominated[q]:     # a subset popped here did all it would
            continue
        for rel, keys, runs in users[q]:
            rows = columns[keys[0]].get(v) if len(keys) == 1 else \
                sorted({t for key in keys for t in columns[key].get(v, ())})
            if not rows:
                continue
            seen_at = None          # per position, what was popped at a row
            for head, checks, heads, ref in runs:
                ready = rows
                if checks:          # the rows whose checked facts are popped
                    ready = []
                    if seen_at is None:
                        seen_at = [0] * len(rows[0])
                        for t in rows:
                            for x, w in enumerate(t):
                                seen_at[x] |= popped[w]
                    # none, when a subset was popped at no row's position
                    for x, c in checks:
                        if not seen_at[x] >> c & 1:
                            break
                    else:
                        for t in rows:
                            for x, c in checks:
                                if not popped[t[x]] >> c & 1:
                                    break
                            else:
                                ready.append(t)
                    if not ready:
                        continue
                if head is None:    # goal rules fire alike; the first wins
                    provenance.setdefault(GOAL_FACT, (ref, ready[0], state))
                    stop = stop_at_goal
                    if stop:
                        break
                    continue
                todo = 0            # heads some ready row's element lacks
                for t in ready:
                    todo |= ~derived[t[head]]
                todo &= heads
                if not todo:
                    continue
                # the first ready row of each head element, in row order
                targets: dict = {}
                for t in ready:
                    targets.setdefault(t[head], t)
                # rule-major by ascending head, as if each rule came alone
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    s = bit.bit_length() - 1
                    for w, t in targets.items():
                        if not derived[w] & bit:
                            derived[w] |= bit
                            provenance[s, w] = (ref, t, state)
                            queue.append((s, w))
            if stop:
                break

    goal = GOAL_FACT in provenance
    facts = [(names[q], (v,)) for q, v in provenance if q != GOAL]
    facts = frozenset(facts + [GOAL_FACT] if goal else facts)
    trace = None
    if goal and linear:
        steps = []
        state = GOAL_FACT
        while state is not None:
            ref, t, body = provenance[state]
            rule_idx = _rule_index(ref, 0 if state == GOAL_FACT else state[0])
            fact = state if state == GOAL_FACT else \
                (names[state[0]], state[1:])
            bindings = _bindings(p.rules[rule_idx], p.signature, t) \
                if p.origin is None else _block_bindings(ref[0][3], t)
            steps.append(DerivationStep(fact=fact, rule_index=rule_idx,
                                        bindings=bindings))
            state = body
        trace = Derivation(program=p, steps=tuple(reversed(steps)))
    return EvalResult(facts=facts, goal=goal, trace=trace)


def _evaluate_grounded(p: Program, a: Structure,
                       stop_at_goal: bool) -> EvalResult:
    """evaluate on a program not of canonical shape.  A rule's ground
    instances are the homomorphisms into a from the canonical database of
    its EDB atoms, one element per variable: those of the EDB atoms first,
    by first occurrence in body order, then the rest.  The one search loop
    lists them in lexicographic order, that of joining the EDB atoms in body
    order over sorted rows, then the other variables over every element.
    Instances without IDB body atoms fire in that order; any other fires
    once the last of its distinct IDB body facts is popped."""
    searcher = HomSearcher(a)
    # canonical database -> its homomorphisms, shared by alike EDB bodies
    homs: dict = {}
    instances = []           # (rule index, bindings, head, IDB body facts)
    waiting: dict = {}       # fact -> the instances whose bodies use it
    counts = []              # per instance, its body facts not yet popped
    linear = True
    for rule_idx, rule in enumerate(p.rules):
        edb, idb = _body_split(rule, p.signature)
        linear = linear and len(idb) <= 1
        variables = tuple(dict.fromkeys(
            [v for atom in (rule.head, *rule.body) for v in atom.args]))
        order = tuple(dict.fromkeys(
            [v for atom in (*edb, rule.head, *rule.body) for v in atom.args]))
        db, _ = canonical_database(ConjunctiveQuery(
            p.signature, order, (), tuple([(e.pred, e.args) for e in edb])))
        if db not in homs:
            homs[db] = list(searcher.enumerate(db))
        for values in homs[db]:
            at = dict(zip(order, values))
            body = tuple(dict.fromkeys(
                [(atom.pred, tuple([at[v] for v in atom.args]))
                 for atom in idb]))
            for f in body:
                waiting.setdefault(f, []).append(len(instances))
            counts.append(len(body))
            instances.append((
                rule_idx, tuple([(v, at[v]) for v in variables]),
                (rule.head.pred, tuple([at[v] for v in rule.head.args])),
                body))

    provenance: dict = {}    # fact -> (rule index, bindings, body facts)
    queue = deque()

    def fire(i):
        rule_idx, bindings, head, body = instances[i]
        if head not in provenance:
            provenance[head] = (rule_idx, bindings, body)
            queue.append(head)

    for i, count in enumerate(counts):
        if not count:
            fire(i)
    while queue and not (stop_at_goal and GOAL_FACT in provenance):
        for i in waiting.get(queue.popleft(), ()):
            counts[i] -= 1
            if not counts[i]:
                fire(i)
                if stop_at_goal and GOAL_FACT in provenance:
                    break

    goal = GOAL_FACT in provenance
    trace = None
    if goal and linear:
        steps = []
        fact = GOAL_FACT
        while fact is not None:
            rule_idx, bindings, body = provenance[fact]
            steps.append(DerivationStep(fact=fact, rule_index=rule_idx,
                                        bindings=bindings))
            fact = body[0] if body else None
        trace = Derivation(program=p, steps=tuple(reversed(steps)))
    return EvalResult(facts=frozenset(provenance), goal=goal, trace=trace)


def _row_args(rule: Rule, sig: Signature) -> tuple[str, ...]:
    """The variables of rule's EDB atom; those of its IDB atom in goal :-
    P(x), whose rows are the elements."""
    return next((atom.args for atom in rule.body if atom.pred in sig),
                rule.body[0].args)


def _bindings(rule: Rule, sig: Signature, row: tuple) -> tuple:
    """rule's variables in order of first occurrence, each bound to its entry
    of row at its position in _row_args."""
    value = dict(zip(_row_args(rule, sig), row))
    return tuple([(v, value[v]) for v in dict.fromkeys(
        [v for atom in (rule.head, *rule.body) for v in atom.args])])


def _block_bindings(y, row: tuple) -> tuple:
    """_bindings on row of a canonical program's rule with head position y
    (None for goal): x{y+1} first, then x{i+1} for the row's other i."""
    return tuple([(f"x{i + 1}", row[i])
                  for i in sorted(range(len(row)), key=lambda i: i != y)])


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


def _bits(mask: int):
    """The positions of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subset_names(n: int) -> list[str]:
    """subset_name of every subset of range(n), indexed by its bit mask:
    each name is a shorter one extended by the mask's highest element."""
    names = ["Pempty"]
    for m in range(1, 1 << n):
        top = m.bit_length() - 1
        rest = m ^ 1 << top
        names.append(f"{names[rest][:-1]}_{top}}}" if rest else f"P{{{top}}}")
    return names


def _subset_masks(n: int) -> list[int]:
    """Per subset mask m of range(n), the mask over subset masks of m's
    subsets: those of m without its lowest element, with and without it."""
    subsets = [1] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        subsets[m] = subsets[m ^ low] | subsets[m ^ low] << low
    return subsets


def _canonical_blocks(b: Structure, fragment: str):
    """The rules of canonical_program(b, fragment) as integer blocks, in
    program order: base rules, moves, goal rules, one goal rule per empty
    relation, and goal :- Pempty(x1).

    Subsets of the template's elements are bit masks.  A block is
    (relation, arity, head, positions, pairs, by_head).  Its rules have the
    body atoms relation(x1, ..., x{arity}) (none when relation is None) and
    P_t(x{x+1}) for the masks t of a pair's body at the positions x; head
    is the position of the head variable, None for goal rules.  A pair
    (body, heads) stands for one rule per set bit s of heads, with head
    P_s(x{head+1}); the heads of a goal rule are 1.  A block's rules come in
    order of head subset first when by_head is set, else of pair.
    """
    n = b.size
    full = 1 << n
    top = full - 1      # the mask of every element
    # supersets[m] and subsets[m]: the subset masks that contain m and that
    # m contains, as masks over subset masks; m's supersets are m joined
    # with the subsets of its complement
    subsets = _subset_masks(n)
    supersets = [subsets[top ^ m] << m for m in range(full)]
    relations = [(sym, r, sorted(rel)) for sym, r, rel in b.relation_items()]
    linear = fragment != "am"

    def column(rows, x):
        mask = 0
        for t in rows:
            mask |= 1 << t[x]
        return mask

    def unions(rows, x, values):
        """Per subset mask, the OR of values[i] over the rows i whose entry
        at x lies in it."""
        at = [0] * n
        for u, value in zip(rows, values):
            at[u[x]] |= value
        out = [0] * full
        for m in range(1, full):
            low = m & -m
            out[m] = out[m ^ low] | at[low.bit_length() - 1]
        return out

    def constrained(rows, r):
        """Per mask of positions, each tuple of subset masks at its
        positions, in product order, with the mask of the indices of the
        rows whose entries there lie in them; each mask's product extends
        that of the mask without its highest position."""
        hits = [unions(rows, x, [1 << i for i in range(len(rows))])
                for x in range(r)]
        out = [[((), (1 << len(rows)) - 1)]]
        for vmask in range(1, 1 << r):
            x = vmask.bit_length() - 1
            out.append([(combo + (c,), mask & hits[x][c])
                        for combo, mask in out[vmask ^ 1 << x]
                        for c in range(full)])
        return out

    for sym, r, rows in relations:
        for y in range(r):
            yield sym, r, y, (), (((), supersets[column(rows, y)]),), False
    products = []
    for sym, r, rows in relations:
        if not linear:
            products.append(constrained(rows, r))
            found = {hits for product in products[-1] for _, hits in product}
        for y in range(r):
            if linear:
                for x in range(r):
                    # P_s(y) :- P_t(x) when t's image lies in s and, for
                    # slam, s's image back lies in t: no element outside t
                    # steps into s
                    image = unions(rows, x, [1 << u[y] for u in rows])
                    heads = [supersets[m] for m in image]
                    if fragment == "slam":
                        heads = [h & subsets[top ^ image[top ^ t]]
                                 for t, h in enumerate(heads)]
                    yield sym, r, y, (x,), tuple([
                        ((t,), h) for t, h in enumerate(heads) if h]), True
                continue
            # the head subsets of each mask of matching rows
            heads = {hits: supersets[column([rows[i] for i in _bits(hits)], y)]
                     for hits in found}
            for vmask in range(1, 1 << r):
                yield sym, r, y, tuple(_bits(vmask)), tuple([
                    (combo, heads[hits]) for combo, hits in products[-1][vmask]
                ]), False
    for i, (sym, r, rows) in enumerate(relations):
        if linear:
            for x in range(r):
                proj = column(rows, x)
                yield sym, r, None, (x,), tuple([
                    ((t,), 1) for t in range(full) if not t & proj]), False
            continue
        for vmask in range(1, 1 << r):
            yield sym, r, None, tuple(_bits(vmask)), tuple([
                (combo, 1) for combo, hits in products[i][vmask]
                if not hits]), False
    for sym, r, rows in relations:
        if not rows:
            yield sym, r, None, (), (((), 1),), False
    yield None, 1, None, (0,), (((0,), 1),), False


def _canonical_tables(b: Structure, fragment: str):
    """The worklist tables of canonical_program(b, fragment), read off its
    blocks: (initial, users, linear, names, dominated).

    `initial` and each `users[q]` list runs in rule order, grouped as
    (relation, keys, runs) where consecutive runs share both: the runs of
    rules without an IDB body atom, and of those whose bodies use P_q.  A
    run (head position, checks, heads, ref) is the rules of one pair of a
    block, which differ only in their heads: `heads` is the mask of their
    head subsets, and _rule_index(ref, s) the index of the one with head s.
    Keys are (relation, position) for each position of P_q in the body;
    checks are the (position, subset) pairs of a body with more than one
    IDB atom, all of which must have been popped before a rule fires.
    `linear` says whether every body has at most one IDB atom, and
    names[mask] is the IDB predicate of a subset mask.  dominated[mask] is
    the mask of mask's strict subsets in am and lam, whose heads are
    antitone in each body subset, so that P_s(v) popped after a strict
    subset at v derives nothing; it is 0 in slam, where that fails.
    """
    full = 1 << b.size
    initial = []
    users: list[list] = [[] for _ in range(full)]
    linear = True
    index = 0
    for rel, _, head, positions, pairs, by_head in \
            _canonical_blocks(b, fragment):
        block = (pairs, by_head, index, head)
        columns = tuple([(rel, x) for x in positions])
        index += sum([heads.bit_count() for _, heads in pairs])
        if len(positions) <= 1:
            for i, (body, heads) in enumerate(pairs):   # _add_run inline
                entries = users[body[0]] if body else initial
                run = (head, (), heads, (block, i))
                if entries and entries[-1][:2] == (rel, columns):
                    entries[-1][2].append(run)
                else:
                    entries.append((rel, columns, [run]))
            continue
        linear = False
        for i, (body, heads) in enumerate(pairs):
            run = (head, tuple(zip(positions, body)), heads, (block, i))
            keys: dict = {}      # subset -> its columns in the body
            for column, q in zip(columns, body):
                keys[q] = keys.get(q, ()) + (column,)
            for q, columns_of_q in keys.items():
                _add_run(users[q], rel, columns_of_q, run)
    dominated = [0] * full if fragment == "slam" else \
        [m ^ 1 << s for s, m in enumerate(_subset_masks(b.size))]
    return initial, users, linear, _subset_names(b.size), dominated


def canonical_program(b: Structure, fragment: str) -> Program:
    """The canonical program of width (1, max arity) for the template.

    All valid rules of the fragment shapes are included: subset IDBs P_S,
    rules moving along one EDB atom, and the goal rules.  For slam, a rule
    with a body IDB is kept only when its reverse is valid as well; for am,
    bodies may constrain several positions of the EDB atom at once, and
    CapExceeded is raised before anything is built when the am candidates
    exceed the stream cap.

    The program's `origin` is (b, fragment).  Its rules are rendered from
    _canonical_blocks on their first read, and evaluate never reads them:
    it compiles the same blocks into integer tables, and names a trace
    step's variables by the head position and row.
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
    program = object.__new__(Program)
    program.__dict__.update(signature=b.signature, origin=(b, fragment))
    return program


def _canonical_rules(b: Structure, fragment: str) -> tuple[Rule, ...]:
    """The rules of canonical_program(b, fragment), from its blocks."""
    names = _subset_names(b.size)
    goal = (Atom(GOAL, ()),)
    rules: list[Rule] = []
    for rel, r, head, positions, pairs, by_head in \
            _canonical_blocks(b, fragment):
        variables = tuple(f"x{i + 1}" for i in range(r))
        edb = () if rel is None else (Atom(rel, variables),)
        heads = goal if head is None else \
            [Atom(name, (variables[head],)) for name in names]
        bodies = [(edb + tuple([Atom(names[t], (variables[x],))
                                for x, t in zip(positions, body)]), mask)
                  for body, mask in pairs]
        if by_head:     # by head subset first, then by pair
            top = max([mask for _, mask in pairs], default=0).bit_length()
            rules += [Rule(head=heads[s], body=atoms) for s in range(top)
                      for atoms, mask in bodies if mask >> s & 1]
        else:
            rules += [Rule(head=heads[s], body=atoms)
                      for atoms, mask in bodies for s in _bits(mask)]
    return tuple(rules)


# ---------------------------------------------------------------------------
# Symmetrization repair
# ---------------------------------------------------------------------------

def _step(rule: Rule, b: Structure):
    """rule as (relation, x, y, t, s): its EDB relation (None in goal :-
    P(x)), the positions in _row_args of its IDB body atom and of its head,
    and the masks of their subsets; x and t are None without an IDB body
    atom, y is None and s 0 for goal.  RepairFailed unless rule is linear
    arc monadic over subset IDBs and valid on b: no row u with u[x] in t
    has u[y] outside s."""
    edb, idb = _body_split(rule, b.signature)
    goal = rule.head.pred == GOAL
    if len(edb) > 1 or len(idb) > 1 or not (edb or goal):
        raise RepairFailed(f"rule {rule.render()!r} is not linear arc "
                           "over an EDB atom")
    args = _row_args(rule, b.signature)
    if len(set(args)) < len(args):
        raise RepairFailed(f"rule {rule.render()!r} repeats a variable in "
                           f"{(edb or idb)[0].render()!r}")

    def place(atom):
        sub = name_subset(atom.pred)
        if sub is None or not sub <= set(range(b.size)) or \
                len(atom.args) != 1 or atom.args[0] not in args:
            raise RepairFailed(f"{atom.render()!r} in {rule.render()!r} is "
                               "not a subset IDB on its EDB atom")
        return args.index(atom.args[0]), sum([1 << e for e in sub])

    x, t = place(idb[0]) if idb else (None, None)
    y, s = (None, 0) if goal else place(rule.head)
    rel = edb[0].pred if edb else None
    rows = b.rel(rel) if edb else [(v,) for v in range(b.size)]
    if any((x is None or t >> u[x] & 1) and (y is None or not s >> u[y] & 1)
           for u in rows):
        raise RepairFailed(f"invalid rule {rule.render()!r}")
    return rel, x, y, t, s


def _lookup(slam: Program, step) -> int:
    """The index of the rule of canonical_program(b, "slam") that _step
    reads as step: the one run of its tables in `initial` (no IDB body atom)
    or users[t] with step's relation, key and head, whose heads hold s."""
    rel, x, y, t, s = step
    initial, users = _compiled(slam)[:2]
    keys = () if x is None else ((rel, x),)
    refs = [ref for r, k, runs in (initial if x is None else users[t])
            if r == rel and k == keys
            for head, _, heads, ref in runs if head == y and heads >> s & 1]
    if len(refs) != 1:
        raise RepairFailed(f"no rule (relation, x, y, t, s) = {step} in the "
                           "canonical slam program")
    return _rule_index(refs[0], s)


def repair_to_symmetric(d: Derivation, slam: Program) -> Derivation:
    """Rebuild a linear goal derivation with rules of `slam`, which must be
    canonical_program(b, "slam") of the template b, built once per caller.

    Each step's rule is read as (relation, positions, subsets) by _step.
    The initial set is shrunk to the reachable minimum, and the whole chain
    is closed under forward images and backward preimages.  The closure
    makes every middle rule symmetric.  Each repaired rule is looked up in
    slam's worklist tables, and its step binds that rule's own variables to
    the EDB row of the step it replaces.  RepairFailed signals that the
    final goal rule became invalid, so that slam lacks it, which cannot
    happen for templates with a quasi Maltsev polymorphism.
    """
    if slam.origin is None or slam.origin[1] != "slam":
        raise ValueError("repair needs a program built by "
                         "canonical_program(b, 'slam')")
    b = slam.origin[0]
    sig = b.signature
    if not d.steps or d.steps[-1].fact != GOAL_FACT:
        raise RepairFailed("derivation does not end in the goal")
    rules = [d.program.rules[step.rule_index] for step in d.steps]
    pieces = [_step(rule, b) for rule in rules]
    try:
        rows = [tuple([dict(step.bindings)[v] for v in _row_args(rule, sig)])
                for step, rule in zip(d.steps, rules)]
    except KeyError as e:
        raise RepairFailed(f"a step does not bind {e}") from None
    # one EDB-only step, then steps that consume the previous head, and goal
    last = len(pieces) - 1
    sets, arrows = [], []
    for i, (rel, x, y, t, _) in enumerate(pieces):
        if (x is None) != (i == 0) or (y is None) != (i == last):
            raise RepairFailed("steps do not run from an EDB-only rule "
                               "to the goal")
        if i and (t, rows[i][x]) != (pieces[i - 1][4],
                                     rows[i - 1][pieces[i - 1][2]]):
            raise RepairFailed("chain steps do not link up")
        if y is None:
            break
        if x is None:
            sets.append({u[y] for u in b.rel(rel)})
        else:
            arrows.append({(u[x], u[y]) for u in b.rel(rel)})
            sets.append({v for u, v in arrows[-1] if u in sets[-1]})

    total = None         # the sets only grow, so their total size tells
    while total != (total := sum(map(len, sets))):
        for i, arrow in enumerate(arrows):
            sets[i + 1] |= {v for u, v in arrow if u in sets[i]}
            sets[i] |= {u for u, v in arrow if v in sets[i + 1]}

    masks = [sum([1 << e for e in q]) for q in sets] + [0]
    names = _compiled(slam)[3]
    steps = []
    for i, ((rel, x, y, _, _), row) in enumerate(zip(pieces, rows)):
        index = _lookup(slam, (rel, x, y, None if x is None else masks[i - 1],
                               masks[i]))
        fact = GOAL_FACT if y is None else (names[masks[i]], (row[y],))
        steps.append(DerivationStep(fact=fact, rule_index=index,
                                    bindings=_block_bindings(y, row)))
    return Derivation(program=slam, steps=tuple(steps))
