"""Primitive-positive power gadgets.

A pp-power specification of dimension d interprets each target symbol of
arity r as a conjunctive query over the source signature with free
variables x1..x{d*r}; argument j of the target relation owns the block
x{(j-1)d+1}..x{jd}.  Two constructions share one spec: pp_power builds the
derived structure over d-tuples, and apply_gadget_reduction rewrites an
instance of the target language into the source language, so that the two
are linked by a homomorphism adjunction.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .homsolver import SignatureMismatch, enumerate_homomorphisms
from .structures import (
    ConjunctiveQuery,
    Partition,
    Signature,
    Structure,
    canonical_database,
    split_top_level,
)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


class GadgetFormatError(ValueError):
    """Raised when a pp-power specification cannot be parsed or validated."""


def _free_vars(dimension: int, arity: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dimension * arity))


@dataclass(frozen=True)
class PPPowerSpec:
    dimension: int
    source: Signature
    target: Signature
    queries: tuple[tuple[str, ConjunctiveQuery], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise GadgetFormatError("dimension must be at least 1")
        named = {sym for sym, _ in self.queries}
        if named != set(self.target.names()):
            raise GadgetFormatError("queries do not match the target signature")
        if len(self.queries) != len(set(named)):
            raise GadgetFormatError("duplicate query for a target symbol")
        for sym, q in self.queries:
            arity = self.target.arity(sym)
            if arity < 1:
                raise GadgetFormatError(f"target symbol {sym!r} must have "
                                        "positive arity")
            if q.signature != self.source:
                raise GadgetFormatError(
                    f"query for {sym!r} is not over the source signature"
                )
            if q.free != _free_vars(self.dimension, arity):
                raise GadgetFormatError(
                    f"query for {sym!r} must have free variables "
                    f"{', '.join(_free_vars(self.dimension, arity))}"
                )

    def query(self, sym: str) -> ConjunctiveQuery:
        for name, q in self.queries:
            if name == sym:
                return q
        raise KeyError(sym)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _parse_signature(text: str) -> Signature:
    symbols = []
    for part in text.split(","):
        part = part.strip()
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_']*)\s*/\s*(\d+)$", part)
        if not m:
            raise GadgetFormatError(f"bad signature entry {part!r}")
        symbols.append((m.group(1), int(m.group(2))))
    try:
        return Signature(symbols=tuple(symbols))
    except ValueError as exc:
        raise GadgetFormatError(str(exc)) from exc


def _render_signature(sig: Signature) -> str:
    return ",".join(f"{sym}/{ar}" for sym, ar in sig.symbols)


def _parse_query(text: str, source: Signature, free: tuple[str, ...]):
    text = text.strip()
    bound: tuple[str, ...] = ()
    if text.startswith("exists"):
        head, _, rest = text[len("exists"):].partition(".")
        bound = tuple(head.split())
        for v in bound:
            if not _IDENT_RE.match(v):
                raise GadgetFormatError(f"bad bound variable {v!r}")
        text = rest.strip()
    atoms = []
    equalities = []
    try:
        parts = split_top_level(text)
    except ValueError:
        raise GadgetFormatError(
            f"unbalanced parentheses in {text!r}") from None
    for part in parts:
        if not part:
            raise GadgetFormatError("empty conjunct")
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_']*)\s*\(([^()]*)\)$", part)
        if m:
            args = tuple(v.strip() for v in m.group(2).split(","))
            sym = m.group(1)
            if sym not in source:
                raise GadgetFormatError(f"unknown source symbol {sym!r}")
            if len(args) != source.arity(sym):
                raise GadgetFormatError(f"wrong arity for {sym!r}")
            atoms.append((sym, args))
            continue
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_']*)\s*=\s*([A-Za-z_][A-Za-z0-9_']*)$",
                     part)
        if m:
            equalities.append((m.group(1), m.group(2)))
            continue
        raise GadgetFormatError(f"bad conjunct {part!r}")
    used = {v for _, args in atoms for v in args}
    used.update(v for eq in equalities for v in eq)
    for v in used:
        if v not in free and v not in bound:
            raise GadgetFormatError(f"variable {v!r} is neither free nor bound")
    return ConjunctiveQuery(signature=source, free=free, bound=bound,
                            atoms=tuple(atoms), equalities=tuple(equalities))


def parse_ppower_spec(text: str) -> PPPowerSpec:
    """Parse `ppower d=<d> from <sig> ; rel <R>/<r> := <query> ; ...`.

    Segments are separated by semicolons or line breaks; `#` starts a
    comment.  Queries use `exists z1 z2 . A(x1,z1), z1=z2` syntax and their
    free variables are fixed by the dimension and the symbol arity.
    """
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    segments = [s.strip() for s in re.split(r"[;\n]+", stripped) if s.strip()]
    if not segments:
        raise GadgetFormatError("empty specification")
    m = re.match(r"^ppower\s+d\s*=\s*(\d+)\s+from\s+(.*)$", segments[0])
    if not m:
        raise GadgetFormatError("specification must start with "
                                "'ppower d=<d> from <signature>'")
    dimension = int(m.group(1))
    if dimension < 1:
        raise GadgetFormatError("dimension must be at least 1")
    source = _parse_signature(m.group(2))
    target_symbols = []
    queries = []
    for seg in segments[1:]:
        m = re.match(r"^rel\s+([A-Za-z_][A-Za-z0-9_']*)\s*/\s*(\d+)\s*:=\s*(.*)$",
                     seg, re.DOTALL)
        if not m:
            raise GadgetFormatError(f"bad segment {seg!r}")
        sym, arity = m.group(1), int(m.group(2))
        target_symbols.append((sym, arity))
        queries.append((sym, m.group(3)))
    try:
        target = Signature(symbols=tuple(target_symbols))
    except ValueError as exc:
        raise GadgetFormatError(str(exc)) from exc
    parsed = tuple(
        (sym, _parse_query(qtext, source, _free_vars(dimension,
                                                     target.arity(sym))))
        for sym, qtext in queries
    )
    return PPPowerSpec(dimension=dimension, source=source, target=target,
                       queries=parsed)


def render_ppower_spec(spec: PPPowerSpec) -> str:
    lines = [f"ppower d={spec.dimension} from {_render_signature(spec.source)}"]
    for sym, q in spec.queries:
        parts = [f"{s}({','.join(args)})" for s, args in q.atoms]
        parts.extend(f"{u}={v}" for u, v in q.equalities)
        body = ", ".join(parts)
        if q.bound:
            body = f"exists {' '.join(q.bound)} . {body}"
        lines.append(f"rel {sym}/{spec.target.arity(sym)} := {body}")
    return " ;\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def pp_power(b: Structure, spec: PPPowerSpec) -> Structure:
    """The structure over spec.target whose domain is b^d and whose
    relations hold exactly where the defining queries are satisfied."""
    if spec.source != b.signature:
        raise SignatureMismatch("structure does not match the source signature")
    d = spec.dimension
    size = b.size ** d

    def code(values):
        c = 0
        for v in values:
            c = c * b.size + v
        return c

    relations = []
    for sym, arity in spec.target.symbols:
        q = spec.query(sym)
        db, var_map = canonical_database(q)
        rows = set()
        for hom in enumerate_homomorphisms(db, b):
            assignment = {v: hom[var_map[v]] for v in q.free}
            rows.add(tuple(
                code(assignment[f"x{j * d + i + 1}"] for i in range(d))
                for j in range(arity)
            ))
        relations.append(frozenset(rows))
    return Structure(signature=spec.target, size=size,
                     relations=tuple(relations),
                     name=f"pp{d}({b.name})")


def apply_gadget_reduction(spec: PPPowerSpec, c: Structure) -> Structure:
    """Rewrite an instance of the target language into the source language.

    Every element of c becomes d elements, every constraint is replaced by a
    copy of its defining query with fresh existential elements, and the
    equality conjuncts are folded away by a quotient.  An assignment
    satisfying the output in b corresponds exactly to a homomorphism from c
    into pp_power(b, spec).
    """
    if spec.target != c.signature:
        raise SignatureMismatch("instance does not match the target signature")
    d = spec.dimension
    nodes = d * c.size
    union_sets: list[list[int]] = []
    tuples: dict[str, set] = {sym: set() for sym in spec.source.names()}
    raw_tuples: list[tuple[str, tuple[int, ...]]] = []
    for sym, arity in spec.target.symbols:
        q = spec.query(sym)
        db, var_map = canonical_database(q)
        free_of: dict[int, list[str]] = {}
        for v in q.free:
            free_of.setdefault(var_map[v], []).append(v)

        def base_node(t, v):
            idx = int(v[1:]) - 1
            j, i = divmod(idx, d)
            return t[j] * d + i

        for t in sorted(c.rel(sym)):
            node_of: dict[int, int] = {}
            for e in range(db.size):
                hits = free_of.get(e)
                if hits:
                    node_of[e] = base_node(t, hits[0])
                    if len(hits) > 1:
                        union_sets.append([base_node(t, v) for v in hits])
                else:
                    node_of[e] = nodes
                    nodes += 1
            for src_sym, _, rel in db.relation_items():
                for row in sorted(rel):
                    raw_tuples.append(
                        (src_sym, tuple(node_of[e] for e in row))
                    )

    part = Partition(nodes)
    for group in union_sets:
        for other in group[1:]:
            part.union(group[0], other)
    index, quotient_size = part.class_index_map()
    for sym, row in raw_tuples:
        tuples[sym].add(tuple(index[e] for e in row))
    relations = tuple(frozenset(tuples[sym]) for sym in spec.source.names())
    return Structure(signature=spec.source, size=quotient_size,
                     relations=relations, name=f"reduce({c.name})")
