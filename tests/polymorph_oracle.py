"""Oracles for `slamlog.polymorph`, usable only on small inputs.

`subset_power_literal` is the literal subset-power construction, kept as
the oracle for `polymorph.subset_power_structure`: it checks every one of
the (2^|B| - 1)^arity candidate subset tuples of a relation against every
row, straight from the definition.

`brute_force_search` is an exhaustive operation-table search, the oracle
for the indicator construction.  Only arity is capped, and its time grows
with |B|^(|B|^arity), so keep it to two- and three-element templates.

`setsystem_structure_literal` builds the set-system structure of an
absorptive check from frozensets: it canonicalises every family of at most
n blocks with `canonical_set_system` to find the elements, and every
combination of supports, one coordinate at a time, to find the tuples.
It is the oracle for `polymorph._setsystem_structure`, which works on
up-set masks.

`lattice_polymorphisms_literal` searches lattice orders as boolean `leq`
matrices, checking transitivity entry by entry: the oracle for
`polymorph.lattice_polymorphisms`, which builds each candidate order as
up-set and down-set masks.  Both try the candidates in one order, so they
return the same first lattice.
"""

from __future__ import annotations

import itertools
import math

from slamlog.polymorph import (
    DEFAULT_STREAM_CAP,
    CapExceeded,
    MinorCondition,
    OperationTable,
    _check_witness,
    _power_codes,
    _tuple_code,
    condition_pairs,
)
from slamlog.structures import Structure


def canonical_set_system(blocks) -> tuple[tuple[int, ...], ...]:
    """The sort key of the canonical set system of a family of blocks: its
    inclusion-minimal nonempty blocks as sorted tuples, in sorted order."""
    bs = {frozenset(s) for s in blocks if s}
    return tuple(sorted(tuple(sorted(s)) for s in bs
                        if not any(o < s for o in bs)))


def _nonempty_subsets(size: int) -> tuple[frozenset[int], ...]:
    """The nonempty subsets of 0..size-1, in order of their bit masks."""
    return tuple(frozenset(v for v in range(size) if (m >> v) & 1)
                 for m in range(1, 1 << size))


def subset_power_literal(b: Structure) -> Structure:
    """Structure on the nonempty subsets of b's domain, numbered by bit
    mask minus one.

    A subset tuple is related when every element of every coordinate set is
    supported by a tuple of the relation lying inside the coordinate sets.
    """
    sets = _nonempty_subsets(b.size)
    rels = []
    for _, ar, rel in b.relation_items():
        rows = sorted(rel)
        out = set()
        for combo in itertools.product(range(len(sets)), repeat=ar):
            coord_sets = [sets[i] for i in combo]
            ok = True
            for i in range(ar):
                for v in coord_sets[i]:
                    if not any(
                        u[i] == v and all(u[j] in coord_sets[j] for j in range(ar))
                        for u in rows
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.add(combo)
        rels.append(frozenset(out))
    return Structure(
        signature=b.signature,
        size=len(sets),
        relations=tuple(rels),
        name=f"pow({b.name})" if b.name else "",
    )


def brute_force_search(
    b: Structure,
    c: MinorCondition,
    arity_cap: int = 3,
) -> OperationTable | None:
    """Complete table search with forced-equality propagation and early
    preservation pruning.  Ground truth for the indicator construction."""
    if c.arity > arity_cap:
        raise CapExceeded(f"arity {c.arity} above cap {arity_cap}")
    n = b.size
    m = c.arity
    total = n ** m
    links: list[list[int]] = [[] for _ in range(total)]
    for s, t in condition_pairs(c, n):
        cs, ct = _tuple_code(s, n), _tuple_code(t, n)
        if cs != ct:
            links[cs].append(ct)
            links[ct].append(cs)
    buckets: list[list[tuple[tuple[int, ...], frozenset]]] = [
        [] for _ in range(total)
    ]
    for rel in b.relations:
        for codes in _power_codes(sorted(rel), m, n, DEFAULT_STREAM_CAP):
            buckets[max(codes)].append((codes, rel))
    values: list[int | None] = [None] * total

    def assign(code: int, v: int, trail: list[int]) -> bool:
        stack = [(code, v)]
        while stack:
            cur, val = stack.pop()
            if values[cur] is not None:
                if values[cur] != val:
                    return False
                continue
            values[cur] = val
            trail.append(cur)
            for other in links[cur]:
                stack.append((other, val))
        return True

    def consistent_at(code: int) -> bool:
        for codes, rel in buckets[code]:
            if any(values[x] is None for x in codes):
                continue
            if tuple(values[x] for x in codes) not in rel:
                return False
        return True

    def search(pos: int) -> bool:
        if pos == total:
            return True
        if values[pos] is not None:
            return consistent_at(pos) and search(pos + 1)
        for v in range(n):
            trail: list[int] = []
            if assign(pos, v, trail) and consistent_at(pos) and search(pos + 1):
                return True
            for cur in trail:
                values[cur] = None
        return False

    if not search(0):
        return None
    table = OperationTable(arity=m, size=n, values=tuple(values))
    _check_witness(table, c, b)
    return table


def setsystem_structure_literal(
    b: Structure, k: int, n: int, stream_cap: int = DEFAULT_STREAM_CAP,
) -> tuple[Structure, list[tuple[tuple[int, ...], ...]]]:
    """The structure on canonical antichains of at most n blocks of at most
    k elements, and their sort keys in order.  Every family of at most n
    blocks is tried, and more than stream_cap + 1 antichains raise.  A
    relation holds, for each set of at most n supports (sets of at most k
    relation tuples), the tuple of the canonical set systems of the
    supports' blocks in each coordinate."""
    subsets = [
        frozenset(s)
        for size in range(1, min(k, b.size) + 1)
        for s in itertools.combinations(range(b.size), size)
    ]
    systems = sorted({canonical_set_system(family)
                      for r in range(1, n + 1)
                      for family in itertools.combinations(subsets, r)})
    if len(systems) > stream_cap + 1:
        raise CapExceeded(f"more than {stream_cap} set systems")
    index = {key: i for i, key in enumerate(systems)}
    rels = []
    for _, ar, rel in b.relation_items():
        rows = sorted(rel)
        out = set()
        supports = [
            frozenset(w)
            for size in range(1, min(k, len(rows)) + 1)
            for w in itertools.combinations(rows, size)
        ]
        total = 0
        for vsize in range(1, n + 1):
            total += math.comb(len(supports), vsize)
            if total > stream_cap:
                raise CapExceeded("set-system representative stream too large")
        for vsize in range(1, n + 1):
            for v in itertools.combinations(supports, vsize):
                entry = []
                for i in range(ar):
                    entry.append(index[canonical_set_system(
                        frozenset(u[i] for u in w) for w in v)])
                out.add(tuple(entry))
        rels.append(frozenset(out))
    struct = Structure(
        signature=b.signature,
        size=len(systems),
        relations=tuple(rels),
        name=f"ss({b.name})" if b.name else "",
    )
    return struct, systems


def lattice_polymorphisms_literal(
    b: Structure,
) -> tuple[OperationTable, OperationTable] | None:
    """The first join/meet pair, in `itertools.product` order of the
    candidate orders, of a lattice whose operations are polymorphisms of b;
    None beyond five elements."""
    n = b.size
    if n == 0 or n > 5:
        return None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for assign in itertools.product((1, 2, 0), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), a in zip(pairs, assign):
            if a == 1:
                leq[i][j] = True
            elif a == 2:
                leq[j][i] = True
        if not _transitive(leq, n):
            continue
        tables = _lattice_tables(leq, n)
        if tables is None:
            continue
        join, meet = [OperationTable(arity=2, size=n, values=values)
                      for values in tables]
        if join.is_polymorphism_of(b, stream_cap=math.inf) and \
                meet.is_polymorphism_of(b, stream_cap=math.inf):
            return join, meet
    return None


def _transitive(leq, n) -> bool:
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for l in range(n):
                    if leq[j][l] and not leq[i][l]:
                        return False
    return True


def _lattice_tables(leq, n):
    """Join and meet of the partial order leq as flat value tables, or None
    unless it is a lattice: the join of i and j is the element whose up-set
    is the intersection of theirs, and the meet dually with down-sets."""
    tables = []
    for up in (True, False):
        cone = [sum([1 << z for z in range(n)
                     if (leq[i][z] if up else leq[z][i])]) for i in range(n)]
        apex = {c: z for z, c in enumerate(cone)}
        values = tuple([apex.get(c & d) for c in cone for d in cone])
        if None in values:
            return None
        tables.append(values)
    return tables
