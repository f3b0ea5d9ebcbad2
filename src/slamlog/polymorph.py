"""Polymorphism detection for minor conditions of a single operation symbol.

The central tool is the indicator construction: quotient the m-th power of
the template by the smallest equivalence linking the instantiated identity
pairs; the template has a polymorphism satisfying the condition exactly when
the quotient maps homomorphically back to the template.

Every reading of the m-th power goes through one kernel, `_power_codes`,
which streams the mixed-radix column codes of the m-tuples of one relation
and owns the stream cap: the indicator and the polymorphism check of an
operation table use it.

The subset power and the set systems of absorptive conditions are built
from their generators by one kernel, `_join_closure`, the bounded-depth OR
closure of a set of mask tuples.  A set system (a canonical antichain of
blocks) is its up-set among the candidate blocks, the OR of its blocks'
up-sets, so no family is ever minimised.  `absorptive_check` decides on
set systems only, builds `SetSystem` objects only for a witness map that
is read, and has the dense indicator of the same condition as its oracle,
`find_polymorphism_satisfying(b, block_symmetric_absorptive(k, n))`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .homsolver import WitnessError, find_homomorphism
from .structures import Partition, Structure

DEFAULT_DENSE_CAP = 1 << 20
DEFAULT_STREAM_CAP = 1 << 20


class CapExceeded(Exception):
    """A requested table or tuple stream does not fit the configured cap."""


# ---------------------------------------------------------------------------
# Operation tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperationTable:
    """Total operation on 0..size-1, values indexed by mixed-radix code."""

    arity: int
    size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.size ** self.arity:
            raise ValueError("table length does not match arity")

    def code(self, args) -> int:
        return _tuple_code(args, self.size)

    def apply(self, args) -> int:
        return self.values[self.code(args)]

    def is_polymorphism_of(self, b: Structure,
                           stream_cap: int = DEFAULT_STREAM_CAP) -> bool:
        if b.size != self.size:
            return False
        values = self.values
        for rel in b.relations:
            for codes in _power_codes(sorted(rel), self.arity, self.size,
                                      stream_cap):
                if tuple(map(values.__getitem__, codes)) not in rel:
                    return False
        return True

    def satisfies(self, c: "MinorCondition",
                  partition: Partition | None = None) -> bool:
        """True when the table is constant on every identity class.
        `partition` is closure_partition(c, size) when the caller has
        already built it."""
        part = closure_partition(c, self.size) if partition is None \
            else partition
        seen: dict[int, int] = {}
        for code, v in enumerate(self.values):
            root = part.find(code)
            if root in seen:
                if seen[root] != v:
                    return False
            else:
                seen[root] = v
        return True


def _check_witness(table: OperationTable, c: "MinorCondition",
                   b: Structure, stream_cap: int = DEFAULT_STREAM_CAP,
                   partition: Partition | None = None) -> None:
    """Raise WitnessError unless the table satisfies c and is a
    polymorphism of b."""
    if not table.satisfies(c, partition):
        raise WitnessError(f"witness table breaks the {c.kind} condition")
    if not table.is_polymorphism_of(b, stream_cap=stream_cap):
        raise WitnessError("witness table is not a polymorphism of "
                           f"{b.name or 'the template'}")


# ---------------------------------------------------------------------------
# Minor conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorCondition:
    """Height-one identity system for one operation symbol; `kind` picks a
    structural generator."""

    kind: str
    arity: int
    block_size: int = 0
    blocks: int = 0


def quasi_maltsev() -> MinorCondition:
    return MinorCondition(kind="quasi_maltsev", arity=3)


def quasi_minority() -> MinorCondition:
    return MinorCondition(kind="quasi_minority", arity=3)


def quasi_majority() -> MinorCondition:
    return MinorCondition(kind="quasi_majority", arity=3)


def totally_symmetric(n: int) -> MinorCondition:
    if n < 1:
        raise ValueError("arity must be positive")
    return MinorCondition(kind="tsym", arity=n)


def block_symmetric_absorptive(k: int, n: int) -> MinorCondition:
    """k-absorptive block-symmetric condition of arity k*n."""
    if k < 1 or n < 1:
        raise ValueError("block size and block count must be positive")
    return MinorCondition(kind="absorptive", arity=k * n, block_size=k, blocks=n)


def _blocks_of(t: tuple[int, ...], k: int) -> list[frozenset[int]]:
    return [frozenset(t[i: i + k]) for i in range(0, len(t), k)]


def _writings(s: frozenset[int], k: int):
    """All k-tuples whose entry set is exactly s."""
    for t in itertools.product(sorted(s), repeat=k):
        if len(set(t)) == len(s):
            yield t


def condition_pairs(c: MinorCondition, domain_size: int):
    """All ordered tuple pairs instantiating some identity of c."""
    d = range(domain_size)
    if c.kind in ("quasi_maltsev", "quasi_minority"):
        for x in d:
            for y in d:
                yield ((x, x, y), (y, x, x))
                yield ((y, x, x), (y, y, y))
                if c.kind == "quasi_minority":
                    yield ((x, y, x), (x, x, x))
    elif c.kind == "quasi_majority":
        for x in d:
            for y in d:
                yield ((x, x, y), (x, y, x))
                yield ((x, y, x), (y, x, x))
                yield ((y, x, x), (x, x, x))
    elif c.kind in ("tsym", "absorptive"):
        # tuples with the same entry set (tsym) or block sets are identified
        k, n = c.block_size, c.blocks
        groups: dict[frozenset, list] = {}
        for t in itertools.product(d, repeat=c.arity):
            key = frozenset(t) if c.kind == "tsym" \
                else frozenset(_blocks_of(t, k))
            groups.setdefault(key, []).append(t)
        for members in groups.values():
            for a in members:
                for b in members:
                    if a != b:
                        yield (a, b)
        if c.kind == "absorptive" and n >= 2:
            # rewrite (S1, S2, rest) -> (S2, S2, rest) whenever S2 is inside S1
            for a in itertools.product(d, repeat=c.arity):
                bs = _blocks_of(a, k)
                if not bs[1] <= bs[0]:
                    continue
                rest_writings = [list(_writings(s, k)) for s in bs[2:]]
                w2 = list(_writings(bs[1], k))
                for first in w2:
                    for second in w2:
                        for rest in itertools.product(*rest_writings):
                            b = first + second + tuple(
                                x for blk in rest for x in blk
                            )
                            yield (a, b)
    else:
        raise ValueError(f"unknown condition kind {c.kind}")


# ---------------------------------------------------------------------------
# Identity-class closure
# ---------------------------------------------------------------------------

def _tuple_code(t, size: int) -> int:
    c = 0
    for a in t:
        c = c * size + a
    return c


def _code_tuple(code: int, size: int, arity: int) -> tuple[int, ...]:
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = code % size
        code //= size
    return tuple(out)


def _padded_writing(s: frozenset[int], k: int) -> tuple[int, ...]:
    w = sorted(s)
    return tuple(w + [w[-1]] * (k - len(w)))


def _blockset_representative(t, k: int, n: int) -> tuple[int, ...]:
    blocks = sorted({_padded_writing(s, k) for s in _blocks_of(t, k)})
    blocks = blocks + [blocks[-1]] * (n - len(blocks))
    return tuple(x for blk in blocks for x in blk)


def closure_partition(c: MinorCondition, domain_size: int) -> Partition:
    """Smallest equivalence on domain^arity containing the identity pairs.

    Semantic kinds use representative unions instead of materialising the
    full pair set, which keeps arity-16 conditions tractable; agreement with
    the literal pair closure is covered by the test suite.
    """
    size = domain_size ** c.arity
    part = Partition(size)
    if c.kind in ("quasi_maltsev", "quasi_minority", "quasi_majority"):
        for a, b in condition_pairs(c, domain_size):
            part.union(_tuple_code(a, domain_size), _tuple_code(b, domain_size))
        return part
    if c.kind == "tsym":
        for code in range(size):
            t = _code_tuple(code, domain_size, c.arity)
            rep = _padded_writing(frozenset(t), c.arity)
            part.union(code, _tuple_code(rep, domain_size))
        return part
    if c.kind == "absorptive":
        k, n = c.block_size, c.blocks
        for code in range(size):
            t = _code_tuple(code, domain_size, c.arity)
            part.union(
                code,
                _tuple_code(_blockset_representative(t, k, n), domain_size),
            )
            bs = _blocks_of(t, k)
            for i in range(n):
                for j in range(n):
                    if i != j and bs[j] < bs[i]:
                        replaced = list(t)
                        replaced[i * k:(i + 1) * k] = _padded_writing(bs[j], k)
                        part.union(code, _tuple_code(tuple(replaced), domain_size))
        return part
    raise ValueError(f"unknown condition kind {c.kind}")


# ---------------------------------------------------------------------------
# Indicator structures
# ---------------------------------------------------------------------------

def _half_codes(rows, m: int, size: int) -> list[tuple[int, ...]]:
    """Column codes of every m-tuple of rows, in product order."""
    codes = [(0,) * len(rows[0])]
    for _ in range(m):
        codes = [tuple(c * size + x for c, x in zip(prefix, u))
                 for prefix in codes for u in rows]
    return codes


def _power_codes(rows, m: int, size: int, stream_cap: int):
    """The m-th power of one relation, streamed: for each m-tuple of the
    rows, in lexicographic order (that of itertools.product), the tuple of
    the mixed-radix codes of its columns.  The codes of the leading and the
    trailing half of the m-tuple are built once each and combined, so the
    codes held number O(len(rows) ** ceil(m / 2)), never len(rows) ** m."""
    if not rows:
        return
    if len(rows) ** m > stream_cap:
        raise CapExceeded(f"{len(rows)}^{m} tuple combinations")
    low = _half_codes(rows, m // 2, size)
    shift = size ** (m // 2)
    for high in low if m % 2 == 0 else _half_codes(rows, m - m // 2, size):
        shifted = tuple(c * shift for c in high)
        for codes in low:
            yield tuple(map(operator.add, shifted, codes))


def _check_dense(b: Structure, c: MinorCondition, dense_cap: int) -> None:
    if b.size == 0:
        raise ValueError("indicator needs a nonempty domain")
    if b.size ** c.arity > dense_cap:
        raise CapExceeded(f"{b.size}^{c.arity} exceeds dense cap {dense_cap}")


def indicator_structure(
    b: Structure,
    c: MinorCondition,
    dense_cap: int = DEFAULT_DENSE_CAP,
    stream_cap: int = DEFAULT_STREAM_CAP,
    partition: Partition | None = None,
) -> tuple[Structure, tuple[int, ...]]:
    """Quotient of b^arity by the identity closure, plus the class map.

    The class map sends each tuple code of b.domain^arity to its class
    index; classes are numbered by smallest member code.  `partition` is
    closure_partition(c, b.size) when the caller has already built it.
    """
    _check_dense(b, c, dense_cap)
    part = closure_partition(c, b.size) if partition is None else partition
    class_map, class_count = part.class_index_map()
    rels = [
        frozenset(tuple(class_map[x] for x in codes)
                  for codes in _power_codes(sorted(rel), c.arity, b.size,
                                            stream_cap))
        for rel in b.relations
    ]
    ind = Structure(
        signature=b.signature,
        size=class_count,
        relations=tuple(rels),
        name=f"ind({b.name})" if b.name else "",
    )
    return ind, tuple(class_map)


def find_polymorphism_satisfying(
    b: Structure,
    c: MinorCondition,
    dense_cap: int = DEFAULT_DENSE_CAP,
    stream_cap: int = DEFAULT_STREAM_CAP,
) -> OperationTable | None:
    """A polymorphism of b satisfying c, read off the first homomorphism
    from the indicator quotient to b, or None.  The table is checked against
    the same closure partition the indicator was built from, so the
    partition is built once, and only after the dense cap admits it."""
    _check_dense(b, c, dense_cap)
    part = closure_partition(c, b.size)
    ind, class_map = indicator_structure(b, c, dense_cap, stream_cap,
                                         partition=part)
    h = find_homomorphism(ind, b)
    if h is None:
        return None
    table = OperationTable(
        arity=c.arity,
        size=b.size,
        values=tuple(h[cls] for cls in class_map),
    )
    _check_witness(table, c, b, stream_cap, part)
    return table


# ---------------------------------------------------------------------------
# Totally symmetric polymorphisms / tree duality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TotallySymmetricResult:
    ok: bool
    power: Structure
    subsets: tuple[frozenset[int], ...]
    hom: tuple[int, ...] | None

    def witness_map(self) -> dict[frozenset[int], int] | None:
        if self.hom is None:
            return None
        return {s: self.hom[i] for i, s in enumerate(self.subsets)}


def _nonempty_subsets(size: int) -> tuple[frozenset[int], ...]:
    """The nonempty subsets of 0..size-1, in order of their bit masks."""
    return tuple(frozenset(v for v in range(size) if (m >> v) & 1)
                 for m in range(1, 1 << size))


def _join_closure(gens, depth: int, cap: int, what: str) -> set:
    """The coordinatewise ORs of at most `depth` of the mask tuples `gens`,
    one generator count per level, each level joining the last one's new
    tuples with every generator.  Raises CapExceeded above cap tuples."""
    seen = set(gens)
    level = seen
    for _ in range(depth - 1):
        if not level or len(seen) > cap:
            break
        level = {tuple(map(operator.or_, t, g))
                 for t in level for g in gens} - seen
        seen |= level
    if len(seen) > cap:
        raise CapExceeded(f"{what} has more than {cap} tuples")
    return seen


def subset_power_structure(b: Structure,
                           stream_cap: int = DEFAULT_STREAM_CAP) -> Structure:
    """Structure on the nonempty subsets of b's domain, the subset with bit
    mask m as element m - 1.  A relation holds the coordinate projections of
    each nonempty set of its rows: the join closure of the rows' singleton
    tuples, capped at stream_cap tuples."""
    rels = []
    for sym, _, rel in b.relation_items():
        gens = {tuple(1 << v for v in u) for u in rel}
        closure = _join_closure(gens, len(gens), stream_cap,
                                f"subset power relation {sym}")
        rels.append(frozenset(tuple(m - 1 for m in t) for t in closure))
    return Structure(
        signature=b.signature,
        size=(1 << b.size) - 1,
        relations=tuple(rels),
        name=f"pow({b.name})" if b.name else "",
    )


def totally_symmetric_check(
    b: Structure, stream_cap: int = DEFAULT_STREAM_CAP,
) -> TotallySymmetricResult:
    """Decide totally symmetric polymorphisms of all arities at once.

    The subset power (capped by stream_cap) maps to b exactly when such a
    family exists; the homomorphism is the witness (send each argument set
    to its image).
    """
    if b.size == 0:
        return TotallySymmetricResult(ok=True, power=b, subsets=(), hom=())
    power = subset_power_structure(b, stream_cap)
    hom = find_homomorphism(power, b)
    return TotallySymmetricResult(ok=hom is not None, power=power,
                                  subsets=_nonempty_subsets(b.size), hom=hom)


# ---------------------------------------------------------------------------
# Absorptive checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetSystem:
    """Canonical antichain of nonempty blocks (inclusion-minimal sets)."""

    blocks: frozenset[frozenset[int]]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("set system needs at least one block")
        for s in self.blocks:
            if not s:
                raise ValueError("empty block")
            if any(o < s for o in self.blocks):
                raise ValueError("blocks must form an antichain")

    def sort_key(self):
        return tuple(sorted(tuple(sorted(s)) for s in self.blocks))


def canonical_set_system(blocks) -> SetSystem:
    bs = {frozenset(s) for s in blocks if s}
    minimal = {s for s in bs if not any(o < s for o in bs)}
    return SetSystem(blocks=frozenset(minimal))


@dataclass(frozen=True)
class AbsorptiveResult:
    """Outcome of absorptive_check, decided on set systems.  A "yes"
    carries `hom`, the homomorphism from the set-system structure to the
    template, and `witness_map`, built when first read: the operation sends
    a tuple to the value of the canonical set system of its blocks.  A "no"
    carries None.  `systems` holds each set system's sort key."""

    status: str                     # "yes" | "no"
    k: int
    n: int
    indicator_size: int
    hom: tuple[int, ...] | None = None
    systems: list[tuple[tuple[int, ...], ...]] = field(
        default_factory=list, repr=False, compare=False)
    strategy = "setsystem"          # not a field: the one way to decide

    @functools.cached_property
    def witness_map(self) -> tuple[tuple[SetSystem, int], ...] | None:
        if self.hom is None:
            return None
        # blocks go in by size, then elements: a frozenset iterates in an
        # order that depends on insertion, and reports list them in it
        return tuple(
            (SetSystem(frozenset(map(frozenset, sorted(blocks, key=len)))), v)
            for blocks, v in zip(self.systems, self.hom))


def _enumerate_antichains(blocks: list[tuple[int, ...]], up: list[int],
                          n: int, cap: int) -> tuple[list, list[int]]:
    """The antichains of at most n of `blocks` (sorted tuples, in sorted
    order; `up` their up-sets), as their sort keys and up-sets in sort key
    order: depth first, each block followed by later ones only.  Raises
    CapExceeded when there are more than cap + 1."""
    clash = [sum(1 << j for j, v in enumerate(up) if u >> j & 1 or v >> i & 1)
             for i, u in enumerate(up)]
    keys, ups = [], []
    stack = [((), 0, 0, 0)]         # (key, up-set, clashing blocks, next)
    while stack:
        key, u, banned, start = stack.pop()
        if key:
            keys.append(key)
            ups.append(u)
            if len(keys) > cap + 1:
                raise CapExceeded(f"more than {cap} set systems")
        if len(key) < n:
            stack.extend((key + (blocks[i],), u | up[i], banned | clash[i],
                          i + 1) for i in reversed(range(start, len(blocks)))
                         if not banned >> i & 1)
    return keys, ups


def setsystem_out_of_reach(b: Structure, k: int, n: int,
                           stream_cap: int) -> tuple[bool, bool]:
    """(too many set systems, too long a representative stream): the two
    counts absorptive_check(b, k, n, stream_cap) holds against its cap
    before it builds anything, raising CapExceeded if either is true.
    Every family of at most n blocks of one size is an antichain, so the
    layers' counts summed bound the set systems from below, exactly when
    k = 1 (one layer) or n = 1 (one block each).  The stream, per relation
    the sets of at most n supports (sets of at most k rows), bounds both
    join closures."""
    systems = sum(math.comb(math.comb(b.size, s), r)
                  for s in range(1, min(k, b.size) + 1)
                  for r in range(1, n + 1))
    supports = [sum(math.comb(len(rel), r)
                    for r in range(1, min(k, len(rel)) + 1))
                for rel in b.relations]
    return systems > stream_cap + 1, any(
        sum(math.comb(s, r) for r in range(1, n + 1)) > stream_cap
        for s in supports)


def _setsystem_structure(
    b: Structure, k: int, n: int, stream_cap: int
) -> tuple[Structure, list]:
    """The structure on canonical antichains of at most n blocks of at most
    k elements, in sort key order, and their sort keys.  A relation holds
    the antichains of the blocks of each set of at most n supports (sets of
    at most k rows): as up-sets, the depth-n join closure of the supports'
    up-sets, which are the depth-k join closure of the rows' masks."""
    too_many, too_long = setsystem_out_of_reach(b, k, n, stream_cap)
    if too_many:
        raise CapExceeded(f"more than {stream_cap} set systems")
    blocks = sorted(s for r in range(1, min(k, b.size) + 1)
                    for s in itertools.combinations(range(b.size), r))
    masks = [sum(1 << v for v in s) for s in blocks]
    # the up-set of block i: the blocks that contain it, as a mask over
    # block indices.  The up-set of a family is the OR of its blocks'.
    up = [sum(1 << j for j, d in enumerate(masks) if c & d == c)
          for c in masks]
    systems, ups = _enumerate_antichains(blocks, up, n, stream_cap)
    if too_long:
        raise CapExceeded("set-system representative stream too large")
    index = {u: i for i, u in enumerate(ups)}
    up_of = dict(zip(masks, up))
    rels = []
    for sym, _, rel in b.relation_items():
        what = f"set-system relation {sym}"     # never over the cap
        rows = {tuple(1 << v for v in u) for u in rel}
        gens = {tuple(map(up_of.__getitem__, t))
                for t in _join_closure(rows, k, stream_cap, what)}
        closure = _join_closure(gens, n, stream_cap, what)
        rels.append(frozenset(tuple(map(index.__getitem__, t))
                              for t in closure))
    struct = Structure(
        signature=b.signature,
        size=len(systems),
        relations=tuple(rels),
        name=f"ss({b.name})" if b.name else "",
    )
    return struct, systems


def absorptive_check(
    b: Structure,
    k: int,
    n: int,
    stream_cap: int = DEFAULT_STREAM_CAP,
) -> AbsorptiveResult:
    """Decide a k-absorptive block-symmetric polymorphism with n blocks by
    mapping the structure on canonical antichains of blocks home; this
    scales to large arities.  Its oracle is the dense indicator,
    find_polymorphism_satisfying(b, block_symmetric_absorptive(k, n))."""
    if k < 1 or n < 1:
        raise ValueError("block size and block count must be positive")
    struct, systems = _setsystem_structure(b, k, n, stream_cap)
    h = find_homomorphism(struct, b)
    return AbsorptiveResult(status="no" if h is None else "yes", k=k, n=n,
                            indicator_size=struct.size, hom=h,
                            systems=systems)


# ---------------------------------------------------------------------------
# Lattice polymorphisms
# ---------------------------------------------------------------------------

def _partial_orders(n: int):
    """Every partial order on range(n) as its (up-set, down-set) masks, in
    the order of itertools.product over the pairs y < z in lexicographic
    order, each one y below z, z below y or incomparable.  The search is
    depth first, one level per pair (at most ten, since lattice_polymorphisms
    stops at five elements), and drops a prefix once a triple of
    decided pairs breaks transitivity: a relation is transitive when every
    triple x < y < z is, and (y, z) is the last of its pairs to be decided.
    The masks yielded change when the search resumes."""
    pairs = [(y, z) for y in range(n) for z in range(y + 1, n)]
    up = [1 << i for i in range(n)]
    down = up[:]

    def extend(depth):
        if depth == len(pairs):
            yield up, down
            return
        y, z = pairs[depth]
        lower = (1 << y) - 1         # the x of the triples (y, z) closes
        for a, c in (y, z), (z, y):
            up[a] |= 1 << c
            down[c] |= 1 << a
            # a below c: every x below a is below c, every x above c above a
            if not (down[a] & lower & ~down[c] or up[c] & lower & ~up[a]):
                yield from extend(depth + 1)
            up[a] ^= 1 << c
            down[c] ^= 1 << a
        # incomparable, unless some x lies between them
        if not (up[y] & down[z] | up[z] & down[y]) & lower:
            yield from extend(depth + 1)
    return extend(0)


def lattice_polymorphisms(
    b: Structure,
) -> tuple[OperationTable, OperationTable] | None:
    """Join/meet of some lattice order on the domain, both polymorphisms.

    Exhausts all lattice orders for domains of at most five elements and
    returns None beyond that, so absence of a result is never a refutation.
    """
    n = b.size
    if n == 0 or n > 5:
        return None
    everything = (1 << n) - 1
    for up, down in _partial_orders(n):
        if everything not in up or everything not in down:
            continue  # no least or no greatest element: not a lattice
        # the join of i and j is the element whose up-set is the
        # intersection of theirs, and the meet dually with down-sets
        tables = []
        for cone in up, down:
            apex = {c: z for z, c in enumerate(cone)}
            tables.append(tuple([apex.get(c & d) for c in cone for d in cone]))
        if None in tables[0] or None in tables[1]:
            continue  # not a lattice
        join, meet = [OperationTable(arity=2, size=n, values=values)
                      for values in tables]
        # uncapped: classify expects no CapExceeded from this search
        if join.is_polymorphism_of(b, stream_cap=math.inf) and \
                meet.is_polymorphism_of(b, stream_cap=math.inf):
            return join, meet
    return None
