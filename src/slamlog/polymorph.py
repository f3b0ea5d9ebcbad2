"""Polymorphism detection for minor conditions of a single operation symbol.

The central tool is the indicator construction: quotient the m-th power of
the template by the smallest equivalence linking the instantiated identity
pairs; the template has a polymorphism satisfying the condition exactly when
the quotient maps homomorphically back to the template.

Every reading of the m-th power goes through one kernel, `_power_codes`,
which streams the mixed-radix column codes of the m-tuples of one relation
and owns the stream cap: the indicator, the polymorphism check of an
operation table and the exhaustive table search all use it.

A separate set-system strategy handles block-symmetric absorptive conditions
whose dense power would not fit in memory, and an exhaustive table search
acts as an independent oracle at small arities.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .homsolver import WitnessError, find_homomorphism
from .structures import Partition, Structure

DEFAULT_DENSE_CAP = 1 << 20
DEFAULT_STREAM_CAP = 1 << 20


class CapExceeded(Exception):
    """A requested table or tuple stream does not fit the configured cap."""


class ConditionFormatError(ValueError):
    """Raised when minor-condition text cannot be parsed."""


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
                if tuple(values[x] for x in codes) not in rel:
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
                   b: Structure | None = None,
                   stream_cap: int = DEFAULT_STREAM_CAP,
                   partition: Partition | None = None) -> None:
    """Raise WitnessError unless the table satisfies c and, when b is
    given, is a polymorphism of b."""
    if not table.satisfies(c, partition):
        raise WitnessError(f"witness table breaks {render_condition(c)}")
    if b is not None and not table.is_polymorphism_of(b,
                                                      stream_cap=stream_cap):
        raise WitnessError("witness table is not a polymorphism of "
                           f"{b.name or 'the template'}")


def projection_table(size: int, arity: int, coordinate: int = 0) -> OperationTable:
    values = []
    for args in itertools.product(range(size), repeat=arity):
        values.append(args[coordinate])
    return OperationTable(arity=arity, size=size, values=tuple(values))


# ---------------------------------------------------------------------------
# Minor conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorCondition:
    """Height-one identity system for one operation symbol.

    `kind` picks a structural generator; explicit conditions carry their
    identities as pairs of variable tuples.
    """

    kind: str
    arity: int
    identities: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    block_size: int = 0
    blocks: int = 0

    def __post_init__(self):
        if self.kind == "explicit":
            for lhs, rhs in self.identities:
                if len(lhs) != self.arity or len(rhs) != self.arity:
                    raise ValueError("identity tuple length != arity")


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


def explicit_condition(arity: int, identities) -> MinorCondition:
    return MinorCondition(
        kind="explicit",
        arity=arity,
        identities=tuple((tuple(l), tuple(r)) for l, r in identities),
    )


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
    if c.kind == "explicit":
        for lhs, rhs in c.identities:
            variables = []
            for v in lhs + rhs:
                if v not in variables:
                    variables.append(v)
            for assign in itertools.product(d, repeat=len(variables)):
                env = dict(zip(variables, assign))
                yield (tuple(env[v] for v in lhs), tuple(env[v] for v in rhs))
    elif c.kind in ("quasi_maltsev", "quasi_minority"):
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
    if c.kind in ("explicit", "quasi_maltsev", "quasi_minority", "quasi_majority"):
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
    for high in _half_codes(rows, m - m // 2, size):
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
    """A polymorphism of b satisfying c, through the indicator quotient."""
    return _dense_witness(b, c, dense_cap, stream_cap)[1]


def _dense_witness(b: Structure, c: MinorCondition, dense_cap: int,
                   stream_cap: int) -> tuple[int, OperationTable | None]:
    """Size of the indicator of c over b, and the polymorphism satisfying c
    read off the first homomorphism from it to b, or None.  The table is
    checked against the same closure partition the indicator was built
    from, so the partition is built once."""
    _check_dense(b, c, dense_cap)
    part = closure_partition(c, b.size)
    ind, class_map = indicator_structure(b, c, dense_cap, stream_cap,
                                         partition=part)
    h = find_homomorphism(ind, b)
    if h is None:
        return ind.size, None
    table = OperationTable(
        arity=c.arity,
        size=b.size,
        values=tuple(h[cls] for cls in class_map),
    )
    _check_witness(table, c, b, stream_cap, part)
    return ind.size, table


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


def subset_power_structure(b: Structure) -> Structure:
    """Structure on the nonempty subsets of b's domain.

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


def totally_symmetric_check(b: Structure) -> TotallySymmetricResult:
    """Decide totally symmetric polymorphisms of all arities at once.

    The subset structure maps to b exactly when such a family exists; the
    homomorphism is the witness (send each argument set to its image).
    """
    if b.size == 0:
        return TotallySymmetricResult(ok=True, power=b, subsets=(), hom=())
    power = subset_power_structure(b)
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
    status: str                     # "yes" | "no"
    k: int
    n: int
    strategy: str                   # "dense" | "setsystem"
    indicator_size: int
    witness_table: OperationTable | None = None
    witness_map: tuple[tuple[SetSystem, int], ...] | None = None


def _enumerate_antichains(subsets: list[frozenset[int]], n: int,
                          cap: int) -> list[SetSystem]:
    # Every family of at most n subsets of one size is an antichain, so the
    # largest layer bounds the count from below before anything is built.
    # The enumeration below raises exactly when the count exceeds cap + 1.
    layer = max(Counter(map(len, subsets)).values(), default=0)
    if sum(_ncr(layer, r) for r in range(1, min(n, layer) + 1)) > cap + 1:
        raise CapExceeded(f"more than {cap} set systems")
    found: list[tuple[frozenset[int], ...]] = []

    def extend(start: int, chosen: list[frozenset[int]]):
        if len(found) > cap:
            raise CapExceeded(f"more than {cap} set systems")
        if chosen:
            found.append(tuple(chosen))
        if len(chosen) == n:
            return
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(s <= o or o <= s for o in chosen):
                continue
            chosen.append(s)
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    out = [SetSystem(blocks=frozenset(blocks)) for blocks in found]
    out.sort(key=lambda ss: ss.sort_key())
    return out


def _setsystem_structure(
    b: Structure, k: int, n: int, stream_cap: int
) -> tuple[Structure, list[SetSystem]]:
    subsets = [
        frozenset(s)
        for size in range(1, min(k, b.size) + 1)
        for s in itertools.combinations(range(b.size), size)
    ]
    systems = _enumerate_antichains(subsets, n, cap=stream_cap)
    index = {ss: i for i, ss in enumerate(systems)}
    rels = []
    for _, ar, rel in b.relation_items():
        rows = sorted(rel)
        out = set()
        # supports: the set of relation tuples used inside one block
        supports = [
            frozenset(w)
            for size in range(1, min(k, len(rows)) + 1)
            for w in itertools.combinations(rows, size)
        ]
        total = 0
        for vsize in range(1, n + 1):
            total += _ncr(len(supports), vsize)
            if total > stream_cap:
                raise CapExceeded("set-system representative stream too large")
        for vsize in range(1, n + 1):
            for v in itertools.combinations(supports, vsize):
                entry = []
                for i in range(ar):
                    blocks = [frozenset(u[i] for u in w) for w in v]
                    entry.append(index[canonical_set_system(blocks)])
                out.add(tuple(entry))
        rels.append(frozenset(out))
    struct = Structure(
        signature=b.signature,
        size=len(systems),
        relations=tuple(rels),
        name=f"ss({b.name})" if b.name else "",
    )
    return struct, systems


def _ncr(n: int, r: int) -> int:
    return math.comb(n, r) if r <= n else 0


def absorptive_check(
    b: Structure,
    k: int,
    n: int,
    strategy: str = "auto",
    dense_cap: int = DEFAULT_DENSE_CAP,
    stream_cap: int = DEFAULT_STREAM_CAP,
) -> AbsorptiveResult:
    """Decide a k-absorptive block-symmetric polymorphism with n blocks.

    dense quotients the full power; setsystem works on canonical antichains
    directly and scales to large arities when relations are small.
    """
    if strategy not in ("auto", "dense", "setsystem"):
        raise ValueError(f"unknown strategy {strategy}")
    cond = block_symmetric_absorptive(k, n)
    if strategy == "auto":
        dense_ok = b.size ** cond.arity <= dense_cap and all(
            len(rel) ** cond.arity <= stream_cap or not rel
            for rel in b.relations
        )
        strategy = "dense" if dense_ok else "setsystem"
    if strategy == "dense":
        size, table = _dense_witness(b, cond, dense_cap, stream_cap)
        return AbsorptiveResult(
            status="no" if table is None else "yes", k=k, n=n,
            strategy="dense", indicator_size=size, witness_table=table,
        )
    struct, systems = _setsystem_structure(b, k, n, stream_cap)
    h = find_homomorphism(struct, b)
    if h is None:
        return AbsorptiveResult(
            status="no", k=k, n=n, strategy="setsystem",
            indicator_size=struct.size,
        )
    witness = tuple((ss, h[i]) for i, ss in enumerate(systems))
    table = None
    if b.size ** cond.arity <= dense_cap:
        lookup = {ss: val for ss, val in witness}
        values = []
        for t in itertools.product(range(b.size), repeat=cond.arity):
            ss = canonical_set_system(_blocks_of(t, k))
            values.append(lookup[ss])
        table = OperationTable(arity=cond.arity, size=b.size,
                               values=tuple(values))
        _check_witness(table, cond)
    return AbsorptiveResult(
        status="yes", k=k, n=n, strategy="setsystem",
        indicator_size=struct.size, witness_table=table, witness_map=witness,
    )


# ---------------------------------------------------------------------------
# Lattice polymorphisms
# ---------------------------------------------------------------------------

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
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rel_rows = [sorted(rel) for rel in b.relations]
    arities = [ar for _, ar in b.signature.symbols]
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
        join, meet = tables
        if _binary_polymorphism(join, rel_rows, arities) and \
                _binary_polymorphism(meet, rel_rows, arities):
            values_j = tuple(join[i][j] for i in range(n) for j in range(n))
            values_m = tuple(meet[i][j] for i in range(n) for j in range(n))
            return (
                OperationTable(arity=2, size=n, values=values_j),
                OperationTable(arity=2, size=n, values=values_m),
            )
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
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ub = [z for z in range(n) if leq[i][z] and leq[j][z]]
            least = [z for z in ub if all(leq[z][w] for w in ub)]
            if len(least) != 1:
                return None
            join[i][j] = least[0]
            lb = [z for z in range(n) if leq[z][i] and leq[z][j]]
            greatest = [z for z in lb if all(leq[w][z] for w in lb)]
            if len(greatest) != 1:
                return None
            meet[i][j] = greatest[0]
    return join, meet


def _binary_polymorphism(table, rel_rows, arities) -> bool:
    for rows, ar in zip(rel_rows, arities):
        rel = set(rows)
        for t in rows:
            for u in rows:
                if tuple(table[t[i]][u[i]] for i in range(ar)) not in rel:
                    return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive search oracle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def render_condition(c: MinorCondition) -> str:
    if c.kind == "quasi_maltsev":
        return "cond quasi-maltsev"
    if c.kind == "quasi_minority":
        return "cond quasi-minority"
    if c.kind == "quasi_majority":
        return "cond quasi-majority"
    if c.kind == "tsym":
        return f"cond tsym {c.arity}"
    if c.kind == "absorptive":
        return f"cond absorptive {c.block_size} {c.blocks}"
    parts = "; ".join(
        "({}) ≈ ({})".format(",".join(l), ",".join(r))
        for l, r in c.identities
    )
    return f"cond explicit m={c.arity} {parts}"


def _parse_term(term: str) -> tuple[str | None, tuple[str, ...]]:
    term = term.strip()
    if "(" not in term or not term.endswith(")"):
        raise ConditionFormatError(f"bad term {term!r}")
    head, inner = term.split("(", 1)
    head = head.strip()
    args = tuple(v.strip() for v in inner[:-1].split(",") if v.strip())
    if not args:
        raise ConditionFormatError(f"empty term {term!r}")
    return (head or None, args)


def parse_condition(text: str) -> MinorCondition:
    body = text.strip()
    if body.startswith("cond"):
        body = body[len("cond"):].strip()
    if not body:
        raise ConditionFormatError("empty condition")
    fields = body.split(None, 1)
    head = fields[0]
    rest = fields[1] if len(fields) > 1 else ""
    if head == "quasi-maltsev":
        return quasi_maltsev()
    if head == "quasi-minority":
        return quasi_minority()
    if head == "quasi-majority":
        return quasi_majority()
    if head == "tsym":
        try:
            return totally_symmetric(int(rest))
        except ValueError:
            raise ConditionFormatError(f"bad tsym arity {rest!r}") from None
    if head == "absorptive":
        parts = rest.split()
        if len(parts) != 2:
            raise ConditionFormatError("absorptive needs block size and count")
        try:
            return block_symmetric_absorptive(int(parts[0]), int(parts[1]))
        except ValueError:
            raise ConditionFormatError("absorptive needs integers") from None
    if head == "explicit":
        if not rest.startswith("m="):
            raise ConditionFormatError("explicit condition needs m=<arity>")
        mtext, _, items = rest.partition(" ")
        try:
            arity = int(mtext[2:])
        except ValueError:
            raise ConditionFormatError(f"bad arity {mtext!r}") from None
        identities = []
        symbols: set[str | None] = set()
        for item in items.split(";"):
            item = item.strip()
            if not item:
                continue
            normalized = item.replace("≈", "~")
            if "~" not in normalized:
                raise ConditionFormatError(f"identity {item!r} lacks ≈")
            lhs_text, rhs_text = normalized.split("~", 1)
            lsym, lhs = _parse_term(lhs_text)
            rsym, rhs = _parse_term(rhs_text)
            symbols.update((lsym, rsym))
            if len(lhs) != arity or len(rhs) != arity:
                raise ConditionFormatError(
                    f"identity {item!r} does not match arity {arity}"
                )
            identities.append((lhs, rhs))
        named = {s for s in symbols if s is not None}
        if len(named) > 1:
            raise ConditionFormatError(f"multiple operation symbols: {named}")
        if not identities:
            raise ConditionFormatError("explicit condition without identities")
        return explicit_condition(arity, identities)
    raise ConditionFormatError(f"unknown condition {head!r}")
