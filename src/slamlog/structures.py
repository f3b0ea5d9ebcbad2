"""Finite relational structures, conjunctive queries, incidence graphs and
tree/caterpillar shape analysis, plus the (a,b)-unfolding surgery on trees.

Domains are always dense: the elements of a structure of size n are the
integers 0..n-1.  Named elements exist only in the text file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class StructureFormatError(ValueError):
    """Raised when structure text cannot be parsed."""


class UnfoldError(ValueError):
    """Raised when unfold preconditions are violated."""


class Partition:
    """Disjoint-set partition of 0..size-1 with union by rank."""

    def __init__(self, size: int):
        self.size = size
        self._parent = list(range(size))
        self._rank = [0] * size

    def find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if self._rank[ri] < self._rank[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        if self._rank[ri] == self._rank[rj]:
            self._rank[ri] += 1
        return True

    def class_index_map(self) -> tuple[list[int], int]:
        """Map each index to a dense class id (smallest-member order): an
        ascending pass meets each root first at its class's smallest
        member."""
        ids: dict[int, int] = {}
        out = [ids.setdefault(self.find(i), len(ids)) for i in range(self.size)]
        return out, len(ids)


@dataclass(frozen=True)
class Signature:
    """Ordered list of relation symbols with arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbols in signature: {names}")
        # not a field, so equality and hashing still see only the symbols
        object.__setattr__(self, "_name_set", frozenset(names))
        for name, ar in self.symbols:
            if ar < 1:
                raise ValueError(f"symbol {name} has arity {ar} < 1")

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def max_arity(self) -> int:
        return max((ar for _, ar in self.symbols), default=0)

    def __contains__(self, name: str) -> bool:
        return name in self._name_set


@dataclass(frozen=True)
class Structure:
    """A finite relational structure over the domain 0..size-1.

    `relations` is aligned with `signature.symbols`.  The name is carried
    for file round-trips only and never takes part in equality.
    """

    signature: Signature
    size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative domain size")
        if len(self.relations) != len(self.signature.symbols):
            raise ValueError("relations not aligned with signature")
        for (sym, ar), rel in zip(self.signature.symbols, self.relations):
            for t in rel:
                if len(t) != ar:
                    raise ValueError(f"tuple {t} in {sym} has wrong arity")
                for e in t:
                    if not 0 <= e < self.size:
                        raise ValueError(f"element {e} out of domain in {sym}{t}")

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        for (sym, _), rel in zip(self.signature.symbols, self.relations):
            if sym == name:
                return rel
        raise KeyError(name)

    def relation_items(self):
        """Iterate (symbol, arity, relation) in signature order."""
        for (sym, ar), rel in zip(self.signature.symbols, self.relations):
            yield sym, ar, rel


def make_structure(name, symbols, size, relations) -> Structure:
    """Convenience constructor from a dict of relation name -> tuples."""
    sig = Signature(tuple((s, a) for s, a in symbols))
    rels = tuple(
        frozenset(tuple(t) for t in relations.get(sym, ()))
        for sym, _ in sig.symbols
    )
    return Structure(signature=sig, size=size, relations=rels, name=name)


def split_top_level(text: str) -> list[str]:
    """The stripped parts of text between the commas that no parenthesis
    encloses.  An unbalanced parenthesis raises ValueError whose message is
    that parenthesis: ')' for one that closes nothing, '(' for one left
    open."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(")")
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise ValueError("(")
    parts.append(text[start:].strip())
    return parts


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Existential-conjunctive formula: atoms plus variable equalities.

    Variables are strings; every variable occurring in an atom or an
    equality must be declared free or bound.
    """

    signature: Signature
    free: tuple[str, ...]
    bound: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    equalities: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        declared = list(self.free) + list(self.bound)
        if len(set(declared)) != len(declared):
            raise ValueError("variable declared twice")
        known = set(declared)
        for sym, args in self.atoms:
            if self.signature.arity(sym) != len(args):
                raise ValueError(f"atom {sym}{args} has wrong arity")
            for v in args:
                if v not in known:
                    raise ValueError(f"undeclared variable {v}")
        for x, y in self.equalities:
            if x not in known or y not in known:
                raise ValueError(f"undeclared variable in equality {x}={y}")

    def variables(self) -> tuple[str, ...]:
        return tuple(self.free) + tuple(self.bound)


def canonical_database(q: ConjunctiveQuery) -> tuple[Structure, dict[str, int]]:
    """Collapse equalities, turn variables into elements and atoms into tuples.

    Returns the structure together with the map sending each variable of q
    to its element.  Representatives are chosen by declaration order (free
    variables first), which fixes the element numbering.
    """
    order = q.variables()
    index = {v: i for i, v in enumerate(order)}
    part = Partition(len(order))
    for x, y in q.equalities:
        part.union(index[x], index[y])
    class_of, class_count = part.class_index_map()
    var_map = {v: class_of[index[v]] for v in order}
    rels: dict[str, set[tuple[int, ...]]] = {s: set() for s in q.signature.names()}
    for sym, args in q.atoms:
        rels[sym].add(tuple(var_map[v] for v in args))
    struct = Structure(
        signature=q.signature,
        size=class_count,
        relations=tuple(frozenset(rels[s]) for s in q.signature.names()),
    )
    return struct, var_map


def canonical_query(s: Structure) -> ConjunctiveQuery:
    """One free variable per element, one atom per tuple, no equalities."""
    free = tuple(f"v{i}" for i in range(s.size))
    atoms = []
    for sym, _, rel in s.relation_items():
        for t in sorted(rel):
            atoms.append((sym, tuple(f"v{e}" for e in t)))
    return ConjunctiveQuery(
        signature=s.signature, free=free, bound=(), atoms=tuple(atoms)
    )


# ---------------------------------------------------------------------------
# Incidence graphs and shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite occurrence graph: elements vs (symbol, tuple) nodes.

    Nodes are integers: 0..element_count-1 are the elements, and
    element_count+k is the k-th entry of tuple_nodes.
    """

    element_count: int
    tuple_nodes: tuple[tuple[str, tuple[int, ...]], ...]
    adjacency: tuple[tuple[int, ...], ...]

    def node_count(self) -> int:
        return self.element_count + len(self.tuple_nodes)

    def edges(self) -> frozenset[frozenset[int]]:
        out = set()
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                out.add(frozenset((u, v)))
        return frozenset(out)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])


def incidence_graph(s: Structure) -> IncidenceGraph:
    tuple_nodes = []
    for sym, _, rel in s.relation_items():
        for t in sorted(rel):
            tuple_nodes.append((sym, t))
    adj: list[set[int]] = [set() for _ in range(s.size + len(tuple_nodes))]
    for k, (_, t) in enumerate(tuple_nodes):
        node = s.size + k
        for e in set(t):  # repeated occurrence yields a single edge
            adj[e].add(node)
            adj[node].add(e)
    return IncidenceGraph(
        element_count=s.size,
        tuple_nodes=tuple(tuple_nodes),
        adjacency=tuple(tuple(sorted(a)) for a in adj),
    )


@dataclass(frozen=True)
class ShapeFlags:
    injective: bool
    generalised_tree: bool
    tree: bool
    generalised_caterpillar: bool
    caterpillar: bool
    girth: int | None


def _bfs(adj, start, removed=None):
    """Yield (node, parent, depth) for each node reachable from start
    without passing through `removed`, in BFS order; start's parent is -1.
    A node is yielded before its neighbours are queued."""
    seen = {start}
    queue = [(start, -1, 0)]
    for u, parent, depth in queue:
        yield u, parent, depth
        for v in adj[u]:
            if v != removed and v not in seen:
                seen.add(v)
                queue.append((v, u, depth + 1))


def _graph_girth(adj, n) -> int | None:
    """Shortest cycle length of a simple undirected graph: the least
    depth(u) + depth(v) + 1 over the non-tree edges uv of a BFS from each
    node.  Each BFS meets a non-tree edge at the end u that it reaches
    later, where the sum is at least 2 depth(u), and stops once 2 depth(u)
    reaches the best so far."""
    best = n + 1  # longer than any cycle
    for src in range(n):
        depth = {}
        for u, parent, d in _bfs(adj, src):
            if 2 * d >= best:
                break
            depth[u] = d
            for v in adj[u]:
                if v in depth and v != parent:
                    best = min(best, depth[v] + d + 1)
    return best if best <= n else None


def longest_path(ig: IncidenceGraph) -> list[int]:
    """A diameter path of a tree-shaped incidence graph (node ids): from
    the node farthest from node 0 to the node farthest from it, each the
    smallest id among the deepest."""
    if ig.node_count() == 0:
        return []
    path = [0]
    for _ in range(2):
        walk = list(_bfs(ig.adjacency, path[0]))
        parent = {v: u for v, u, _ in walk}
        path = [max(walk, key=lambda e: (e[2], -e[0]))[0]]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
    return path[::-1]


def _dominates_tuples(ig: IncidenceGraph, path: list[int]) -> bool:
    on_path = set(path)
    for k in range(len(ig.tuple_nodes)):
        node = ig.element_count + k
        if node in on_path:
            continue
        if not any(nb in on_path for nb in ig.adjacency[node]):
            return False
    return True


def shape_of(s: Structure) -> ShapeFlags:
    """Shape flags of a structure, decided on the incidence graph.

    The generalised-caterpillar test checks the spine condition on a single
    longest path of the incidence tree; if the tree admits any witnessing
    path, a longest one works as well (cross-checked against an all-paths
    search in the test suite).
    """
    return _shape(s, incidence_graph(s))


def _shape(s: Structure, ig: IncidenceGraph) -> ShapeFlags:
    n = ig.node_count()
    injective = all(
        len(set(t)) == len(t) for _, _, rel in s.relation_items() for t in rel
    )
    edge_count = sum(len(a) for a in ig.adjacency) // 2
    part = Partition(n)
    merged = sum([part.union(u, v) for u, nbrs in enumerate(ig.adjacency)
                  for v in nbrs if u < v])
    forest = edge_count == merged
    connected = n - merged <= 1
    gen_tree = connected and forest
    girth = None if forest else _graph_girth(ig.adjacency, n)
    gen_cat = gen_tree and _dominates_tuples(ig, longest_path(ig))
    return ShapeFlags(
        injective=injective,
        generalised_tree=gen_tree,
        tree=injective and gen_tree,
        generalised_caterpillar=gen_cat,
        caterpillar=injective and gen_cat,
        girth=girth,
    )


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def unfold(t: Structure, a: int, b: int) -> Structure:
    """(a,b)-unfolding of an injective tree.

    The canonical query of t splits into the part separated from b by a,
    the part separated from a by b, and the middle part; the result is the
    canonical database of the middle part written three times, with the
    copies glued along a, b', a', b.
    """
    ig = incidence_graph(t)
    if not _shape(t, ig).tree:
        raise UnfoldError("unfold requires an injective tree")
    if a == b:
        raise UnfoldError("unfold endpoints must be distinct")
    for x in (a, b):
        if not 0 <= x < t.size:
            raise UnfoldError(f"element {x} not in domain")
        if ig.degree(x) == 1:
            raise UnfoldError(f"element {x} is a leaf")

    from_b = {v for v, _, _ in _bfs(ig.adjacency, b, a)}  # avoiding a
    from_a = {v for v, _, _ in _bfs(ig.adjacency, a, b)}
    phi_a, phi_b, psi = [], [], []
    for k, (sym, tup) in enumerate(ig.tuple_nodes):
        node = ig.element_count + k
        if node not in from_b:
            phi_a.append((sym, tup))
        elif node not in from_a:
            phi_b.append((sym, tup))
        else:
            psi.append((sym, tup))

    # a, b, a', b' are elements 0-3; each copy's other elements follow in
    # order of first appearance
    index: dict[tuple[int, int], int] = {}
    rows: dict[str, set[tuple[int, ...]]] = {}
    copies = [(phi_a, 0, 1), (psi, 0, 3), (psi, 2, 3), (psi, 2, 1), (phi_b, 0, 1)]
    for copy, (conjuncts, a_to, b_to) in enumerate(copies):
        for sym, tup in conjuncts:
            rows.setdefault(sym, set()).add(tuple(
                a_to if v == a else b_to if v == b else
                index.setdefault((copy, v), 4 + len(index)) for v in tup))
    return make_structure("", t.signature.symbols, 4 + len(index), rows)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def render_structure(s: Structure) -> str:
    lines = [f"structure {s.name}".rstrip()]
    lines.append(f"domain {s.size}")
    for sym, ar, rel in s.relation_items():
        lines.append(f"rel {sym} {ar}")
        for t in sorted(rel):
            lines.append(" ".join(str(e) for e in t))
        lines.append("end")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    """Parse the line-oriented structure format; `#` starts a comment."""
    lines = []
    for raw_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((raw_no, line))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise StructureFormatError("unexpected end of input")
        item = lines[pos]
        pos += 1
        return item

    no, line = take()
    keyword, *name = line.split(None, 1)
    if keyword != "structure":
        raise StructureFormatError(f"line {no}: expected 'structure'")
    no, line = take()
    fields = line.split()
    if fields[0] != "domain" or len(fields) != 2:
        raise StructureFormatError(f"line {no}: expected 'domain <n>'")
    try:
        size = int(fields[1])
    except ValueError:
        raise StructureFormatError(f"line {no}: bad domain size") from None
    symbols: list[tuple[str, int]] = []
    relations: dict[str, set[tuple[int, ...]]] = {}
    while True:
        no, line = take()
        if line == "end":
            break
        fields = line.split()
        if len(fields) != 3 or fields[0] != "rel":
            raise StructureFormatError(f"line {no}: expected 'rel <symbol> <arity>'")
        sym = fields[1]
        try:
            ar = int(fields[2])
        except ValueError:
            raise StructureFormatError(f"line {no}: bad arity") from None
        if sym in relations:
            raise StructureFormatError(f"line {no}: duplicate relation {sym}")
        symbols.append((sym, ar))
        tuples: set[tuple[int, ...]] = set()
        while True:
            no, line = take()
            if line == "end":
                break
            try:
                t = tuple(int(x) for x in line.split())
            except ValueError:
                raise StructureFormatError(f"line {no}: bad tuple") from None
            if len(t) != ar:
                raise StructureFormatError(
                    f"line {no}: tuple length {len(t)} != arity {ar}"
                )
            for e in t:
                if not 0 <= e < size:
                    raise StructureFormatError(f"line {no}: element {e} out of range")
            tuples.add(t)
        relations[sym] = tuples
    if pos != len(lines):
        raise StructureFormatError(f"line {lines[pos][0]}: trailing content")
    try:
        return make_structure("".join(name), symbols, size, relations)
    except ValueError as exc:
        raise StructureFormatError(str(exc)) from None
