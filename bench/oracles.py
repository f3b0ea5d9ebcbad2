"""Independent checks for the outputs of slamlog.

Nothing here imports slamlog.  Structures are plain data: a domain size and
a list of relations, each a set of tuples, in signature order.  Digraphs are
a vertex count and a collection of (u, v) edges.  Every function states the
mathematical fact it checks, so a disagreement with slamlog points at one of
the two sides, never at shared code.
"""

from __future__ import annotations

import itertools
import re
from collections import deque

_SUBSET_NAME = re.compile(r"^P\{(\d+(?:_\d+)*)\}$")


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

def is_homomorphism(src_size, src_rels, dst_size, dst_rels, h) -> bool:
    """h maps every element of the source into the target domain and every
    source tuple onto a tuple of the matching target relation."""
    if len(h) != src_size or len(src_rels) != len(dst_rels):
        return False
    if any(not 0 <= v < dst_size for v in h):
        return False
    for rel_a, rel_b in zip(src_rels, dst_rels):
        for t in rel_a:
            if tuple(h[e] for e in t) not in rel_b:
                return False
    return True


# ---------------------------------------------------------------------------
# Digraph decision rules
# ---------------------------------------------------------------------------

def _signed_adjacency(n, edges):
    """Neighbours of each vertex as (nbr, step), where step is +1 along an
    edge and -1 against it."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    return adj


def _levels(n, edges, modulus=None):
    """A level function with level(v) = level(u) + 1 on every edge (u, v),
    taken mod `modulus` when one is given, one per weak component.  Returns
    the per-component (min, max) levels, or None when no such function
    exists."""
    adj = _signed_adjacency(n, edges)
    level = [None] * n
    spans = []
    for root in range(n):
        if level[root] is not None:
            continue
        level[root] = 0
        lo = hi = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, step in adj[u]:
                want = level[u] + step
                if modulus is not None:
                    want %= modulus
                if level[v] is None:
                    level[v] = want
                    lo, hi = min(lo, want), max(hi, want)
                    queue.append(v)
                elif level[v] != want:
                    return None
        spans.append((lo, hi))
    return spans


def maps_to_path(n, edges, k) -> bool:
    """A -> P_k iff A has a level function whose range, per weak component,
    spans fewer than k values."""
    spans = _levels(n, edges)
    return spans is not None and all(hi - lo <= k - 1 for lo, hi in spans)


def maps_to_tournament(n, edges, k) -> bool:
    """A -> T_k iff A is acyclic (no loops, no directed cycles) and its
    longest directed path has at most k - 1 edges."""
    out = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in set(edges):
        out[u].append(v)
        indeg[v] += 1
    longest = [0] * n
    queue = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in out[u]:
            longest[v] = max(longest[v], longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if seen != n:
        return False
    return max(longest, default=0) <= k - 1


def maps_to_cycle(n, edges, k) -> bool:
    """A -> C_k iff A has a level function mod k."""
    return _levels(n, edges, modulus=k) is not None


def has_walk(n, edges, length) -> bool:
    """P_{length+1} -> A iff A has a directed walk with `length` edges."""
    ends = set(range(n))
    for _ in range(length):
        ends = {v for u, v in edges if u in ends}
    return bool(ends)


def digraph_maps_to(template, n, edges) -> bool:
    """Decide A -> template for template ("P" | "T" | "C", k)."""
    kind, k = template
    if kind == "P":
        return maps_to_path(n, edges, k)
    if kind == "T":
        return maps_to_tournament(n, edges, k)
    if kind == "C":
        return maps_to_cycle(n, edges, k)
    raise ValueError(f"no decision rule for {template!r}")


# ---------------------------------------------------------------------------
# Operation tables, polymorphisms and identities
# ---------------------------------------------------------------------------

def apply_table(values, size, args) -> int:
    """Value of a table indexed by mixed-radix code, first argument most
    significant."""
    code = 0
    for a in args:
        code = code * size + a
    return values[code]


def is_polymorphism(values, size, arity, rels) -> bool:
    """Applying the operation coordinatewise to any `arity` tuples of a
    relation gives a tuple of that relation."""
    if len(values) != size ** arity or any(not 0 <= v < size for v in values):
        return False
    for rel in rels:
        rows = sorted(rel)
        if not rows:
            continue
        r = len(rows[0])
        for combo in itertools.product(rows, repeat=arity):
            image = tuple(apply_table(values, size, [u[i] for u in combo])
                          for i in range(r))
            if image not in rel:
                return False
    return True


def is_quasi_maltsev(values, size) -> bool:
    """f(x, x, y) = f(y, x, x) = f(y, y, y) for all x, y."""
    if len(values) != size ** 3:
        return False
    for x in range(size):
        for y in range(size):
            a = apply_table(values, size, (x, x, y))
            b = apply_table(values, size, (y, x, x))
            c = apply_table(values, size, (y, y, y))
            if not a == b == c:
                return False
    return True


def is_lattice_pair(join, meet, size) -> bool:
    """Both binary operations are idempotent, commutative and associative,
    and they absorb each other."""
    if len(join) != size * size or len(meet) != size * size:
        return False

    def j(x, y):
        return join[x * size + y]

    def m(x, y):
        return meet[x * size + y]

    d = range(size)
    for x in d:
        if j(x, x) != x or m(x, x) != x:
            return False
        for y in d:
            if j(x, y) != j(y, x) or m(x, y) != m(y, x):
                return False
            if j(x, m(x, y)) != x or m(x, j(x, y)) != x:
                return False
            for z in d:
                if j(j(x, y), z) != j(x, j(y, z)):
                    return False
                if m(m(x, y), z) != m(x, m(y, z)):
                    return False
    return True


def _nonempty_subsets(rows, max_size=None):
    top = len(rows) if max_size is None else min(max_size, len(rows))
    for r in range(1, top + 1):
        yield from itertools.combinations(rows, r)


def is_totally_symmetric_family(subset_map, size, rels) -> bool:
    """`subset_map` sends each nonempty subset S of the domain to the value of
    a totally symmetric operation on any argument list with entry set S.
    The family is a polymorphism of every arity iff, for every relation R
    and every nonempty W within R, the coordinate entry sets of W map to a
    tuple of R."""
    domain = range(size)
    expected = {frozenset(s) for r in range(1, size + 1)
                for s in itertools.combinations(domain, r)}
    if set(subset_map) != expected:
        return False
    if any(not 0 <= v < size for v in subset_map.values()):
        return False
    for rel in rels:
        rows = sorted(rel)
        if len(rows) > 16:
            raise ValueError("relation too large for the subset check")
        if not rows:
            continue
        r = len(rows[0])
        for w in _nonempty_subsets(rows):
            image = tuple(subset_map[frozenset(u[i] for u in w)]
                          for i in range(r))
            if image not in rel:
                return False
    return True


def canonical_blocks(blocks) -> frozenset:
    """The inclusion-minimal sets among `blocks`: the class of an argument
    list under block symmetry and k-absorption."""
    bs = {frozenset(b) for b in blocks}
    return frozenset(s for s in bs if not any(o < s for o in bs))


def absorptive_family_ok(fmap, size, k, n, rels) -> bool:
    """`fmap` sends each antichain of at most n nonempty blocks of at most k
    elements to a value.  Read as f(x_1 .. x_kn) = fmap[minimal entry sets of
    the n blocks], it satisfies the block-symmetric k-absorptive identities
    by construction; it is a polymorphism iff every family V of at most n
    supports (nonempty sets of at most k tuples of R) gives, coordinate by
    coordinate, a tuple of R."""
    subsets = [frozenset(s) for r in range(1, min(k, size) + 1)
               for s in itertools.combinations(range(size), r)]
    for key, value in fmap.items():
        if not key or len(key) > n or not 0 <= value < size:
            return False
        if any(not b or len(b) > k for b in key):
            return False
        if canonical_blocks(key) != key:
            return False
    for count in range(1, n + 1):
        for chosen in itertools.combinations(subsets, count):
            if canonical_blocks(chosen) == frozenset(chosen) \
                    and frozenset(chosen) not in fmap:
                return False
    for rel in rels:
        rows = sorted(rel)
        if not rows:
            continue
        r = len(rows[0])
        supports = list(_nonempty_subsets(rows, k))
        for count in range(1, n + 1):
            for family in itertools.combinations(supports, count):
                image = tuple(
                    fmap[canonical_blocks(
                        frozenset(u[i] for u in w) for w in family)]
                    for i in range(r))
                if image not in rel:
                    return False
    return True


def absorptive_table_family(values, size, k, n):
    """The map from canonical block systems to values that a dense table of
    arity k*n defines, or None when the table is not constant on a class
    (it then breaks an identity)."""
    fmap: dict = {}
    arity = k * n
    if len(values) != size ** arity:
        return None
    for code, value in enumerate(values):
        digits = []
        c = code
        for _ in range(arity):
            digits.append(c % size)
            c //= size
        digits.reverse()
        key = canonical_blocks(digits[i:i + k] for i in range(0, arity, k))
        if fmap.setdefault(key, value) != value:
            return None
    return fmap


# ---------------------------------------------------------------------------
# Goal derivations of monadic programs
# ---------------------------------------------------------------------------

def subset_of_name(name):
    """The template subset an IDB name stands for: P{0_2} is {0, 2} and
    Pempty is the empty set.  None for any other name."""
    if name == "Pempty":
        return frozenset()
    m = _SUBSET_NAME.match(name)
    if not m:
        return None
    return frozenset(int(x) for x in m.group(1).split("_"))


def rule_valid_on(rule, template_size, template_rels) -> bool:
    """`rule` is (head, body) with atoms (pred, args); EDB predicates are the
    keys of `template_rels`, IDB predicates name subsets and `goal` is false.
    The rule is valid on the template when every assignment of its variables
    to template elements that satisfies the body satisfies the head."""
    head, body = rule
    variables = []
    for _, args in (head, *body):
        for v in args:
            if v not in variables:
                variables.append(v)

    def holds(atom, env):
        pred, args = atom
        if pred == "goal":
            return False
        if pred in template_rels:
            return tuple(env[v] for v in args) in template_rels[pred]
        s = subset_of_name(pred)
        if s is None or len(args) != 1:
            raise ValueError(f"IDB {pred!r} does not name a subset")
        return env[args[0]] in s

    for values in itertools.product(range(template_size),
                                    repeat=len(variables)):
        env = dict(zip(variables, values))
        if all(holds(atom, env) for atom in body) and not holds(head, env):
            return False
    return True


def goal_trace_ok(steps, rules, instance_rels, template_size,
                  template_rels, valid_cache=None) -> bool:
    """Check a linear goal derivation step by step.

    `steps` are (fact, rule_index, bindings) with fact = (pred, args) and
    bindings a dict.  Every step's rule, under its bindings, must derive the
    step's fact, map each EDB atom onto a tuple of the instance and each IDB
    atom onto the previous step's fact; the first step has no IDB atom and
    the last derives the goal.  Every rule used must be valid on the
    template.  Such a chain shows that the instance has no homomorphism to
    the template.  `valid_cache`, a dict kept per program, remembers
    validity by rule index."""
    if valid_cache is None:
        valid_cache = {}
    if not steps or steps[-1][0] != ("goal", ()):
        return False
    previous = None
    for fact, rule_index, bindings in steps:
        if not 0 <= rule_index < len(rules):
            return False
        head, body = rules[rule_index]
        used = {v for _, args in (head, *body) for v in args}
        if not used <= set(bindings):
            return False
        if (head[0], tuple(bindings[v] for v in head[1])) != tuple(fact):
            return False
        idb_atoms = 0
        for pred, args in body:
            image = tuple(bindings[v] for v in args)
            if pred in instance_rels:
                if image not in instance_rels[pred]:
                    return False
            else:
                idb_atoms += 1
                if previous is None or (pred, image) != previous:
                    return False
        if idb_atoms > 1 or (previous is not None and idb_atoms != 1):
            return False
        if rule_index not in valid_cache:
            valid_cache[rule_index] = rule_valid_on(
                rules[rule_index], template_size, template_rels)
        if not valid_cache[rule_index]:
            return False
        previous = tuple(fact)
    return True


# ---------------------------------------------------------------------------
# Exhaustive digraph sweeps
# ---------------------------------------------------------------------------

def labeled_sweep_count(size_cap) -> int:
    """Instances a digraph sweep up to size_cap visits: every digraph with
    loops up to 3 vertices, loopless ones from 4 vertices on."""
    return sum(2 ** (s * s) if s <= 3 else 2 ** (s * (s - 1))
               for s in range(size_cap + 1))


def sweep_digraphs(size_cap):
    """The same instances as (vertex count, frozenset of edges)."""
    for s in range(size_cap + 1):
        pairs = [(u, v) for u in range(s) for v in range(s)
                 if s <= 3 or u != v]
        for bits in range(1 << len(pairs)):
            yield s, frozenset(p for i, p in enumerate(pairs)
                               if (bits >> i) & 1)


def path_duality_counterexamples(obstruction_edges, template, size_cap):
    """Instances on which "no path with `obstruction_edges` edges maps in"
    differs from "maps to the template", as (vertex count, edges)."""
    bad = []
    for n, edges in sweep_digraphs(size_cap):
        blocked = has_walk(n, edges, obstruction_edges)
        if blocked == digraph_maps_to(template, n, edges):
            bad.append((n, edges))
    return bad
