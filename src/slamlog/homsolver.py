"""Homomorphism solving between finite relational structures.

Candidate sets are bitmasks over the target domain, one per source element.
Search is complete backtracking with arc-consistency propagation at every
node, in one iterative depth-first loop.  It branches on the lowest-index
element that still has more than one candidate and tries its values in
ascending order, so homomorphisms come out in lexicographic order of the
value tuple and `find` returns the lexicographically first one.  Search is
linear in the source's independent components: a frame whose values all
fail with nothing yielded also pops the frames of other components beneath
it, which cannot mend its own (conflict-directed backjumping: Prosser,
Comput. Intell. 9(3), 1993).  `find` gives an element in no atom its least
value without a frame: the least homomorphism of a disjoint union is the
union of its parts' least ones.

Propagation revises atoms.  An atom is a source tuple paired with its
relation in the target, and revising it keeps, at each position, the values
that some target tuple inside the current candidate sets takes there.  How
depends on the arity.  For a binary relation the searcher keeps, per target
value, the mask of its successors and the mask of its predecessors, built
once in `__init__`.  A binary atom (a, b) then revises without reading rows:
a keeps its candidates that have a successor among b's, which is the union
of the predecessor masks over b's candidates, and b dually (word-level
revision: Lecoutre and Vion, "Enforcing arc consistency using bitwise
operations", Constraint Programming Letters 2, 2008).  These are exactly the
row scan's supports, a loop atom (e, e) included.  An atom of any other
arity scans the target rows of its relation.

The root fixpoint is a full scan over all atoms, repeated until nothing
changes; most calls end there.  Below the root the loop keeps one candidate
list and an undo trail of (element, old mask) pairs.  A branch remembers the
trail's length, narrows the list in place, and backtracking pops the trail
back to that mark.  After a branch only the atoms of elements whose mask
shrank are revised, from a worklist with an in-queue flag per atom (AC-3:
Mackworth, "Consistency in networks of relations", AIJ 1977) through an
element-to-atom index that is built when the search first branches.  The
arc-consistent fixpoint does not depend on the order of revisions, so both
passes reach the same candidate sets.  Memory is O(elements + changes), and
no call recurses, whatever the input size.
"""

from __future__ import annotations

from collections import deque

from .structures import Partition, Structure


class SignatureMismatch(ValueError):
    """Instance and template disagree on relation symbols or arities."""


class WitnessError(RuntimeError):
    """A computed witness failed its check: a defect in the solver, never a
    verdict about the input."""


def _check_signatures(a: Structure, b: Structure):
    if a.signature.symbols != b.signature.symbols:
        raise SignatureMismatch(
            f"signatures differ: {a.signature.symbols} vs {b.signature.symbols}"
        )


def _first_unfixed(cand: list[int], start: int) -> int | None:
    """Lowest index from `start` on whose mask has more than one bit."""
    for i in range(start, len(cand)):
        m = cand[i]
        if m & (m - 1):
            return i
    return None


def _neighbour_masks(rel, size: int):
    """Per value of a binary relation, the mask of its predecessors and the
    mask of its successors."""
    in_, out = [0] * size, [0] * size
    for u, v in rel:
        in_[v] |= 1 << u
        out[u] |= 1 << v
    return in_, out


def _image(masks: list[int], m: int) -> int:
    """Union of masks[v] over the set bits v of m."""
    image = 0
    while m:
        low = m & -m
        image |= masks[low.bit_length() - 1]
        m ^= low
    return image


def _scan_support(t: tuple[int, ...], rows, cand: list[int]) -> list[int]:
    """Per position of t, the mask of values taken there by the rows that
    lie inside the candidate sets of t."""
    k = len(t)
    support = [0] * k
    for u in rows:
        ok = True
        for j in range(k):
            if not (cand[t[j]] >> u[j]) & 1:
                ok = False
                break
        if ok:
            for j in range(k):
                support[j] |= 1 << u[j]
    return support


def _support(t: tuple[int, ...], rel, cand: list[int]) -> list[int]:
    """Revision of one atom: per position of t, the mask of values taken
    there by the target tuples that lie inside the candidate sets of t.
    For a binary t, `rel` is `_neighbour_masks` of the target relation, and
    each support is the image of the other position's candidates, which
    gives the row scan's masks without reading rows.  For any other arity,
    `rel` is the sorted rows and `_scan_support` reads them."""
    if len(t) == 2:
        in_, out = rel
        first, second = cand[t[0]], cand[t[1]]
        return [_image(in_, second) & first, _image(out, first) & second]
    return _scan_support(t, rel, cand)


def _components(atoms, size: int) -> list[int]:
    """Per element, a representative of its connected component in the
    source; an element in no atom is its own."""
    part = Partition(size)
    for t, _ in atoms:
        for e in t[1:]:
            part.union(t[0], e)
    return [part.find(e) for e in range(size)]


def _values(cand: list[int]) -> tuple[int, ...]:
    return tuple(m.bit_length() - 1 for m in cand)


class HomSearcher:
    """Reusable solver with the target structure preprocessed once."""

    def __init__(self, target: Structure):
        self.target = target
        self.nb = target.size
        self.full = (1 << self.nb) - 1
        self.target_rels = [
            _neighbour_masks(rel, self.nb) if arity == 2 else sorted(rel)
            for (_, arity), rel in zip(target.signature.symbols,
                                       target.relations)]

    def _atoms(self, a: Structure):
        """Pair each instance tuple with its relation in the target, as
        `_support` reads it."""
        atoms = []
        for ri, rel in enumerate(a.relations):
            target_rel = self.target_rels[ri]
            for t in sorted(rel):
                atoms.append((t, target_rel))
        return atoms

    # -- arc consistency ----------------------------------------------------

    @staticmethod
    def _propagate(atoms, cand: list[int]) -> bool:
        """Prune to the per-atom support fixpoint.  False on wipeout."""
        changed = True
        while changed:
            changed = False
            for t, rel in atoms:
                support = _support(t, rel, cand)
                for j in range(len(t)):
                    new = cand[t[j]] & support[j]
                    if new != cand[t[j]]:
                        cand[t[j]] = new
                        changed = True
                        if new == 0:
                            return False
        return True

    @staticmethod
    def _index(atoms, size: int):
        """Element -> indices of the atoms it occurs in, and per atom whether
        an element repeats in it.  One revision of an atom with distinct
        elements reaches that atom's own fixpoint, so it need not be
        revised again for its own changes; one with a repeated element may
        not, so it is."""
        watch: list[list[int]] = [[] for _ in range(size)]
        repeated = bytearray(len(atoms))
        for ai, (t, _) in enumerate(atoms):
            elements = dict.fromkeys(t)
            for e in elements:
                watch[e].append(ai)
            repeated[ai] = len(elements) < len(t)
        return watch, repeated

    @staticmethod
    def _propagate_from(atoms, watch, repeated, queued: bytearray,
                        cand: list[int], trail: list, start: int) -> bool:
        """Revise the atoms of `start`, then those of every element whose
        mask shrinks, until none shrinks.  Each change goes on the trail
        before it is made.  False on wipeout; `queued` is all clear on
        return."""
        queue = deque(watch[start])
        for ai in queue:
            queued[ai] = 1
        while queue:
            ai = queue.popleft()
            again = repeated[ai]
            if again:
                queued[ai] = 0
            t, rel = atoms[ai]
            support = _support(t, rel, cand)
            for j in range(len(t)):
                e = t[j]
                old = cand[e]
                new = old & support[j]
                if new != old:
                    if new == 0:
                        queued[ai] = 0
                        for aj in queue:
                            queued[aj] = 0
                        return False
                    trail.append((e, old))
                    cand[e] = new
                    for aj in watch[e]:
                        if not queued[aj]:
                            queued[aj] = 1
                            queue.append(aj)
            if not again:
                queued[ai] = 0
        return True

    def arc_consistency(self,
                        a: Structure) -> tuple[frozenset[int], ...] | None:
        _check_signatures(a, self.target)
        if a.size and self.nb == 0:
            return None
        cand = [self.full] * a.size
        if not self._propagate(self._atoms(a), cand):
            return None
        return tuple(
            frozenset(v for v in range(self.nb) if (m >> v) & 1) for m in cand
        )

    # -- search -------------------------------------------------------------

    def find(self, a: Structure) -> tuple[int, ...] | None:
        """First homomorphism a -> target in lexicographic order, or None."""
        h = next(self.enumerate(a, limit=1), None)
        if h is not None and not is_homomorphism(a, self.target, h):
            raise WitnessError(f"search returned {h}, not a homomorphism")
        return h

    def enumerate(self, a: Structure, limit: int | None = None):
        """Yield every homomorphism in lexicographic order of the value tuple."""
        _check_signatures(a, self.target)
        if (limit is not None and limit <= 0) or (a.size and self.nb == 0):
            return
        atoms = self._atoms(a)
        cand = [self.full] * a.size
        if not self._propagate(atoms, cand):
            return
        var = _first_unfixed(cand, 0)
        if var is not None:
            watch, repeated = self._index(atoms, a.size)
            if limit == 1:  # an element in no atom takes its least value
                cand = [m if watch[e] else 1 for e, m in enumerate(cand)]
                var = _first_unfixed(cand, var)
        if var is None:
            yield _values(cand)
            return
        queued = bytearray(len(atoms))
        trail: list[tuple[int, int]] = []
        # One frame per branching element: [element, values not yet tried,
        # trail length and homomorphisms yielded when it was pushed].
        stack = [[var, cand[var], 0, 0]]
        count = 0
        component = None
        while stack:
            frame = stack[-1]
            var, rest, mark, before = frame
            while len(trail) > mark:
                e, m = trail.pop()
                cand[e] = m
            if not rest:
                stack.pop()
                if count == before:
                    # var's component fails under its frames beneath, and
                    # no frame of another component can change that.
                    component = component or _components(atoms, a.size)
                    while (stack and stack[-1][3] == count and
                           component[stack[-1][0]] != component[var]):
                        stack.pop()
                continue
            low = rest & -rest
            frame[1] = rest ^ low
            trail.append((var, cand[var]))
            cand[var] = low
            if not self._propagate_from(atoms, watch, repeated, queued, cand,
                                        trail, var):
                continue
            var = _first_unfixed(cand, var + 1)
            if var is None:
                yield _values(cand)
                count += 1
                if limit is not None and count >= limit:
                    return
                continue
            stack.append([var, cand[var], len(trail), count])


def arc_consistency(a: Structure,
                    b: Structure) -> tuple[frozenset[int], ...] | None:
    """Per element of a, its candidate set at the greatest arc-consistent
    fixpoint, or None when inconsistent."""
    return HomSearcher(b).arc_consistency(a)


def find_homomorphism(a: Structure, b: Structure) -> tuple[int, ...] | None:
    """First homomorphism a -> b in lexicographic order, or None."""
    return HomSearcher(b).find(a)


def enumerate_homomorphisms(a, b, limit: int | None = None):
    return HomSearcher(b).enumerate(a, limit=limit)


def is_homomorphism(a: Structure, b: Structure, h) -> bool:
    if len(h) != a.size:
        return False
    if any(not 0 <= v < b.size for v in h):
        return False
    for (rel_a, rel_b) in zip(a.relations, b.relations):
        for t in rel_a:
            if tuple(h[e] for e in t) not in rel_b:
                return False
    return True


def hom_equivalent(a: Structure, b: Structure) -> bool:
    return find_homomorphism(a, b) is not None and find_homomorphism(b, a) is not None


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------

def _induced(b: Structure, kept: list[int]) -> Structure:
    pos = {e: i for i, e in enumerate(kept)}
    keep = set(kept)
    rels = tuple(
        frozenset(
            tuple(pos[e] for e in t) for t in rel if all(e in keep for e in t)
        )
        for rel in b.relations
    )
    return Structure(signature=b.signature, size=len(kept), relations=rels,
                     name=b.name)


def _shrinking_endomorphism(b: Structure) -> tuple[int, ...] | None:
    """A homomorphism from b into some proper induced substructure, if any."""
    for drop in range(b.size):
        kept = [e for e in range(b.size) if e != drop]
        sub = _induced(b, kept)
        h = find_homomorphism(b, sub)
        if h is not None:
            return tuple(kept[v] for v in h)  # back to b's own elements
    return None


def core_of(b: Structure) -> tuple[Structure, tuple[int, ...]]:
    """Core of b plus a retraction of b onto it.

    Repeatedly finds an endomorphism into a smaller induced substructure and
    restricts to its image.  The survivor admits no non-surjective
    endomorphism; the returned map is a homomorphism from b onto the core
    that fixes the core pointwise.
    """
    kept = list(range(b.size))          # core candidates, as elements of b
    comp = list(range(b.size))          # b-element -> index into kept
    current = b
    while True:
        h = _shrinking_endomorphism(current)
        if h is None:
            break
        image = sorted(set(h))
        comp = [image.index(h[comp[e]]) for e in range(b.size)]
        kept = [kept[i] for i in image]
        current = _induced(b, kept)
    core = current
    # comp restricted to the core is an endomorphism of a core, hence a
    # permutation; undo it so the final map is a genuine retraction
    inner = [comp[kept[i]] for i in range(core.size)]
    inverse = [0] * core.size
    for i, v in enumerate(inner):
        inverse[v] = i
    retraction = tuple(inverse[comp[e]] for e in range(b.size))
    if not is_homomorphism(b, core, retraction) or any(
            retraction[kept[i]] != i for i in range(core.size)):
        raise WitnessError("core retraction is not a retraction onto the core")
    return core, retraction


def is_core(b: Structure) -> bool:
    return _shrinking_endomorphism(b) is None


# ---------------------------------------------------------------------------
# Isomorphism (used by tests and the gadget contract checks)
# ---------------------------------------------------------------------------

def find_isomorphism(a: Structure, b: Structure) -> tuple[int, ...] | None:
    """An isomorphism a -> b, or None.  Sizes and tuple counts must agree."""
    if a.signature.symbols != b.signature.symbols:
        return None
    if a.size != b.size:
        return None
    if tuple(len(r) for r in a.relations) != tuple(len(r) for r in b.relations):
        return None
    for h in enumerate_homomorphisms(a, b):
        if len(set(h)) == a.size:
            # injective hom with matching tuple counts is an isomorphism
            return h
    return None


def is_isomorphic(a: Structure, b: Structure) -> bool:
    return find_isomorphism(a, b) is not None
