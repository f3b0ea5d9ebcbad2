"""Literal subset-power construction, kept as the oracle for
`polymorph.subset_power_structure`.

It checks every one of the (2^|B| - 1)^arity candidate subset tuples of a
relation against every row, straight from the definition, so it is only
usable on small domains.
"""

from __future__ import annotations

import itertools

from slamlog.structures import Structure


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
