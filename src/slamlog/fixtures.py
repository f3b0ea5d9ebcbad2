"""Small named structures used throughout the tests and docs."""

from __future__ import annotations

import itertools

from .structures import Structure, make_structure

DIGRAPH_SIG = (("E", 2),)


def digraph(size: int, edges, name: str = "") -> Structure:
    return make_structure(name, DIGRAPH_SIG, size, {"E": edges})


def path(n: int) -> Structure:
    """P_n: the directed path with n vertices 0 -> 1 -> ... -> n-1."""
    return digraph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def directed_cycle(n: int) -> Structure:
    return digraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def transitive_tournament(n: int) -> Structure:
    """T_n: vertices 0..n-1 with an edge i -> j whenever i < j."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return digraph(n, edges, name=f"T{n}")


def b_n(n: int) -> Structure:
    """Two-element template with Z = {0} and the n-ary relation of tuples
    that are not all zero."""
    rn = [t for t in itertools.product((0, 1), repeat=n) if any(t)]
    return make_structure(
        f"B{n}", (("Z", 1), ("R", n)), 2, {"Z": [(0,)], "R": rn}
    )


def f_n(n: int) -> Structure:
    """Tree-shaped template: domain 0..n-1, unary Z holding everything and
    one n-ary tuple (0, 1, ..., n-1).  A tree but not a caterpillar for
    n >= 3."""
    return make_structure(
        f"F{n}",
        (("Z", 1), ("R", n)),
        n,
        {"Z": [(i,) for i in range(n)], "R": [tuple(range(n))]},
    )


def st_con() -> Structure:
    """Two-element template for directed (s,t)-connectivity: constants for
    0 and 1 plus the order relation."""
    return make_structure(
        "D2",
        (("S", 1), ("T", 1), ("LE", 2)),
        2,
        {"S": [(0,)], "T": [(1,)], "LE": [(0, 0), (0, 1), (1, 1)]},
    )


def horn_sat() -> Structure:
    """Two-element template whose ternary relation drops (1,1,0): the
    implication clause x & y -> z, plus constants."""
    clause = [t for t in itertools.product((0, 1), repeat=3) if t != (1, 1, 0)]
    return make_structure(
        "HornSat",
        (("U0", 1), ("U1", 1), ("C", 3)),
        2,
        {"U0": [(0,)], "U1": [(1,)], "C": clause},
    )


def weak_rules_template() -> Structure:
    """Six-element digraph-with-constants template whose canonical
    symmetric program needs a weakened rule.

    Elements: 0:"0", 1:"0'", 2:"1", 3:"a", 4:"b", 5:"b'".
    """
    consts = {f"C{i}": [(i,)] for i in range(6)}
    rels = {"E": [(0, 2), (1, 2), (3, 4), (3, 5)], **consts}
    syms = (("E", 2),) + tuple((f"C{i}", 1) for i in range(6))
    return make_structure("WeakRules", syms, 6, rels)


def weak_rules_instance() -> Structure:
    """Instance {0 -> b} over the weak-rules signature: element 0 carries
    the constant of "0" and element 1 the constant of "b"."""
    rels = {"E": [(0, 1)], "C0": [(0,)], "C4": [(1,)]}
    syms = (("E", 2),) + tuple((f"C{i}", 1) for i in range(6))
    return make_structure("WeakRulesInstance", syms, 2, rels)


def caterpillar_example() -> Structure:
    """Caterpillar with a ternary, a binary and a unary relation.

    Elements 0..5 stand for the drawn vertices 1..6; R = {(1,2,3), (3,4,5)},
    E = {(3,6)}, P = {1, 3, 6}.
    """
    return make_structure(
        "Caterpillar",
        (("R", 3), ("E", 2), ("P", 1)),
        6,
        {"R": [(0, 1, 2), (2, 3, 4)], "E": [(2, 5)], "P": [(0,), (2,), (5,)]},
    )


def non_caterpillar_example() -> Structure:
    """Tree that is not a caterpillar: a pendant unary tuple sits two steps
    off every spine.  E = {(1,2), (4,5)}, R = {(2,3,4)}, P = {3}."""
    return make_structure(
        "NonCaterpillar",
        (("R", 3), ("E", 2), ("P", 1)),
        5,
        {"R": [(1, 2, 3)], "E": [(0, 1), (3, 4)], "P": [(2,)]},
    )


def unfolding_tree() -> Structure:
    """Seven-vertex tree used for the unfolding walkthrough.

    Vertices: 0,1,a,2,3,b,4 numbered 0:"0", 1:"1", 2:"a", 3:"2", 4:"3",
    5:"b", 6:"4"; edges 0->a, 1->a, a->2, 2->3, 2->b, b->4.
    """
    edges = [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (5, 6)]
    return digraph(7, edges, name="UnfoldTree")


UNFOLD_A = 2  # element "a" of unfolding_tree
UNFOLD_B = 5  # element "b" of unfolding_tree


def unfolded_tree_expected() -> Structure:
    """The drawn (a,b)-unfolding of unfolding_tree, built by hand.

    Elements: 0,1,a,2,3,b',2',3',a',2'',3'',b,4 in that order.
    """
    names = ["0", "1", "a", "2", "3", "b'", "2'", "3'", "a'", "2''", "3''",
             "b", "4"]
    ix = {v: i for i, v in enumerate(names)}
    edges = [
        ("0", "a"), ("1", "a"), ("a", "2"), ("2", "3"), ("2", "b'"),
        ("2'", "b'"), ("2'", "3'"), ("a'", "2'"), ("a'", "2''"),
        ("2''", "3''"), ("2''", "b"), ("b", "4"),
    ]
    return digraph(13, [(ix[u], ix[v]) for u, v in edges], name="UnfoldedTree")
