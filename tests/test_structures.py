from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from slamlog.fixtures import (
    UNFOLD_A,
    UNFOLD_B,
    b_n,
    caterpillar_example,
    digraph,
    directed_cycle,
    horn_sat,
    non_caterpillar_example,
    path,
    st_con,
    transitive_tournament,
    unfolded_tree_expected,
    unfolding_tree,
)
from slamlog import structures
from slamlog.homsolver import find_homomorphism, find_isomorphism, is_isomorphic
from slamlog.structures import (
    Partition,
    StructureFormatError,
    UnfoldError,
    _graph_girth,
    canonical_database,
    canonical_query,
    incidence_graph,
    longest_path,
    make_structure,
    parse_structure,
    render_structure,
    shape_of,
    unfold,
)


def _random_structure(rng, max_size=5):
    n = rng.randrange(1, max_size + 1)
    symbols = [("E", 2)] + ([("U", 1)] if rng.random() < 0.5 else [])
    rels = {}
    for sym, ar in symbols:
        pool = list(itertools.product(range(n), repeat=ar))
        rels[sym] = set(rng.sample(pool, rng.randrange(len(pool) + 1)))
    return make_structure("A", tuple(symbols), n, rels)


# --- incidence graph oracles -------------------------------------------------

def _adjacency(ig):
    adj = {v: set(nbrs) for v, nbrs in enumerate(ig.adjacency)}
    edges = [tuple(sorted(e)) for e in ig.edges()]
    return adj, edges


def _bfs_dist(adj, src, blocked=None):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if blocked and (u, v) in blocked:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist

def _girth_oracle(s):
    """Shortest cycle length of the incidence graph by per-edge removal."""
    adj, edges = _adjacency(incidence_graph(s))
    best = None
    for u, v in edges:
        dist = _bfs_dist(adj, u, blocked={(u, v), (v, u)})
        if v in dist:
            cand = dist[v] + 1
            best = cand if best is None else min(best, cand)
    return best


def _gen_tree_oracle(s):
    adj, edges = _adjacency(incidence_graph(s))
    if not adj:
        return True
    start = next(iter(adj))
    if len(_bfs_dist(adj, start)) != len(adj):
        return False
    return len(edges) == len(adj) - 1


def _injective_oracle(s):
    for _, _, rows in s.relation_items():
        for t in rows:
            if len(set(t)) != len(t):
                return False
    return True


def _gen_cat_oracle(s):
    """Connected tree-shaped incidence graph with a path within distance one
    of every tuple node, tried over all endpoint pairs."""
    if not _gen_tree_oracle(s):
        return False
    adj, _ = _adjacency(incidence_graph(s))
    tuple_nodes = {v for v in adj if v >= s.size}
    if not tuple_nodes:
        return True
    nodes = sorted(adj)
    for a, b in itertools.combinations_with_replacement(nodes, 2):
        # unique tree path from a to b, walked back through BFS parents
        parent = {a: None}
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        spine = set()
        v = b
        while v is not None:
            spine.add(v)
            v = parent[v]
        if all(t in spine or adj[t] & spine for t in tuple_nodes):
            return True
    return False


# --- parse / render ----------------------------------------------------------

def test_render_parse_round_trip_fixtures():
    for s in (path(2), path(4), transitive_tournament(3), b_n(2), st_con(),
              horn_sat(), directed_cycle(3), caterpillar_example()):
        assert parse_structure(render_structure(s)) == s


def test_parse_accepts_comments_and_blank_lines():
    text = (
        "# a digraph\nstructure A\n\ndomain 2\nrel E 2\n0 1  # the edge\n"
        "end\nend\n"
    )
    s = parse_structure(text)
    assert s.size == 2 and set(s.rel("E")) == {(0, 1)}


@pytest.mark.parametrize("text,fragment", [
    ("structure A\ndomain 2\nrel E 2\n0\nend\nend\n", "tuple length"),
    ("structure A\ndomain 2\nrel E 2\n0 5\nend\nend\n", "out of range"),
    ("structure A\ndomain 2\nrel E 2\nend\nrel E 2\nend\nend\n", "duplicate"),
    ("structure A\ndomain 2\nwhat\nend\n", "expected"),
    ("structure A\ndomain 2\nrel E 2\n0 1\n", "end of input"),
    ("structure A\ndomain x\nend\n", "domain"),
    ("structure A\ndomain 3 junk\nend\n", "expected 'domain <n>'"),
    ("structureX\ndomain 1\nend\n", "expected 'structure'"),
    ("structures foo\ndomain 1\nend\n", "expected 'structure'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(StructureFormatError, match=fragment):
        parse_structure(text)


def test_parse_accepts_a_bare_structure_line():
    unnamed = make_structure("", (("E", 2),), 2, {"E": {(0, 1)}})
    text = render_structure(unnamed)
    assert text.startswith("structure\n")
    parsed = parse_structure(text)
    assert parsed == unnamed and parsed.name == ""
    assert parse_structure("structure\tA  B\ndomain 0\nend\n").name == "A  B"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_render_parse_round_trip_random(seed):
    s = _random_structure(random.Random(seed))
    assert parse_structure(render_structure(s)) == s


# --- canonical query / database ----------------------------------------------

def test_canonical_database_inverts_canonical_query():
    for s in (path(3), directed_cycle(3), horn_sat(), caterpillar_example()):
        db, var_map = canonical_database(canonical_query(s))
        assert db.size == s.size
        assert len(var_map) == s.size
        assert is_isomorphic(db, s)


def test_class_index_map_numbers_classes_by_smallest_member():
    # union by rank keeps the first argument's root on ties, so neither
    # class below has its smallest member as root
    part = Partition(6)
    part.union(5, 0)
    part.union(4, 1)
    part.union(2, 4)
    assert (part.find(0), part.find(1), part.find(2)) == (5, 4, 4)
    assert part.class_index_map() == ([0, 1, 1, 2, 1, 0], 3)


# --- shape flags --------------------------------------------------------------

def test_shape_fixture_flags():
    assert shape_of(caterpillar_example()).caterpillar
    flags = shape_of(non_caterpillar_example())
    assert flags.tree and not flags.caterpillar
    assert not flags.generalised_caterpillar
    t = shape_of(unfolding_tree())
    assert t.injective and t.tree and t.girth is None
    c3 = shape_of(directed_cycle(3))
    assert not c3.tree and c3.girth == 6
    assert shape_of(directed_cycle(2)).girth == 4
    hs = shape_of(horn_sat())
    assert not hs.injective and hs.girth == 4


def test_shape_flags_match_oracles_random():
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        s = _random_structure(rng, max_size=4)
        flags = shape_of(s)
        inj = _injective_oracle(s)
        gen_tree = _gen_tree_oracle(s)
        gen_cat = _gen_cat_oracle(s)
        assert flags.injective == inj
        assert flags.generalised_tree == gen_tree
        assert flags.tree == (inj and gen_tree)
        assert flags.generalised_caterpillar == gen_cat
        assert flags.caterpillar == (inj and gen_cat)
        assert flags.girth == _girth_oracle(s)
        checked += gen_tree
    assert checked > 10


def test_girth_equals_edge_removal_oracle_on_larger_digraphs():
    # the inputs where each BFS stops early: 20-60 vertices, sparse to dense
    rng = random.Random(23)
    girths = set()
    for _ in range(12):
        n = rng.randrange(20, 61)
        pool = list(itertools.product(range(n), repeat=2))
        s = make_structure("A", (("E", 2),), n,
                           {"E": rng.sample(pool, rng.randrange(n // 2, 2 * n))})
        ig = incidence_graph(s)
        girth = _graph_girth(ig.adjacency, ig.node_count())
        assert girth == _girth_oracle(s)
        girths.add(girth)
    assert len(girths) >= 3


def test_longest_path_spans_a_path_structure():
    ig = incidence_graph(path(4))
    walk = longest_path(ig)
    # 4 element nodes interleaved with 3 tuple nodes
    assert len(walk) == 7
    adj, _ = _adjacency(ig)
    assert all(b in adj[a] for a, b in zip(walk, walk[1:]))


def test_longest_path_breaks_both_ties_towards_small_ids():
    # incidence nodes: elements 0-3, then E(0,3)=4, E(2,3)=5, E(3,1)=6.
    # From node 0 the deepest are 2 and 1 (BFS meets 2 first); from 1 they
    # are 0 and 2.  Each other tie rule, or the path reversed, differs.
    ig = incidence_graph(digraph(4, [(0, 3), (2, 3), (3, 1)]))
    assert longest_path(ig) == [1, 6, 3, 4, 0]


# --- unfolding ----------------------------------------------------------------

def test_unfold_matches_expected_figure():
    got = unfold(unfolding_tree(), UNFOLD_A, UNFOLD_B)
    want = unfolded_tree_expected()
    assert got.size == want.size == 13
    assert find_isomorphism(got, want) is not None


def test_unfold_maps_back_and_stays_caterpillar():
    rng = random.Random(11)
    done = 0
    while done < 12:
        s = _random_structure(rng, max_size=6)
        flags = shape_of(s)
        if not flags.caterpillar:
            continue
        ig = incidence_graph(s)
        internal = [v for v in range(s.size) if ig.degree(v) > 1]
        if len(internal) < 2:
            continue
        a, b = internal[0], internal[-1]
        if a == b:
            continue
        u = unfold(s, a, b)
        assert shape_of(u).caterpillar
        assert find_homomorphism(u, s) is not None
        done += 1


@pytest.mark.parametrize("args,fragment", [
    ((unfolding_tree(), 0, 3), "leaf"),
    ((unfolding_tree(), 3, 3), "distinct"),
    ((directed_cycle(4), 0, 2), "injective tree"),
])
def test_unfold_rejects_bad_input(args, fragment):
    with pytest.raises(UnfoldError, match=fragment):
        unfold(*args)


def test_unfold_builds_one_incidence_graph(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return incidence_graph(s)
    monkeypatch.setattr(structures, "incidence_graph", counting)
    unfold(unfolding_tree(), UNFOLD_A, UNFOLD_B)
    assert len(calls) == 1


def test_unfold_rejects_non_injective():
    s = make_structure("A", (("E", 2),), 2, {"E": {(0, 0), (0, 1)}})
    with pytest.raises(UnfoldError, match="injective tree"):
        unfold(s, 0, 1)


# --- make_structure validation -------------------------------------------------

def test_make_structure_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_structure("A", (("E", 2),), 2, {"E": {(0, 3)}})


def test_make_structure_rejects_wrong_arity():
    with pytest.raises(ValueError):
        make_structure("A", (("E", 2),), 2, {"E": {(0,)}})
