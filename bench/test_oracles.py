"""Tests of the benchmark's oracles, mostly against brute force.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import unittest

import oracles


def digraphs(max_size):
    """Every digraph with loops allowed, as (n, edges)."""
    for n in range(max_size + 1):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for bits in range(1 << len(pairs)):
            yield n, [p for i, p in enumerate(pairs) if (bits >> i) & 1]


def brute_maps(n, edges, m, target_edges):
    target = set(target_edges)
    return any(all((h[u], h[v]) in target for u, v in edges)
               for h in itertools.product(range(m), repeat=n))


def path_edges(k):
    return [(i, i + 1) for i in range(k - 1)]


def tournament_edges(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def cycle_edges(k):
    return [(i, (i + 1) % k) for i in range(k)]


class DigraphRules(unittest.TestCase):
    def test_rules_agree_with_brute_force(self):
        templates = [(("P", k), k, path_edges(k)) for k in (2, 3, 4)]
        templates += [(("T", k), k, tournament_edges(k)) for k in (2, 3)]
        templates += [(("C", k), k, cycle_edges(k)) for k in (1, 2, 3)]
        for n, edges in digraphs(3):
            for rule, m, t_edges in templates:
                self.assertEqual(oracles.digraph_maps_to(rule, n, edges),
                                 brute_maps(n, edges, m, t_edges),
                                 (rule, n, edges))

    def test_walks_are_path_homomorphisms(self):
        for n, edges in digraphs(3):
            for length in (1, 2, 3):
                self.assertEqual(
                    oracles.has_walk(n, edges, length),
                    brute_maps(length + 1, path_edges(length + 1), n, edges))

    def test_long_instances(self):
        zigzag = [(2 * i, 2 * i + 1) for i in range(50)] + \
            [(2 * i + 2, 2 * i + 1) for i in range(49)]
        self.assertTrue(oracles.maps_to_path(100, zigzag, 2))
        self.assertFalse(oracles.maps_to_path(101, path_edges(101), 100))
        self.assertTrue(oracles.maps_to_tournament(5, path_edges(5), 5))
        self.assertFalse(oracles.maps_to_tournament(5, cycle_edges(5), 9))
        self.assertTrue(oracles.maps_to_cycle(9, cycle_edges(9), 3))
        self.assertFalse(oracles.maps_to_cycle(4, cycle_edges(4), 3))


class Homomorphisms(unittest.TestCase):
    def test_checker(self):
        p3 = [set(path_edges(3))]
        self.assertTrue(oracles.is_homomorphism(3, p3, 3, p3, (0, 1, 2)))
        self.assertFalse(oracles.is_homomorphism(3, p3, 3, p3, (0, 2, 1)))
        self.assertFalse(oracles.is_homomorphism(3, p3, 3, p3, (0, 1)))
        self.assertFalse(oracles.is_homomorphism(3, p3, 3, p3, (0, 1, 3)))


def table(size, arity, f):
    return [f(*args) for args in itertools.product(range(size),
                                                   repeat=arity)]


class Polymorphisms(unittest.TestCase):
    def test_projection_and_constants(self):
        c3 = [set(cycle_edges(3))]
        proj = table(3, 3, lambda x, y, z: x)
        self.assertTrue(oracles.is_polymorphism(proj, 3, 3, c3))
        self.assertFalse(oracles.is_quasi_maltsev(proj, 3))
        const = table(3, 3, lambda x, y, z: 0)
        self.assertFalse(oracles.is_polymorphism(const, 3, 3, c3))

    def test_maltsev_of_a_cycle(self):
        c3 = [set(cycle_edges(3))]
        maltsev = table(3, 3, lambda x, y, z: (x - y + z) % 3)
        self.assertTrue(oracles.is_quasi_maltsev(maltsev, 3))
        self.assertTrue(oracles.is_polymorphism(maltsev, 3, 3, c3))

    def test_lattice_of_a_tournament(self):
        t3 = [set(tournament_edges(3))]
        join = table(3, 2, max)
        meet = table(3, 2, min)
        self.assertTrue(oracles.is_lattice_pair(join, meet, 3))
        self.assertTrue(oracles.is_polymorphism(join, 3, 2, t3))
        self.assertTrue(oracles.is_polymorphism(meet, 3, 2, t3))
        first = table(3, 2, lambda x, y: x)
        self.assertFalse(oracles.is_lattice_pair(first, meet, 3))

    def test_totally_symmetric_families(self):
        subsets = [frozenset(s) for r in (1, 2, 3)
                   for s in itertools.combinations(range(3), r)]

        def any_family(rels):
            return any(
                oracles.is_totally_symmetric_family(
                    dict(zip(subsets, values)), 3, rels)
                for values in itertools.product(range(3),
                                                repeat=len(subsets)))
        # P3 has tree duality, C3 does not.
        self.assertTrue(any_family([set(path_edges(3))]))
        self.assertFalse(any_family([set(cycle_edges(3))]))

    def test_absorptive_family_matches_dense_polymorphism(self):
        k, n = 2, 2
        keys = [frozenset([frozenset({0})]), frozenset([frozenset({1})]),
                frozenset([frozenset({0, 1})]),
                frozenset([frozenset({0}), frozenset({1})])]
        templates = [[set(path_edges(2))], [{(0, 0), (0, 1), (1, 1)}],
                     [{(0, 1), (1, 0), (1, 1)}, {(0,)}],
                     [{(0, 1), (1, 0)}]]
        for values in itertools.product(range(2), repeat=len(keys)):
            family = dict(zip(keys, values))
            dense = table(2, k * n, lambda *xs: family[
                oracles.canonical_blocks([xs[0:2], xs[2:4]])])
            self.assertEqual(oracles.absorptive_table_family(dense, 2, k, n),
                             family)
            for rels in templates:
                self.assertEqual(
                    oracles.absorptive_family_ok(family, 2, k, n, rels),
                    oracles.is_polymorphism(dense, 2, k * n, rels))

    def test_table_breaking_an_identity(self):
        dense = table(2, 4, lambda a, b, c, d: a)
        self.assertIsNone(oracles.absorptive_table_family(dense, 2, 2, 2))


class GoalTraces(unittest.TestCase):
    # Canonical-style rules for P2 = ({0, 1}, {0 -> 1}).
    P2 = {"E": {(0, 1)}}
    RULES = [
        (("P{0}", ("x1",)), [("E", ("x1", "x2"))]),
        (("goal", ()), [("E", ("x1", "x2")), ("P{0}", ("x2",))]),
        (("P{1}", ("x1",)), [("E", ("x1", "x2"))]),
    ]
    A = {"E": {(0, 1), (1, 2)}}     # a path with two edges

    def trace(self, **change):
        steps = [(("P{0}", (1,)), 0, {"x1": 1, "x2": 2}),
                 (("goal", ()), 1, {"x1": 0, "x2": 1})]
        for i, step in change.items():
            steps[int(i[1:])] = step
        return steps

    def ok(self, steps, rules=None):
        return oracles.goal_trace_ok(steps, rules or self.RULES, self.A, 2,
                                     self.P2)

    def test_valid_chain(self):
        self.assertTrue(self.ok(self.trace()))

    def test_rule_validity(self):
        self.assertTrue(oracles.rule_valid_on(self.RULES[0], 2, self.P2))
        self.assertTrue(oracles.rule_valid_on(self.RULES[1], 2, self.P2))
        self.assertFalse(oracles.rule_valid_on(self.RULES[2], 2, self.P2))
        empty_goal = (("goal", ()), [("Pempty", ("x1",))])
        self.assertTrue(oracles.rule_valid_on(empty_goal, 2, self.P2))

    def test_broken_chains(self):
        # EDB atom not mapped onto a tuple of the instance
        self.assertFalse(self.ok(self.trace(s0=(("P{0}", (2,)), 0,
                                                {"x1": 2, "x2": 0}))))
        # IDB atom not the previous fact
        self.assertFalse(self.ok(self.trace(s1=(("goal", ()), 1,
                                                {"x1": 1, "x2": 2}))))
        # invalid rule
        self.assertFalse(self.ok(self.trace(s0=(("P{1}", (1,)), 2,
                                                {"x1": 1, "x2": 2}))))
        # head does not match the fact
        self.assertFalse(self.ok(self.trace(s0=(("P{0}", (2,)), 0,
                                                {"x1": 1, "x2": 2}))))
        # does not end in the goal
        self.assertFalse(self.ok(self.trace()[:1]))


class Sweeps(unittest.TestCase):
    def test_counts(self):
        for cap in (2, 3, 4):
            self.assertEqual(oracles.labeled_sweep_count(cap),
                             sum(1 for _ in oracles.sweep_digraphs(cap)))
        self.assertEqual(oracles.labeled_sweep_count(3), 531)
        self.assertEqual(oracles.labeled_sweep_count(4), 4627)

    def test_path_dualities(self):
        # P2 is dual to the path with two edges, T3 to the one with three
        self.assertEqual(
            oracles.path_duality_counterexamples(2, ("P", 2), 4), [])
        self.assertEqual(
            oracles.path_duality_counterexamples(3, ("T", 3), 3), [])
        wrong = oracles.path_duality_counterexamples(3, ("P", 2), 3)
        self.assertIn((3, frozenset({(0, 1), (1, 2)})), wrong)


if __name__ == "__main__":
    unittest.main()
