"""The benchmark's three workloads: classify, solve and sweep.

Each workload has a set-up step (import of slamlog plus one-time
per-template work) and a list of operations built from the seed.  Every
operation returns slamlog's output, and its check compares that output with
the independent computations in `oracles`, never with a saved copy of an
earlier output.  Calls go through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import oracles


class CheckFailed(Exception):
    """An output of slamlog disagrees with an independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Called untimed before each run.
    prepare: Callable[[], None] | None = None
    # The one exception this operation is known to raise today; any other
    # exception, from it or from another operation, is a check failure.
    expected_failure: type[BaseException] | None = None


def load():
    """Import slamlog.  Part of every workload's set-up time."""
    # import_module, because the package's classify function shadows the
    # slamlog.classify module as an attribute of the package.
    return SimpleNamespace(**{
        name: importlib.import_module(f"slamlog.{name}")
        for name in ("classify", "datalog", "fixtures", "homsolver")})


def plain(structure):
    """Size and relation list of a slamlog structure, for the oracles."""
    return structure.size, [set(rel) for rel in structure.relations]


def _once(check, key_of):
    """Run `check` on the first output of each key and require later
    outputs of that key to equal it."""
    verified: dict = {}

    def checked(key, output):
        text = key_of(output)
        if key in verified:
            require(text == verified[key],
                    f"{key}: output differs from the verified one")
            return
        check(output)
        verified[key] = text
    return checked


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# Hand-derived verdicts of the paper's seven fixtures:
# (tree duality, quasi Maltsev, caterpillar duality / lam, slam).
PAPER_TABLE = {
    "P2": ("yes", "yes", "yes", "yes"),
    "P3": ("yes", "yes", "yes", "yes"),
    "T3": ("yes", "no", "yes", "no"),
    "B2": ("yes", "no", "yes", "no"),
    "D2": ("yes", "no", "yes", "no"),
    "HornSat": ("yes", "no", "no", "no"),
    "C3": ("no", "yes", "no", "no"),
}
# Known classification of the digraph families: directed paths are in
# symmetric Datalog, transitive tournaments have lattice polymorphisms but
# no quasi Maltsev one, directed cycles have a Maltsev polymorphism but
# no tree duality.
FAMILY_TABLE = {
    "P": ("yes", "yes", "yes", "yes"),
    "T": ("yes", "no", "yes", "no"),
    "C": ("no", "yes", "no", "no"),
}
VERDICT_KEYS = ("tree_duality", "quasi_maltsev", "caterpillar_lam", "slam")
LOWERED_CAPS = (1 << 12, 2, 2)
FAILING_CAPS = (1 << 14, 2, 3)


def _expected_verdicts(name):
    if name in PAPER_TABLE:
        return PAPER_TABLE[name]
    if name[0] in FAMILY_TABLE and name[1:].isdigit():
        return FAMILY_TABLE[name[0]]
    return None


def _table(witness, size, arity):
    values = witness["values"]
    require(witness["arity"] == arity and witness["size"] == size,
            "witness table has the wrong shape")
    return values


def check_report(report: dict, size: int, rels, m: int, caps=None) -> None:
    """Check one classification report (as parsed from its JSON)."""
    name = report["structure"]
    got = tuple(report["verdicts"][k]["value"] for k in VERDICT_KEYS)
    require(all(v in ("yes", "no", "inconclusive") for v in got),
            f"{name}: unknown verdict in {got}")
    expected = _expected_verdicts(name)
    if expected is not None and caps is None:
        require(got == expected, f"{name}: verdicts {got} != {expected}")
    tree, qm, cat, slam = got
    w = report["witnesses"]

    if tree == "yes":
        subset_map = {frozenset(s): v for s, v in
                      w["tree_duality"]["subset_hom"]}
        require(oracles.is_totally_symmetric_family(subset_map, size, rels),
                f"{name}: tree duality witness is not a polymorphism family")
    if qm == "yes":
        values = _table(w["quasi_maltsev"]["table"], size, 3)
        require(oracles.is_quasi_maltsev(values, size),
                f"{name}: witness breaks the quasi Maltsev identities")
        require(oracles.is_polymorphism(values, size, 3, rels),
                f"{name}: quasi Maltsev witness is not a polymorphism")
    if cat == "yes":
        _check_caterpillar_witness(report, w["caterpillar_lam"], size, rels,
                                   m)

    both = qm == "yes" and cat == "yes"
    either_no = qm == "no" or cat == "no"
    require((slam == "yes") == both and (slam == "no") == either_no,
            f"{name}: slam {slam} with quasi Maltsev {qm}, caterpillar {cat}")

    if caps is not None:
        _, max_k, max_n = caps
        require(cat == "inconclusive" and slam == "inconclusive",
                f"{name}: capped run ended {cat}/{slam}")
        cap = w.get("caterpillar_lam", {})
        require(cap.get("kind") == "cap", f"{name}: capped run names no cap")
        pairs = sorted(tuple(p) for p in cap["checked"] + cap["skipped"])
        require(pairs == [(k, n) for k in range(1, max_k + 1)
                          for n in range(1, max_n + 1)],
                f"{name}: cap witness lists pairs {pairs}")


def _check_caterpillar_witness(report, witness, size, rels, m) -> None:
    name = report["structure"]
    kind = witness.get("kind")
    if kind == "lattice":
        join = _table(witness["join"], size, 2)
        meet = _table(witness["meet"], size, 2)
        require(oracles.is_lattice_pair(join, meet, size),
                f"{name}: join and meet do not form a lattice")
        require(oracles.is_polymorphism(join, size, 2, rels) and
                oracles.is_polymorphism(meet, size, 2, rels),
                f"{name}: lattice operations are not polymorphisms")
        return
    require(kind == "absorptive", f"{name}: unchecked witness kind {kind!r}")
    k, n = witness["k"], witness["n"]
    require(report["m"] == m, f"{name}: m is not the largest arity")
    require((k, n) == (m * size, m * math.comb(size, size // 2)),
            f"{name}: absorptive witness at ({k}, {n}), not at (k0, n0)")
    family = None
    if "map" in witness:
        family = {frozenset(frozenset(b) for b in blocks): v
                  for blocks, v in witness["map"]}
    if "table" in witness:
        values = _table(witness["table"], size, k * n)
        from_table = oracles.absorptive_table_family(values, size, k, n)
        require(from_table is not None,
                f"{name}: absorptive table breaks an identity")
        require(family is None or from_table == family,
                f"{name}: absorptive table and map disagree")
        family = from_table
    require(family is not None, f"{name}: absorptive witness is empty")
    require(oracles.absorptive_family_ok(family, size, k, n, rels),
            f"{name}: absorptive witness is not a polymorphism")


def classify_workload(lib, rng, state):
    F = lib.fixtures
    C = lib.classify
    templates = [
        F.path(2), F.path(3), F.path(4),
        F.transitive_tournament(3), F.transitive_tournament(4),
        F.b_n(2), F.b_n(3), F.st_con(), F.horn_sat(),
        F.directed_cycle(3), F.directed_cycle(4), F.f_n(3),
        F.non_caterpillar_example(),
    ]
    runs = [(b, None) for b in templates]
    runs += [(F.weak_rules_template(), LOWERED_CAPS),
             (F.caterpillar_example(), LOWERED_CAPS),
             (F.weak_rules_template(), FAILING_CAPS)]
    rng.shuffle(runs)

    ops = []
    for b, caps in runs:
        size, rels = plain(b)
        m = max(ar for _, ar in b.signature.symbols)
        caps_obj = C.Caps() if caps is None else C.Caps(
            stream_cap=caps[0], max_k=caps[1], max_n=caps[2])
        key = f"classify {b.name}" + ("" if caps is None else f" caps={caps}")

        def check(text, size=size, rels=rels, m=m, caps=caps):
            check_report(json.loads(text), size, rels, m, caps)
        verify = _once(check, lambda text: text)
        ops.append(Operation(
            name=key,
            run=lambda b=b, c=caps_obj: C.classify(b, c),
            check=lambda r, key=key, verify=verify:
                verify(key, r.to_json(include_timing=False)),
            # Dies with RecursionError while HomSearcher._search recurses
            # once per indicator element; counted as failed until then.
            expected_failure=RecursionError if caps == FAILING_CAPS
            else None))
    return ops


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# name -> (oracle rule, engines that decide it exactly)
SOLVE_TEMPLATES = {
    "P2": (("P", 2), ("slam", "lam", "search", "ac", "am")),
    "P3": (("P", 3), ("slam", "lam", "search", "ac", "am")),
    "P4": (("P", 4), ("slam", "lam", "search", "ac")),
    "T3": (("T", 3), ("lam", "search", "ac", "am")),
    "C3": (("C", 3), ("search", "ac")),
}
SOLVE_SIZES = (4, 7, 10, 30, 60)
AM_MAX_SIZE = 10
WIDE_EDGES = (300, 600)


def _template_structure(F, rule):
    kind, k = rule
    return {"P": F.path, "T": F.transitive_tournament,
            "C": F.directed_cycle}[kind](k)


def _planted(rng, b_edges, b_size, n):
    """A connected digraph on n vertices built around a random map into the
    template: a random tree whose edges follow template edges, plus n // 2
    more edges between vertices whose images are adjacent."""
    out_nb = {x: [y for a, y in b_edges if a == x] for x in range(b_size)}
    in_nb = {x: [a for a, y in b_edges if y == x] for x in range(b_size)}
    image = [rng.randrange(b_size)]
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        choices = [(y, True) for y in out_nb[image[u]]] + \
            [(y, False) for y in in_nb[image[u]]]
        y, forward = rng.choice(choices)
        image.append(y)
        edges.add((u, v) if forward else (v, u))
    target = len(edges) + n // 2
    for _ in range(50 * n):
        if len(edges) >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if (image[u], image[v]) in b_edges:
            edges.add((u, v))
    return edges


def _obstruction(rng, rule, room):
    """A small digraph with no homomorphism to the template, as (vertex
    count, edges), with at most `room` vertices: a path with k edges (too
    tall for P_k and T_k), a directed cycle (T_k), or an oriented cycle
    whose net length is not 0 (P_k) or not 0 mod k (C_k)."""
    kind, k = rule
    options = []
    if kind in ("P", "T") and k + 1 <= room:
        options.append((k + 1, [(i, i + 1) for i in range(k)]))
    for length in range(2, min(room, 5) + 1):
        steps = [1] * length
        if kind != "T":
            for _ in range(10):
                steps = [rng.choice((1, -1)) for _ in range(length)]
                net = sum(steps)
                if (net % k if kind == "C" else net) != 0:
                    break
            else:
                continue
        options.append((length, [
            (i, (i + 1) % length) if s > 0 else ((i + 1) % length, i)
            for i, s in enumerate(steps)]))
    return rng.choice(options)


def solve_instances(rng, rule, b_edges, b_size):
    """Planted satisfiable and unsatisfiable instances, one of each per
    size, with vertex labels shuffled.  Each is (n, edges, satisfiable)."""
    out = []
    for n in SOLVE_SIZES:
        for satisfiable in (True, False):
            if satisfiable:
                edges = _planted(rng, b_edges, b_size, n)
            else:
                g, gadget = _obstruction(rng, rule, n - 1)
                base = _planted(rng, b_edges, b_size, n - g)
                edges = set(base) | {(u + n - g, v + n - g)
                                     for u, v in gadget}
                a, c = rng.randrange(n - g), rng.randrange(n - g, n)
                edges.add((a, c) if rng.random() < 0.5 else (c, a))
            perm = list(range(n))
            rng.shuffle(perm)
            edges = sorted((perm[u], perm[v]) for u, v in edges)
            if oracles.digraph_maps_to(rule, n, edges) != satisfiable:
                raise RuntimeError(f"planted instance misses {rule}")
            out.append((n, edges, satisfiable))
    return out


def solve_setup(lib):
    """Canonical programs, built as the command line builds them: emit_slam
    checks that the template is in the fragment first."""
    F, C, D = lib.fixtures, lib.classify, lib.datalog
    programs = {}
    for name, (rule, engines) in SOLVE_TEMPLATES.items():
        b = _template_structure(F, rule)
        progs = {}
        try:
            progs["slam"] = C.emit_slam(b)
        except C.NotSlam:
            pass
        for fragment in ("lam", "am"):
            if fragment in engines:
                progs[fragment] = D.canonical_program(b, fragment)
        programs[name] = (b, progs)
    return programs


def _rule_plain(rule):
    return ((rule.head.pred, rule.head.args),
            [(a.pred, a.args) for a in rule.body])


def _datalog_op(D, eng, program, rules, valid, a, inst, b_size, b_named):
    n, edges, sat, tag = inst

    def check(r):
        require(r.goal != sat, f"{eng} {tag}: goal={r.goal}")
        if r.goal and eng != "am":
            require(r.trace is not None, f"{eng} {tag}: no goal derivation")
            steps = [(s.fact, s.rule_index, dict(s.bindings))
                     for s in r.trace.steps]
            require(oracles.goal_trace_ok(steps, rules, {"E": set(edges)},
                                          b_size, b_named, valid),
                    f"{eng} {tag}: derivation does not check")

    # datalog caches compiled rules per Program object; a fresh copy for
    # each run makes every evaluation compile its rules, as a command-line
    # call does.
    current = [program]

    def prepare():
        current[0] = copy.copy(program)
    return Operation(f"{eng} {tag}",
                     lambda: D.evaluate(current[0], a, stop_at_goal=True),
                     check, prepare)


def _search_op(H, a, inst, b, b_size, b_rels):
    n, edges, sat, tag = inst

    def check(h):
        require((h is not None) == sat, f"search {tag}: found={h is not None}")
        if h is not None:
            require(oracles.is_homomorphism(n, [set(edges)], b_size, b_rels,
                                            h),
                    f"search {tag}: witness is no homomorphism")
    return Operation(f"search {tag}", lambda: H.find_homomorphism(a, b),
                     check)


def _ac_op(H, a, inst, b, exact):
    _, _, sat, tag = inst

    def check(cs):
        # Arc consistency never refutes a satisfiable instance, and it
        # decides templates with tree duality exactly.
        if sat or exact:
            require((cs is not None) == sat,
                    f"ac {tag}: consistent={cs is not None}")
    return Operation(f"ac {tag}", lambda: H.arc_consistency(a, b), check)


def solve_workload(lib, rng, programs):
    F, D, H = lib.fixtures, lib.datalog, lib.homsolver
    ops = []
    for name, (rule, engines) in SOLVE_TEMPLATES.items():
        b, progs = programs[name]
        require(("slam" in progs) == ("slam" in engines),
                f"emit_slam on {name} disagrees with its known class")
        b_size, b_rels = plain(b)
        b_named = {sym: set(rel) for (sym, _), rel in
                   zip(b.signature.symbols, b.relations)}
        rules = {eng: [_rule_plain(r) for r in p.rules]
                 for eng, p in progs.items()}
        valid = {eng: {} for eng in progs}
        for n, edges, sat in solve_instances(rng, rule, b_rels[0], b_size):
            a = F.digraph(n, edges)
            inst = (n, edges, sat, f"{name} n={n} {'sat' if sat else 'unsat'}")
            for eng in engines:
                if eng == "am" and n > AM_MAX_SIZE:
                    continue
                if eng in progs:
                    ops.append(_datalog_op(D, eng, progs[eng], rules[eng],
                                           valid[eng], a, inst, b_size,
                                           b_named))
                elif eng == "search":
                    ops.append(_search_op(H, a, inst, b, b_size, b_rels))
                else:
                    ops.append(_ac_op(H, a, inst, b, rule[0] in ("P", "T")))

    c3 = _template_structure(F, ("C", 3))
    c3_size, c3_rels = plain(c3)
    for count in WIDE_EDGES:
        n = 2 * count
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[2 * i], perm[2 * i + 1]) for i in range(count)]
        inst = (n, edges, True, f"C3 {count} disjoint edges")
        ops.append(_search_op(H, F.digraph(n, edges), inst, c3, c3_size,
                              c3_rels))
    return ops


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_SIZE = 4
PROGRAM_SWEEP_SIZE = 3


def sweep_setup(lib):
    return lib.classify.emit_slam(lib.fixtures.path(2))


def sweep_workload(lib, rng, slam_p2):
    F, C = lib.fixtures, lib.classify
    p2, p3, p4 = F.path(2), F.path(3), F.path(4)
    t3 = F.transitive_tournament(3)
    expected_count = oracles.labeled_sweep_count(SWEEP_SIZE)

    def duality_check(walk, rule):
        def check(report):
            require(report.checked == expected_count,
                    f"checked {report.checked} != {expected_count}")
            want = Counter(oracles.path_duality_counterexamples(
                walk, rule, SWEEP_SIZE))
            got = Counter((a.size, frozenset(a.relations[0]))
                          for a in report.counterexamples)
            require(got == want,
                    f"{len(report.counterexamples)} counterexamples, the "
                    f"oracles find {sum(want.values())}")
        return _once(check, lambda r: r.to_json())

    p3p2 = duality_check(2, ("P", 2))
    p4t3 = duality_check(3, ("T", 3))
    p4p2 = duality_check(3, ("P", 2))

    # A fresh copy of the program for each run, so that its rules are
    # compiled in every sweep (see _datalog_op).
    program = [slam_p2]

    def fresh_program():
        program[0] = copy.copy(slam_p2)

    def program_check(report):
        require(report.holds, "slam(P2) disagrees with search")
        require(report.checked ==
                oracles.labeled_sweep_count(PROGRAM_SWEEP_SIZE),
                f"program sweep checked {report.checked}")

    def pair(obstruction, template, jobs):
        return lambda: C.verify_duality_pair([obstruction], template,
                                             SWEEP_SIZE, jobs=jobs)
    ops = [
        Operation("duality [P3] P2 jobs=1", pair(p3, p2, 1),
                  lambda r: p3p2("P3 P2", r)),
        # Same sweep on the thread pool; its report must equal jobs=1's.
        Operation("duality [P3] P2 jobs=2", pair(p3, p2, 2),
                  lambda r: p3p2("P3 P2", r)),
        Operation("duality [P4] T3 jobs=1", pair(p4, t3, 1),
                  lambda r: p4t3("P4 T3", r)),
        # A wrong pair: P2 is not dual to P4, the sweep must say where.
        Operation("duality [P4] P2 jobs=1", pair(p4, p2, 1),
                  lambda r: p4p2("P4 P2", r)),
        Operation("program slam(P2) solves P2",
                  lambda: C.verify_program_solves(program[0], p2,
                                                  PROGRAM_SWEEP_SIZE),
                  program_check, fresh_program),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    "classify": (lambda lib: None, classify_workload),
    "solve": (solve_setup, solve_workload),
    "sweep": (sweep_setup, sweep_workload),
}


def build(name: str, lib, seed: int, state):
    """The operations of one workload for one seed."""
    make = WORKLOADS[name][1]
    return make(lib, random.Random(f"{name}:{seed}"), state)
