"""Template classification: tree duality, caterpillar duality, and
solvability by symmetric linear arc monadic Datalog.

The decision procedure combines three characterizations: tree duality as
a homomorphism from the subset power home, caterpillar duality via
block-symmetric absorptive polymorphisms (with lattice operations as a
fast sufficient certificate), and the symmetric fragment as the
conjunction of caterpillar duality with a quasi Maltsev polymorphism.
Each witness is written from the homomorphism its check returns.
A single absorptive check at (k0, n0) = (m|B|, m*C(|B|, |B|//2)) settles
caterpillar duality; when that instance is out of reach a bounded sweep of
small (k, n) can still refute it, otherwise the verdict is inconclusive.
The sweep's pairs with k = 1 or n = 1 are settled by the subset power: once
tree duality holds it maps home, and so do its substructures S(k, 1) and
S(1, n), so only the cap is checked for them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from functools import partial

from .datalog import Program, canonical_program, evaluate
from .homsolver import HomSearcher, core_of, find_homomorphism
from .polymorph import (
    DEFAULT_DENSE_CAP,
    DEFAULT_STREAM_CAP,
    CapExceeded,
    OperationTable,
    absorptive_check,
    find_polymorphism_satisfying,
    lattice_polymorphisms,
    quasi_maltsev,
    setsystem_out_of_reach,
    totally_symmetric_check,
)
from .structures import Signature, Structure, render_structure


@dataclass(frozen=True)
class Caps:
    dense_cap: int = DEFAULT_DENSE_CAP
    stream_cap: int = DEFAULT_STREAM_CAP
    max_k: int = 4
    max_n: int = 4

    def __post_init__(self):
        for name, value in self.to_json().items():
            if value < 0:
                raise ValueError(f"negative {name} {value}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Verdict:
    value: str                     # "yes" | "no" | "inconclusive"
    detail: str = ""


class NotSlam(Exception):
    """emit_slam was called on a template outside the fragment."""

    def __init__(self, report: "ClassificationReport"):
        super().__init__(
            f"{report.structure}: slam verdict is "
            f"{report.verdicts['slam'].value} "
            f"({report.verdicts['slam'].detail})"
        )
        self.report = report


@dataclass(frozen=True)
class ClassificationReport:
    structure: str
    structure_hash: str
    size: int
    m: int
    k0: int
    n0: int
    verdicts: dict[str, Verdict]
    witnesses: dict
    caps: Caps
    timing_ms: dict[str, float]

    def to_json(self, include_timing: bool = True) -> str:
        obj = asdict(self)
        timing = obj.pop("timing_ms")
        if include_timing:
            obj["timing_ms"] = {k: round(v, 3) for k, v in timing.items()}
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_json(table: OperationTable) -> dict:
    return {"arity": table.arity, "size": table.size,
            "values": list(table.values)}


def _sweep_pairs(caps: Caps):
    pairs = [(k, n) for k in range(1, caps.max_k + 1)
             for n in range(1, caps.max_n + 1)]
    pairs.sort(key=lambda p: (p[0] * p[1], p[0], p[1]))
    return pairs


def classify(b: Structure, caps: Caps = Caps()) -> ClassificationReport:
    """Full report on tree duality, caterpillar duality, and slam."""
    if b.size == 0:
        raise ValueError(f"template {b.name or 'structure'} has an empty domain")
    verdicts: dict[str, Verdict] = {}
    witnesses: dict = {}
    timing: dict[str, float] = {}
    m = max(b.signature.max_arity(), 1)
    k0 = m * b.size
    n0 = m * math.comb(b.size, b.size // 2)

    checks = {
        "tree_duality": lambda: _tree_duality(b, caps),
        "quasi_maltsev": lambda: _quasi_maltsev(b, caps),
        "caterpillar_lam": lambda: _caterpillar(
            b, caps, verdicts["tree_duality"].value, k0, n0),
    }
    for name, check in checks.items():
        t0 = time.perf_counter()
        try:
            verdicts[name], witness = check()
        except CapExceeded as exc:
            verdicts[name], witness = Verdict("inconclusive", str(exc)), None
        timing[name] = (time.perf_counter() - t0) * 1e3
        if witness is not None:
            witnesses[name] = witness

    qm, cat = verdicts["quasi_maltsev"], verdicts["caterpillar_lam"]
    which = [text for v, text in ((qm, "no quasi Maltsev polymorphism"),
                                  (cat, "no caterpillar duality"))
             if v.value == "no"]
    if which:
        verdicts["slam"] = Verdict("no", "; ".join(which))
    elif qm.value == "yes" and cat.value == "yes":
        verdicts["slam"] = Verdict(
            "yes", "quasi Maltsev polymorphism and caterpillar duality")
    else:
        # the detail of the inconclusive one, caterpillar if both are
        verdicts["slam"] = Verdict("inconclusive", (
            cat if cat.value == "inconclusive" else qm).detail)

    return ClassificationReport(
        structure=b.name or "structure",
        structure_hash=hashlib.sha256(
            render_structure(b).encode()).hexdigest(),
        size=b.size,
        m=m, k0=k0, n0=n0,
        verdicts=verdicts,
        witnesses=witnesses,
        caps=caps,
        timing_ms=timing,
    )


def _tree_duality(b: Structure, caps: Caps):
    hom = totally_symmetric_check(b, stream_cap=caps.stream_cap)
    if hom is None:
        return Verdict("no", "no totally symmetric polymorphism of arity "
                             f"{max(2 ** b.size - 1, 1)}"), None
    return Verdict("yes", "subset power maps home"), {
        "subset_hom": sorted(
            [[v for v in range(b.size) if (m + 1) >> v & 1], value]
            for m, value in enumerate(hom)),
    }


def _quasi_maltsev(b: Structure, caps: Caps):
    qm = find_polymorphism_satisfying(
        b, quasi_maltsev(), dense_cap=caps.dense_cap,
        stream_cap=caps.stream_cap)
    if qm is not None:
        return Verdict("yes"), {"table": _table_json(qm)}
    return Verdict("no", "indicator structure has no homomorphism home"), None


def _caterpillar(b: Structure, caps: Caps, tree: str, k0: int, n0: int):
    if tree == "no":
        return Verdict("no", "tree duality already fails"), None
    lat = lattice_polymorphisms(b)
    if lat is not None:
        join, meet = lat
        return Verdict("yes", "lattice polymorphisms"), {
            "kind": "lattice",
            "join": _table_json(join), "meet": _table_json(meet),
        }
    core, retraction = core_of(b) if b.size <= 7 else (b, None)
    if core.size < b.size:
        lat = lattice_polymorphisms(core)
        if lat is not None:
            join, meet = lat
            return Verdict("yes", "lattice polymorphisms on the core"), {
                "kind": "lattice_on_core", "core_size": core.size,
                "retraction": list(retraction),
                "join": _table_json(join), "meet": _table_json(meet),
            }
    # (k0, n0) decides either way; the smaller pairs after it only refute.
    # S(k, 1) and S(1, n) are substructures of the subset power, so once it
    # maps home such a pair passes if absorptive_check would not be capped.
    checked, skipped = [], []
    for i, (k, n) in enumerate([(k0, n0), *_sweep_pairs(caps)]):
        if i and tree == "yes" and 1 in (k, n):
            capped = any(setsystem_out_of_reach(b, k, n, caps.stream_cap))
            (skipped if capped else checked).append([k, n])
            continue
        try:
            res = absorptive_check(b, k, n, stream_cap=caps.stream_cap)
        except CapExceeded:
            skipped.append([k, n])
            continue
        at = f"{'(k, n)' if i else '(k0, n0)'} = ({k}, {n})"
        if res.status == "no":
            return Verdict("no", f"no absorptive polymorphism at {at}"), \
                {"kind": "absorptive_fail", "k": k, "n": n,
                 "strategy": res.strategy}
        if not i:
            # the frozenset's order, not sorted: reports have always used it
            return Verdict("yes", f"absorptive polymorphism at {at}"), {
                "kind": "absorptive", "k": k, "n": n,
                "strategy": res.strategy,
                "indicator_size": res.indicator_size,
                "map": [[[sorted(block) for block in frozenset(
                    map(frozenset, sorted(blocks, key=len)))], value]
                    for blocks, value in zip(res.systems, res.hom)]}
        checked.append([k, n])
    # only a capped (k0, n0) gets here, and it is skipped[0]
    return Verdict(
        "inconclusive",
        f"(k0, n0) = ({k0}, {n0}) out of reach; all checked pairs passed"), \
        {"kind": "cap", "checked": checked, "skipped": skipped[1:]}


def emit_slam(b: Structure, caps: Caps = Caps()) -> Program:
    """The canonical slam program, after checking the template qualifies."""
    report = classify(b, caps)
    if report.verdicts["slam"].value != "yes":
        raise NotSlam(report)
    return canonical_program(b, "slam")


# ---------------------------------------------------------------------------
# Exhaustive sweeps
# ---------------------------------------------------------------------------

def _tuple_spaces(signature: Signature, size: int, loopless: bool):
    """Each relation's candidate tuples in `itertools.product` order; with
    `loopless`, only those without repeated entries."""
    return [[t for t in itertools.product(range(size), repeat=ar)
             if not loopless or len(set(t)) == ar]
            for _, ar in signature.symbols]


def _mask_builder(signature: Signature, size: int, spaces):
    """The map from a bit mask over the concatenated tuple spaces to its
    structure.  Tuple i of a relation is bit i of that relation's field, and
    relation 0 has the highest field, so ascending masks run in
    `itertools.product` order of the per-relation masks."""
    bits = [(r, t) for r in reversed(range(len(spaces))) for t in spaces[r]]

    def build(mask: int) -> Structure:
        relations = [[] for _ in spaces]
        while mask:
            low = mask & -mask
            r, t = bits[low.bit_length() - 1]
            relations[r].append(t)
            mask ^= low
        return Structure(signature=signature, size=size,
                         relations=tuple(map(frozenset, relations)),
                         name="A")
    return build


def enumerate_instances(signature: Signature, size: int,
                        loopless: bool = False):
    """All structures with the given exact domain size, every relation
    ranging over every subset of tuples; with `loopless`, only over the
    tuples without repeated entries.  Deterministic order."""
    spaces = _tuple_spaces(signature, size, loopless)
    build = _mask_builder(signature, size, spaces)
    for mask in range(1 << sum(map(len, spaces))):
        yield build(mask)


def _permutation_tables(spaces, size: int):
    """Lookup tables for the images of a mask under a generating set of the
    domain's permutations: all of them on at most _WHOLE_GROUP elements
    (5! = 120), otherwise a transposition and a cycle.  Returns (half,
    tables) with a (low, high) pair of tables per permutation, so that the
    image of `mask` is `low[mask & (1 << half) - 1] | high[mask >> half]`."""
    position = {}
    for r in reversed(range(len(spaces))):
        for t in spaces[r]:
            position[r, t] = len(position)
    gens = itertools.permutations(range(size)) if size <= _WHOLE_GROUP else \
        [(1, 0, *range(2, size)), (*range(1, size), 0)]
    images = [tuple(position[r, tuple(g[e] for e in t)] for r, t in position)
              for g in gens]
    half = len(position) // 2
    tables = []
    for image in images:
        pair = []
        for targets in image[:half], image[half:]:
            table = [0]
            for i in targets:
                bit = 1 << i
                table += [entry | bit for entry in table]
            pair.append(table)
        tables.append(pair)
    return half, tables


def _orbit_members(size: int, build, orbit) -> list:
    return [((size, m), build(m)) for m in sorted(orbit)]


_LEFT, _RIGHT = 2, 4  # a sweep's two properties, as bits of an outcome
_WHOLE_GROUP = 5      # largest domain whose every permutation is a generator


def _sweep_instances(signature: Signature, size_cap: int):
    """One representative per isomorphism class of the sweep's instances:
    every instance up to size 3, and from size 4 on only instances without
    repeated entries in a tuple.

    Yields (build, orbit size, members, known, record).  `build()` makes the
    representative and `members()` lists the labeled orbit as
    ((size, mask), structure), masks numbered as in `enumerate_instances`.
    Each size walks its masks in ascending order over a "seen" array: an
    unseen mask is the least of its orbit, so it represents its class.  On
    at most 5 elements the orbit is the set of the mask's images under every
    permutation, one pair of table lookups each.  On more (only unary and
    sparse signatures stay under the stream cap there), n! would be too many
    and the orbit is the mask's closure under a transposition and a cycle,
    which is linear in the labeled instances.

    The consumer gives `record` the class's outcome, which properties hold
    as _LEFT and _RIGHT bits, before it asks for the next class, and it is
    stored beside the seen bit of every member.  A mask one set bit below a
    representative is less than it, so its class is decided, and `known` is
    the OR of those outcomes.  Both properties are preserved when a tuple is
    added, so each one in `known` holds here too.

    The array has a byte per labeled instance, so a size with more than
    DEFAULT_STREAM_CAP of them raises CapExceeded before anything is
    built."""
    for size in range(size_cap + 1):
        bits = sum(math.perm(size, ar) if size > 3 else size ** ar
                   for _, ar in signature.symbols)
        if 1 << bits > DEFAULT_STREAM_CAP:
            raise CapExceeded(
                f"a sweep of size {size} has 2^{bits} labeled instances, "
                f"over the stream cap {DEFAULT_STREAM_CAP}")
    for size in range(size_cap + 1):
        spaces = _tuple_spaces(signature, size, loopless=size > 3)
        build = _mask_builder(signature, size, spaces)
        half, tables = _permutation_tables(spaces, size)
        low_bits = (1 << half) - 1
        seen = bytearray(1 << sum(map(len, spaces)))
        mask = 0
        while mask >= 0:
            if size <= _WHOLE_GROUP:
                orbit = list({low[mask & low_bits] | high[mask >> half]
                              for low, high in tables})
            else:
                seen[mask] = 1
                orbit = [mask]
                for member in orbit:
                    for low, high in tables:
                        image = low[member & low_bits] | high[member >> half]
                        if not seen[image]:
                            seen[image] = 1
                            orbit.append(image)
            known, rest = 0, mask
            while rest:
                low = rest & -rest
                known |= seen[mask ^ low]
                rest ^= low
            recorded = [0]
            yield partial(build, mask), len(orbit), \
                partial(_orbit_members, size, build, orbit), \
                known & (_LEFT | _RIGHT), recorded.append
            mark = 1 | recorded[-1]
            for m in orbit:
                seen[m] = mark
            mask = seen.find(0, mask + 1)


def _singletons(instances):
    """An explicit instance stream, each instance its own class, with
    nothing known and nothing recorded."""
    for i, a in enumerate(instances):
        yield (lambda a=a: a), 1, lambda i=i, a=a: [(i, a)], 0, \
            lambda outcome: None


@dataclass(frozen=True)
class SweepReport:
    """A sweep's outcome.  `checked` counts labeled instances and `classes`
    the classes that decided them (one per isomorphism class for the
    built-in sweep, one per instance for an explicit stream);
    `counterexamples` holds every labeled failing instance in stream
    order."""

    checked: int
    counterexamples: tuple[Structure, ...]
    classes: int

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> str:
        return json.dumps({
            "checked": self.checked,
            "classes": self.classes,
            "holds": self.holds,
            "counterexamples": [render_structure(a)
                                for a in self.counterexamples],
        }, sort_keys=True, indent=2) + "\n"


def _run_sweep(classes, left, right) -> SweepReport:
    """Decide the two properties of each class, serially and in stream
    order; a class where exactly one holds fails.  `classes` yields
    (build, orbit size, members, known, record) as `_sweep_instances` does.
    A property already in `known` is not tested, and the representative is
    built only if a test runs.  The outcome goes to `record`.  A failing
    class contributes all its members, and the counterexamples are sorted
    back into stream order by their keys."""
    checked = count = 0
    bad = []
    for build, orbit_size, members, known, record in classes:
        count += 1
        checked += orbit_size
        outcome, a = known, None
        for bit, test in ((_LEFT, left), (_RIGHT, right)):
            if not outcome & bit:
                if a is None:
                    a = build()
                if test(a):
                    outcome |= bit
        record(outcome)
        if outcome in (_LEFT, _RIGHT):
            bad.extend(members())
    bad.sort(key=lambda member: member[0])
    return SweepReport(checked=checked, classes=count,
                       counterexamples=tuple(a for _, a in bad))


def _sweep_classes(signature: Signature, size_cap, instances):
    if instances is not None:
        return _singletons(instances)
    if size_cap is None:
        raise ValueError("need size_cap or an explicit instance stream")
    if size_cap < 0:
        raise ValueError(f"negative size cap {size_cap}")
    return _sweep_instances(signature, size_cap)


def verify_program_solves(p: Program, b: Structure,
                          size_cap: int | None = None,
                          instances=None, jobs: int = 1) -> SweepReport:
    """Check that the program derives the goal exactly on the instances
    with no homomorphism to the template, checking one instance per
    isomorphism class unless `instances` is given.  `jobs` is accepted and
    ignored: sweeps run serially.  One searcher for the template serves
    every class.  Over the built-in stream, a class is not evaluated if an
    instance with one tuple less derives the goal (Datalog is monotone),
    and not searched if one has no homomorphism (a homomorphism of this
    instance would be one of that instance).  An explicit stream runs
    both."""
    classes = _sweep_classes(b.signature, size_cap, instances)
    into_b = HomSearcher(b)
    return _run_sweep(classes,
                      lambda a: evaluate(p, a, stop_at_goal=True).goal,
                      lambda a: into_b.find(a) is None)


def verify_duality_pair(obstructions, b: Structure, size_cap: int,
                        jobs: int = 1, instances=None) -> SweepReport:
    """Check that mapping from no obstruction coincides with mapping into
    the template, over all instances up to the size cap, checking one
    instance per isomorphism class unless `instances` is given.  `jobs` is
    accepted and ignored: sweeps run serially.  One searcher for the
    template serves every class; each obstruction search has its own target,
    the instance.  Over the built-in stream, neither runs where an
    instance with one tuple less settles it: a map from an obstruction into
    that instance maps into this one too, and a homomorphism of this
    instance to the template would be one of that instance.  An explicit
    stream runs both."""
    obstructions = tuple(obstructions)
    for f in obstructions:
        if f.signature != b.signature:
            raise ValueError("obstruction signature mismatch")
    classes = _sweep_classes(b.signature, size_cap, instances)
    into_b = HomSearcher(b)
    return _run_sweep(classes, lambda a: any(
        find_homomorphism(f, a) is not None for f in obstructions),
        lambda a: into_b.find(a) is None)
