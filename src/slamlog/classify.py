"""Template classification: tree duality, caterpillar duality, and
solvability by symmetric linear arc monadic Datalog.

The decision procedure combines three characterizations: tree duality via
totally symmetric polymorphisms of the subset power, caterpillar duality
via block-symmetric absorptive polymorphisms (with lattice operations as a
fast sufficient certificate), and the symmetric fragment as the
conjunction of caterpillar duality with a quasi Maltsev polymorphism.
A single absorptive check at (k0, n0) = (m|B|, m*C(|B|, |B|//2)) settles
caterpillar duality; when that instance is out of reach a bounded sweep of
small (k, n) can still refute it, otherwise the verdict is inconclusive.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass

from .datalog import Program, canonical_program, evaluate
from .homsolver import core_of, find_homomorphism, is_core
from .polymorph import (
    DEFAULT_DENSE_CAP,
    DEFAULT_STREAM_CAP,
    CapExceeded,
    OperationTable,
    absorptive_check,
    find_polymorphism_satisfying,
    lattice_polymorphisms,
    quasi_maltsev,
    totally_symmetric_check,
)
from .structures import Signature, Structure, render_structure


@dataclass(frozen=True)
class Caps:
    dense_cap: int = DEFAULT_DENSE_CAP
    stream_cap: int = DEFAULT_STREAM_CAP
    max_k: int = 4
    max_n: int = 4

    def to_json(self) -> dict:
        return {"dense_cap": self.dense_cap, "stream_cap": self.stream_cap,
                "max_k": self.max_k, "max_n": self.max_n}


@dataclass(frozen=True)
class Verdict:
    value: str                     # "yes" | "no" | "inconclusive"
    detail: str = ""

    def to_json(self) -> dict:
        return {"value": self.value, "detail": self.detail}


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
        obj = {
            "structure": self.structure,
            "structure_hash": self.structure_hash,
            "size": self.size,
            "m": self.m,
            "k0": self.k0,
            "n0": self.n0,
            "verdicts": {k: v.to_json() for k, v in self.verdicts.items()},
            "witnesses": self.witnesses,
            "caps": self.caps.to_json(),
        }
        if include_timing:
            obj["timing_ms"] = {k: round(v, 3)
                                for k, v in self.timing_ms.items()}
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _table_json(table: OperationTable) -> dict:
    return {"arity": table.arity, "size": table.size,
            "values": list(table.values)}


def _sweep_pairs(caps: Caps):
    pairs = [(k, n) for k in range(1, caps.max_k + 1)
             for n in range(1, caps.max_n + 1)]
    pairs.sort(key=lambda p: (p[0] * p[1], p[0], p[1]))
    return pairs


def _absorptive_witness(res) -> dict:
    out = {"k": res.k, "n": res.n, "strategy": res.strategy,
           "indicator_size": res.indicator_size}
    if res.witness_table is not None:
        out["table"] = _table_json(res.witness_table)
    if res.witness_map is not None:
        out["map"] = [
            [[sorted(block) for block in system.blocks], value]
            for system, value in res.witness_map
        ]
    return out


def classify(b: Structure, caps: Caps = Caps()) -> ClassificationReport:
    """Full report on tree duality, caterpillar duality, and slam."""
    verdicts: dict[str, Verdict] = {}
    witnesses: dict = {}
    timing: dict[str, float] = {}
    m = max(b.signature.max_arity(), 1)
    k0 = m * b.size
    n0 = m * math.comb(b.size, b.size // 2)

    t0 = time.perf_counter()
    ts = totally_symmetric_check(b)
    timing["tree_duality"] = (time.perf_counter() - t0) * 1e3
    if ts.ok:
        verdicts["tree_duality"] = Verdict("yes", "subset power maps home")
        witnesses["tree_duality"] = {
            "subset_hom": [[sorted(s), v]
                           for s, v in sorted(ts.witness_map().items(),
                                              key=lambda kv: sorted(kv[0]))],
        }
    else:
        verdicts["tree_duality"] = Verdict(
            "no", "no totally symmetric polymorphism of arity "
                  f"{max(2 ** b.size - 1, 1)}")

    t0 = time.perf_counter()
    try:
        qm = find_polymorphism_satisfying(
            b, quasi_maltsev(), dense_cap=caps.dense_cap,
            stream_cap=caps.stream_cap)
        qm_verdict = Verdict("yes") if qm is not None else \
            Verdict("no", "indicator structure has no homomorphism home")
    except CapExceeded as exc:
        qm = None
        qm_verdict = Verdict("inconclusive", str(exc))
    timing["quasi_maltsev"] = (time.perf_counter() - t0) * 1e3
    verdicts["quasi_maltsev"] = qm_verdict
    if qm is not None:
        witnesses["quasi_maltsev"] = {"table": _table_json(qm)}

    t0 = time.perf_counter()
    verdicts["caterpillar_lam"], cat_witness = _caterpillar(
        b, caps, ts.ok, k0, n0)
    timing["caterpillar_lam"] = (time.perf_counter() - t0) * 1e3
    if cat_witness is not None:
        witnesses["caterpillar_lam"] = cat_witness

    cat = verdicts["caterpillar_lam"]
    if qm_verdict.value == "no" or cat.value == "no":
        which = []
        if qm_verdict.value == "no":
            which.append("no quasi Maltsev polymorphism")
        if cat.value == "no":
            which.append("no caterpillar duality")
        verdicts["slam"] = Verdict("no", "; ".join(which))
    elif qm_verdict.value == "yes" and cat.value == "yes":
        verdicts["slam"] = Verdict(
            "yes", "quasi Maltsev polymorphism and caterpillar duality")
    else:
        verdicts["slam"] = Verdict("inconclusive", cat.detail or
                                   qm_verdict.detail)

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


def _caterpillar(b: Structure, caps: Caps, tree_ok: bool, k0: int, n0: int):
    if not tree_ok:
        return Verdict("no", "tree duality already fails"), None
    lat = lattice_polymorphisms(b)
    if lat is not None:
        join, meet = lat
        return Verdict("yes", "lattice polymorphisms"), {
            "kind": "lattice",
            "join": _table_json(join), "meet": _table_json(meet),
        }
    if b.size <= 7 and not is_core(b):
        core, _ = core_of(b)
        lat = lattice_polymorphisms(core)
        if lat is not None:
            join, meet = lat
            return Verdict("yes", "lattice polymorphisms on the core"), {
                "kind": "lattice_on_core", "core_size": core.size,
                "join": _table_json(join), "meet": _table_json(meet),
            }
    try:
        res = absorptive_check(b, k0, n0, dense_cap=caps.dense_cap,
                               stream_cap=caps.stream_cap)
        if res.status == "yes":
            return Verdict(
                "yes", f"absorptive polymorphism at (k0, n0) = "
                       f"({k0}, {n0})"), \
                {"kind": "absorptive", **_absorptive_witness(res)}
        return Verdict(
            "no", f"no absorptive polymorphism at (k0, n0) = "
                  f"({k0}, {n0})"), \
            {"kind": "absorptive_fail", "k": k0, "n": n0,
             "strategy": res.strategy}
    except CapExceeded:
        pass
    checked = []
    skipped = []
    for k, n in _sweep_pairs(caps):
        try:
            res = absorptive_check(b, k, n, dense_cap=caps.dense_cap,
                                   stream_cap=caps.stream_cap)
        except CapExceeded:
            skipped.append([k, n])
            continue
        if res.status == "no":
            return Verdict(
                "no", f"no absorptive polymorphism at (k, n) = "
                      f"({k}, {n})"), \
                {"kind": "absorptive_fail", "k": k, "n": n,
                 "strategy": res.strategy}
        checked.append([k, n])
    return Verdict(
        "inconclusive",
        f"(k0, n0) = ({k0}, {n0}) out of reach; all checked pairs passed"), \
        {"kind": "cap", "checked": checked, "skipped": skipped}


def emit_slam(b: Structure, caps: Caps = Caps()) -> Program:
    """The canonical slam program, after checking the template qualifies."""
    report = classify(b, caps)
    if report.verdicts["slam"].value != "yes":
        raise NotSlam(report)
    return canonical_program(b, "slam")


# ---------------------------------------------------------------------------
# Exhaustive sweeps
# ---------------------------------------------------------------------------

def enumerate_instances(signature: Signature, size: int,
                        loopless: bool = False):
    """All structures with the given exact domain size, every relation
    ranging over every subset of tuples; with `loopless`, only over the
    tuples without repeated entries.  Deterministic order."""
    spaces = [[t for t in itertools.product(range(size), repeat=ar)
               if not loopless or len(set(t)) == ar]
              for _, ar in signature.symbols]
    for masks in itertools.product(*(range(1 << len(sp)) for sp in spaces)):
        relations = tuple(
            frozenset(sp[i] for i in range(len(sp)) if (mask >> i) & 1)
            for sp, mask in zip(spaces, masks)
        )
        yield Structure(signature=signature, size=size, relations=relations,
                        name="A")


def _sweep_instances(signature: Signature, size_cap: int):
    """Every instance up to size 3; from size 4 on only instances without
    repeated entries in a tuple, to keep the sweep within reach."""
    if size_cap >= 4 and signature.max_arity() > 2:
        raise CapExceeded(
            "sweeps beyond size 3 are only supported for arity <= 2")
    for size in range(0, size_cap + 1):
        yield from enumerate_instances(signature, size, loopless=size > 3)


@dataclass(frozen=True)
class SweepReport:
    checked: int
    counterexamples: tuple[Structure, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> str:
        return json.dumps({
            "checked": self.checked,
            "holds": self.holds,
            "counterexamples": [render_structure(a)
                                for a in self.counterexamples],
        }, sort_keys=True, indent=2) + "\n"


def _run_sweep(instances, check) -> SweepReport:
    """Run `check` over the stream, serially and in stream order."""
    checked = 0
    bad: list[Structure] = []
    for a in instances:
        checked += 1
        if not check(a):
            bad.append(a)
    return SweepReport(checked=checked, counterexamples=tuple(bad))


def verify_program_solves(p: Program, b: Structure,
                          size_cap: int | None = None,
                          instances=None, jobs: int = 1) -> SweepReport:
    """Check that the program derives the goal exactly on the instances
    with no homomorphism to the template.  `jobs` is accepted and ignored:
    sweeps run serially."""
    if instances is None:
        if size_cap is None:
            raise ValueError("need size_cap or an explicit instance stream")
        instances = _sweep_instances(b.signature, size_cap)

    def check(a: Structure) -> bool:
        goal = evaluate(p, a, stop_at_goal=True).goal
        sat = find_homomorphism(a, b) is not None
        return goal == (not sat)

    return _run_sweep(instances, check)


def verify_duality_pair(obstructions, b: Structure, size_cap: int,
                        jobs: int = 1, instances=None) -> SweepReport:
    """Check that mapping from no obstruction coincides with mapping into
    the template, over all instances up to the size cap.  `jobs` is
    accepted and ignored: sweeps run serially."""
    obstructions = tuple(obstructions)
    for f in obstructions:
        if f.signature != b.signature:
            raise ValueError("obstruction signature mismatch")
    if instances is None:
        instances = _sweep_instances(b.signature, size_cap)

    def check(a: Structure) -> bool:
        blocked = any(find_homomorphism(f, a) is not None
                      for f in obstructions)
        sat = find_homomorphism(a, b) is not None
        return blocked == (not sat)

    return _run_sweep(instances, check)
