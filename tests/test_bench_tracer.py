"""The benchmark's tracer wraps slamlog functions by name, so renaming one of
them breaks a traced benchmark run.  This test installs the tracer over a
small classification, sweep, program evaluation, arc consistency, core and
fragment test, and checks that every span it wraps is entered, so such a
rename fails the suite too."""

from __future__ import annotations

import importlib
from pathlib import Path

import slamlog
from slamlog.fixtures import b_n, directed_cycle, path
from slamlog.homsolver import HomSearcher

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_the_traced_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    polymorph = importlib.import_module("slamlog.polymorph")
    datalog = importlib.import_module("slamlog.datalog")
    classify = importlib.import_module("slamlog.classify")
    originals = (classify.classify, polymorph.closure_partition,
                 polymorph.absorptive_check, HomSearcher.find,
                 datalog.evaluate)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert classify.classify is not originals[0]
        classify.classify(b_n(2))
        traced = [slamlog.verify_duality_pair([f], path(2), 3)
                  for f in (path(3), path(4))]
        # a directed triangle has no homomorphism to the path P3
        lam = datalog.canonical_program(path(3), "lam")
        assert datalog.evaluate(lam, directed_cycle(3)).goal
        assert datalog.fragment_of(lam).linear
        homsolver = importlib.import_module("slamlog.homsolver")
        assert homsolver.arc_consistency(path(2), path(3)) is not None
        assert homsolver.core_of(path(3))[0].size == 3     # a core
    finally:
        t.uninstall()
    counts = t.take()
    # the tracer drives the sweep's stream with next() alone, and the
    # reports must not notice it
    assert [r.to_json() for r in traced] == [
        slamlog.verify_duality_pair([f], path(2), 3).to_json()
        for f in (path(3), path(4))]
    # every span that tracer.install wraps
    for name in ("polymorph.closure_partition", "polymorph.indicator",
                 "polymorph.witness_check", "polymorph.absorptive",
                 "polymorph.subset_power", "polymorph.lattice",
                 "homsolver.find", "homsolver.ac", "homsolver.core",
                 "datalog.evaluate", "datalog.fragment_of",
                 "datalog.canonical_program", "classify.classify",
                 "classify.sweep", "classify.sweep.enumerate"):
        assert counts.get(name + ".calls", 0) > 0, name
    assert counts.get("datalog.evaluate.facts", 0) > 0
    # counted only while AbsorptiveResult.strategy reads "setsystem"
    assert counts.get("polymorph.absorptive.setsystem_elements", 0) > 0
    assert (classify.classify, polymorph.closure_partition,
            polymorph.absorptive_check, HomSearcher.find,
            datalog.evaluate) == originals
