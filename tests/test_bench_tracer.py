"""The benchmark's tracer wraps slamlog functions by name, so renaming one of
them breaks a traced benchmark run.  This test installs the tracer over a
small classification, sweep and program evaluation, so such a rename fails
the suite too."""

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
        slamlog.verify_duality_pair([path(3)], path(2), 3)
        # a directed triangle has no homomorphism to the path P3
        lam = datalog.canonical_program(path(3), "lam")
        assert datalog.evaluate(lam, directed_cycle(3)).goal
    finally:
        t.uninstall()
    counts = t.take()
    for name in ("polymorph.closure_partition", "polymorph.absorptive",
                 "homsolver.find", "classify.classify", "classify.sweep",
                 "classify.sweep.enumerate", "datalog.evaluate",
                 "datalog.canonical_program"):
        assert counts.get(name + ".calls", 0) > 0, name
    assert counts.get("datalog.evaluate.facts", 0) > 0
    assert (classify.classify, polymorph.closure_partition,
            polymorph.absorptive_check, HomSearcher.find,
            datalog.evaluate) == originals
