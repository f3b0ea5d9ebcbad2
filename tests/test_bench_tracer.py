"""The benchmark's tracer wraps slamlog functions by name, so renaming one of
them breaks a traced benchmark run.  This test installs the tracer over a
small classification and sweep, so such a rename fails the suite too."""

from __future__ import annotations

import importlib
from pathlib import Path

import slamlog
from slamlog.fixtures import b_n, path
from slamlog.homsolver import HomSearcher

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_the_traced_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    polymorph = importlib.import_module("slamlog.polymorph")
    originals = (slamlog.classify, polymorph.closure_partition,
                 polymorph.absorptive_check, HomSearcher.find)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert slamlog.classify is not originals[0]
        slamlog.classify(b_n(2))
        slamlog.verify_duality_pair([path(3)], path(2), 3)
    finally:
        t.uninstall()
    counts = t.take()
    for name in ("polymorph.closure_partition", "polymorph.absorptive",
                 "homsolver.find", "classify.classify", "classify.sweep"):
        assert counts.get(name + ".calls", 0) > 0, name
    assert (slamlog.classify, polymorph.closure_partition,
            polymorph.absorptive_check, HomSearcher.find) == originals
