"""Benchmark of slamlog's three jobs: classify templates, solve instances,
sweep small instances exhaustively.

    python3 bench/run.py --workload classify|solve|sweep --seed N \\
        --seconds S --trace 0|1

Runs whole passes over the workload's operations for about S seconds,
checks every output against the independent oracles in bench/oracles.py,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
(setup_s, pass_s, gmean_ops_per_s, peak_rss_mb); with --trace 1 they are
the per-layer spans and counts of bench/tracer.py.  Times are wall-clock
seconds rescaled to a fixed reference speed (see bench/clock.py).  Full
details of the run go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed in the run itself and in this many fresh processes.
SETUP_PROBES = 4

# The per-layer metrics are those of BENCHMARK.json.  Each is the tracer
# counter of the same name, except where SOURCE names another, and
# trace.overhead_s, which compares traced with plain passes.
SOURCE = {"classify.sweep.enumerate_s": "classify.sweep.enumerate.self_s"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("classify", "solve", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def run_pass(ops):
    """One pass over the operations, with a reference measurement before
    each operation and after the last.  Each operation starts after its
    untimed `prepare` and a full garbage collection, so the collector's
    state does not depend on which operations ran before (the seed shuffles
    their order), and its output is checked and released after the
    reference that follows it.  Returns the wall time of each operation,
    the references, the operations that raised and the check failures.  An
    operation that raises counts as failed; unless it raised the exception
    it is known to raise, that is also a check failure."""
    walls, refs, failed, errors = [], [clock.reference()], [], []
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        gc.collect()
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:       # counted, reported, and run goes on
            output = exc
        walls.append(time.perf_counter() - start)
        refs.append(clock.reference())
        if isinstance(output, Exception):
            failed.append(f"{op.name}: failed with {type(output).__name__}")
            if type(output) is not op.expected_failure:
                errors.append(f"{op.name}: unexpected "
                              f"{type(output).__name__}: {output}")
        else:
            try:
                op.check(output)
            except Exception as exc:   # any malformed output is a failure
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        del output
    return walls, refs, failed, errors


def op_seconds(p) -> list[float]:
    """Rescaled time of each operation of a pass, by the mean of the two
    references around it."""
    refs = p["refs"]
    return [wall * clock.scale((refs[i] + refs[i + 1]) / 2)
            for i, wall in enumerate(p["walls"])]


def pass_seconds(p) -> float:
    return sum(op_seconds(p))


def gmean_rate(p) -> float:
    """Geometric mean over operations of 1 / rescaled operation time."""
    logs = [math.log(t) for t in op_seconds(p)]
    return math.exp(-sum(logs) / len(logs))


def pass_scale(p) -> float:
    """One rescaling factor for times measured inside the operations of a
    pass: nominal over the mean of the pass's references.  The mean, not
    the median, because the machine's speed is bimodal and the mean
    follows the share of time spent in each mode."""
    return clock.scale(statistics.fmean(p["refs"]))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def timed_setup(name: str, tracer=None):
    """Import slamlog and do the workload's one-time work, with the tracer
    installed after the import when one is given.  Returns the wall time,
    its rescaling factor, the library namespace and the workload state."""
    before = clock.reference()
    start = time.perf_counter()
    lib = workloads.load()
    if tracer is not None:
        tracing.install(tracer)
    state = workloads.WORKLOADS[name][0](lib)
    wall = time.perf_counter() - start
    after = clock.reference()
    if tracer is not None:
        tracer.uninstall()
    return wall, clock.scale((before + after) / 2), lib, state


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(args, ops, tracer=None):
    """Whole passes until the next one would end after --seconds.  With a
    tracer, passes alternate plain and traced, starting plain."""
    passes = []
    deadline = time.perf_counter() + args.seconds
    minimum = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.spans = [] if len(passes) == 1 else None
            tracing.install(tracer)
        start = time.perf_counter()
        walls, refs, failed, errors = run_pass(ops)
        took = time.perf_counter() - start
        entry = {"traced": traced, "walls": walls, "refs": refs,
                 "failed": failed, "errors": errors}
        if traced:
            tracer.uninstall()
            entry["counters"] = tracer.take()
            if tracer.spans is not None:
                entry["spans"] = tracer.spans
        passes.append(entry)
        if len(passes) >= minimum and \
                time.perf_counter() + took > deadline:
            return passes


def end_to_end(passes, setup_samples) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "pass_s": {"value": statistics.median(
            pass_seconds(p) for p in passes), "unit": "s"},
        "gmean_ops_per_s": {"value": statistics.median(
            gmean_rate(p) for p in passes), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(passes, setup_counters, setup_scale) -> dict:
    """Counts from the set-up plus one traced pass; times rescaled, from
    the set-up plus the median traced pass."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [{k: v for k, v in p["counters"].items()
               if not k.endswith("_s")} for p in traced]
    if any(c != counts[0] for c in counts):
        print("warning: per-layer counts differ between traced passes",
              file=sys.stderr)
    metrics = {}
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer"]:
        metric, unit = entry["name"], entry["unit"]
        if metric == "trace.overhead_s":
            continue
        key = SOURCE.get(metric, metric)
        if unit == "s":
            value = setup_counters.get(key, 0.0) * setup_scale + \
                statistics.median(p["counters"].get(key, 0.0) *
                                  pass_scale(p) for p in traced)
        else:
            value = round(setup_counters.get(key, 0) + counts[0].get(key, 0))
        metrics[metric] = {"value": value, "unit": unit}
    overhead = statistics.median(pass_seconds(p) for p in traced) \
        - statistics.median(pass_seconds(p) for p in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    wall, setup_scale, lib, state = timed_setup(args.workload, tracer)
    setup_counters = tracer.take() if tracer is not None else {}
    ops = workloads.build(args.workload, lib, args.seed, state)
    setup_samples = [wall * setup_scale]
    if tracer is None:
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]

    passes = measure(args, ops, tracer)
    if tracer is None:
        metrics = end_to_end(passes, setup_samples)
    else:
        metrics = per_layer(passes, setup_counters, setup_scale)
    for message in sorted({f for p in passes for f in p["failed"]}):
        print(message, file=sys.stderr)
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }
    _write_details(args, ops, passes, setup_samples, result)
    return result


def _write_details(args, ops, passes, setup_samples, result) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [p.pop("spans") for p in passes if "spans" in p]
    details = {
        "args": vars(args),
        "python": sys.version,
        "operations": [op.name for op in ops],
        "setup_samples": setup_samples,
        "passes": passes,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details) + "\n")
    if spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "thread"],
             "spans": spans[0]}) + "\n")


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("error: refusing to run under python -O, which strips the "
              "assert-time witness checks and so times another program",
              file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)
    if not (SRC / "slamlog" / "__init__.py").is_file():
        print(f"error: no slamlog sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        wall, scale, _, _ = timed_setup(args.workload)
        print(json.dumps({"setup_s": wall * scale}))
        return 0
    limit = sys.getrecursionlimit()
    result = run(args)
    if sys.getrecursionlimit() != limit:
        print("error: the recursion limit changed during the run",
              file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
