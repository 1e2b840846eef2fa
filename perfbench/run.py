"""The curvecone benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {build,geodesic,cli} --seed N \
        --seconds S --trace {0,1}

It byte-compiles ``src/curvecone``, pins itself to one CPU, sets the
workload up several times, runs it for ``--seconds`` (finishing the round
in progress), checks every output, and prints one JSON object as the last
line of standard output.  Times are scaled to a reference host speed
sampled while they run (see ``stats.Speedometer``); the unscaled ones are
printed on the line before.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is repeated with spans
recorded at every layer boundary and the metrics are the per-layer ones.
It exits 2 without a result when the checkout holds no curvecone source.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import gate
from stats import Speedometer, tail
from tracer import CACHED_METHODS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
VERIFY_SUITES = (
    "automorphism_equivariance",
    "complex_structure",
    "metric_axioms",
    "homogeneity",
    "orthant_isometry",
    "well_definedness",
    "same_orbit_consistency",
    "geodesic_consistency",
    "simple_galleries",
    "grid_oracle",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "geodesic", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_library():
    """Put the checkout's source first on the path and build it; the
    benchmark never falls back to an installed copy."""
    init = SRC / "curvecone" / "__init__.py"
    if not init.is_file():
        _fail(f"no curvecone source at {init}")
    sys.path.insert(0, str(SRC))
    if not compileall.compile_dir(str(SRC / "curvecone"), quiet=1):
        _fail("curvecone does not byte-compile")
    import curvecone

    if Path(curvecone.__file__).resolve() != init.resolve():
        _fail(f"imported curvecone from {curvecone.__file__}")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup(workload, speed) -> tuple[float, float]:
    """Median time of several set-ups: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        with speed.running():
            t0 = time.perf_counter()
            workload.setup()
            raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.factor())
    return statistics.median(scaled), statistics.median(raw)


def _measure(workload, speed, seconds: float):
    """Whole rounds until ``seconds`` have passed; at least one.  Each
    round's samples are also scaled by the speed sampled during it."""
    samples, scaled, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        with speed.running():
            s, a, f = workload.round(r)
        factor = speed.factor()
        samples.extend(s)
        scaled.extend(x * factor for x in s)
        attempted += a
        failed += f
        r += 1
    return samples, scaled, r, attempted, failed


def _scaled_body(workload, speed, rounds: int) -> tuple[float, int, int]:
    with speed.running():
        elapsed, attempted, failed = workload.traced_body(rounds)
    return elapsed * speed.factor(), attempted, failed


def _summary(samples) -> dict:
    tail_value, _pct, _n = tail(samples)
    return {
        "p50_ms": 1e3 * statistics.median(samples),
        "tail_ms": 1e3 * tail_value,
        "ops_per_s": len(samples) / sum(samples),
    }


def end_to_end(workload, setup, samples, scaled) -> dict:
    _value, pct, n = tail(samples)
    raw = _summary(samples)
    print(f"perfbench: {workload.name} seed {workload.seed}: {n} samples, tail is "
          f"p{pct:.2f}; unscaled setup_s {setup[1]:.6g}, "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    units = {"p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s"}
    metrics = {"setup_s": _metric(setup[0], "s")}
    metrics.update({k: _metric(v, units[k]) for k, v in _summary(scaled).items()})
    metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")
    return metrics


def per_layer(workload, tracer, untraced_s, traced_s, samples) -> dict:
    rows = tracer.by_name()
    counters = tracer.counters

    def row(name, key):
        return rows[name][key] if name in rows else 0.0

    def per_call(total, calls):
        return total / calls if calls else 0.0

    m = {}
    for layer, self_s in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = _metric(self_s, "s")
    m["multicurves.canonicalize.calls"] = _metric(row("multicurves.canonicalize", "calls"), "count")
    m["multicurves.canonicalize.s"] = _metric(row("multicurves.canonicalize", "s"), "s")
    m["quotient.build_complex.s"] = _metric(row("quotient.build_complex", "s"), "s")
    m["quotient.enumerate_orbits.self_s"] = _metric(row("quotient.enumerate_orbits", "self_s"), "s")
    m["quotient.orbits"] = _metric(counters["quotient.orbits"], "count")
    for method in CACHED_METHODS:
        name = f"quotient.{method}"
        calls = row(name, "calls")
        fills = counters[f"{name}.fills"]
        m[f"{name}.s"] = _metric(row(name, "s"), "s")
        m[f"{name}.calls"] = _metric(calls, "count")
        m[f"{name}.fills"] = _metric(fills, "count")
        m[f"{name}.hit_ratio"] = _metric(per_call(calls - fills, calls), "ratio")
    m["quotient.transits.count"] = _metric(counters["quotient.transits.count"], "count")
    m["quotient.complex_to_json.s"] = _metric(row("quotient.complex_to_json", "s"), "s")
    m["quotient.complex_from_json.s"] = _metric(row("quotient.complex_from_json", "s"), "s")
    m["metric.distance.calls"] = _metric(row("metric.distance", "calls"), "count")
    m["metric.distance.s"] = _metric(row("metric.distance", "s"), "s")
    m["metric.distance.self_s"] = _metric(row("metric.distance", "self_s"), "s")
    m["metric.cone_point.calls"] = _metric(row("metric.cone_point", "calls"), "count")
    m["metric.cone_point.s"] = _metric(row("metric.cone_point", "s"), "s")
    lp_calls = row("lp.solve_lp", "calls")
    m["lp.solve_lp.calls"] = _metric(lp_calls, "count")
    m["lp.solve_lp.s"] = _metric(row("lp.solve_lp", "s"), "s")
    m["lp.solve_lp.us_per_call"] = _metric(1e6 * per_call(row("lp.solve_lp", "s"), lp_calls), "us")
    m["lp.solve_lp.rows_mean"] = _metric(per_call(counters["lp.solve_lp.rows"], lp_calls), "count")
    m["lp.solve_lp.vars_mean"] = _metric(per_call(counters["lp.solve_lp.vars"], lp_calls), "count")
    m["gridgraph.GridOracle.init_s"] = _metric(row("gridgraph.GridOracle.init", "s"), "s")
    m["gridgraph.nodes"] = _metric(counters["gridgraph.nodes"], "count")
    m["gridgraph.classes"] = _metric(counters["gridgraph.classes"], "count")
    m["gridgraph.distance.calls"] = _metric(row("gridgraph.distance", "calls"), "count")
    m["gridgraph.distance.s"] = _metric(row("gridgraph.distance", "s"), "s")
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = _metric(workload.verify_timings.get(suite, 0.0), "s")
    m["fenchel_nielsen.s"] = _metric(
        sum(r["s"] for n, r in rows.items() if n.startswith("fenchel_nielsen.")), "s")
    m["cli.import_s"] = _metric(statistics.median(workload.import_times), "s")
    for command in ("complex", "dist", "verify"):
        main = workload.main_times.get(command, [])
        runs = workload.command_times[command]
        m[f"cli.main.{command}.s"] = _metric(per_call(sum(main), len(main)), "s")
        m[f"cli.{command}_s"] = _metric(statistics.median(runs) if runs else 0.0, "s")
    tail_value, pct, n = tail(samples)
    m["op.samples"] = _metric(n, "count")
    m["op.tail_percentile"] = _metric(pct, "%")
    m["trace.spans"] = _metric(len(tracer.spans), "count")
    m["trace.absent_layers"] = _metric(len(tracer.absent_layers()), "count")
    m["trace.untraced_s"] = _metric(untraced_s, "s")
    m["trace.traced_s"] = _metric(traced_s, "s")
    m["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = _metric(per_call(traced_s - untraced_s, untraced_s), "ratio")
    return m


def run(args) -> dict:
    from workloads import WORKLOADS, baseline_rows

    goldens = gate.load_goldens()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        tracer = Tracer()
        workload = WORKLOADS[args.workload](args.seed, workdir, env, goldens, tracer)
        speed = Speedometer()
        setup = _setup(workload, speed)
        samples, scaled, rounds, attempted, failed = _measure(
            workload, speed, args.seconds)
        if not args.trace:
            metrics = end_to_end(workload, setup, samples, scaled)
        else:
            # Tracing overhead compares scaled times: the host's speed
            # drifts more between the two phases than tracing costs.
            if workload.replays_rounds:
                untraced_s = sum(scaled)
            else:
                passes = [_scaled_body(workload, speed, 0) for _ in range(2)]
                untraced_s = min(t for t, _a, _f in passes)
                attempted += sum(a for _t, a, _f in passes)
                failed += sum(f for _t, _a, f in passes)
            # Replay the measured rounds with spans recorded, after one
            # traced set-up so that cache fills are seen from the start.
            with tracer.installed():
                tracer.active = True
                tracer.request = "setup"
                workload.setup()
                traced_s, a, f = _scaled_body(workload, speed, rounds)
                tracer.active = False
            attempted += a
            failed += f
            metrics = per_layer(workload, tracer, untraced_s, traced_s, samples)
            for name, (value, unit) in baseline_rows().items():
                metrics[name] = _metric(value, unit)
            for name in tracer.absent:
                print(f"perfbench: absent layer boundary {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for message in sorted(set(workload.failures))[:20]:
        print(f"perfbench: FAILED {message}")
    print(f"perfbench: failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one whose
    speed the probes sample."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    _load_library()
    _pin_to_one_cpu()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
