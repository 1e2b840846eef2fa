"""Tests of the benchmark's own arithmetic and gate.

    python3 -m pytest perfbench/tests -q
"""

import signal
import time
import types

import pytest

import curvecone as cc
import gate
from stats import PROBE_REF_S, Speedometer, tail
from tracer import Tracer, self_times


# -- the tail-percentile rule -------------------------------------------------


def test_tail_falls_back_to_maximum_below_eleven_samples():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(range(10)) == (9, 100.0, 10)


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct, count = tail(reversed(xs))
    assert count == n
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_examples():
    assert tail(range(100))[:2] == (89, 90.0)
    assert tail(range(11))[:2] == (0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        tail([])


# -- speed scaling -----------------------------------------------------------


def test_speedometer_factor_is_reference_over_median_probe():
    speed = Speedometer()
    speed._probes = [4e-4, 1e-3, 2e-4]
    assert speed.factor() == pytest.approx(PROBE_REF_S / 4e-4)
    assert speed._probes == []


def test_speedometer_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speedometer()
    with speed.running():
        time.sleep(0.1)
    assert len(speed._probes) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.factor() > 0


# -- self time ---------------------------------------------------------------


def _span(start, end, parent=-1, name="x"):
    return (name, start, end, parent, None, True)


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0),
        _span(2.0, 5.0, parent=0),  # overlaps the previous child
        _span(8.0, 12.0, parent=0),  # sticks out of the parent
        _span(1.5, 2.0, parent=1),  # grandchild: not the root's business
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_inclusive_and_self_times_with_recursion():
    mod = types.SimpleNamespace()

    def fact(n):
        return 1 if n == 0 else n * mod.fact(n - 1)

    mod.fact = fact
    tracer = Tracer()
    tracer.install([("multicurves.fact", "types", "SimpleNamespace.nothing")])
    assert tracer.absent == ["multicurves.fact"]
    mod.fact = tracer._wrap("multicurves.fact", fact)
    tracer.active = True
    with tracer.span("cli.main.test"):
        assert mod.fact(5) == 120
    tracer.active = False
    rows = tracer.by_name()
    assert rows["multicurves.fact"]["calls"] == 6
    outer = next(s for s in tracer.spans if s[0] == "multicurves.fact")
    # Recursion is counted once in the inclusive time ...
    assert rows["multicurves.fact"]["s"] == pytest.approx(outer[2] - outer[1])
    # ... and self times add up to the root's duration.
    root = tracer.spans[0]
    total_self = sum(tracer.layer_self_times().values())
    assert total_self == pytest.approx(root[2] - root[1])


def test_absent_names_are_reported_not_raised():
    tracer = Tracer()
    tracer.install([
        ("lp.solve_lp", "curvecone.no_such_module", "solve_lp"),
        ("metric.distance", "curvecone.metric", "no_such_function"),
    ])
    assert tracer.absent == ["lp.solve_lp", "metric.distance"]
    assert "lp" in tracer.absent_layers()
    tracer.uninstall()


def test_cache_fills_counted_per_instance_and_key():
    tracer = Tracer()
    with tracer.installed():
        tracer.active = True
        for _ in range(2):
            cx = cc.build_complex(cc.Surface(1, 2))
            top = cx.maximal_ids[0]
            cx.transits(top, top)
            cx.transits(top, top)
        tracer.active = False
    rows = tracer.by_name()
    assert tracer.counters["quotient.transits.fills"] == 2
    # The library's own calls go through the wrapper too.
    assert rows["quotient.transits"]["calls"] == 4
    assert rows["quotient.subfaces"]["calls"] > tracer.counters["quotient.subfaces.fills"] > 0
    assert cc.build_complex.__name__ == "build_complex"
    assert not hasattr(cc.build_complex, "__wrapped__")


# -- the correctness gate -----------------------------------------------------


@pytest.fixture(scope="module")
def s12():
    cx = cc.build_complex(cc.Surface(1, 2))
    top = [o for o in cx.orbits if o.dim == cx.max_dim]
    p = cc.cone_point(cx, top[0].id, [1.0, 5.0])
    q = cc.cone_point(cx, top[-1].id, [4.0, 0.5])
    return cx, p, q, cc.distance(p, q)


def _dist_args(p, q, res):
    return p.max_coord, q.max_coord, res.distance, cc.segment_lengths(res, p, q)


def test_gate_accepts_a_true_geodesic(s12):
    _cx, p, q, res = s12
    payload = res.to_json()
    assert gate.distance_failures(*_dist_args(p, q, res), payload, gate.digest(payload)) == []


@pytest.mark.parametrize("delta", [1e-3, -1e-3, 100.0, -100.0])
def test_gate_rejects_a_perturbed_distance(s12, delta):
    _cx, p, q, res = s12
    pm, qm, value, segs = _dist_args(p, q, res)
    assert gate.distance_failures(pm, qm, value + delta, segs)


def test_gate_rejects_a_perturbed_payload_digest(s12):
    _cx, p, q, res = s12
    payload = res.to_json()
    golden = gate.digest(payload)
    tampered = payload.replace(repr(res.distance), repr(res.distance + 1e-12))
    assert tampered != payload
    assert gate.distance_failures(*_dist_args(p, q, res), tampered, golden)


def test_gate_rejects_a_perturbed_complex_digest(s12):
    cx = s12[0]
    payload = cc.complex_to_json(cx)
    want = {"S(1,2)": {
        "sha256": gate.digest(payload),
        "orbit_counts": {str(d): c for d, c in cx.orbit_counts().items()},
        "transits": 3,
    }}
    goldens = {"complexes": want}
    assert gate.complex_failures("S(1,2)", payload, cx.orbit_counts(), 3, goldens) == []
    assert gate.complex_failures("S(1,2)", payload.replace("0", "1", 1), cx.orbit_counts(),
                                 3, goldens)
    assert gate.complex_failures("S(1,2)", payload, {0: 9}, 3, goldens)
    assert gate.complex_failures("S(1,2)", payload, cx.orbit_counts(), 4, goldens)


def test_gate_on_cli_results():
    assert gate.cli_failures("complex", 0) == []
    assert gate.cli_failures("complex", 2)
    assert gate.cli_failures("dist", 0, '{"a": 1}\n', expected='{"a": 1}') == []
    assert gate.cli_failures("dist", 0, '{"a": 2}\n', expected='{"a": 1}')
    assert gate.cli_failures("verify", 0, '{"passed": true}') == []
    assert gate.cli_failures("verify", 0, '{"passed": false}')
    assert gate.cli_failures("verify", 0, "not json")


def test_goldens_cover_every_surface_the_workloads_check():
    import workloads

    goldens = gate.load_goldens()
    surfaces = workloads.BUILD_SURFACES + (workloads.GEODESIC_SURFACE, workloads.CLI_SURFACE)
    for g, n in surfaces:
        assert workloads.label(g, n) in goldens["complexes"]
    assert len(goldens["seed0"]["cli_dist"]) == workloads.CLI_DISTS
