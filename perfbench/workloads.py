"""The benchmark's workloads.

Each workload is a closed loop with one caller.  It runs in rounds; the
inputs of round ``r`` come from ``numpy.random.default_rng([seed, r])``,
so a round can be replayed exactly (the traced run does so).  A round
returns its latency samples and how many operations it attempted and
how many failed a check.  Checks run outside the timed calls, with the
tracer suspended.

The library is driven only through public calls, looked up on the
package at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import curvecone as cc
import curvecone.cli

import gate
from tracer import TARGETS, Tracer

COORD_LO, COORD_HI = 0.25, 8.0

BUILD_SURFACES = ((0, 8), (2, 2), (1, 5))
GEODESIC_SURFACE = (1, 3)
CLI_SURFACE = (0, 7)
CLI_DISTS = 4
VERIFY_SURFACE = (2, 0)
VERIFY_MESH = 0.25
VERIFY_SAMPLES = 40
SUBPROCESS_TIMEOUT_S = 120
# The ROADMAP Baseline table: build time, distance per call and LP
# solves per call, on points drawn with seed 0 from every orbit.
BASELINE_SURFACES = ((1, 2), (2, 0), (1, 3), (0, 7), (2, 1))
BASELINE_CALLS = 10

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import curvecone.cli; "
    "print(time.perf_counter() - t)"
)


def label(g: int, n: int) -> str:
    return f"S({g},{n})"


def warm(cx, rng) -> None:
    """Fill the gluing caches for every orbit and every top-orbit pair,
    in a seeded order."""
    ids = [o.id for o in cx.orbits]
    tops = list(cx.maximal_ids)
    for i in rng.permutation(len(ids)):
        cx.subfaces(ids[i])
        for host in tops:
            cx.embeddings(ids[i], host)
    pairs = [(a, b) for a in tops for b in tops]
    for j in rng.permutation(len(pairs)):
        cx.transits(*pairs[j])


def transit_count(cx) -> int:
    return sum(len(cx.transits(a, b)) for a in cx.maximal_ids for b in cx.maximal_ids)


def random_point_dict(cx, rng, orbit_id: str) -> dict:
    coords = rng.uniform(COORD_LO, COORD_HI, size=cx.orbit(orbit_id).n_edges)
    return {
        "schema_version": cc.metric.SCHEMA_POINT,
        "orbit": orbit_id,
        "coords": {str(i): float(v) for i, v in enumerate(coords)},
    }


class Workload:
    """Set-up, rounds and the traced body shared by every workload."""

    name = ""
    # Whether the traced body replays the measured rounds; if not, the
    # run times it untraced as well.
    replays_rounds = True

    def __init__(self, seed: int, workdir: str, env: dict, goldens: dict, tracer):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.goldens = goldens
        self.tracer = tracer
        self.import_times: list[float] = []
        self.failures: list[str] = []
        # Filled by the cli workload only; the others leave that layer idle.
        self.command_times: dict[str, list[float]] = {"complex": [], "dist": [], "verify": []}
        self.main_times: dict[str, list[float]] = {}
        self.verify_timings: dict[str, float] = {}

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def fresh_import(self) -> None:
        """What every user pays first: a new interpreter importing the CLI."""
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=self.env, cwd=self.workdir, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        self.import_times.append(float(proc.stdout.strip()))

    def setup(self) -> None:
        self.fresh_import()

    def round(self, r: int) -> tuple[list[float], int, int]:
        raise NotImplementedError

    def traced_body(self, rounds: int) -> tuple[float, int, int]:
        """Replay ``rounds`` rounds; returns (time in timed calls,
        attempted, failed)."""
        total, attempted, failed = 0.0, 0, 0
        for r in range(rounds):
            samples, a, f = self.round(r)
            total += sum(samples)
            attempted += a
            failed += f
        return total, attempted, failed

    def _record(self, failures: list[str]) -> int:
        self.failures.extend(failures)
        return 1 if failures else 0


class BuildWorkload(Workload):
    """One operation builds a complexity-5 complex and warms its caches;
    one round does all three surfaces in a seeded order and is one
    latency sample."""

    name = "build"

    def round(self, r):
        rng = self.rng(r)
        elapsed, failed = 0.0, 0
        for i in rng.permutation(len(BUILD_SURFACES)):
            g, n = BUILD_SURFACES[i]
            self.tracer.request = f"{r}.{label(g, n)}"
            t0 = time.perf_counter()
            cx = cc.build_complex(cc.Surface(g, n))
            warm(cx, rng)
            elapsed += time.perf_counter() - t0
            with self.tracer.suspended():
                failed += self._record(gate.complex_failures(
                    label(g, n), cc.complex_to_json(cx), cx.orbit_counts(),
                    transit_count(cx), self.goldens,
                ))
        return [elapsed], len(BUILD_SURFACES), failed


class GeodesicWorkload(Workload):
    """One operation makes two cone points from raw coordinates and asks
    for their distance on a built, warmed complex.  A round visits every
    ordered pair of orbits once, in a seeded order with fresh
    coordinates, so every round has the same mix of orbit pairs."""

    name = "geodesic"

    def setup(self):
        super().setup()
        self.cx = cc.build_complex(cc.Surface(*GEODESIC_SURFACE))
        warm(self.cx, np.random.default_rng(self.seed))
        ids = [o.id for o in self.cx.orbits]
        self.pairs = [(a, b) for a in ids for b in ids]

    def inputs(self, r: int) -> list[tuple]:
        """Round ``r``: every ordered orbit pair with raw coordinates."""
        rng = self.rng(r)
        out = []
        for j in rng.permutation(len(self.pairs)):
            a, b = self.pairs[j]
            x = rng.uniform(COORD_LO, COORD_HI, size=self.cx.orbit(a).n_edges)
            y = rng.uniform(COORD_LO, COORD_HI, size=self.cx.orbit(b).n_edges)
            out.append((a, x, b, y))
        return out

    def round(self, r):
        cx = self.cx
        golden = self.goldens["seed0"]["geodesic"] if self.seed == 0 and r == 0 else None
        samples, failed = [], 0
        for i, (a, x, b, y) in enumerate(self.inputs(r)):
            self.tracer.request = f"{r}.{i}"
            t0 = time.perf_counter()
            p = cc.cone_point(cx, a, x)
            q = cc.cone_point(cx, b, y)
            res = cc.distance(p, q)
            samples.append(time.perf_counter() - t0)
            with self.tracer.suspended():
                failed += self._record(gate.distance_failures(
                    p.max_coord, q.max_coord, res.distance,
                    cc.segment_lengths(res, p, q), res.to_json(),
                    golden[i] if golden else None,
                ))
        return samples, len(samples), failed


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class CliWorkload(Workload):
    """One round runs, each as its own subprocess and one at a time:
    ``complex`` exporting JSON, ``dist`` on seeded point files against
    that export, and ``verify`` with a mesh fine enough for the grid
    oracle to take a real share.  The round is one latency sample."""

    name = "cli"
    replays_rounds = False

    def setup(self):
        super().setup()
        self.cx = cc.build_complex(cc.Surface(*CLI_SURFACE))
        self.ids = [o.id for o in self.cx.orbits]

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def inputs(self, r: int):
        """Write this round's point files; returns the argv of each
        command with the expected ``dist`` payloads."""
        rng = self.rng(r)
        cfile = self._path("complex.json")
        _remove(cfile)
        g, n = CLI_SURFACE
        commands = [(["complex", "-g", str(g), "-n", str(n), "--out", cfile], None)]
        for k in range(CLI_DISTS):
            files = []
            for side in "pq":
                oid = self.ids[int(rng.integers(len(self.ids)))]
                point = random_point_dict(self.cx, rng, oid)
                path = self._path(f"{side}{k}.json")
                with open(path, "w") as handle:
                    json.dump(point, handle)
                files.append((path, point))
            (pf, pd), (qf, qd) = files
            expected = cc.distance(
                cc.point_from_dict(self.cx, pd), cc.point_from_dict(self.cx, qd)
            ).to_json()
            commands.append((["dist", cfile, pf, qf], expected))
        vg, vn = VERIFY_SURFACE
        commands.append((
            ["verify", "-g", str(vg), "-n", str(vn), "--mesh", str(VERIFY_MESH),
             "--samples", str(VERIFY_SAMPLES), "--seed", str(int(rng.integers(2**31)))],
            None,
        ))
        return commands

    def _check(self, r: int, k: int, argv, rc: int, output: str, expected) -> int:
        """``output`` is what ``dist`` or ``verify`` printed; for
        ``complex`` the file it wrote is read here."""
        command = argv[0]
        golden = None
        if command == "complex":
            output = _read(argv[-1])
            golden = self.goldens["complexes"][label(*CLI_SURFACE)]["sha256"]
        elif command == "dist" and self.seed == 0 and r == 0:
            golden = self.goldens["seed0"]["cli_dist"][k - 1]
        return self._record(gate.cli_failures(command, rc, output, expected, golden))

    def round(self, r):
        with self.tracer.suspended():
            commands = self.inputs(r)
        elapsed, failed = 0.0, 0
        for k, (argv, expected) in enumerate(commands):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "curvecone.cli", *argv],
                    env=self.env, cwd=self.workdir, capture_output=True,
                    text=True, timeout=SUBPROCESS_TIMEOUT_S,
                )
                rc, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                rc, stdout = -1, ""
            dt = time.perf_counter() - t0
            elapsed += dt
            self.command_times[argv[0]].append(dt)
            failed += self._check(r, k, argv, rc, stdout, expected)
        return [elapsed], len(commands), failed

    def traced_body(self, rounds):
        """The commands of round 0 through ``curvecone.cli.main`` in this
        process, each inside a ``cli.main.<command>`` span: subprocesses
        are invisible to the tracer.  The run also times this untraced,
        twice, keeping the faster pass so that first calls do not count
        as tracing overhead."""
        with self.tracer.suspended():
            commands = self.inputs(0)
        out_file = self._path("main-out.json")
        elapsed, failed = 0.0, 0
        self.main_times = {}
        for k, (argv, expected) in enumerate(commands):
            full = argv + (["--out", out_file] if argv[0] != "complex" else [])
            _remove(out_file)
            self.tracer.request = f"main.{k}"
            with self.tracer.span(f"cli.main.{argv[0]}"):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cc.cli.main(full)
                dt = time.perf_counter() - t0
            elapsed += dt
            self.main_times.setdefault(argv[0], []).append(dt)
            output = _read(out_file)
            if argv[0] == "verify" and output:
                self.verify_timings = json.loads(output).get("timings", {})
            failed += self._check(0, k, argv, rc, output, expected)
        return elapsed, len(commands), failed


def baseline_rows() -> dict[str, tuple[float, str]]:
    """Reproduce the ROADMAP Baseline rows, counting LP solves with a
    tracer of their own so that the workload's layers are not disturbed."""
    out = {}
    tracer = Tracer()
    with tracer.installed([t for t in TARGETS if t[0] == "lp.solve_lp"]):
        for g, n in BASELINE_SURFACES:
            builds = []
            for _ in range(3):
                t0 = time.perf_counter()
                cx = cc.build_complex(cc.Surface(g, n))
                builds.append(time.perf_counter() - t0)
            rng = np.random.default_rng(0)
            ids = [o.id for o in cx.orbits]
            points = []
            for _ in range(2 * BASELINE_CALLS):
                oid = ids[int(rng.integers(len(ids)))]
                points.append((oid, rng.uniform(COORD_LO, COORD_HI, size=cx.orbit(oid).n_edges)))
            before = len(tracer.spans)
            tracer.active = True
            t0 = time.perf_counter()
            for i in range(BASELINE_CALLS):
                cc.distance(cc.cone_point(cx, *points[2 * i]), cc.cone_point(cx, *points[2 * i + 1]))
            elapsed = time.perf_counter() - t0
            tracer.active = False
            key = f"baseline.S{g}_{n}"
            out[f"{key}.build_ms"] = (1e3 * statistics.median(builds), "ms")
            out[f"{key}.dist_ms"] = (1e3 * elapsed / BASELINE_CALLS, "ms")
            out[f"{key}.solve_lp_per_call"] = ((len(tracer.spans) - before) / BASELINE_CALLS, "count")
    return out


WORKLOADS = {w.name: w for w in (BuildWorkload, GeodesicWorkload, CliWorkload)}
