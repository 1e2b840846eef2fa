"""Seeded property-suite runner producing reproducible reports.

Each suite samples the complex with a seeded generator and records a
pass flag, the sample count, and the worst violation magnitude seen.
Identical (command, seed, config) inputs yield byte-identical payloads;
wall-clock timings are kept in a separate field so reports can be
diffed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import permutations

from . import fenchel_nielsen as fn
from .metric import (
    cone_point,
    distance,
    dropped_edges,
    orthant_distance,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)
# ``canonicalize`` is not called here; perfbench's tracer looks it up on
# this module, and reports the whole ``multicurves`` layer absent if not.
from .multicurves import InvalidMulticurve, canonicalize  # noqa: F401
from .quotient import QuotientComplex

SCHEMA_REPORT = "curvecone/run-report/1"

# Each tolerance sits far above the rounding of correct code (worst
# violations of at most about 4e-15 on S(1,2), S(2,0) and S(0,6)) and far
# below a real fault's miss, a fraction of a coordinate.
# Distances from separate searches: triangle, symmetry, segment sums.
_TRI_TOL = 1e-7
# Relative error of a distance under dilation.
_SCALE_TOL = 1e-9
# Half-plane against half-sup distance, via exp and log1p up to 50.
_ISO_TOL = 1e-9
# A distance or length difference at most this is zero (``metric._TIE``).
_ZERO_TOL = 1e-12
# Denominator floor, so a zero distance is compared absolutely.
_REL_FLOOR = 1e-30
# Grid side of the grid suite; the other suites sample coordinates to 8.
GRID_BOX = 8.0


@dataclass
class SuiteResult:
    name: str
    passed: bool
    samples: int
    worst: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "samples": self.samples,
            "worst_violation": self.worst,
            "note": self.note,
        }


@dataclass
class RunReport:
    command: str
    config: dict
    results: list[SuiteResult]
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self, include_timings: bool = True) -> dict:
        payload = {
            "schema_version": SCHEMA_REPORT,
            "command": self.command,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "passed": self.passed,
        }
        if include_timings:
            payload["timings"] = self.timings
        return payload

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _random_point(cx, rng, lo=0.25, hi=8.0, orbit_ids=None):
    ids = list(orbit_ids) if orbit_ids is not None else [o.id for o in cx.orbits]
    oid = ids[int(rng.integers(len(ids)))]
    k = cx.orbit(oid).n_edges
    coords = rng.uniform(lo, hi, size=k)
    return cone_point(cx, oid, coords)


def _permuted(vec, perm):
    return tuple(vec[perm[i]] for i in range(len(perm)))


def _is_graph_automorphism(graph, eperm) -> bool:
    """Whether some decoration-preserving vertex permutation sends the
    endpoints of each edge ``i`` to those of edge ``eperm[i]``: a brute
    force over all vertex permutations, independent of ``canonicalize``."""
    verts, edges = graph.vertices, graph.edges
    return sorted(eperm) == list(range(len(edges))) and any(
        all(verts[v] == verts[x] for v, x in enumerate(vp))
        and all(tuple(sorted((vp[u], vp[w]))) == edges[j] for (u, w), j in zip(edges, eperm))
        for vp in permutations(range(len(verts)))
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_automorphism_equivariance(cx, rng, samples, cfg):
    """Every stored symmetry extends to a genuine decorated-graph
    automorphism, acts trivially on canonical points, and commutes with
    the length map."""
    fails = 0
    worst = 0.0
    checked = 0
    for orbit in cx.orbits:
        ident = tuple(range(orbit.n_edges))
        if ident not in orbit.automorphisms:
            fails += 1
        for a in orbit.automorphisms:
            checked += 1
            if not _is_graph_automorphism(orbit.graph, a):
                fails += 1
                continue
            x = rng.uniform(0.25, 8.0, size=orbit.n_edges)
            lx = fn.length_coords(_permuted(x, a), cfg)
            xl = _permuted(fn.length_coords(x, cfg), a)
            worst = max(worst, max(abs(u - v) for u, v in zip(lx, xl)))
            if cone_point(cx, orbit.id, x) != cone_point(cx, orbit.id, _permuted(x, a)):
                fails += 1
    passed = fails == 0 and worst <= _ZERO_TOL
    note = f"{fails} invalid table entries" if fails else ""
    return SuiteResult("automorphism_equivariance", passed, checked, worst, note)


def _suite_complex_structure(cx, rng, samples, cfg):
    """Dimension formula, pants condition, coface coverage, the diamond
    property of deletion orders, and face/symmetry compatibility."""
    fails = 0
    try:
        cx.check_invariants()
    except InvalidMulticurve:
        fails += 1
    if cx.max_dim != cx.surface.curve_complex_dim:
        fails += 1
    checked = 1
    for orbit in cx.orbits:
        if orbit.n_edges < 2:
            continue
        for a in orbit.automorphisms:
            for e in range(orbit.n_edges):
                checked += 1
                if cx.face(orbit.id, e).target != cx.face(orbit.id, a[e]).target:
                    fails += 1
    for _ in range(samples):
        mid = cx.maximal_ids[int(rng.integers(len(cx.maximal_ids)))]
        k = cx.orbit(mid).n_edges
        if k < 3:
            continue
        size = int(rng.integers(1, k - 1))
        keep = sorted(rng.choice(k, size=size, replace=False).tolist())
        checked += 1
        targets = set()
        for _order in range(2):
            cur = mid
            cur_of = {f: f for f in keep}
            while True:
                kept = set(cur_of.values())
                k_cur = cx.orbit(cur).n_edges
                spare = [e for e in range(k_cur) if e not in kept]
                if not spare:
                    break
                pick = spare[0] if _order == 0 else spare[-1]
                fmap = cx.face(cur, pick)
                inj = dict(fmap.edge_injection)
                cur_of = {f: inj[c] for f, c in cur_of.items()}
                cur = fmap.target
            targets.add(cur)
        if len(targets) != 1:
            fails += 1
    return SuiteResult("complex_structure", fails == 0, checked, 0.0,
                       f"{fails} failures" if fails else "")


def _suite_metric_axioms(cx, rng, samples, cfg):
    worst = 0.0
    fails = 0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        r = _random_point(cx, rng)
        dpq = distance(p, q).distance
        dqp = distance(q, p).distance
        worst = max(worst, abs(dpq - dqp))
        dpr = distance(p, r).distance
        drq = distance(r, q).distance
        worst = max(worst, dpq - (dpr + drq))
        if distance(p, p).distance > _ZERO_TOL:
            fails += 1
        if dpq <= _ZERO_TOL and p != q:
            fails += 1
    passed = fails == 0 and worst <= _TRI_TOL
    return SuiteResult("metric_axioms", passed, samples, worst,
                       f"{fails} identity failures" if fails else "")


def _suite_homogeneity(cx, rng, samples, cfg):
    worst = 0.0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        base = distance(p, q).distance
        for lam in (0.1, 7.3):
            scaled = distance(scale(p, lam), scale(q, lam)).distance
            rel = abs(scaled - lam * base) / max(lam * base, _REL_FLOOR)
            worst = max(worst, rel)
    return SuiteResult("homogeneity", worst <= _SCALE_TOL, samples, worst)


def _suite_orthant_isometry(cx, rng, samples, cfg):
    worst = 0.0
    count = 0
    for mid in cx.maximal_ids:
        orbit = cx.orbit(mid)
        for _ in range(max(1, samples // len(cx.maximal_ids))):
            x = rng.uniform(0.0, 50.0, size=orbit.n_edges)
            y = rng.uniform(0.0, 50.0, size=orbit.n_edges)
            fx = fn.FenchelNielsenPoint(mid, fn.length_coords(x, cfg), (0.0,) * len(x))
            fy = fn.FenchelNielsenPoint(mid, fn.length_coords(y, cfg), (0.0,) * len(y))
            prod = fn.sup_product_distance(fn.to_plane_coords(fx), fn.to_plane_coords(fy))
            worst = max(worst, abs(prod - orthant_distance(orbit, x, y)))
            count += 1
    return SuiteResult("orthant_isometry", worst <= _ISO_TOL, count, worst)


def _suite_well_definedness(cx, rng, samples, cfg):
    eligible = [
        o.id
        for o in cx.orbits
        if o.id not in cx.maximal_ids and len(cx.maximal_embeddings(o.id)) >= 2
    ]
    if not eligible:
        return SuiteResult("well_definedness", True, 0, 0.0, "no multi-coface orbits")
    worst = 0.0
    count = 0
    for _ in range(samples):
        p = _random_point(cx, rng, orbit_ids=eligible)
        exts = fn.extensions(p, cfg)
        for i in range(len(exts)):
            for j in range(i + 1, len(exts)):
                mid_i, emb_i, fn_i = exts[i]
                mid_j, emb_j, fn_j = exts[j]
                for c in range(len(p.coords)):
                    worst = max(
                        worst,
                        abs(fn_i.lengths[emb_i[c]] - fn_j.lengths[emb_j[c]]),
                    )
                for mid, emb, fpt in ((mid_i, emb_i, fn_i), (mid_j, emb_j, fn_j)):
                    for e in range(len(fpt.lengths)):
                        if e not in emb:
                            worst = max(worst, abs(fpt.lengths[e] - cfg.epsilon0))
                count += 1
    return SuiteResult("well_definedness", worst == 0.0, count, worst)


def _suite_same_orbit(cx, rng, samples, cfg):
    """distance() never exceeds the symmetry-reduced orthant value, and on
    every sampled pair it matches it; a strictly shorter route would be a
    counterexample worth recording, not an assertion failure."""
    worst = 0.0
    shortcut = 0.0
    count = 0
    for orbit in cx.orbits:
        for _ in range(max(1, samples // len(cx.orbits))):
            x = rng.uniform(0.25, 8.0, size=orbit.n_edges)
            y = rng.uniform(0.25, 8.0, size=orbit.n_edges)
            s = symmetric_orthant_distance(orbit, x, y)
            d = distance(cone_point(cx, orbit.id, x), cone_point(cx, orbit.id, y)).distance
            worst = max(worst, d - s)
            shortcut = max(shortcut, s - d)
            count += 1
    note = ""
    if shortcut > _TRI_TOL:
        note = f"shortcut gallery beats orthant value by {shortcut:.3e}"
    return SuiteResult("same_orbit_consistency", worst <= _TRI_TOL and shortcut <= _TRI_TOL,
                       count, max(worst, shortcut), note)


def _suite_geodesic_consistency(cx, rng, samples, cfg):
    """Segment lengths re-sum to the distance, and any endpoint curve whose
    thread a geodesic drops forces distance >= coordinate / 2."""
    worst = 0.0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        res = distance(p, q)
        segs = segment_lengths(res, p, q)
        if segs:
            worst = max(worst, abs(sum(segs) - res.distance))
        fwd, bwd = dropped_edges(res, p, q)
        for _c, x in fwd + bwd:
            worst = max(worst, 0.5 * x - res.distance)
    return SuiteResult("geodesic_consistency", worst <= _TRI_TOL, samples, worst)


def _suite_simple_galleries(cx, rng, samples, cfg):
    """Allowing one orbit revisit in the gallery search never improves the
    optimum."""
    worst = 0.0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        d0 = distance(p, q).distance
        d1 = distance(p, q, revisit_budget=1).distance
        worst = max(worst, d0 - d1)
    return SuiteResult("simple_galleries", worst <= _TRI_TOL, samples, worst)


def _suite_grid_oracle(cx, rng, samples, mesh):
    from .gridgraph import GridOracle

    oracle = GridOracle(cx, mesh, GRID_BOX)
    units = oracle.units
    worst = 0.0
    low = 0.0
    for _ in range(samples):
        ids = [o.id for o in cx.orbits]
        p = None
        q = None
        while p is None or q is None or (p.orbit_id == q.orbit_id and p == q):
            oid_p = ids[int(rng.integers(len(ids)))]
            oid_q = ids[int(rng.integers(len(ids)))]
            kp = cx.orbit(oid_p).n_edges
            kq = cx.orbit(oid_q).n_edges
            p = cone_point(cx, oid_p, mesh * rng.integers(1, units + 1, size=kp))
            q = cone_point(cx, oid_q, mesh * rng.integers(1, units + 1, size=kq))
        d = distance(p, q).distance
        bf = oracle.distance(p, q)
        worst = max(worst, bf - d - 2 * mesh)
        low = max(low, d - bf)
    passed = worst <= 0.0 and low <= _TRI_TOL
    return SuiteResult("grid_oracle", passed, samples, max(worst, low),
                       "grid path shorter than geodesic" if low > _TRI_TOL else "")


_CORE_SUITES = (
    ("automorphism_equivariance", _suite_automorphism_equivariance),
    ("complex_structure", _suite_complex_structure),
    ("metric_axioms", _suite_metric_axioms),
    ("homogeneity", _suite_homogeneity),
    ("orthant_isometry", _suite_orthant_isometry),
    ("well_definedness", _suite_well_definedness),
    ("same_orbit_consistency", _suite_same_orbit),
    ("geodesic_consistency", _suite_geodesic_consistency),
    ("simple_galleries", _suite_simple_galleries),
)


def run_verification(
    cx: QuotientComplex,
    seed: int = 0,
    samples: int = 200,
    epsilon0: float = 0.1,
    mesh: float | None = None,
) -> RunReport:
    """Run every property suite on one complex with a seeded sampler.

    The grid-oracle suite runs only when a mesh is supplied.  Its grid
    has side ``GRID_BOX`` and holds ``(GRID_BOX / mesh + 1) ** n_edges``
    nodes per top orbit, and each sample is one breadth-first search over
    all of them, so a fine mesh on a large complex makes it the slowest
    suite.  Sample counts are scaled down for the heavier suites.
    A negative ``seed`` or a ``samples`` below 1 raises ``ValueError``.
    """
    if seed < 0 or samples < 1:
        raise ValueError(f"seed must be >= 0 and samples >= 1, got {seed} and {samples}")
    import numpy as np  # the seeded sampler, kept off the CLI import path

    cfg = fn.ModelConfig(epsilon0)
    config = {
        "surface": {"genus": cx.surface.genus, "marked_points": cx.surface.marked_points},
        "seed": int(seed),
        "samples": int(samples),
        "epsilon0": epsilon0,
        "mesh": mesh,
        "box": GRID_BOX if mesh is not None else None,
    }
    results = []
    timings = {}
    for name, suite in _CORE_SUITES:
        rng = np.random.default_rng(seed)
        budget = samples
        if name in ("metric_axioms", "geodesic_consistency"):
            budget = max(10, samples // 2)
        if name in ("homogeneity", "simple_galleries"):
            budget = max(5, samples // 10)
        t0 = time.perf_counter()
        results.append(suite(cx, rng, budget, cfg))
        timings[name] = time.perf_counter() - t0
    if mesh is not None:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        results.append(
            _suite_grid_oracle(cx, rng, max(5, samples // 20), mesh)
        )
        timings["grid_oracle"] = time.perf_counter() - t0
    return RunReport("verify", config, results, timings)
