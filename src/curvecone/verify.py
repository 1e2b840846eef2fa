"""Seeded property-suite runner producing reproducible reports.

Each suite samples the complex with a seeded generator and returns a
pass flag, the sample count, the worst violation magnitude seen (the
failure count, for suites that count them) and a note.  One complex and
one config yield byte-identical payloads; wall-clock timings are kept in
a separate field so reports can be diffed.
"""

from __future__ import annotations

import json
import time
from functools import partial
from itertools import permutations

from . import fenchel_nielsen as fn
from .metric import (
    cone_point,
    distance,
    orthant_distance,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)
from .multicurves import InvalidMulticurve
from .quotient import QuotientComplex
from .surfaces import Record, as_integer

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
# A distance at most this is zero (``metric._TIE``).
_ZERO_TOL = 1e-12
# Denominator floor, so a zero distance is compared absolutely.
_REL_FLOOR = 1e-30
# Grid side of the grid suite; the other suites sample coordinates to 8.
GRID_BOX = 8.0


class SuiteResult(Record):
    __slots__ = ("name", "passed", "samples", "worst", "note")

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "samples": self.samples,
            "worst_violation": self.worst,
            "note": self.note,
        }


class RunReport(Record):
    """The results of one ``run_verification``, in suite order, with the
    config they ran under and each suite's wall-clock seconds."""

    __slots__ = ("config", "results", "timings")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_REPORT,
            "command": "verify",
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "passed": self.passed,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _random_point(cx, rng):
    orbit = cx.orbits[int(rng.integers(len(cx.orbits)))]
    return cone_point(cx, orbit.id, rng.uniform(0.25, 8.0, size=orbit.n_edges))


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


def _suite_automorphism_equivariance(cx, rng, samples):
    """Every stored symmetry extends to a genuine decorated-graph
    automorphism and acts trivially on canonical points.  The length
    map is elementwise, so it commutes with every symmetry by
    construction and is not checked."""
    fails = 0
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
            if cone_point(cx, orbit.id, x) != cone_point(cx, orbit.id, _permuted(x, a)):
                fails += 1
    note = f"{fails} invalid table entries" if fails else ""
    return fails == 0, checked, float(fails), note


def _suite_complex_structure(cx, rng, samples):
    """Dimension formula, pants condition, coface coverage, the diamond
    property of deletion orders, and face/symmetry compatibility."""
    fails = 0
    try:
        cx.check_invariants()
    except InvalidMulticurve:
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
    return fails == 0, checked, float(fails), f"{fails} failures" if fails else ""


def _suite_metric_axioms(cx, rng, samples):
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
    return passed, samples, worst, f"{fails} identity failures" if fails else ""


def _suite_homogeneity(cx, rng, samples):
    worst = 0.0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        base = distance(p, q).distance
        for lam in (0.1, 7.3):
            scaled = distance(scale(p, lam), scale(q, lam)).distance
            rel = abs(scaled - lam * base) / max(lam * base, _REL_FLOOR)
            worst = max(worst, rel)
    return worst <= _SCALE_TOL, samples, worst, ""


def _suite_orthant_isometry(cx, rng, samples):
    worst = 0.0
    count = 0
    for mid in cx.maximal_ids:
        orbit = cx.orbit(mid)
        for _ in range(max(1, samples // len(cx.maximal_ids))):
            x = rng.uniform(0.0, 50.0, size=orbit.n_edges)
            y = rng.uniform(0.0, 50.0, size=orbit.n_edges)
            fx = fn.FenchelNielsenPoint(mid, fn.length_coords(x), (0.0,) * len(x))
            fy = fn.FenchelNielsenPoint(mid, fn.length_coords(y), (0.0,) * len(y))
            prod = fn.sup_product_distance(fn.to_plane_coords(fx), fn.to_plane_coords(fy))
            worst = max(worst, abs(prod - orthant_distance(orbit, x, y)))
            count += 1
    return worst <= _ISO_TOL, count, worst, ""


def _suite_same_orbit(cx, rng, samples):
    """distance() never exceeds the symmetry-reduced orthant value.  It
    may fall below it where a gallery of several segments is shorter, as
    on S(0,7); the largest such shortcut goes in the note."""
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
    return worst <= _TRI_TOL, count, worst, note


def _suite_geodesic_consistency(cx, rng, samples):
    """Segment lengths re-sum to the distance.

    This also bounds the distance below by half of every endpoint
    coordinate whose thread the gallery drops.  ``segment_lengths`` pads
    each breakpoint through the transits, so a dropped curve reads 0 from
    the first transit that misses it.  Its coordinate ``x`` falls to 0
    over consecutive segments, each at least half the fall across it, so
    those segments sum to at least ``x / 2``.  The same holds for ``q``'s
    threads read backwards, for the apex route and for rays.
    """
    worst = 0.0
    for _ in range(samples):
        p = _random_point(cx, rng)
        q = _random_point(cx, rng)
        res = distance(p, q)
        segs = segment_lengths(res, p, q)
        if segs:
            worst = max(worst, abs(sum(segs) - res.distance))
    return worst <= _TRI_TOL, samples, worst, ""


def _suite_grid_oracle(cx, rng, samples, mesh):
    from .gridgraph import GridOracle

    oracle = GridOracle(cx, mesh, GRID_BOX)
    units = oracle.units
    ids = [o.id for o in cx.orbits]
    if units == 1 and len(ids) == 1:
        # One orbit with every coordinate at one mesh: a single grid point.
        return True, 0, 0.0, "one grid point, no distinct pair"
    worst = 0.0
    low = 0.0
    for _ in range(samples):
        p = q = None
        while p == q:
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
    note = "grid path shorter than geodesic" if low > _TRI_TOL else ""
    return passed, samples, max(worst, low), note


def check_seed(seed) -> int:
    """``seed`` as an ``int``; one of no integer type
    (``surfaces.as_integer``) or below 0 raises ``ValueError``."""
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_samples(samples) -> int:
    """``samples`` as an ``int``; one of no integer type or below 1
    raises ``ValueError``."""
    samples = as_integer(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return samples


def check_mesh(mesh, cx: QuotientComplex | None = None) -> float | None:
    """``mesh`` as a ``float``, or ``None`` for no mesh.  A mesh must be a
    positive real that divides the grid suite's box side ``GRID_BOX``
    (``gridgraph.box_units``) and, given ``cx``, keep the grid within its
    node cap over ``cx``'s top orbits (``gridgraph.grid_units``); else
    ``ValueError`` is raised."""
    if mesh is None:
        return None
    from . import gridgraph

    if cx is None:
        gridgraph.box_units(mesh, GRID_BOX)
    else:
        gridgraph.grid_units(cx, mesh, GRID_BOX)
    return float(mesh)


def verification_config(cx: QuotientComplex, seed, samples, mesh) -> dict:
    """Check ``run_verification``'s options on ``cx`` and return the
    config its report records, collar constant ``fenchel_nielsen.EPSILON0``
    included.

    Each option has its own check, :func:`check_seed`,
    :func:`check_samples` and :func:`check_mesh` with the node cap on
    ``cx``; the first that fails raises ``ValueError``.  ``curvecone
    verify`` runs the same checks, each naming its option, before it
    builds the complex, and the node cap after.
    """
    seed, samples, mesh = check_seed(seed), check_samples(samples), check_mesh(mesh, cx)
    return {
        "surface": {"genus": cx.surface.genus, "marked_points": cx.surface.marked_points},
        "seed": seed,
        "samples": samples,
        "epsilon0": fn.EPSILON0,
        "mesh": mesh,
        "box": GRID_BOX if mesh is not None else None,
    }


def run_verification(
    cx: QuotientComplex,
    seed: int = 0,
    samples: int = 200,
    mesh: float | None = None,
) -> RunReport:
    """Run every property suite on one complex with a seeded sampler.

    The grid-oracle suite runs only when a mesh is supplied.  Its grid
    has side ``GRID_BOX`` and holds ``(GRID_BOX / mesh + 1) ** n_edges``
    nodes per top orbit, and each sample is one breadth-first search over
    all of them, so a fine mesh on a large complex makes it the slowest
    suite.  Sample counts are scaled down for the heavier suites.

    :func:`verification_config` checks the options before any suite
    runs, so a bad one raises ``ValueError`` whatever the caller checked
    first; the report's ``config`` is what it returns.
    """
    config = verification_config(cx, seed, samples, mesh)
    seed, samples, mesh = config["seed"], config["samples"], config["mesh"]
    import numpy as np  # the seeded sampler, kept off the CLI import path

    # (name, suite, sample budget), in report order; each suite gets its
    # own generator seeded with ``seed`` and returns (passed, samples,
    # worst violation, note).
    suites = [
        ("automorphism_equivariance", _suite_automorphism_equivariance, samples),
        ("complex_structure", _suite_complex_structure, samples),
        ("metric_axioms", _suite_metric_axioms, max(10, samples // 2)),
        ("homogeneity", _suite_homogeneity, max(5, samples // 10)),
        ("orthant_isometry", _suite_orthant_isometry, samples),
        ("same_orbit_consistency", _suite_same_orbit, samples),
        ("geodesic_consistency", _suite_geodesic_consistency, max(10, samples // 2)),
    ]
    if mesh is not None:
        grid = partial(_suite_grid_oracle, mesh=mesh)
        suites.append(("grid_oracle", grid, max(5, samples // 20)))
    results = []
    timings = {}
    for name, suite, budget in suites:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        results.append(SuiteResult(name, *suite(cx, rng, budget)))
        timings[name] = time.perf_counter() - t0
    return RunReport(config, tuple(results), timings)
