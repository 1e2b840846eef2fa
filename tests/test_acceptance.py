"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and sample size is pinned here; the runtime limits are
asserted with generous headroom against the implementation's actual
speed so they hold on slow machines without masking regressions.
"""

import time

import numpy as np
import pytest

from conftest import complex_for, orbit_by_structure
from curvecone import (
    GridOracle,
    Surface,
    build_complex,
    cone_point,
    distance,
    extensions,
    length_coords,
    orthant_distance,
    scale,
    sup_product_distance,
    to_plane_coords,
)
from curvecone.fenchel_nielsen import EPSILON0, FenchelNielsenPoint
from graph_oracle import count_classes
from reference_search import reference_distance

SUPPORTED = [(0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1)]
LOW_COMPLEXITY = [(0, 4), (0, 5), (1, 1), (1, 2)]


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_figure_complex():
    """Twice-marked torus orbicomplex: 2 vertex orbits, 2 edge orbits, the
    right symmetry on each edge orbit, in under a second."""
    t0 = time.perf_counter()
    cx = build_complex(Surface(1, 2))
    elapsed = time.perf_counter() - t0

    ok = cx.orbit_counts() == {0: 2, 1: 2}
    nn = orbit_by_structure(cx, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    sn = orbit_by_structure(cx, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    ok = ok and set(nn.automorphisms) == {(0, 1), (1, 0)}
    ok = ok and set(sn.automorphisms) == {(0, 1)}
    nn_targets = [fm.target for fm in cx.face_maps if fm.source == nn.id]
    ok = ok and len(cx.face_maps) == 4
    ok = ok and len(nn_targets) == 2 and len(set(nn_targets)) == 1
    ok = ok and elapsed < 1.0
    _report(
        1, ok,
        f"S_1,2 complex: counts {cx.orbit_counts()}, swap symmetry on the "
        f"nonsep/nonsep orbit, identity on the other, built in {elapsed:.3f}s",
    )


def test_criterion_2_dimension_formula():
    """Top dimension 3g-4+n and all-pants maximal orbits for every
    supported surface, within 30 s of fresh builds."""
    t0 = time.perf_counter()
    worst = None
    ok = True
    for g, n in SUPPORTED:
        cx = build_complex(Surface(g, n))
        d = cx.surface.complexity
        if cx.max_dim != d - 1:
            ok = False
            worst = (g, n, "dimension")
        for mid in cx.maximal_ids:
            graph = cx.orbit(mid).graph
            degs = graph.validate()[0]
            if len(graph.edges) != d:
                ok = False
                worst = (g, n, "edge count")
            for v, dec in enumerate(graph.vertices):
                if dec.piece_genus != 0 or dec.piece_marked + degs[v] != 3:
                    ok = False
                    worst = (g, n, "pants")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        2, ok,
        f"{len(SUPPORTED)} surfaces, max dim = 3g-4+n and all-pants maximal "
        f"orbits, built in {elapsed:.2f}s" + (f"; first failure {worst}" if worst else ""),
    )


def test_criterion_3_enumeration_vs_oracle():
    """Orbit counts equal the brute-force pairwise-isomorphism oracle."""
    cases = [(2, 0, 1), (2, 0, 2), (2, 0, 3), (0, 5, 1), (0, 5, 2)]
    rows = []
    ok = True
    for g, n, k in cases:
        mine = len(complex_for(g, n).orbits_of_dim(k - 1))
        ref = count_classes(g, n, k)
        rows.append(f"S_{g},{n} k={k}: {mine} vs oracle {ref}")
        ok = ok and mine == ref
    _report(3, ok, "; ".join(rows))


def test_criterion_4_orthant_isometry():
    """Half-plane product distance of the coordinate images matches the
    half-sup orthant distance to 1e-9, 1000 pairs per surface, under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for g, n in SUPPORTED:
        cx = complex_for(g, n)
        rng = np.random.default_rng(g * 100 + n)
        mids = cx.maximal_ids
        per_orbit = 1000 // len(mids) + 1
        for mid in mids:
            orbit = cx.orbit(mid)
            k = orbit.n_edges
            xs = rng.uniform(0, 50, size=(per_orbit, k))
            ys = rng.uniform(0, 50, size=(per_orbit, k))
            for x, y in zip(xs, ys):
                fx = FenchelNielsenPoint(mid, length_coords(x), (0.0,) * k)
                fy = FenchelNielsenPoint(mid, length_coords(y), (0.0,) * k)
                prod = sup_product_distance(to_plane_coords(fx), to_plane_coords(fy))
                worst = max(worst, abs(prod - orthant_distance(orbit, x, y)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        4, ok,
        f">=1000 pairs per surface, worst deviation {worst:.2e} (tol 1e-9), "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_metric_axioms_and_homogeneity():
    """Triangle inequality within 1e-7 and exact scaling within relative
    1e-9 for lambda in {0.1, 1, 7.3} on 500 sampled triples."""
    t0 = time.perf_counter()
    worst_tri = 0.0
    worst_scale = 0.0
    triples_per = 500 // len(LOW_COMPLEXITY)
    for g, n in LOW_COMPLEXITY:
        cx = complex_for(g, n)
        rng = np.random.default_rng(1000 + 10 * g + n)
        ids = [o.id for o in cx.orbits]

        def rand_point():
            oid = ids[rng.integers(len(ids))]
            return cone_point(cx, oid, rng.uniform(0.2, 8.0, size=cx.orbit(oid).n_edges))

        for _ in range(triples_per):
            p, q, r = rand_point(), rand_point(), rand_point()
            dpq = distance(p, q).distance
            worst_tri = max(
                worst_tri,
                dpq - (distance(p, r).distance + distance(r, q).distance),
            )
            for lam in (0.1, 1.0, 7.3):
                scaled = distance(scale(p, lam), scale(q, lam)).distance
                worst_scale = max(
                    worst_scale, abs(scaled - lam * dpq) / max(lam * dpq, 1e-300)
                )
    elapsed = time.perf_counter() - t0
    ok = worst_tri <= 1e-7 and worst_scale <= 1e-9 and elapsed < 300.0
    _report(
        5, ok,
        f"{triples_per * len(LOW_COMPLEXITY)} triples: triangle slack "
        f"{worst_tri:.2e} (tol 1e-7), scaling error {worst_scale:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def oracle_instances():
    """50 cross-orbit instance pairs on the twice-marked torus, mesh-aligned."""
    cx = complex_for(1, 2)
    rng = np.random.default_rng(42)
    ids = [o.id for o in cx.orbits]
    pairs = []
    while len(pairs) < 50:
        oid_p = ids[rng.integers(len(ids))]
        oid_q = ids[rng.integers(len(ids))]
        p = cone_point(cx, oid_p, 0.05 * rng.integers(1, 161, size=cx.orbit(oid_p).n_edges))
        q = cone_point(cx, oid_q, 0.05 * rng.integers(1, 161, size=cx.orbit(oid_q).n_edges))
        if p.orbit_id != q.orbit_id:
            pairs.append((p, q))
    return cx, pairs


def test_criterion_6_lp_vs_grid_oracle(oracle_instances):
    """Gallery-LP distance agrees with the mesh-0.05 grid oracle to
    2*mesh = 0.1 on 50 cross-orbit instances, within 10 minutes."""
    cx, pairs = oracle_instances
    t0 = time.perf_counter()
    oracle = GridOracle(cx, mesh=0.05, box=8.0)
    worst = 0.0
    undershoot = 0.0
    for p, q in pairs:
        d = distance(p, q).distance
        bf = oracle.distance(p, q)
        worst = max(worst, abs(bf - d))
        undershoot = max(undershoot, d - bf)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.1 and undershoot <= 1e-7 and elapsed < 600.0
    _report(
        6, ok,
        f"50 instances, worst |lp - grid| {worst:.3g} (tol 0.1), grid never "
        f"below lp by more than {undershoot:.1e}, {elapsed:.1f}s",
    )


def test_criterion_7_simple_galleries_suffice(oracle_instances):
    """An exhaustive search that may revisit one orbit, scored by scipy,
    improves on no instance by more than 1e-7."""
    _cx, pairs = oracle_instances
    worst = 0.0
    for p, q in pairs:
        d0 = distance(p, q).distance
        d1 = reference_distance(p, q, 1)
        worst = max(worst, d0 - d1)
    ok = worst <= 1e-7
    _report(7, ok, f"50 instances, best improvement from a revisit {worst:.2e}")


def test_criterion_8_well_definedness():
    """Face-supported points: all pants-type extensions agree exactly on
    shared curves and assign exactly EPSILON0 to complementary curves."""
    bad = 0
    total = 0
    for g, n in [(1, 2), (2, 0)]:
        cx = complex_for(g, n)
        eligible = [
            o.id
            for o in cx.orbits
            if o.id not in cx.maximal_ids and len(cx.maximal_embeddings(o.id)) >= 2
        ]
        rng = np.random.default_rng(17 + g)
        for _ in range(50):
            oid = eligible[rng.integers(len(eligible))]
            p = cone_point(cx, oid, rng.uniform(0.2, 8.0, size=cx.orbit(oid).n_edges))
            exts = extensions(p)
            total += 1
            for i in range(len(exts)):
                for j in range(i + 1, len(exts)):
                    _m1, e1, f1 = exts[i]
                    _m2, e2, f2 = exts[j]
                    if any(
                        f1.lengths[e1[c]] != f2.lengths[e2[c]]
                        for c in range(len(p.coords))
                    ):
                        bad += 1
            for _mid, emb, fpt in exts:
                if any(
                    fpt.lengths[e] != EPSILON0
                    for e in range(len(fpt.lengths))
                    if e not in emb
                ):
                    bad += 1
    ok = bad == 0 and total == 100
    _report(
        8, ok,
        f"{total} face-supported points on S_1,2 and S_2, {bad} extension "
        f"mismatches (shared curves bitwise equal, complements exactly eps0)",
    )
