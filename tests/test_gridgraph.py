import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import SELF_GLUED_CENSUS, SELF_GLUED_DEFECTS, complex_for, orbit_by_structure
from curvecone import (
    ComplexMismatchError,
    GridOracle,
    Surface,
    apex,
    brute_force_distance,
    build_complex,
    cone_point,
    distance,
    orthant_distance,
)
from curvecone.gridgraph import grid_units
from test_acceptance import SUPPORTED


@pytest.fixture(scope="module")
def oracle(s12):
    return GridOracle(s12, mesh=0.25, box=8.0)


def test_same_orbit_aligned_is_exact(s12, oracle):
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    x, y = (4.0, 1.0), (2.0, 3.0)
    p = cone_point(s12, sn.id, x)
    q = cone_point(s12, sn.id, y)
    assert oracle.distance(p, q) == orthant_distance(sn, x, y) == 1.0


def test_apex_ray_is_exact(s12, oracle):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    q = cone_point(s12, nn.id, (2.0, 6.0))
    assert oracle.distance(apex(s12), q) == 3.0


def test_cross_orbit_agreement(s12, oracle):
    rng = np.random.default_rng(2)
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    for _ in range(12):
        p = cone_point(s12, sn.id, 0.25 * rng.integers(1, 33, size=2))
        q = cone_point(s12, nn.id, 0.25 * rng.integers(1, 33, size=2))
        d = distance(p, q).distance
        bf = oracle.distance(p, q)
        assert bf >= d - 1e-9
        assert bf - d <= 2 * 0.25


def test_worked_cross_orbit_instance(s12, oracle):
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p = cone_point(s12, sn.id, (0.0, 4.0))
    q = cone_point(s12, nn.id, (2.0, 2.0))
    assert oracle.distance(p, q) == pytest.approx(3.0)


def test_identified_points_at_zero_distance(s12, oracle):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p = cone_point(s12, nn.id, (1.0, 3.0))
    q = cone_point(s12, nn.id, (3.0, 1.0))
    assert oracle.distance(p, q) == 0.0


def test_misaligned_coordinates_rejected(s12, oracle):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    q = cone_point(s12, nn.id, (1.0, 1.0))
    # Off the mesh, and positive but rounding to zero mesh units.
    for coords in [(1.01, 3.0), (1e-7, 2.0)]:
        p = cone_point(s12, nn.id, coords)
        with pytest.raises(ValueError, match="aligned"):
            oracle.distance(p, q)


def test_points_of_another_complex_rejected(s12, oracle):
    # A point of another complex is refused before any lookup in the
    # oracle's tables, where two S(0,5) top-orbit points would raise
    # KeyError and two S(0,5) apexes would be at distance 0.
    s05 = complex_for(0, 5)
    p = cone_point(s05, s05.maximal_ids[0], (1.0, 2.0))
    for pair in [(p, p), (apex(s05), apex(s05)), (apex(s12), p), (p, apex(s12))]:
        with pytest.raises(ComplexMismatchError):
            oracle.distance(*pair)
    # A point of a rebuilt, equal complex is a point of the oracle's.
    again = build_complex(Surface(1, 2))
    nn = orbit_by_structure(again, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    assert oracle.distance(apex(again), cone_point(again, nn.id, (2.0, 6.0))) == 3.0


def test_box_too_small_rejected(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p = cone_point(s12, nn.id, (1.0, 9.0))
    q = cone_point(s12, nn.id, (1.0, 1.0))
    with pytest.raises(ValueError, match="exceeds the box bound"):
        GridOracle(s12, 0.5, 4.0).distance(p, q)


@pytest.mark.parametrize(
    "mesh, box, message",
    [
        (0.0, 8.0, "mesh must be positive"),
        (0.5, -1.0, "box must be positive"),
        (0.3, 8.0, "positive multiple"),
        (1e-320, 8.0, "too fine"),
        (1e-4, 8.0, "coarsen the mesh"),
        # The message printed the node count, about 600 digits here.
        (1e-300, 8.0, "more than 5000000 nodes; coarsen the mesh"),
        # A bool compares like a number and a string raised a bare TypeError.
        (True, 8.0, "mesh must be a real number"),
        ("0.5", 4.0, "mesh must be a real number"),
        (0.5, True, "box must be a real number"),
    ],
)
def test_grid_configuration_rejected(s12, mesh, box, message):
    # Checked up front, before any grid is allocated.
    with pytest.raises(ValueError, match=message):
        grid_units(s12, mesh, box)
    with pytest.raises(ValueError, match=message):
        GridOracle(s12, mesh, box)


@pytest.mark.parametrize("mesh", [0.0, -0.5, float("nan"), float("inf"), "0.5", None, True])
def test_one_shot_wrapper_rejects_degenerate_mesh(s12, mesh):
    # 0 used to divide by zero and nan or inf to fail converting to int,
    # both while computing the default box.  A string or None raised a
    # bare TypeError.
    p = cone_point(s12, s12.maximal_ids[0], [1.0, 2.0])
    message = "mesh must be positive" if isinstance(mesh, float) else "mesh must be a real number"
    with pytest.raises(ValueError, match=message):
        brute_force_distance(p, p, mesh=mesh)


def test_one_shot_wrapper_defaults(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p = cone_point(s12, nn.id, (1.0, 2.0))
    q = cone_point(s12, nn.id, (2.0, 4.0))
    assert brute_force_distance(p, q, mesh=0.5) == pytest.approx(1.0)


def test_three_dimensional_orbits(s2):
    oracle = GridOracle(s2, mesh=0.5, box=4.0)
    theta, dumbbell = sorted(s2.maximal_ids)
    rng = np.random.default_rng(4)
    for _ in range(4):
        p = cone_point(s2, theta, 0.5 * rng.integers(1, 9, size=3))
        q = cone_point(s2, dumbbell, 0.5 * rng.integers(1, 9, size=3))
        d = distance(p, q).distance
        bf = oracle.distance(p, q)
        assert bf >= d - 1e-9
        assert bf - d <= 2 * 0.5


def test_richer_complex_with_three_top_orbits():
    # Galleries over more than two top orbits, checked against the grid.
    from curvecone import Surface, build_complex

    cx = build_complex(Surface(1, 3))
    assert len(cx.maximal_ids) == 3
    oracle = GridOracle(cx, mesh=0.5, box=4.0)
    rng = np.random.default_rng(6)
    ids = [o.id for o in cx.orbits]
    for _ in range(10):
        oid_p = ids[rng.integers(len(ids))]
        oid_q = ids[rng.integers(len(ids))]
        p = cone_point(cx, oid_p, 0.5 * rng.integers(1, 9, size=cx.orbit(oid_p).n_edges))
        q = cone_point(cx, oid_q, 0.5 * rng.integers(1, 9, size=cx.orbit(oid_q).n_edges))
        d = distance(p, q).distance
        bf = oracle.distance(p, q)
        assert bf >= d - 1e-9
        assert bf - d <= 2 * 0.5


def reference_class_ids(cx, units):
    """The node classes one node at a time: each node of every top orbit,
    in node order, keyed by ``cx.reduce`` and numbered on first sight."""
    class_of_key = {}
    ids = []
    for oid in cx.maximal_ids:
        for ivec in product(range(units + 1), repeat=cx.orbit(oid).n_edges):
            ids.append(class_of_key.setdefault(cx.reduce(oid, ivec), len(class_of_key)))
    return np.array(ids, dtype=np.int64), len(class_of_key)


def reference_dilate(oracle, frontier):
    """One Chebyshev step as the union of all 3^m - 1 shifted copies of
    each block; the frontier itself is not included."""
    out = np.zeros_like(frontier)
    for (lo, hi), shape in zip(oracle._blocks, oracle._shapes):
        f = frontier[lo:hi].reshape(shape)
        o = out[lo:hi].reshape(shape)
        for delta in product((-1, 0, 1), repeat=len(shape)):
            if not any(delta):
                continue
            src = tuple(
                slice(1, None) if d == -1 else slice(None, -1) if d == 1 else slice(None)
                for d in delta
            )
            dst = tuple(
                slice(None, -1) if d == -1 else slice(1, None) if d == 1 else slice(None)
                for d in delta
            )
            o[dst] |= f[src]
    return out


@pytest.mark.parametrize(
    "mesh, box, genus, marked",
    [
        *(
            (mesh, box, genus, marked)
            for mesh, box in [(1.0, 4.0), (0.5, 3.0)]
            for genus, marked in [(1, 2), (2, 0), (0, 6), (1, 3), (0, 7), (2, 1)]
        ),
        # The grid of `curvecone verify -g 2 -n 0 --mesh 0.25`: 71 874
        # nodes, two top orbits of 33^3.
        (0.25, 8.0, 2, 0),
    ],
)
def test_class_table_matches_reduce_reference(mesh, box, genus, marked):
    oracle = GridOracle(complex_for(genus, marked), mesh, box)
    ids, n_classes = reference_class_ids(oracle.cx, oracle.units)
    assert oracle._class_id.dtype == ids.dtype
    np.testing.assert_array_equal(oracle._class_id, ids)
    assert oracle.n_classes == n_classes
    assert oracle.n_nodes == len(ids)


@pytest.mark.parametrize("genus, marked, bytes_per_node", [(0, 8, 40), (1, 5, 32)])
def test_class_table_construction_memory(genus, marked, bytes_per_node):
    # The table is built in place, one face's support patterns at a
    # time: 8 bytes a node for the table and at most 32 for each node of
    # the largest face's patterns.  numpy reports its buffers to
    # tracemalloc, so the traced peak repeats exactly.
    cx = complex_for(genus, marked)
    GridOracle(cx, 0.5, 4.0)  # fills the complex's face caches untraced
    tracemalloc.start()
    try:
        oracle = GridOracle(cx, 0.5, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_node * oracle.n_nodes


@pytest.mark.parametrize("genus, marked, m", [(1, 2, 2), (2, 0, 3), (0, 7, 4)])
def test_axis_dilation_matches_shift_union(genus, marked, m):
    oracle = GridOracle(complex_for(genus, marked), 1.0, 4.0)
    assert set(oracle._dims) == {m}
    rng = np.random.default_rng(m)
    for density in (0.002, 0.05, 0.5):
        frontier = rng.random(oracle.n_nodes) < density
        np.testing.assert_array_equal(
            oracle._dilate(frontier), reference_dilate(oracle, frontier) | frontier
        )


@pytest.mark.parametrize("genus, marked", [(1, 2), (2, 0), (0, 7)])
def test_point_lookup_matches_class_table(genus, marked):
    # Each node's point reduces onto its face, whose first top-orbit
    # embedding may place it at another node of the same class.
    cx = complex_for(genus, marked)
    oracle = GridOracle(cx, 1.0, 4.0)
    assert oracle._class_of(apex(cx)) == oracle._class_id[0]
    node = 0
    for oid in cx.maximal_ids:
        for ivec in product(range(oracle.units + 1), repeat=cx.orbit(oid).n_edges):
            p = cone_point(cx, oid, ivec)
            assert oracle._class_of(p) == oracle._class_id[node]
            node += 1
    assert node == oracle.n_nodes


@pytest.mark.parametrize("genus, marked", sorted({*SUPPORTED, *SELF_GLUED_CENSUS}))
def test_self_gluing_census(genus, marked):
    cx = complex_for(genus, marked)
    count = sum(
        t.face_id != x for x in cx.maximal_ids for t in cx.transits(x, x)
    )
    assert count == SELF_GLUED_CENSUS.get((genus, marked), 0)


# ROADMAP item 1: ``distance`` visits each top orbit at most once, so it
# misses geodesics that leave a top orbit through a face glued to the
# orbit itself and come back in.  These pass once that is fixed; then the
# markers go.
@pytest.mark.xfail(strict=True, reason="distance misses self-glued returns (ROADMAP item 1)")
@pytest.mark.parametrize("genus, marked, orbit_id, p, q", SELF_GLUED_DEFECTS)
def test_self_glued_orbit_distance_matches_grid(genus, marked, orbit_id, p, q):
    cx = complex_for(genus, marked)
    p, q = cone_point(cx, orbit_id, p), cone_point(cx, orbit_id, q)
    assert distance(p, q).distance == brute_force_distance(p, q, 0.5)
