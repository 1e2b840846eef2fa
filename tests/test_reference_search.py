"""The exhaustive reference search against ``distance`` and the grid."""

import numpy as np
import pytest

from conftest import SELF_GLUED_DEFECTS, UNIFORM_S07_DEFECTS, complex_for
from curvecone import brute_force_distance, cone_point, distance
from reference_search import reference_distance


def _random_point(cx, rng):
    ids = [o.id for o in cx.orbits]
    oid = ids[rng.integers(len(ids))]
    return cone_point(cx, oid, rng.uniform(0.25, 8.0, size=cx.orbit(oid).n_edges))


@pytest.mark.parametrize(
    "surface", [(1, 2), (2, 0), (1, 3), (0, 7)], ids=lambda s: f"S{s[0]}_{s[1]}"
)
def test_no_revisits_matches_distance(surface):
    # Without revisits both search the same galleries: the library by
    # bounds, screens and its own simplex, the reference by brute force.
    cx = complex_for(*surface)
    rng = np.random.default_rng([*surface, 11])
    for _ in range(4):
        p, q = _random_point(cx, rng), _random_point(cx, rng)
        d = distance(p, q).distance
        assert reference_distance(p, q, 0) == pytest.approx(d, rel=1e-12, abs=1e-300)


def test_apex_endpoints():
    cx = complex_for(1, 2)
    p = _random_point(cx, np.random.default_rng(2))
    apex = cone_point(cx, None)
    assert reference_distance(p, apex, 1) == distance(p, apex).distance
    assert reference_distance(apex, apex, 1) == 0.0


def test_one_revisit_finds_the_s07_shortcut():
    # The S(0,7) defect: a geodesic that leaves its orbit through a
    # self-gluing and comes back.  One revisit reaches the grid's value,
    # which ``distance`` misses (test_gridgraph holds that as an xfail).
    genus, marked, orbit_id, p, q = SELF_GLUED_DEFECTS[0]
    cx = complex_for(genus, marked)
    p, q = cone_point(cx, orbit_id, p), cone_point(cx, orbit_id, q)
    grid = brute_force_distance(p, q, 0.5)
    assert grid == 1.0
    assert reference_distance(p, q, 1) == pytest.approx(grid, rel=1e-12)
    assert distance(p, q).distance == 2.0


def _uniform_s07_pair(case):
    cx = complex_for(0, 7)
    return [cone_point(cx, oid, coords) for oid, coords in UNIFORM_S07_DEFECTS[case]]


@pytest.mark.parametrize("case", [0, 1])
def test_uniform_s07_defect_is_never_below_one_revisit(case):
    # Both instances pin ROADMAP item 1's defect off the grid's mesh:
    # ``distance`` overshoots the search that may revisit one orbit.
    p, q = _uniform_s07_pair(case)
    assert p.coords == UNIFORM_S07_DEFECTS[case][0][1]
    assert q.coords == UNIFORM_S07_DEFECTS[case][1][1]
    reference = reference_distance(p, q, 1)
    assert distance(p, q).distance >= reference - 1e-9 * reference


@pytest.mark.xfail(strict=True, reason="distance misses self-glued returns (ROADMAP item 1)")
@pytest.mark.parametrize("case", [0, 1])
def test_uniform_s07_defect_matches_one_revisit(case):
    p, q = _uniform_s07_pair(case)
    assert distance(p, q).distance == pytest.approx(reference_distance(p, q, 1), rel=1e-9)
