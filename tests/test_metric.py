import numpy as np
import pytest

import curvecone.metric as metric
from conftest import complex_for, orbit_by_structure
from curvecone import (
    ComplexMismatchError,
    OrbitMismatchError,
    apex,
    cone_point,
    distance,
    dropped_edges,
    orthant_distance,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)


def nn_orbit(s12):
    return orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])


def sn_orbit(s12):
    return orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])


# -- orthant-level -------------------------------------------------------------


def test_orthant_distance_examples(s12):
    orbit = nn_orbit(s12)
    assert orthant_distance(orbit, (0, 0), (2, 6)) == 3.0
    assert orthant_distance(orbit, (1, 5), (1, 5)) == 0.0
    assert orthant_distance(orbit, (5, 1), (1, 5)) == 2.0


def test_orthant_distance_rejects_mismatch(s12):
    with pytest.raises(OrbitMismatchError):
        orthant_distance(nn_orbit(s12), (1, 2, 3), (0, 0))


def test_symmetric_orthant_examples(s12):
    orbit = nn_orbit(s12)
    assert symmetric_orthant_distance(orbit, (1, 3), (3, 1)) == 0.0
    assert symmetric_orthant_distance(orbit, (1, 3), (1, 3)) == 0.0
    # Direct: max(4, 2)/2 = 2; swapped: max(2, 0)/2 = 1.
    assert symmetric_orthant_distance(orbit, (0, 4), (4, 2)) == 1.0


# -- canonical points ------------------------------------------------------------


def test_zero_coordinates_drop_to_face(s12):
    sn = sn_orbit(s12)
    p = cone_point(s12, sn.id, (0.0, 4.0))
    assert p.orbit_id != sn.id
    assert p.coords == (4.0,)
    assert cone_point(s12, sn.id, (0.0, 0.0)).is_apex


def test_canonical_reduction_by_symmetry(s12):
    nn = nn_orbit(s12)
    a = cone_point(s12, nn.id, (5.0, 2.0))
    b = cone_point(s12, nn.id, (2.0, 5.0))
    assert a == b
    assert a.coords == (2.0, 5.0)


def test_coordinate_validation(s12):
    nn = nn_orbit(s12)
    with pytest.raises(OrbitMismatchError):
        cone_point(s12, nn.id, {"5": 1.0})
    with pytest.raises(ValueError):
        cone_point(s12, nn.id, (-1.0, 2.0))
    with pytest.raises(ValueError):
        cone_point(s12, nn.id, (float("nan"), 2.0))
    with pytest.raises(ValueError):
        cone_point(s12, None, (1.0,))
    # Two keys naming one edge would let the last one win silently.
    with pytest.raises(OrbitMismatchError, match="edge 0"):
        cone_point(s12, nn.id, {"0": 1.0, "00": 2.0})
    for bad in (5, (None, 2.0), (True, 2.0), "12", {"0": "1.0"}, {"x": 1.0}):
        with pytest.raises(ValueError):
            cone_point(s12, nn.id, bad)
    with pytest.raises(ValueError):
        cone_point(s12, None, 5)


def test_point_json_roundtrip(s12):
    from curvecone import point_from_dict

    nn = nn_orbit(s12)
    p = cone_point(s12, nn.id, (1.5, 0.5))
    again = point_from_dict(s12, __import__("json").loads(p.to_json()))
    assert again == p


# -- distance: structure ----------------------------------------------------------


def test_within_orbit_distance_is_symmetric_value(s12):
    rng = np.random.default_rng(7)
    for orbit in s12.orbits:
        for _ in range(25):
            x = rng.uniform(0.3, 8.0, size=orbit.n_edges)
            y = rng.uniform(0.3, 8.0, size=orbit.n_edges)
            d = distance(cone_point(s12, orbit.id, x), cone_point(s12, orbit.id, y))
            s = symmetric_orthant_distance(orbit, x, y)
            assert d.distance == pytest.approx(s, abs=1e-9)


def test_apex_ray(s12):
    nn = nn_orbit(s12)
    q = cone_point(s12, nn.id, (3.0, 7.0))
    assert distance(apex(s12), q).distance == pytest.approx(3.5)
    assert distance(q, apex(s12)).distance == pytest.approx(3.5)
    assert distance(apex(s12), apex(s12)).distance == 0.0


def test_cross_orbit_geodesic(s12):
    sn, nn = sn_orbit(s12), nn_orbit(s12)
    p = cone_point(s12, sn.id, (0.0, 4.0))  # separating curve only
    q = cone_point(s12, nn.id, (2.0, 2.0))
    res = distance(p, q)
    assert res.distance == pytest.approx(3.0, abs=1e-9)
    assert res.gallery.orbit_ids == (sn.id, nn.id)
    segs = segment_lengths(res, p, q)
    assert sum(segs) == pytest.approx(res.distance, abs=1e-9)


def test_geodesic_breakpoints_on_shared_face(s12):
    sn, nn = sn_orbit(s12), nn_orbit(s12)
    p = cone_point(s12, sn.id, (2.0, 6.0))
    q = cone_point(s12, nn.id, (1.0, 5.0))
    res = distance(p, q)
    assert len(res.breakpoints) == len(res.gallery.transits)
    for w, t in zip(res.breakpoints, res.gallery.transits):
        assert len(w) == len(t.into_source)
        assert all(v >= -1e-12 for v in w)


def test_apex_route_loses_a_tie(s12):
    # The apex route costs (1 + 1) / 2, exactly the distance; the gallery
    # of equal length through both top orbits wins the tie.
    p = cone_point(s12, "d0-ebcd619b47", [1])
    q = cone_point(s12, "d1-57fb6950d4", [1, 1])
    res = distance(p, q)
    assert res.distance == 0.5 * (p.max_coord + q.max_coord) == 1.0
    assert res.gallery.orbit_ids == ("d1-a2f55d89d8", "d1-57fb6950d4")
    assert all(t.face_id != "apex" for t in res.gallery.transits)


def test_least_orbit_sequence_wins_a_tie(s12):
    # The curve lies on both top orbits, and the one-orbit gallery in
    # either has value 0.5; the lexicographically least one wins.
    p = cone_point(s12, "d0-d9f7d07a62", [1])
    q = cone_point(s12, "d0-d9f7d07a62", [2])
    for top in s12.maximal_ids:
        values = [
            metric._gallery_lp(s12, [top], [], emb_p, p, emb_q, q)[0]
            for emb_p in s12.embeddings(p.orbit_id, top)
            for emb_q in s12.embeddings(q.orbit_id, top)
        ]
        assert min(values) == 0.5
    res = distance(p, q)
    assert res.distance == 0.5
    assert res.gallery.orbit_ids == ("d1-57fb6950d4",)


def test_longer_gallery_of_lower_rank_wins_a_tie(s12):
    # The one-orbit gallery closes first at 0.5; a prefix of equal bound
    # that ranks below it must still be expanded, and its completion wins.
    p = cone_point(s12, "d0-d9f7d07a62", [1])
    q = cone_point(s12, "d1-a2f55d89d8", [2, 1])
    res = distance(p, q)
    assert res.distance == 0.5
    assert res.gallery.orbit_ids == ("d1-57fb6950d4", "d1-a2f55d89d8")


def test_coordinate_drop_lower_bound(s12):
    rng = np.random.default_rng(3)
    ids = [o.id for o in s12.orbits]
    for _ in range(40):
        oid_p = ids[rng.integers(len(ids))]
        oid_q = ids[rng.integers(len(ids))]
        p = cone_point(s12, oid_p, rng.uniform(0.3, 8, size=s12.orbit(oid_p).n_edges))
        q = cone_point(s12, oid_q, rng.uniform(0.3, 8, size=s12.orbit(oid_q).n_edges))
        res = distance(p, q)
        fwd, bwd = dropped_edges(res, p, q)
        for _c, x in fwd + bwd:
            assert res.distance >= 0.5 * x - 1e-9


def test_identity_of_indiscernibles(s12):
    nn = nn_orbit(s12)
    p = cone_point(s12, nn.id, (1.0, 2.0))
    assert distance(p, p).distance == 0.0
    q = cone_point(s12, nn.id, (2.0, 1.0))  # same class under the swap
    assert distance(p, q).distance == 0.0
    assert p == q


def test_different_complexes_rejected(s12, s11):
    p = cone_point(s12, s12.orbits[0].id, (1.0,))
    q = cone_point(s11, s11.orbits[0].id, (1.0,))
    with pytest.raises(ComplexMismatchError):
        distance(p, q)


# -- scaling ----------------------------------------------------------------------


def test_scale_examples(s12):
    nn = nn_orbit(s12)
    p = cone_point(s12, nn.id, (1.0, 2.0))
    assert scale(p, 1.0) == p
    assert scale(apex(s12), 5.0).is_apex
    with pytest.raises(ValueError):
        scale(p, 0.0)
    with pytest.raises(ValueError):
        scale(p, -2.0)
    # Finite positive results keep their bits.
    assert scale(p, 3.0).coords == (3.0, 6.0)
    # The result is a cone point: overflow is rejected as cone_point
    # rejects an infinite coordinate ...
    for lam in (float("inf"), 1e308):
        with pytest.raises(ValueError, match="finite"):
            scale(p, lam)
    # ... and a coordinate that underflows to 0 drops onto its face.
    tiny = scale(cone_point(s12, nn.id, (1e-200, 2.0)), 1e-200)
    assert tiny == cone_point(s12, nn.id, (0.0, 2e-200))
    assert tiny.orbit_id != nn.id and tiny.coords == (2e-200,)


def test_homogeneity_property(s12):
    rng = np.random.default_rng(11)
    ids = [o.id for o in s12.orbits]
    for _ in range(20):
        oid_p = ids[rng.integers(len(ids))]
        oid_q = ids[rng.integers(len(ids))]
        p = cone_point(s12, oid_p, rng.uniform(0.3, 8, size=s12.orbit(oid_p).n_edges))
        q = cone_point(s12, oid_q, rng.uniform(0.3, 8, size=s12.orbit(oid_q).n_edges))
        base = distance(p, q).distance
        for lam in (0.1, 1.0, 7.3):
            got = distance(scale(p, lam), scale(q, lam)).distance
            assert got == pytest.approx(lam * base, rel=1e-9)


# -- metric axioms on samples --------------------------------------------------------


def _random_point(cx, rng):
    ids = [o.id for o in cx.orbits]
    oid = ids[rng.integers(len(ids))]
    return cone_point(cx, oid, rng.uniform(0.3, 8, size=cx.orbit(oid).n_edges))


@pytest.mark.parametrize("surface", [(1, 2), (0, 5), (1, 1), (0, 4)])
def test_metric_axioms_sampled(surface):
    cx = complex_for(*surface)
    rng = np.random.default_rng(hash(surface) % (2**32))
    for _ in range(30):
        p, q, r = (_random_point(cx, rng) for _ in range(3))
        dpq = distance(p, q).distance
        dqp = distance(q, p).distance
        assert dpq == pytest.approx(dqp, abs=1e-7)
        assert dpq <= distance(p, r).distance + distance(r, q).distance + 1e-7


def test_revisit_budget_never_improves(s12):
    rng = np.random.default_rng(23)
    for _ in range(15):
        p = _random_point(s12, rng)
        q = _random_point(s12, rng)
        d0 = distance(p, q).distance
        d1 = distance(p, q, revisit_budget=1).distance
        assert d1 <= d0 + 1e-9
        assert d0 - d1 <= 1e-7


def test_negative_revisit_budget_rejected(s12):
    # A negative budget would expand no gallery prefix at all and quietly
    # return a single-orbit or apex route.
    p = cone_point(s12, nn_orbit(s12).id, (1.0, 3.0))
    q = cone_point(s12, sn_orbit(s12).id, (2.0, 5.0))
    with pytest.raises(ValueError, match="revisit_budget"):
        distance(p, q, revisit_budget=-1)


def test_s2_three_dimensional_distances(s2):
    theta, dumbbell = sorted(s2.maximal_ids)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = cone_point(s2, theta, rng.uniform(0.3, 6, size=3))
        q = cone_point(s2, dumbbell, rng.uniform(0.3, 6, size=3))
        res = distance(p, q)
        apex_bound = 0.5 * p.max_coord + 0.5 * q.max_coord
        assert 0.0 < res.distance <= apex_bound + 1e-12
        segs = segment_lengths(res, p, q)
        assert sum(segs) == pytest.approx(res.distance, abs=1e-8)
