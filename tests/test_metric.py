import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecone.metric as metric
from conftest import complex_for, orbit_by_structure
from curvecone import (
    ComplexMismatchError,
    OrbitMismatchError,
    apex,
    cone_point,
    distance,
    orthant_distance,
    point_from_dict,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)
from curvecone.lp import MAX_COORD
from reference_search import gallery_program, reference_distance


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
        cone_point(s12, nn.id, {"0": 1.0, 0: 2.0})
    # float() reads numpy.True_ as 1.0, as it reads True.
    for bad in (5, (None, 2.0), (True, 2.0), (np.True_, 2.0), {"0": np.False_}, "12",
                {"0": "1.0"}, {"x": 1.0}, {"00": 1.0}):
        with pytest.raises(ValueError):
            cone_point(s12, nn.id, bad)
    # An int past the float range used to raise OverflowError.
    for huge in ((10**400, 1.0), {"0": 10**400}, (-(10**400), 1.0)):
        with pytest.raises(ValueError, match="float range"):
            cone_point(s12, nn.id, huge)
    assert cone_point(s12, nn.id, (np.float32(1.5), np.int64(2))).coords == (1.5, 2.0)
    with pytest.raises(ValueError):
        cone_point(s12, None, 5)


# JSON-like values: nested lists and objects, ints past the float range,
# nan and inf, strings and bools.
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.integers()
    | st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1"]) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@given(orbit=st.sampled_from(["TOP", "FACE", None, "apex"]) | _JSON_LIKE, coords=_JSON_LIKE)
@example(orbit="TOP", coords=[2**1024, 1.0])
@settings(max_examples=300, deadline=None)
def test_point_from_dict_raises_only_value_or_key_errors(s12, orbit, coords):
    # "TOP" and "FACE" stand for a top orbit's id and a vertex orbit's.
    from curvecone import point_from_dict
    from curvecone.metric import SCHEMA_POINT

    if isinstance(orbit, str):
        orbit = {"TOP": s12.maximal_ids[0], "FACE": s12.orbits_of_dim(0)[0].id}.get(orbit, orbit)
    try:
        point_from_dict(s12, {"schema_version": SCHEMA_POINT, "orbit": orbit, "coords": coords})
    except (ValueError, KeyError):
        pass


def test_apex_takes_no_coordinates(s12):
    # Any key or entry used to pass at the apex if its value was a zero.
    from curvecone import point_from_dict
    from curvecone.metric import SCHEMA_POINT

    for orbit_id, coords in ((None, {"x": 0.0, True: 0.0, 1.5: 0.0}), ("apex", [0.0] * 9)):
        with pytest.raises(OrbitMismatchError, match="apex has no edges"):
            cone_point(s12, orbit_id, coords)
    with pytest.raises(OrbitMismatchError, match="apex has no edges"):
        point_from_dict(s12, {"schema_version": SCHEMA_POINT, "orbit": None, "coords": {"7": 0.0}})
    with pytest.raises(ValueError, match="must be a list or an object"):
        cone_point(s12, None, "")
    for orbit_id in (None, "apex"):
        for empty in ({}, [], ()):
            assert cone_point(s12, orbit_id, empty) == apex(s12)


def test_point_from_dict_names_a_missing_orbit(s12):
    from curvecone import point_from_dict
    from curvecone.metric import SCHEMA_POINT

    with pytest.raises(ValueError, match="lacks 'orbit'"):
        point_from_dict(s12, {"schema_version": SCHEMA_POINT, "coords": [1.0, 2.0]})


def test_point_from_dict_names_missing_coords(s12):
    # A payload without coords used to be read as the apex.
    from curvecone import point_from_dict
    from curvecone.metric import SCHEMA_POINT

    for orbit_id in (s12.maximal_ids[0], None):
        with pytest.raises(ValueError, match="lacks 'coords'"):
            point_from_dict(s12, {"schema_version": SCHEMA_POINT, "orbit": orbit_id})
    again = point_from_dict(s12, __import__("json").loads(apex(s12).to_json()))
    assert again.is_apex


def test_coordinate_keys_are_integers_or_strings(s12):
    # True and 1.0 used to read as edge 1, and 1.5 as int(1.5) == 1.
    nn = nn_orbit(s12)
    for key in (True, np.True_, 1.0, 1.5):
        with pytest.raises(OrbitMismatchError, match="is not an integer"):
            cone_point(s12, nn.id, {key: 2.0, "0": 1.0})
    expected = cone_point(s12, nn.id, {"1": 2.0, "0": 1.0})
    assert cone_point(s12, nn.id, {np.int64(1): 2.0, 0: 1.0}) == expected


def test_bytes_are_no_coordinate_list(s12):
    # list(b"\x01\x02") is [1, 2], which used to read as the point (1.0, 2.0).
    nn = nn_orbit(s12)
    for kind in (bytes, bytearray, memoryview):
        with pytest.raises(ValueError, match="must be a list or an object"):
            cone_point(s12, nn.id, kind(b"\x01\x02"))
        with pytest.raises(ValueError, match="must be a list or an object"):
            cone_point(s12, None, kind(b""))
    assert cone_point(s12, nn.id, np.array([1.0, 2.0])).coords == (1.0, 2.0)


def test_string_edge_keys_are_written_as_str_i(s12):
    # int() also reads each of these as an edge number.
    nn = nn_orbit(s12)
    for key in (" 1", "+0", "-0", "00", "1_0", "\u0661", "1 "):
        with pytest.raises(OrbitMismatchError, match="is not an integer"):
            cone_point(s12, nn.id, {key: 2.0})
    assert cone_point(s12, nn.id, {"1": 2.0, "0": 1.0}).coords == (1.0, 2.0)


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
            metric._gallery_lp(*gallery, *gallery_program(*gallery))[0]
            for emb_p in s12.embeddings(p.orbit_id, top)
            for emb_q in s12.embeddings(q.orbit_id, top)
            for gallery in [(s12, [top], [], emb_p, p, emb_q, q)]
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
    # A curve a gallery drops reads 0 in segment_lengths from the transit
    # that misses it on, so its coordinate x falls to 0 across segments
    # that sum to at least x / 2: the segment sums bound the distance
    # below by x / 2 - 1e-9 (verify._suite_geodesic_consistency).
    rng = np.random.default_rng(3)
    ids = [o.id for o in s12.orbits]
    for _ in range(40):
        oid_p = ids[rng.integers(len(ids))]
        oid_q = ids[rng.integers(len(ids))]
        p = cone_point(s12, oid_p, rng.uniform(0.3, 8, size=s12.orbit(oid_p).n_edges))
        q = cone_point(s12, oid_q, rng.uniform(0.3, 8, size=s12.orbit(oid_q).n_edges))
        res = distance(p, q)
        assert abs(sum(segment_lengths(res, p, q)) - res.distance) <= 1e-9


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


def top_pair(cx, size):
    """``(size, size/2, ...)`` on the first top orbit and ``(size/3, size,
    ...)`` on the last."""
    first, last = cx.maximal_ids[0], cx.maximal_ids[-1]
    k = cx.orbit(first).n_edges
    return (cone_point(cx, first, [size] + [size / 2] * (k - 1)),
            cone_point(cx, last, [size / 3] + [size] * (k - 1)))


@pytest.mark.parametrize("surface", [(1, 2), (0, 7), (2, 1)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_top_orbit_pair_at_the_coordinate_bound(surface):
    # Past the bound the simplex's absolute phase-1 tolerance failed
    # feasible programs (from about 2**27 on S(2,1)), and near the float
    # maximum its phase-1 cost row overflowed: distance raised.
    p, q = top_pair(complex_for(*surface), MAX_COORD)
    d = distance(p, q).distance
    assert math.isfinite(d)
    assert d <= 0.5 * p.max_coord + 0.5 * q.max_coord  # the apex route


def test_a_coordinate_past_the_bound_is_rejected(s12):
    over = math.nextafter(MAX_COORD, math.inf)
    top = s12.maximal_ids[0]
    with pytest.raises(ValueError, match="at most"):
        cone_point(s12, top, (over, 1.0))
    with pytest.raises(ValueError, match="at most"):
        point_from_dict(s12, {**cone_point(s12, top, (1.0, 1.0)).to_dict(), "coords": [1.0, over]})
    at = cone_point(s12, top, (MAX_COORD, 1.0))
    with pytest.raises(ValueError, match="at most"):
        scale(at, math.nextafter(1.0, 2.0))
    # The points that overflowed the phase-1 cost row.
    with pytest.raises(ValueError, match="at most"):
        top_pair(s12, 2.0**1023)


def test_orthant_distances_take_any_finite_coordinate(s12):
    # They never reach the simplex, so the bound is not theirs.
    orbit = nn_orbit(s12)
    big = 2.0**1022
    assert orthant_distance(orbit, (big, 0.0), (0.0, big)) == 0.5 * big
    assert symmetric_orthant_distance(orbit, (big, 0.0), (0.0, big)) == 0.0


def test_scale_takes_a_real_factor(s12):
    # True used to return the point unchanged, and a string or None to
    # raise a bare TypeError.
    p = cone_point(s12, nn_orbit(s12).id, (1.0, 2.0))
    for lam in (True, "2", None):
        with pytest.raises(ValueError, match="scale factor must be a real number"):
            scale(p, lam)
    assert scale(p, np.float32(2.0)) == scale(p, 2) == cone_point(s12, nn_orbit(s12).id, (2.0, 4.0))


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
    # S(1,2) glues no top orbit to itself, so one revisit finds nothing
    # shorter than the simple galleries.
    rng = np.random.default_rng(23)
    for _ in range(15):
        p = _random_point(s12, rng)
        q = _random_point(s12, rng)
        d0 = distance(p, q).distance
        d1 = reference_distance(p, q, 1)
        assert d1 <= d0 + 1e-9
        assert d0 - d1 <= 1e-7


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
