import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import complex_for, orbit_by_structure
from curvecone import (
    FenchelNielsenPoint,
    HalfPlanePoint,
    OrbitMismatchError,
    ProductPoint,
    cone_point,
    distance,
    extensions,
    half_plane_distance,
    length_coords,
    orthant_distance,
    sup_product_distance,
    to_fenchel_nielsen,
    to_plane_coords,
)
from curvecone.fenchel_nielsen import EPSILON0


# -- the coordinate map -----------------------------------------------------------


def test_zero_coordinates_give_collar_lengths(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    f = to_fenchel_nielsen(cone_point(s12, nn.id, (0.0, 0.0)))
    # The apex extends into the least maximal orbit with every length e0.
    assert all(length == 0.1 for length in f.lengths)
    assert all(t == 0.0 for t in f.twists)


def test_unit_coordinate_shrinks_by_e(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    f = to_fenchel_nielsen(cone_point(s12, nn.id, (1.0, 0.0)))
    assert sorted(f.lengths) == pytest.approx(sorted([0.1 * math.exp(-1), 0.1]))


def test_face_point_extensions_agree(s12):
    nu = orbit_by_structure(s12, [(0, 2)], [(0, 0)])
    p = cone_point(s12, nu.id, (2.0,))
    exts = extensions(p)
    assert len(exts) >= 2
    for i in range(len(exts)):
        for j in range(i + 1, len(exts)):
            _m1, e1, f1 = exts[i]
            _m2, e2, f2 = exts[j]
            for c in range(len(p.coords)):
                assert f1.lengths[e1[c]] == f2.lengths[e2[c]]
            for mid, emb, fpt in (exts[i], exts[j]):
                for e in range(len(fpt.lengths)):
                    if e not in emb:
                        assert fpt.lengths[e] == EPSILON0


def test_plane_coordinates(s12):
    f = FenchelNielsenPoint("x", (0.1, 1.0), (0.0, 2.5))
    P = to_plane_coords(f)
    assert P.planes[0] == HalfPlanePoint(0.0, 10.0)
    assert P.planes[1] == HalfPlanePoint(2.5, 1.0)


def test_plane_image_of_unit_coordinate():
    lengths = length_coords([1.0])
    P = to_plane_coords(FenchelNielsenPoint("x", lengths, (0.0,)))
    assert P.planes[0].y == pytest.approx(math.e / 0.1)


# -- half-plane geometry -------------------------------------------------------------


def test_axis_distance_is_half_log_ratio():
    a = HalfPlanePoint(0.0, math.exp(2.0))
    b = HalfPlanePoint(0.0, math.exp(7.0))
    assert half_plane_distance(a, b) == pytest.approx(2.5, abs=1e-12)


def test_coincident_points():
    a = HalfPlanePoint(0.4, 2.0)
    assert half_plane_distance(a, a) == 0.0


def test_against_arc_length_integration():
    # Independent check: integrate the quarter-density line element along
    # the circular geodesic joining (0,1) and (1,1).
    a = HalfPlanePoint(0.0, 1.0)
    b = HalfPlanePoint(1.0, 1.0)
    center, radius = 0.5, math.sqrt(1.25)
    t0 = math.atan2(1.0, 0.0 - center)
    t1 = math.atan2(1.0, 1.0 - center)

    def integrand(t):
        y = radius * math.sin(t)
        return 0.5 * radius / y

    ref, _err = quad(integrand, min(t0, t1), max(t0, t1), limit=200)
    got = half_plane_distance(a, b)
    assert got == pytest.approx(0.5 * math.acosh(1.5), abs=1e-12)
    assert got == pytest.approx(ref, abs=1e-9)


def test_small_separation_no_cancellation():
    a = HalfPlanePoint(0.0, 1.0)
    b = HalfPlanePoint(1e-9, 1.0)
    got = half_plane_distance(a, b)
    assert got == pytest.approx(0.5e-9, rel=1e-6)
    assert got > 0


def test_fenchel_nielsen_point_takes_one_twist_per_length():
    with pytest.raises(ValueError, match="^lengths and twists must align$"):
        FenchelNielsenPoint("x", (0.1, 0.2), (0.0,))


def test_half_plane_points_are_finite():
    # A nan abscissa used to be accepted, and its distances read nan.
    for x, y in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            HalfPlanePoint(x, y)
    with pytest.raises(ValueError, match="finite"):
        to_plane_coords(FenchelNielsenPoint("x", (0.1,), (math.nan,)))


@pytest.mark.parametrize(
    "record, args",
    [
        (HalfPlanePoint, (True, 1.0)),
        (HalfPlanePoint, ("a", 1.0)),
        (HalfPlanePoint, (0.0, np.True_)),
        (FenchelNielsenPoint, ("x", (math.inf,), (0.0,))),
        (FenchelNielsenPoint, ("x", ("0.1",), (0.0,))),
        (FenchelNielsenPoint, ("x", (0.1,), (False,))),
    ],
)
def test_model_records_read_real_numbers(record, args):
    # A bool read as 1.0, a string raised TypeError and an infinite length
    # was accepted.
    with pytest.raises(ValueError, match="real number|positive and finite"):
        record(*args)


def test_model_records_store_floats():
    # A list used to be stored as given, and hash() rejected the record.
    f = FenchelNielsenPoint("x", [np.float64(0.1)], [0])
    assert f == FenchelNielsenPoint("x", (0.1,), (0.0,))
    assert hash(f) == hash(FenchelNielsenPoint("x", (0.1,), (0.0,)))
    assert type(f.lengths) is tuple and type(f.twists[0]) is float
    a = HalfPlanePoint(np.float64(0.5), 2)
    assert (type(a.x), type(a.y)) == (float, float)


@pytest.mark.parametrize("planes", [[], (), "ab", [(0.0, 1.0)], [HalfPlanePoint(0.0, 1.0), 1.0], 5])
def test_product_point_needs_half_plane_factors(planes):
    # An empty product made sup_product_distance raise a bare "max() arg is
    # an empty sequence", and any other entry was stored as given.
    with pytest.raises(ValueError, match="one or more half-plane points"):
        ProductPoint("x", planes)


def test_product_point_stores_a_tuple():
    # A list used to be stored as given, and hash() rejected the record.
    a = HalfPlanePoint(0.0, 1.0)
    P = ProductPoint("x", [a])
    assert P.planes == (a,) and P == ProductPoint("x", (a,))
    assert hash(P) == hash(ProductPoint("x", (a,)))
    assert sup_product_distance(P, P) == 0.0


@pytest.mark.parametrize("x", [-1000.0, -709.8, -math.inf])
def test_length_map_names_a_coordinate_below_the_float_range(x):
    # exp(-x) overflowed, a bare OverflowError "math range error".
    with pytest.raises(ValueError, match=f"coordinate {x} leaves the float range"):
        length_coords([1.0, x])
    assert 0.0 < length_coords([-709.7])[0] < math.inf


def test_length_map_names_a_coordinate_past_the_float_range(s12):
    # EPSILON0 * exp(-x) underflows to 0.0 near x = 743, which used to read
    # as "hyperbolic lengths must be positive".
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="coordinate 800.0 leaves the float range"):
        extensions(cone_point(s12, nn.id, (800.0, 1.0)))
    assert length_coords((742.0, 1.0)) == (EPSILON0 * math.exp(-742.0), EPSILON0 * math.exp(-1.0))


def _unit_step_distance(cx, c):
    # Half-plane distance between (1, c) and (1, c + 1) on a top orbit;
    # the orthant distance is 0.5.
    mid = cx.maximal_ids[0]
    P, Q = (
        to_plane_coords(to_fenchel_nielsen(cone_point(cx, mid, (1.0, x))))
        for x in (c, c + 1.0)
    )
    return sup_product_distance(P, Q)


@pytest.mark.parametrize("c", [352.0, 400.0, 708.0])
def test_plane_map_raises_past_the_float_range(s12, c):
    # 2 y y' overflowed at 352 and the height 1 / length at 708, and both
    # read 0.0; at 400 the square raised a bare OverflowError.
    with pytest.raises(ValueError, match="float range|finite"):
        _unit_step_distance(s12, c)


def test_plane_map_is_exact_up_to_the_float_range(s12):
    for c in (0.0, 50.0, 300.0, 351.5):
        assert _unit_step_distance(s12, c) == pytest.approx(0.5, abs=1e-15)


@given(
    st.floats(-5, 5), st.floats(0.1, 50), st.floats(-5, 5), st.floats(0.1, 50),
    st.floats(-5, 5), st.floats(0.1, 50),
)
@settings(max_examples=200)
def test_half_plane_metric_axioms(x1, y1, x2, y2, x3, y3):
    a, b, c = HalfPlanePoint(x1, y1), HalfPlanePoint(x2, y2), HalfPlanePoint(x3, y3)
    dab = half_plane_distance(a, b)
    assert dab == pytest.approx(half_plane_distance(b, a), abs=1e-12)
    assert dab <= half_plane_distance(a, c) + half_plane_distance(c, b) + 1e-9


@given(st.floats(-4, 4), st.floats(0.1, 20), st.floats(-4, 4), st.floats(0.1, 20),
       st.floats(0.01, 100))
@settings(max_examples=200)
def test_half_plane_scaling_invariance(x1, y1, x2, y2, lam):
    # Simultaneous dilation fixes distances; it matches an additive shift
    # of the cone coordinates.
    a, b = HalfPlanePoint(x1, y1), HalfPlanePoint(x2, y2)
    sa, sb = HalfPlanePoint(lam * x1, lam * y1), HalfPlanePoint(lam * x2, lam * y2)
    assert half_plane_distance(sa, sb) == pytest.approx(
        half_plane_distance(a, b), rel=1e-9, abs=1e-12
    )


@given(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(5e-324, sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False), st.floats(5e-324, sys.float_info.max),
)
@example(0.0, 5e-324, 0.0, 5e-324)
@example(-sys.float_info.max, sys.float_info.max, sys.float_info.max, 5e-324)
@settings(max_examples=500)
def test_half_plane_distance_is_finite_or_leaves_the_float_range(x1, y1, x2, y2):
    # u is a sum of squares over the positive 2 y y', never below 0, so a
    # valid pair gives a finite distance >= 0 or the one range error.
    a, b = HalfPlanePoint(x1, y1), HalfPlanePoint(x2, y2)
    try:
        d = half_plane_distance(a, b)
    except ValueError as err:
        assert "leaves the float range" in str(err)
    else:
        assert math.isfinite(d) and d >= 0.0


# -- product distances -----------------------------------------------------------------


def _planes_from(orbit_id, xvec):
    lengths = length_coords(xvec)
    return to_plane_coords(
        FenchelNielsenPoint(orbit_id, lengths, (0.0,) * len(lengths))
    )


def test_product_distance_identity(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    P = _planes_from(nn.id, (1.0, 2.0))
    assert sup_product_distance(P, P) == 0.0


def test_orthant_isometry_sampled(s12, s2):
    rng = np.random.default_rng(9)
    for cx in (s12, s2):
        for mid in cx.maximal_ids:
            orbit = cx.orbit(mid)
            for _ in range(200):
                x = rng.uniform(0, 50, size=orbit.n_edges)
                y = rng.uniform(0, 50, size=orbit.n_edges)
                prod = sup_product_distance(_planes_from(mid, x), _planes_from(mid, y))
                assert abs(prod - orthant_distance(orbit, x, y)) <= 1e-9


def test_sup_attained_on_single_perturbed_factor(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    P = _planes_from(nn.id, (1.0, 1.0))
    Q = _planes_from(nn.id, (1.0, 3.5))
    assert sup_product_distance(P, Q) == pytest.approx(
        half_plane_distance(P.planes[1], Q.planes[1])
    )


def test_product_distance_needs_one_orbit(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    loop = orbit_by_structure(s12, [(0, 2)], [(0, 0)])
    P = _planes_from(nn.id, (1.0, 2.0))
    for Q in (_planes_from(sn.id, (1.0, 2.0)), _planes_from(loop.id, (1.0,))):
        with pytest.raises(OrbitMismatchError):
            sup_product_distance(P, Q)
    with pytest.raises(OrbitMismatchError):
        sup_product_distance(P, _planes_from(nn.id, (1.0,)))


def test_shared_curve_reduces_to_axis_case(s12):
    # One nonseparating curve shared between the two pants types of the
    # twice-marked torus, with cone coordinates a and b on it: both points
    # lie on that curve's ray, half the coordinate gap apart.
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    loop = orbit_by_structure(s12, [(0, 2)], [(0, 0)])
    a, b = 1.25, 3.75
    p = cone_point(s12, sn.id, (a, 0.0))  # edge 0 is the nonseparating loop
    q = cone_point(s12, nn.id, (b, 0.0))
    assert p.orbit_id == q.orbit_id == loop.id
    assert distance(p, q).distance == 0.5 * abs(a - b)


# -- equivariance ------------------------------------------------------------------------


def test_length_map_commutes_with_symmetries(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(0, 8, size=2)
        for a in nn.automorphisms:
            lx = length_coords([x[a[i]] for i in range(2)])
            xl = tuple(length_coords(x)[a[i]] for i in range(2))
            assert lx == xl


def test_fn_image_depends_only_on_class(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p = cone_point(s12, nn.id, (4.0, 1.0))
    q = cone_point(s12, nn.id, (1.0, 4.0))
    assert p == q
    assert to_fenchel_nielsen(p) == to_fenchel_nielsen(q)


@pytest.mark.parametrize("genus,marked", [(1, 2), (2, 0), (0, 7)])
def test_top_orbit_image_is_its_own_lengths(genus, marked):
    # A top orbit's first extension is its identity embedding, so its
    # image reads its own coordinates, bit for bit.
    cx = complex_for(genus, marked)
    rng = np.random.default_rng(4)
    for mid in cx.maximal_ids:
        k = cx.orbit(mid).n_edges
        for _ in range(10):
            p = cone_point(cx, mid, tuple(rng.uniform(0.25, 8.0, size=k)))
            assert p.orbit_id == mid
            expected = FenchelNielsenPoint(mid, length_coords(p.coords), (0.0,) * k)
            assert to_fenchel_nielsen(p) == expected


def test_config_validation():
    with pytest.raises(ValueError):
        FenchelNielsenPoint("x", (0.0,), (0.0,))
