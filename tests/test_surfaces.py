import numpy as np
import pytest

from curvecone import Surface, UnsupportedSurfaceError
from curvecone.quotient import SCHEMA_COMPLEX, complex_from_dict


def test_complexity_and_dimension():
    assert Surface(1, 2).complexity == 2
    assert Surface(1, 2).curve_complex_dim == 1
    assert Surface(2, 0).complexity == 3
    assert Surface(0, 7).curve_complex_dim == 3


@pytest.mark.parametrize("g,n", [(0, 0), (0, 3), (1, 0), (0, 2)])
def test_low_complexity_rejected(g, n):
    with pytest.raises(UnsupportedSurfaceError):
        Surface(g, n)


def test_negative_rejected():
    with pytest.raises(UnsupportedSurfaceError):
        Surface(-1, 5)
    with pytest.raises(UnsupportedSurfaceError):
        Surface(1, -1)


def test_str():
    assert str(Surface(1, 2)) == "S_{1,2}"


@pytest.mark.parametrize(
    "g, n",
    [(1.5, 2), (1.0, 2), (True, 2), (1, False), ("1", 2), (None, 2), (1, np.float64(2))],
    ids=repr,
)
def test_non_integer_fields_rejected(g, n):
    # Rejected before any comparison: a string used to raise TypeError,
    # a float or bool used to build a surface.
    with pytest.raises(UnsupportedSurfaceError, match="must be an integer"):
        Surface(g, n)


def test_integer_like_fields_stored_as_int():
    s = Surface(np.int64(1), np.int32(2))
    assert type(s.genus) is int and type(s.marked_points) is int
    assert s == Surface(1, 2) and hash(s) == hash(Surface(1, 2))
    assert str(s) == "S_{1,2}"


@pytest.mark.parametrize(
    "surface",
    [{"genus": 1.0, "marked_points": 2}, {"genus": 1}, {"genus": "1", "marked_points": 2}],
    ids=repr,
)
def test_complex_from_dict_rejects_bad_surface_fields(surface):
    payload = {"schema_version": SCHEMA_COMPLEX, "surface": surface, "orbits": []}
    with pytest.raises(ValueError):
        complex_from_dict(payload)


def test_as_real_takes_real_numbers_only():
    from decimal import Decimal
    from fractions import Fraction

    from curvecone.surfaces import as_real

    cases = ((2, 2.0), (np.float32(1.5), 1.5), (np.int64(3), 3.0), (Fraction(1, 4), 0.25))
    for value, want in cases:
        got = as_real(value, "x")
        assert type(got) is float and got == want
    # Decimal is a Number but no Real; JSON never yields one.
    for bad in (True, np.True_, "1.0", None, 1j, Decimal("1.5"), [1.0]):
        with pytest.raises(ValueError, match="x must be a real number"):
            as_real(bad, "x")
    with pytest.raises(ValueError, match="x exceeds the float range"):
        as_real(-(10**400), "x")


def _top_dimension_missing():
    from curvecone.quotient import build_complex, complex_to_dict

    orbits = complex_to_dict(build_complex(Surface(1, 2)))["orbits"]
    return [o for o in orbits if o["dim"] == 0]


@pytest.mark.parametrize(
    "orbits, dim",
    [
        ([], 0),
        ([{"dim": [1]}], 0),
        ([{"dim": "0"}], 0),
        ([{"dim": 0}, {"dim": True}], 0),
        ([{"dim": 0}, {"dim": 1}, {"dim": 2}], 0),
        (_top_dimension_missing(), 1),
        ({"0": []}, None),
    ],
    ids=["empty", "list-dim", "string-dim", "bool-dim", "dims-only", "top-missing", "no-list"],
)
def test_complex_from_dict_compares_orbits_level_by_level(orbits, dim):
    # The whole complex used to be built first, so a short file naming a
    # large surface kept the caller busy; a list dim raised a bare TypeError.
    payload = {"schema_version": SCHEMA_COMPLEX, "surface": {"genus": 1, "marked_points": 2},
               "orbits": orbits}
    message = "must be a list" if dim is None else f"does not match its surface's complex at dimension {dim}$"
    with pytest.raises(ValueError, match=message):
        complex_from_dict(payload)


@pytest.mark.parametrize("key", ["surface", "orbits"])
def test_complex_from_dict_names_a_missing_key(key):
    payload = {"schema_version": SCHEMA_COMPLEX, "surface": {"genus": 1, "marked_points": 2},
               "orbits": []}
    del payload[key]
    with pytest.raises(ValueError, match=f"lacks '{key}'"):
        complex_from_dict(payload)
