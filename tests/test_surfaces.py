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
