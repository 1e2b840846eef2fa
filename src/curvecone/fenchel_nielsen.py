"""Fenchel-Nielsen coordinates and the hyperbolic half-plane model.

Cone coordinates on a pants-decomposition orbit map to hyperbolic
structures by shrinking each curve: coordinate ``x`` becomes length
``EPSILON0 * exp(-x)`` with zero twist, where ``EPSILON0`` is a collar
constant small enough that short curves are automatically disjoint.
The cone is moduli space seen from far away, a limit of rescalings, so
the collar constant cannot change it: every identity checked here holds
for any value in (0, 1), and the model fixes it at 0.1.
Re-expressing each (twist, length) pair as ``(twist, 1/length)`` places
the image in a product of upper half-planes; with the quarter-density
metric ``ds^2 = (dx^2 + dy^2) / (4 y^2)`` on each factor and the sup
metric on the product, the map is an exact isometry on every orthant.
"""

from __future__ import annotations

import math

from .metric import ConePoint, OrbitMismatchError, _pad
from .surfaces import Record, as_real

# The collar constant: the length of a curve at cone coordinate 0.
EPSILON0 = 0.1


class FenchelNielsenPoint(Record):
    """Hyperbolic lengths and twists along one pants decomposition type."""

    __slots__ = ("orbit_id", "lengths", "twists")

    def __init__(self, orbit_id: str, lengths, twists):
        lengths = tuple(as_real(length, "hyperbolic length") for length in lengths)
        twists = tuple(as_real(twist, "twist") for twist in twists)
        if len(lengths) != len(twists):
            raise ValueError("lengths and twists must align")
        if not all(0 < length < math.inf for length in lengths):
            raise ValueError(f"hyperbolic lengths must be positive and finite, got {lengths}")
        object.__setattr__(self, "orbit_id", orbit_id)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "twists", twists)


class HalfPlanePoint(Record):
    """A point of the upper half-plane: twist abscissa, reciprocal length."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        x, y = as_real(x, "half-plane x"), as_real(y, "half-plane y")
        if not (math.isfinite(x) and 0 < y < math.inf):
            raise ValueError(f"half-plane points need finite x and y > 0, got x={x}, y={y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class ProductPoint(Record):
    """One half-plane factor per curve of a pants decomposition type,
    stored as a tuple of at least one :class:`HalfPlanePoint`."""

    __slots__ = ("orbit_id", "planes")

    def __init__(self, orbit_id: str, planes):
        try:
            factors = tuple(planes)
        except TypeError:
            factors = ()
        if not factors or not all(isinstance(a, HalfPlanePoint) for a in factors):
            raise ValueError(f"a product point needs one or more half-plane points, got {planes!r}")
        object.__setattr__(self, "orbit_id", orbit_id)
        object.__setattr__(self, "planes", factors)


def length_coords(xvec) -> tuple[float, ...]:
    """Curve lengths assigned to raw cone coordinates on one orbit.  The
    length is a positive float for coordinates from about -709.78 to
    742.94; a coordinate outside, whose length overflows or underflows to
    0.0, raises ``ValueError`` naming it."""
    lengths = []
    for x in xvec:
        try:
            length = EPSILON0 * math.exp(-x)
        except OverflowError:
            length = math.inf
        if not 0.0 < length < math.inf:
            raise ValueError(f"cone coordinate {x} leaves the float range: its length is {length}")
        lengths.append(length)
    return tuple(lengths)


def extensions(p: ConePoint):
    """All Fenchel-Nielsen images of a point, one per way of extending its
    support to a pants decomposition type.  The images agree on the
    supported curves and assign exactly ``EPSILON0`` to the rest, so the
    choice never matters.  The apex is the empty curve system, embedded
    by ``()`` into every top orbit."""
    cx = p.complex
    if p.is_apex:
        embeddings = [(mid, ()) for mid in cx.maximal_ids]
    else:
        embeddings = cx.maximal_embeddings(p.orbit_id)
    out = []
    for mid, emb in embeddings:
        k = cx.orbit(mid).n_edges
        lengths = length_coords(_pad(emb, p.coords, k))
        out.append((mid, emb, FenchelNielsenPoint(mid, lengths, (0.0,) * k)))
    return tuple(out)


def to_fenchel_nielsen(p: ConePoint) -> FenchelNielsenPoint:
    """Fenchel-Nielsen image of a cone point: lengths ``EPSILON0 e^{-x}``,
    twists zero.  Points supported below the top dimension are extended by
    zero coordinates into the least maximal orbit containing them; a top
    orbit's first extension is its identity embedding into itself.  Every
    orbit is a face of a top orbit (``check_invariants``), so every point
    has an extension."""
    return extensions(p)[0][2]


def to_plane_coords(f: FenchelNielsenPoint) -> ProductPoint:
    """Coordinate change to the product of half-planes: twist stays the
    abscissa, length inverts to the height."""
    planes = tuple(
        HalfPlanePoint(t, 1.0 / length) for t, length in zip(f.twists, f.lengths)
    )
    return ProductPoint(f.orbit_id, planes)


def _acosh1p(u: float) -> float:
    """arccosh(1 + u) for u >= 0 without cancellation near u = 0.  Its
    one caller passes a sum of squares over the positive ``2 y y'``, so
    ``u`` is never negative.

    Algebraically log(z + sqrt(z^2 - 1)) at z = 1 + u; evaluating through
    log1p on u keeps full precision for small u, and the log(2(1+u))
    asymptote guards against overflow of u^2.
    """
    if u > 1e150:
        return math.log(2.0) + math.log1p(u)
    return math.log1p(u + math.sqrt(u * (2.0 + u)))


def half_plane_distance(a: HalfPlanePoint, b: HalfPlanePoint) -> float:
    """Distance in the quarter-density upper half-plane: half the usual
    hyperbolic distance, matching the half in the orthant sup metric.
    Raises ``ValueError`` when ``2 y y'`` or the quotient ``u`` leaves the
    float range, which would otherwise read as a distance of 0 or inf."""
    den = 2.0 * a.y * b.y
    try:
        u = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) / den
    except (OverflowError, ZeroDivisionError):
        u = math.inf
    if not (math.isfinite(den) and math.isfinite(u)):
        raise ValueError(f"half-plane distance from {a} to {b} leaves the float range")
    return 0.5 * _acosh1p(u)


def sup_product_distance(P: ProductPoint, Q: ProductPoint) -> float:
    """Sup of the half-plane distances, curve by curve, between two product
    points of one orbit; points of different orbits or sizes raise
    :class:`OrbitMismatchError`.  Across orbits, use ``metric.distance``."""
    if P.orbit_id != Q.orbit_id or len(P.planes) != len(Q.planes):
        raise OrbitMismatchError(
            f"product points of {len(P.planes)} curves on {P.orbit_id} and "
            f"{len(Q.planes)} curves on {Q.orbit_id}"
        )
    return max(half_plane_distance(a, b) for a, b in zip(P.planes, Q.planes))
