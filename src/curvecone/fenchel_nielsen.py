"""Fenchel-Nielsen coordinates and the hyperbolic half-plane model.

Cone coordinates on a pants-decomposition orbit map to hyperbolic
structures by shrinking each curve: coordinate ``x`` becomes length
``epsilon0 * exp(-x)`` with zero twist, where ``epsilon0`` is a collar
constant small enough that short curves are automatically disjoint.
Re-expressing each (twist, length) pair as ``(twist, 1/length)`` places
the image in a product of upper half-planes; with the quarter-density
metric ``ds^2 = (dx^2 + dy^2) / (4 y^2)`` on each factor and the sup
metric on the product, the map is an exact isometry on every orthant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .metric import ConePoint, OrbitMismatchError

SCHEMA_FN = "curvecone/fn-point/1"
SCHEMA_PRODUCT = "curvecone/product-point/1"

# Rounding allowed below 0 in arccosh(1 + u): u is a squared distance over
# 2 y y', so only a point off the half-plane goes further below.
_ACOSH_TOL = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Collar constant; any value in (0, 1) preserves every identity
    checked here, so the default is a plain round number."""

    epsilon0: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon0 < 1.0:
            raise ValueError(f"epsilon0 must lie in (0, 1), got {self.epsilon0}")


@dataclass(frozen=True)
class FenchelNielsenPoint:
    """Hyperbolic lengths and twists along one pants decomposition type."""

    orbit_id: str
    lengths: tuple[float, ...]
    twists: tuple[float, ...]

    def __post_init__(self):
        if len(self.lengths) != len(self.twists):
            raise ValueError("lengths and twists must align")
        if any(not length > 0 for length in self.lengths):
            raise ValueError("hyperbolic lengths must be positive")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_FN,
            "orbit": self.orbit_id,
            "lengths": {str(i): v for i, v in enumerate(self.lengths)},
            "twists": {str(i): v for i, v in enumerate(self.twists)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point of the upper half-plane: twist abscissa, reciprocal length."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"half-plane points need y > 0, got {self.y}")


@dataclass(frozen=True)
class ProductPoint:
    """One half-plane factor per curve of a pants decomposition type."""

    orbit_id: str
    planes: tuple[HalfPlanePoint, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_PRODUCT,
            "orbit": self.orbit_id,
            "planes": {str(i): [p.x, p.y] for i, p in enumerate(self.planes)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def length_coords(xvec, cfg: ModelConfig) -> tuple[float, ...]:
    """Curve lengths assigned to raw cone coordinates on one orbit."""
    return tuple(cfg.epsilon0 * math.exp(-x) for x in xvec)


def extensions(p: ConePoint, cfg: ModelConfig):
    """All Fenchel-Nielsen images of a point, one per way of extending its
    support to a pants decomposition type.  The images agree on the
    supported curves and assign exactly ``epsilon0`` to the rest, so the
    choice never matters; it is exposed for verification."""
    cx = p.complex
    out = []
    if p.is_apex:
        for mid in cx.maximal_ids:
            k = cx.orbit(mid).n_edges
            out.append(
                (mid, (), FenchelNielsenPoint(mid, length_coords([0.0] * k, cfg), (0.0,) * k))
            )
        return tuple(out)
    for mid, emb in cx.maximal_embeddings(p.orbit_id):
        k = cx.orbit(mid).n_edges
        xfull = [0.0] * k
        for c, e in enumerate(emb):
            xfull[e] = p.coords[c]
        out.append(
            (mid, emb, FenchelNielsenPoint(mid, length_coords(xfull, cfg), (0.0,) * k))
        )
    return tuple(out)


def to_fenchel_nielsen(p: ConePoint, cfg: ModelConfig = ModelConfig()) -> FenchelNielsenPoint:
    """Fenchel-Nielsen image of a cone point: lengths ``epsilon0 e^{-x}``,
    twists zero.  Points supported below the top dimension are extended by
    zero coordinates into the least maximal orbit containing them."""
    if not p.is_apex and p.orbit_id in p.complex.maximal_ids:
        return FenchelNielsenPoint(
            p.orbit_id, length_coords(p.coords, cfg), (0.0,) * len(p.coords)
        )
    exts = extensions(p, cfg)
    if not exts:
        raise ValueError(f"orbit {p.orbit_id} extends to no pants decomposition")
    return exts[0][2]


def to_plane_coords(f: FenchelNielsenPoint) -> ProductPoint:
    """Coordinate change to the product of half-planes: twist stays the
    abscissa, length inverts to the height."""
    planes = tuple(
        HalfPlanePoint(t, 1.0 / length) for t, length in zip(f.twists, f.lengths)
    )
    return ProductPoint(f.orbit_id, planes)


def _acosh1p(u: float) -> float:
    """arccosh(1 + u) for u >= 0 without cancellation near u = 0.

    Algebraically log(z + sqrt(z^2 - 1)) at z = 1 + u; evaluating through
    log1p on u keeps full precision for small u, and the log(2(1+u))
    asymptote guards against overflow of u^2.
    """
    if u < 0.0:
        if u < -_ACOSH_TOL:
            raise ValueError(f"arccosh argument below 1: 1 + {u}")
        return 0.0
    if u > 1e150:
        return math.log(2.0) + math.log1p(u)
    return math.log1p(u + math.sqrt(u * (2.0 + u)))


def half_plane_distance(a: HalfPlanePoint, b: HalfPlanePoint) -> float:
    """Distance in the quarter-density upper half-plane: half the usual
    hyperbolic distance, matching the half in the orthant sup metric."""
    u = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) / (2.0 * a.y * b.y)
    return 0.5 * _acosh1p(u)


def _resolve_matching(P: ProductPoint, Q: ProductPoint, matching):
    if matching is None:
        if len(P.planes) != len(Q.planes):
            raise OrbitMismatchError(
                f"product points of sizes {len(P.planes)} and {len(Q.planes)}"
            )
        if P.orbit_id != Q.orbit_id:
            raise OrbitMismatchError(
                "matching required between different orbit types"
            )
        return tuple(range(len(P.planes)))
    if isinstance(matching, dict):
        matching = tuple(matching[i] for i in range(len(P.planes)))
    else:
        matching = tuple(matching)
    if len(matching) != len(P.planes) or sorted(matching) != list(range(len(Q.planes))):
        raise OrbitMismatchError(f"matching {matching} is not a bijection")
    return matching


def sup_product_distance(P: ProductPoint, Q: ProductPoint, matching=None) -> float:
    """Sup of the half-plane distances over matched curves."""
    m = _resolve_matching(P, Q, matching)
    return max(
        half_plane_distance(P.planes[i], Q.planes[m[i]]) for i in range(len(m))
    )


def partial_sup_distance(P: ProductPoint, Q: ProductPoint, shared_edges, matching=None) -> float:
    """Sup of the half-plane distances over a nonempty shared subset of
    curves.  This is the model's lower-bound surrogate for distances
    between structures sharing only part of a decomposition; it is exact
    only up to an additive constant that is not computable here and is
    therefore reported separately, never folded into the value."""
    shared = tuple(shared_edges)
    if not shared:
        raise ValueError("shared edge set must be nonempty")
    if matching is None:
        matching = tuple(range(len(P.planes)))
    return max(
        half_plane_distance(P.planes[i], Q.planes[matching[i]]) for i in shared
    )
