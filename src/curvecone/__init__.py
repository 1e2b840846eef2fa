"""curvecone: sup-metric cone complexes over curve systems.

The library enumerates the finite complex of curve-system orbits on a
small surface, equips its cone with the half-sup path metric, computes
exact distances and geodesics (with an independent grid oracle), and
maps cone points into Fenchel-Nielsen / hyperbolic half-plane
coordinates where the orthant metric becomes a product sup metric.
"""

from .fenchel_nielsen import (
    FenchelNielsenPoint,
    HalfPlanePoint,
    ModelConfig,
    ProductPoint,
    extensions,
    half_plane_distance,
    length_coords,
    partial_sup_distance,
    sup_product_distance,
    to_fenchel_nielsen,
    to_plane_coords,
)
from .gridgraph import GridOracle, brute_force_distance
from .lp import LPInfeasibleError, LPResult, LPUnboundedError, solve_lp
from .metric import (
    ComplexMismatchError,
    ConePoint,
    Gallery,
    GeodesicResult,
    OrbitMismatchError,
    apex,
    cone_point,
    distance,
    dropped_edges,
    orthant_distance,
    point_from_dict,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)
from .multicurves import (
    CanonicalForm,
    InvalidMulticurve,
    MulticurveGraph,
    VertexDecoration,
    add_curve,
    canonicalize,
    delete_curve,
    is_stable,
)
from .quotient import (
    FaceMap,
    QuotientComplex,
    SimplexOrbit,
    Transit,
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
    enumerate_orbits,
)
from .surfaces import Surface, UnsupportedSurfaceError
from .verify import RunReport, SuiteResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ComplexMismatchError",
    "ConePoint",
    "FaceMap",
    "FenchelNielsenPoint",
    "Gallery",
    "GeodesicResult",
    "GridOracle",
    "HalfPlanePoint",
    "InvalidMulticurve",
    "LPInfeasibleError",
    "LPResult",
    "LPUnboundedError",
    "ModelConfig",
    "MulticurveGraph",
    "OrbitMismatchError",
    "ProductPoint",
    "QuotientComplex",
    "RunReport",
    "SimplexOrbit",
    "SuiteResult",
    "Surface",
    "Transit",
    "UnsupportedSurfaceError",
    "VertexDecoration",
    "add_curve",
    "apex",
    "brute_force_distance",
    "build_complex",
    "canonicalize",
    "complex_from_json",
    "complex_to_dot",
    "complex_to_json",
    "cone_point",
    "delete_curve",
    "distance",
    "dropped_edges",
    "enumerate_orbits",
    "extensions",
    "half_plane_distance",
    "is_stable",
    "length_coords",
    "orthant_distance",
    "partial_sup_distance",
    "point_from_dict",
    "run_verification",
    "scale",
    "segment_lengths",
    "solve_lp",
    "sup_product_distance",
    "symmetric_orthant_distance",
    "to_fenchel_nielsen",
    "to_plane_coords",
]
