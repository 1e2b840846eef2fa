"""curvecone: sup-metric cone complexes over curve systems.

The library enumerates the finite complex of curve-system orbits on a
small surface, equips its cone with the half-sup path metric, computes
exact distances and geodesics (with an independent grid oracle), and
maps cone points into Fenchel-Nielsen / hyperbolic half-plane
coordinates where the orthant metric becomes a product sup metric.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the public names it lends the package.  A module loads the
# first time one of its names, or the module itself, is read (PEP 562), so
# importing the package loads none of them and numpy arrives only with the
# grid oracle or verify's sampler.
_EXPORTS = {
    "fenchel_nielsen": (
        "FenchelNielsenPoint", "HalfPlanePoint", "ProductPoint", "extensions",
        "half_plane_distance", "length_coords", "sup_product_distance",
        "to_fenchel_nielsen", "to_plane_coords",
    ),
    "gridgraph": ("GridOracle", "brute_force_distance"),
    "lp": ("LPInfeasibleError", "LPResult", "LPUnboundedError", "solve_lp"),
    "metric": (
        "ComplexMismatchError", "ConePoint", "Gallery", "GeodesicResult",
        "OrbitMismatchError", "apex", "cone_point", "distance", "orthant_distance",
        "point_from_dict", "scale", "segment_lengths", "symmetric_orthant_distance",
    ),
    "multicurves": (
        "CanonicalForm", "InvalidMulticurve", "MulticurveGraph", "VertexDecoration",
        "add_curve", "canonicalize", "delete_curve", "is_stable",
    ),
    "quotient": (
        "FaceMap", "QuotientComplex", "SimplexOrbit", "Transit", "build_complex",
        "complex_from_json", "complex_to_dot", "complex_to_json",
    ),
    "surfaces": ("Surface", "UnsupportedSurfaceError"),
    "verify": ("RunReport", "SuiteResult", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
