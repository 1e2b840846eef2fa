"""Fenchel-Nielsen coordinates and the hyperbolic half-plane picture.

Cone coordinates on a pants decomposition type turn into hyperbolic
structures by pinching curves: coordinate x becomes length eps0*e^{-x},
twist zero.  In (twist, 1/length) coordinates each curve contributes an
upper half-plane; with the quarter-density metric on each factor and the
sup over factors, the coordinate map is an exact isometry on orthants.
"""

import numpy as np

from curvecone import (
    Surface,
    build_complex,
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
from curvecone.fenchel_nielsen import FenchelNielsenPoint, HalfPlanePoint

cx = build_complex(Surface(1, 2))
nn = next(o for o in cx.orbits if o.dim == 1 and len(o.automorphisms) == 2)

p = cone_point(cx, nn.id, (1.0, 2.0))
f = to_fenchel_nielsen(p)
print("cone coords (1, 2) ->: lengths", f.lengths, "twists", f.twists)
P = to_plane_coords(f)
print("half-plane factors:", [(pl.x, pl.y) for pl in P.planes])

# Distances along the imaginary axis are half the log of the height
# ratio, which is exactly the coordinate difference over two.
a = HalfPlanePoint(0.0, np.exp(2.0))
b = HalfPlanePoint(0.0, np.exp(7.0))
print("\naxis distance exp(2) to exp(7):", half_plane_distance(a, b))

# Orthant isometry, sampled: the sup of half-plane distances between the
# images equals the half-sup distance between the cone coordinates.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    x, y = rng.uniform(0, 50, size=(2, 2))
    fx = FenchelNielsenPoint(nn.id, length_coords(x), (0.0, 0.0))
    fy = FenchelNielsenPoint(nn.id, length_coords(y), (0.0, 0.0))
    prod = sup_product_distance(to_plane_coords(fx), to_plane_coords(fy))
    worst = max(worst, abs(prod - orthant_distance(nn, x, y)))
print("worst isometry defect over 2000 pairs:", worst)

# Points supported on a shared face extend into either adjacent pants
# type; the extensions agree on shared curves and pad the rest with eps0,
# so the coordinate map is well defined on the whole cone.
nu = next(o for o in cx.orbits if o.dim == 0 and len(o.graph.vertices) == 1)
pt = cone_point(cx, nu.id, (2.0,))
print(f"\nextensions of a point on the nonseparating ray (coord 2):")
for mid, emb, fpt in extensions(pt):
    print(f"   into {mid} via edge {emb[0]}: lengths {fpt.lengths}")

# Structures on different pants types are compared in the cone itself.
# A point carrying only the shared nonseparating curve is a point of that
# curve's ray, whichever pants type it is written on, so `distance` reads
# half the coordinate gap.
sn = next(o for o in cx.orbits if o.dim == 1 and len(o.automorphisms) == 1)
a_coord, b_coord = 1.25, 3.75
pa = cone_point(cx, sn.id, (a_coord, 0.0))
pb = cone_point(cx, nn.id, (b_coord, 0.0))
print(f"\nshared-curve points on {sn.id} and {nn.id} reduce to {pa.orbit_id}, {pb.orbit_id}")
print("distance for coords 1.25 vs 3.75:", distance(pa, pb).distance,
      "= half the coordinate gap", 0.5 * abs(a_coord - b_coord))
