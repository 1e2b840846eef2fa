"""Distances and geodesics in the cone over a quotient complex.

Each orbit's cone is an orthant with the half-sup metric; orthants glue
along shared faces and all meet at the apex.  Distances are infima over
simple galleries, each gallery minimized as a linear program in its
transit breakpoints.
"""

from curvecone import (
    Surface,
    apex,
    build_complex,
    cone_point,
    distance,
    scale,
    segment_lengths,
    symmetric_orthant_distance,
)

cx = build_complex(Surface(1, 2))
sn = next(o for o in cx.orbits if o.dim == 1 and len(o.automorphisms) == 1)
nn = next(o for o in cx.orbits if o.dim == 1 and len(o.automorphisms) == 2)
print(f"sep/nonsep orbit {sn.id}, nonsep/nonsep orbit {nn.id}\n")

# Within one orthant the distance is the half-sup, minimized over the
# orbit's symmetries: (1,3) and (3,1) name the same point here.
p = cone_point(cx, nn.id, (1.0, 3.0))
q = cone_point(cx, nn.id, (3.0, 1.0))
print("swap-equivalent points:", distance(p, q).distance)
print("symmetric orthant value for (0,4) vs (4,2):",
      symmetric_orthant_distance(nn, (0, 4), (4, 2)))

# A cross-orbit geodesic: start on the separating-curve ray (coordinate 4),
# end at (2,2) in the nonsep/nonsep orthant.  The geodesic crosses the
# shared nonseparating ray; the apex route happens to tie at 3.
p = cone_point(cx, sn.id, {"1": 4.0})
q = cone_point(cx, nn.id, (2.0, 2.0))
res = distance(p, q)
print(f"\ncross-orbit distance {res.distance}")
print("gallery:", " -> ".join(res.gallery.orbit_ids))
print("transit breakpoints:", res.breakpoints)
print("segment lengths:", segment_lengths(res, p, q))

# The apex joins everything: distance to the apex is half the largest
# coordinate, and routing through it bounds every distance.
print("\napex to q:", distance(apex(cx), q).distance)
print("apex-route bound for (p, q):", 0.5 * p.max_coord + 0.5 * q.max_coord)

# Scaling self-similarity: dilating both points scales the distance
# exactly, for any factor.  The cone looks the same at every zoom level.
for lam in (0.1, 1.0, 7.3):
    print(f"lambda={lam:>4}: d = {distance(scale(p, lam), scale(q, lam)).distance}")
