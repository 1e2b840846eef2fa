"""Independent grid oracle for cone distances.

Every top-dimensional orthant is sampled on a cubical mesh, grid points
are identified across orthant charts and orbit symmetries exactly (each
node, in integer mesh units, gets the class of its
:meth:`~curvecone.quotient.QuotientComplex.reduce` key, computed for all
nodes at once as integer codes), and
neighboring grid points are joined by all Chebyshev moves.  Each move
has half-sup length ``mesh / 2`` regardless of direction, so shortest
grid paths are breadth-first searches with uniform weights, and within
one orthant the grid distance between aligned points is exact.  Grid
path lengths converge to the true distance from above as the mesh
shrinks; the implementation shares only the complex's combinatorics
with the geodesic solver, not its search.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .metric import ConePoint, _require_same_complex
from .quotient import QuotientComplex
from .surfaces import as_real

_MAX_NODES = 5_000_000
# box / mesh of decimal inputs misses its integer by a few ulps
# (8 / 0.1 = 80.00000000000001); 1e-9 absorbs that at any grid size the
# node cap allows and still rejects every ratio that is off by a real
# fraction of a mesh unit.
_BOX_RATIO_TOL = 1e-9
# A coordinate built by float arithmetic on mesh multiples (0.25 * k,
# scale) is within a few ulps of its mesh point; one further off than a
# millionth of a mesh unit is misaligned, not rounding noise.
_MESH_ALIGN_TOL = 1e-6


def box_units(mesh: float, box: float) -> int:
    """The box side in mesh units; a mesh or box that is not a positive
    real, or a box that is no positive multiple of the mesh, raises
    :class:`ValueError`.  Needs no complex, so it can run before one is
    built."""
    mesh, box = as_real(mesh, "mesh"), as_real(box, "box")
    if not mesh > 0:
        raise ValueError(f"mesh must be positive, got {mesh}")
    if not box > 0:
        raise ValueError(f"box must be positive, got {box}")
    ratio = box / mesh
    if math.isinf(ratio):
        raise ValueError(f"mesh {mesh} is too fine for box {box}")
    units = int(round(ratio))
    if units < 1 or abs(ratio - units) > _BOX_RATIO_TOL:
        raise ValueError(f"box {box} must be a positive multiple of mesh {mesh}")
    return units


def grid_units(cx: QuotientComplex, mesh: float, box: float) -> int:
    """Validate a grid configuration (:func:`box_units`, then the node
    cap over ``cx``'s top orbits) and return the box side in mesh units;
    raises :class:`ValueError` before any grid is allocated."""
    units = box_units(mesh, box)
    n_nodes = sum((units + 1) ** cx.orbit(oid).n_edges for oid in cx.maximal_ids)
    if n_nodes > _MAX_NODES:
        raise ValueError(
            f"grid would hold more than {_MAX_NODES} nodes; coarsen the mesh or shrink the box"
        )
    return units


class GridOracle:
    """Mesh discretization of the cone over one complex, up to a box bound.

    The node classes are built with array operations, one support
    pattern of one top orbit at a time, and cost less than a handful of
    queries.  A query point reads its class off the node it sits at; each
    query is a breadth-first search over every node.
    """

    def __init__(self, cx: QuotientComplex, mesh: float, box: float):
        self.units = grid_units(cx, mesh, box)
        self.cx = cx
        self.mesh = float(mesh)
        self.box = float(box)

        self._orbit_ids = list(cx.maximal_ids)
        self._dims = [cx.orbit(oid).n_edges for oid in self._orbit_ids]
        self._shapes = [(self.units + 1,) * m for m in self._dims]
        self._blocks = []
        start = 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            self._blocks.append((start, start + size))
            start += size
        self.n_nodes = start

        # A key (face id, vector) is coded as the face's number times
        # base ** (top dimension) plus the vector read as digits in base
        # units + 1, so over one face's symmetries the least code is
        # reduce's lexicographically least image.  The apex codes as 0.
        self._base = self.units + 1
        self._face_number = {o.id: i + 1 for i, o in enumerate(cx.orbits)}
        self._face_stride = self._base ** max(self._dims)
        codes = np.zeros(self.n_nodes, dtype=np.int64)
        for oid, m, (lo, _hi) in zip(self._orbit_ids, self._dims, self._blocks):
            for size in range(1, m + 1):
                for support in combinations(range(m), size):
                    pos, least = self._pattern_codes(oid, m, support)
                    codes[lo + pos] = least
        # Classes are numbered in order of their first node.
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        class_of_code = np.empty(len(first), dtype=np.int64)
        class_of_code[np.argsort(first)] = np.arange(len(first))
        self._class_id = class_of_code[inverse]
        self.n_classes = len(first)

    def _pattern_codes(self, oid: str, m: int, support: tuple[int, ...]):
        """Block offsets and least codes of the nodes of ``oid`` whose
        nonzero entries are exactly ``support``."""
        size = len(support)
        base = self._base
        digits = np.indices((self.units,) * size, dtype=np.int32).reshape(size, -1) + 1
        pos = np.zeros(digits.shape[1], dtype=np.intp)
        for row, e in zip(digits, support):
            pos += row * base ** (m - 1 - e)
        fid, iota = self.cx.subfaces(oid)[frozenset(support)]
        rows = [digits[support.index(e)] for e in iota]
        least = None
        for a in self.cx.orbit(fid).automorphisms:
            code = np.zeros(len(pos), dtype=np.int64)
            for c in a:
                code *= base
                code += rows[c]
            least = code if least is None else np.minimum(least, code, out=least)
        least += self._face_number[fid] * self._face_stride
        return pos, least

    def _class_of(self, p: ConePoint) -> int:
        """The class of a mesh-aligned point: that of the node it sits at
        through its first top-orbit embedding (the apex is node 0)."""
        if p.is_apex:
            return int(self._class_id[0])
        oid, emb = self.cx.maximal_embeddings(p.orbit_id)[0]
        k = self._orbit_ids.index(oid)
        node = self._blocks[k][0]
        for e, v in zip(emb, p.coords):
            r = v / self.mesh
            i = int(round(r))
            # A positive coordinate that rounds to zero would otherwise
            # drop silently onto a face.
            if i == 0 or abs(r - i) > _MESH_ALIGN_TOL:
                raise ValueError(
                    f"coordinate {v} is not aligned to mesh {self.mesh}"
                )
            if i > self.units:
                raise ValueError(
                    f"coordinate {v} exceeds the box bound {self.box}"
                )
            node += i * self._base ** (self._dims[k] - 1 - e)
        return int(self._class_id[node])

    def _dilate(self, frontier: np.ndarray) -> np.ndarray:
        """Every node within one Chebyshev step of the frontier, the
        frontier included: the 3^m step cube is one +-1 step along each
        axis in turn."""
        out = frontier.copy()
        for (lo, hi), shape in zip(self._blocks, self._shapes):
            o = out[lo:hi].reshape(shape)
            for axis in range(len(shape)):
                lead = (slice(None),) * axis
                o[lead + (slice(1, None),)] |= o[lead + (slice(None, -1),)]
                o[lead + (slice(None, -1),)] |= o[lead + (slice(1, None),)]
        return out

    def distance(self, p: ConePoint, q: ConePoint) -> float:
        """Shortest grid-path length between two mesh-aligned points."""
        _require_same_complex(p, q)
        cls_p = self._class_of(p)
        cls_q = self._class_of(q)
        if cls_p == cls_q:
            return 0.0
        frontier = self._class_id == cls_p
        visited = frontier.copy()
        hops = 0
        while True:
            hops += 1
            nf = self._dilate(frontier)
            nf &= ~visited
            if not nf.any():
                raise RuntimeError("grid search exhausted; box too small")
            hit = np.zeros(self.n_classes, dtype=bool)
            hit[self._class_id[nf]] = True
            if hit[cls_q]:
                return hops * self.mesh / 2.0
            nf = hit[self._class_id] & ~visited
            visited |= nf
            frontier = nf


def brute_force_distance(p: ConePoint, q: ConePoint, mesh: float) -> float:
    """One-shot grid-path distance; see :class:`GridOracle`.

    The box is the largest endpoint coordinate rounded up to the mesh,
    which never cuts off a shortest path: clamping every coordinate of a
    path to the box is a half-sup-nonexpansive map fixing both endpoints
    and commuting with the face and symmetry identifications.
    """
    mesh = as_real(mesh, "mesh")
    if not 0 < mesh < math.inf:
        raise ValueError(f"mesh must be positive and finite, got {mesh}")
    box = max(p.max_coord, q.max_coord, mesh)
    box = mesh * int(np.ceil(box / mesh - _BOX_RATIO_TOL))
    return GridOracle(p.complex, mesh, box).distance(p, q)
