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

_APEX_KEY = (None, ())
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
# A coordinate that should sit on the box face can overshoot it by a few
# ulps of float arithmetic; anything further out does not fit the box.
_BOX_FIT_TOL = 1e-9


def grid_units(cx: QuotientComplex, mesh: float, box: float) -> int:
    """Validate a grid configuration and return the box side in mesh
    units; raises :class:`ValueError` before any grid is allocated."""
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
    n_nodes = sum((units + 1) ** cx.orbit(oid).n_edges for oid in cx.maximal_ids)
    if n_nodes > _MAX_NODES:
        raise ValueError(
            f"grid would hold {n_nodes} nodes; coarsen the mesh or shrink the box"
        )
    return units


class GridOracle:
    """Mesh discretization of the cone over one complex, up to a box bound.

    The node classes are built with array operations, one support
    pattern of one top orbit at a time, and cost less than a handful of
    queries; each query is a breadth-first search over every node.
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
        self._codes, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        self._class_of_code = np.empty(len(first), dtype=np.int64)
        self._class_of_code[np.argsort(first)] = np.arange(len(first))
        self._class_id = self._class_of_code[inverse]
        self.n_classes = len(self._codes)

    def _pattern_codes(self, oid: str, m: int, support: tuple[int, ...]):
        """Block offsets and least codes of the nodes of ``oid`` whose
        nonzero entries are exactly ``support``."""
        size = len(support)
        base = self._base
        digits = np.indices((self.units,) * size, dtype=np.int32).reshape(size, -1) + 1
        pos = np.zeros(digits.shape[1], dtype=np.intp)
        for row, e in zip(digits, support):
            pos += row * base ** (m - 1 - e)
        if size == m:
            fid, rows = oid, digits
        else:
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

    def _class_of(self, key: tuple) -> int:
        """The class of a :meth:`point_key` key, found by its code."""
        fid, vec = key
        code = 0
        if fid is not None:
            code = self._face_number.get(fid, -1) * self._face_stride
            for i, v in enumerate(vec):
                code += v * self._base ** (len(vec) - 1 - i)
        i = int(np.searchsorted(self._codes, code))
        if i == len(self._codes) or self._codes[i] != code:
            raise ValueError(f"point not representable on this grid: {key!r}")
        return int(self._class_of_code[i])

    def point_key(self, p: ConePoint) -> tuple:
        if p.is_apex:
            return _APEX_KEY
        ivec = []
        for v in p.coords:
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
            ivec.append(i)
        return self.cx.reduce(p.orbit_id, ivec)

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
        kp = self.point_key(p)
        kq = self.point_key(q)
        if kp == kq:
            return 0.0
        cls_p = self._class_of(kp)
        cls_q = self._class_of(kq)
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


def brute_force_distance(
    p: ConePoint, q: ConePoint, mesh: float, box: float | None = None
) -> float:
    """One-shot grid-path distance; see :class:`GridOracle`.

    The default box is the largest endpoint coordinate, which never cuts
    off a shortest path: clamping every coordinate of a path to the box
    is a half-sup-nonexpansive map fixing both endpoints and commuting
    with the face and symmetry identifications.
    """
    top = max((p.max_coord, q.max_coord))
    if box is None:
        box = max(top, mesh)
        box = mesh * int(np.ceil(box / mesh - _BOX_RATIO_TOL))
        box = max(box, mesh)
    if top > box + _BOX_FIT_TOL:
        raise ValueError(f"box {box} too small for coordinates up to {top}")
    oracle = GridOracle(p.complex, mesh, box)
    return oracle.distance(p, q)
