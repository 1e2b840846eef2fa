"""Independent grid oracle for cone distances.

Every top-dimensional orthant is sampled on a cubical mesh, grid points
are identified across orthant charts and orbit symmetries exactly (each
node, in integer mesh units, is keyed by
:meth:`~curvecone.quotient.QuotientComplex.reduce`), and
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
from itertools import product

import numpy as np

from .metric import ConePoint, _require_same_complex
from .quotient import QuotientComplex

_APEX_KEY = (None, ())
_MAX_NODES = 5_000_000


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
    if units < 1 or abs(ratio - units) > 1e-9:
        raise ValueError(f"box {box} must be a positive multiple of mesh {mesh}")
    n_nodes = sum((units + 1) ** cx.orbit(oid).n_edges for oid in cx.maximal_ids)
    if n_nodes > _MAX_NODES:
        raise ValueError(
            f"grid would hold {n_nodes} nodes; coarsen the mesh or shrink the box"
        )
    return units


class GridOracle:
    """Mesh discretization of the cone over one complex, up to a box bound.

    Building the node identification is the expensive part, so construct
    once and query many times.
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

        self._class_of_key: dict[tuple, int] = {}
        class_id = np.empty(self.n_nodes, dtype=np.int64)
        pos = 0
        for oid, m in zip(self._orbit_ids, self._dims):
            for ivec in product(range(self.units + 1), repeat=m):
                key = cx.reduce(oid, ivec)
                class_id[pos] = self._class_of_key.setdefault(key, len(self._class_of_key))
                pos += 1
        self._class_id = class_id
        self.n_classes = len(self._class_of_key)

    def point_key(self, p: ConePoint) -> tuple:
        if p.is_apex:
            return _APEX_KEY
        ivec = []
        for v in p.coords:
            r = v / self.mesh
            i = int(round(r))
            # A positive coordinate that rounds to zero would otherwise
            # drop silently onto a face.
            if i == 0 or abs(r - i) > 1e-6:
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
        out = np.zeros_like(frontier)
        for (lo, hi), shape, m in zip(self._blocks, self._shapes, self._dims):
            f = frontier[lo:hi].reshape(shape)
            o = out[lo:hi].reshape(shape)
            for delta in product((-1, 0, 1), repeat=m):
                if all(d == 0 for d in delta):
                    continue
                src = tuple(
                    slice(1, None) if d == -1 else slice(None, -1) if d == 1 else slice(None)
                    for d in delta
                )
                dst = tuple(
                    slice(None, -1) if d == -1 else slice(1, None) if d == 1 else slice(None)
                    for d in delta
                )
                o[dst] |= f[src]
        return out

    def distance(self, p: ConePoint, q: ConePoint) -> float:
        """Shortest grid-path length between two mesh-aligned points."""
        _require_same_complex(p, q)
        kp = self.point_key(p)
        kq = self.point_key(q)
        if kp == kq:
            return 0.0
        try:
            cls_p = self._class_of_key[kp]
            cls_q = self._class_of_key[kq]
        except KeyError as exc:
            raise ValueError(f"point not representable on this grid: {exc}") from exc
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
        box = mesh * int(np.ceil(box / mesh - 1e-9))
        box = max(box, mesh)
    if top > box + 1e-9:
        raise ValueError(f"box {box} too small for coordinates up to {top}")
    oracle = GridOracle(p.complex, mesh, box)
    return oracle.distance(p, q)
