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

import numpy as np

from .metric import ConePoint, _require_same_complex
from .quotient import QuotientComplex
from .surfaces import as_real

# Construction peaks at 8 bytes a node for the class table plus at most
# 32 for each node of the largest face's support patterns, so under 40
# bytes a node, 200 MB at the cap (16-23 bytes a node measured on S(2,0),
# S(1,3), S(2,1), S(0,7), S(0,8) and S(1,5)); each query adds a few
# boolean arrays of one byte a node.
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

    The node classes are built with array operations, one face at a
    time over the support patterns of the top orbits that reduce onto
    it, in place in the class table: about 16 to 23 bytes a node at the
    peak, 8 of them the table's, and less time than a handful of queries.
    A query point reads its class off the node it sits at; each query is
    a breadth-first search over every node.
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
        # reduce's lexicographically least image.
        self._base = self.units + 1
        self._face_number = {o.id: i + 1 for i, o in enumerate(cx.orbits)}
        self._face_stride = self._base ** max(self._dims)
        # Every node first holds the first node of its class, the least
        # node whose key has the same code, found one face at a time over
        # the support masks whose face table entry is that face.  Block
        # origins are the apex, whose first node is node 0.  Then, in place
        # (one more int64 per node), each node's class is the count of
        # first nodes up to its first node, less one, so classes are
        # numbered in order of their first node.  take buffers its output
        # only in "raise" mode, and every first node is in range.
        self._class_id = np.zeros(self.n_nodes, dtype=np.int64)
        faces = {}
        for oid, m, (lo, _hi) in zip(self._orbit_ids, self._dims, self._blocks):
            for mask, (fid, iota) in enumerate(cx.subfaces(oid)[1:], 1):
                support = tuple(e for e in range(m) if mask >> e & 1)
                faces.setdefault(fid, []).append((lo, m, support, iota))
        for fid, patterns in faces.items():
            self._point_to_first(fid, patterns)
        number = np.arange(self.n_nodes)
        np.equal(self._class_id, number, out=number)
        np.cumsum(number, out=number)
        self.n_classes = int(number[-1])
        number -= 1
        np.take(number, self._class_id, out=self._class_id, mode="clip")

    def _point_to_first(self, fid: str, patterns: list) -> None:
        """Write at each node of ``patterns`` (block start, top dimension,
        support, embedding into the support) the least node, over all of
        them, with the same code on face ``fid``.  Each temporary is
        dropped once spent, so at most four int64 arrays of the patterns'
        size are alive at a time."""
        sizes = [self.units ** len(support) for _, _, support, _ in patterns]
        codes = np.empty(sum(sizes), dtype=np.int64)
        nodes = np.empty_like(codes)
        at = 0
        for (lo, m, support, iota), size in zip(patterns, sizes):
            self._least_codes(fid, support, iota, codes[at : at + size])
            weights = [self._base ** (m - 1 - e) for e in support]
            self._digit_sum(lo, weights, nodes[at : at + size])
            at += size
        order = np.argsort(codes)
        codes = codes[order]
        nodes = nodes[order]
        del order
        # Number the distinct codes in place, in sorted order, and point
        # each node at the least node holding its code.
        new = codes[1:] != codes[:-1]
        codes[0] = 0
        codes[1:] = new
        del new
        np.cumsum(codes, out=codes)
        first = np.full(codes[-1] + 1, self.n_nodes, dtype=np.int64)
        np.minimum.at(first, codes, nodes)
        self._class_id[nodes] = first[codes]

    def _least_codes(self, fid: str, support: tuple[int, ...], iota, out: np.ndarray) -> None:
        """Write into ``out``, in grid order, the least code over ``fid``'s
        symmetries of each node whose nonzero entries are exactly
        ``support``; ``iota`` maps the face's coordinates into it."""
        size = len(support)
        axis = [support.index(e) for e in iota]
        start = self._face_number[fid] * self._face_stride
        automorphisms = self.cx.orbit(fid).automorphisms
        image = np.empty_like(out) if len(automorphisms) > 1 else None
        for i, a in enumerate(automorphisms):
            weights = [0] * size
            for j, c in enumerate(a):
                weights[axis[c]] = self._base ** (size - 1 - j)
            self._digit_sum(start, weights, out if i == 0 else image)
            if i:
                np.minimum(out, image, out=out)

    def _digit_sum(self, start: int, weights: list[int], out: np.ndarray) -> None:
        """Write into ``out``, in grid order, ``start`` plus the sum of
        digit times weight over every vector of digits 1..units, one digit
        per weight; broadcasting builds it in one pass over ``out``."""
        digits = np.arange(1, self.units + 1, dtype=np.int64)
        acc = start
        for w in weights[:-1]:
            acc = np.add.outer(acc, digits * w)
        np.add.outer(acc, digits * weights[-1], out=out.reshape((self.units,) * len(weights)))

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
