"""Decorated multigraphs encoding topological types of disjoint curve systems.

Cutting a surface along a system of disjoint, pairwise non-isotopic
essential curves leaves a collection of complementary pieces.  The
topological type of the system is captured by its cut graph: one vertex
per piece, decorated with the piece's genus and marked-point count, and
one edge per curve joining the pieces on its two sides (a loop when both
sides land on the same piece).  Two curve systems lie in the same
mapping-class-group orbit exactly when their cut graphs are isomorphic
as decorated multigraphs, which reduces orbit bookkeeping to graph
canonicalization.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import permutations, product

from .surfaces import Surface, UnsupportedSurfaceError


class InvalidMulticurve(ValueError):
    """The decorated multigraph violates a curve-system invariant."""


@dataclass(frozen=True)
class VertexDecoration:
    """Genus and marked-point count of one complementary piece."""

    piece_genus: int
    piece_marked: int

    def __post_init__(self):
        if self.piece_genus < 0 or self.piece_marked < 0:
            raise InvalidMulticurve(
                f"negative decoration ({self.piece_genus}, {self.piece_marked})"
            )


def is_stable(decoration: VertexDecoration, degree: int) -> bool:
    """Whether a piece with this decoration and boundary degree is stable.

    The inequality ``2g - 2 + n + degree > 0`` rejects disk pieces
    (inessential curves), once-marked disks (peripheral curves) and
    annuli (isotopic curve pairs) in one stroke.  Loops count twice
    toward the degree.

    Examples::

        >>> is_stable(VertexDecoration(0, 0), 1)
        False
        >>> is_stable(VertexDecoration(0, 1), 1)
        False
        >>> is_stable(VertexDecoration(0, 2), 2)
        True
    """
    return 2 * decoration.piece_genus - 2 + decoration.piece_marked + degree > 0


@dataclass(frozen=True)
class MulticurveGraph:
    """A connected decorated multigraph; edges are curves, vertices pieces.

    ``edges[i]`` is the unordered pair of endpoint vertices of curve ``i``
    (stored low-high; a loop repeats the vertex).  Edge identity is the
    index into ``edges``.
    """

    vertices: tuple[VertexDecoration, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        edges = tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)

    # -- derived counts ----------------------------------------------------

    def degree(self, v: int) -> int:
        """Edge-endpoint count at ``v``; loops contribute 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * len(self.vertices)
        for u, w in self.edges:
            degs[u] += 1
            degs[w] += 1
        return tuple(degs)

    def loops_at(self, v: int) -> int:
        return sum(1 for u, w in self.edges if u == v and w == v)

    @property
    def betti(self) -> int:
        """First Betti number, assuming connectivity."""
        return len(self.edges) - len(self.vertices) + 1

    @property
    def genus(self) -> int:
        return sum(d.piece_genus for d in self.vertices) + self.betti

    @property
    def marked_points(self) -> int:
        return sum(d.piece_marked for d in self.vertices)

    def surface(self) -> Surface:
        """The surface this curve system lives on, reconstructed."""
        return Surface(self.genus, self.marked_points)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        parent = list(range(len(self.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, w in self.edges:
            parent[find(u)] = find(w)
        root = find(0)
        return all(find(v) == root for v in range(len(self.vertices)))

    def validate(self) -> None:
        """Raise :class:`InvalidMulticurve` with a diagnostic on any violation."""
        if not self.edges:
            raise InvalidMulticurve("curve system must contain at least one curve")
        nv = len(self.vertices)
        for i, (u, w) in enumerate(self.edges):
            if not (0 <= u < nv and 0 <= w < nv):
                raise InvalidMulticurve(f"edge {i} endpoints {(u, w)} out of range")
        if not self.is_connected():
            raise InvalidMulticurve("cut graph must be connected")
        if self.betti < 0:
            raise InvalidMulticurve("more components than edges allow")
        degs = self.degrees()
        for v, dec in enumerate(self.vertices):
            if not is_stable(dec, degs[v]):
                raise InvalidMulticurve(
                    f"vertex {v} with decoration ({dec.piece_genus}, "
                    f"{dec.piece_marked}) and degree {degs[v]} is unstable"
                )
        try:
            surf = self.surface()
        except UnsupportedSurfaceError as exc:
            raise InvalidMulticurve(str(exc)) from exc
        if len(self.edges) > surf.complexity:
            raise InvalidMulticurve(
                f"{len(self.edges)} curves exceed the pants count "
                f"{surf.complexity} of {surf}"
            )


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical labeling of a decorated multigraph plus its symmetries.

    ``automorphisms`` is the full group of edge permutations induced by
    decoration-preserving graph automorphisms of the canonical
    representative; ``automorphism_pairs`` keeps the underlying
    (vertex permutation, edge permutation) pairs, whose count can exceed
    the edge group's order when a vertex symmetry acts trivially on edges.
    """

    graph: MulticurveGraph
    label: str
    vertex_order: tuple[int, ...]
    edge_order: tuple[int, ...]
    automorphisms: tuple[tuple[int, ...], ...]
    automorphism_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(
        repr=False, default=()
    )


def _class_key(graph: MulticurveGraph, v: int) -> tuple:
    dec = graph.vertices[v]
    return (dec.piece_genus, dec.piece_marked, graph.degree(v), graph.loops_at(v))


def _class_blocks(graph: MulticurveGraph):
    """Vertices grouped by isomorphism-invariant class key, with the
    position block each class occupies in any canonical numbering."""
    by_key = defaultdict(list)
    for v in range(len(graph.vertices)):
        by_key[_class_key(graph, v)].append(v)
    blocks = []
    start = 0
    for key in sorted(by_key):
        members = by_key[key]
        blocks.append((key, members, start))
        start += len(members)
    return blocks


def _class_respecting_perms(blocks, nv: int):
    """All vertex numberings that send each class onto its position block."""
    per_class = []
    for _key, members, start in blocks:
        opts = []
        for perm in permutations(range(start, start + len(members))):
            opts.append(list(zip(members, perm)))
        per_class.append(opts)
    for combo in product(*per_class):
        sigma = [0] * nv
        for assignment in combo:
            for old, new in assignment:
                sigma[old] = new
        yield tuple(sigma)


def _relabel_edges(edges, sigma):
    return tuple(
        sorted(tuple(sorted((sigma[u], sigma[w]))) for u, w in edges)
    )


def canonicalize(graph: MulticurveGraph) -> CanonicalForm:
    """Deterministic canonical form and exact automorphism group.

    Two graphs receive equal ``label`` exactly when they are isomorphic
    as decorated multigraphs.  The search runs over vertex numberings
    compatible with the (decoration, degree, loop-count) partition, which
    every isomorphism preserves; parallel edges and loops are handled by
    matching edge multisets and enumerating per-slot bijections.
    """
    graph.validate()
    nv = len(graph.vertices)
    blocks = _class_blocks(graph)

    best_edges = None
    best_sigma = None
    for sigma in _class_respecting_perms(blocks, nv):
        cand = _relabel_edges(graph.edges, sigma)
        if best_edges is None or (cand, sigma) < (best_edges, best_sigma):
            best_edges, best_sigma = cand, sigma

    decorations = [None] * nv
    for key, members, start in blocks:
        for offset in range(len(members)):
            decorations[start + offset] = VertexDecoration(key[0], key[1])
    rep = MulticurveGraph(tuple(decorations), best_edges)

    # Map input edge ids to canonical ids; among parallel edges the
    # assignment follows input order, which keeps it deterministic.
    slot_queue = defaultdict(list)
    for j, pair in enumerate(rep.edges):
        slot_queue[pair].append(j)
    taken = defaultdict(int)
    edge_order = []
    for u, w in graph.edges:
        pair = tuple(sorted((best_sigma[u], best_sigma[w])))
        edge_order.append(slot_queue[pair][taken[pair]])
        taken[pair] += 1

    pairs, eperms = _automorphism_search(rep)

    label = _label_string(rep)
    return CanonicalForm(
        graph=rep,
        label=label,
        vertex_order=best_sigma,
        edge_order=tuple(edge_order),
        automorphisms=eperms,
        automorphism_pairs=pairs,
    )


def _automorphism_search(rep: MulticurveGraph):
    """All (vertex, edge) automorphism pairs of a canonical representative."""
    nv = len(rep.vertices)
    blocks = _class_blocks(rep)
    rep_sorted = list(rep.edges)
    positions_by_pair = defaultdict(list)
    for j, pair in enumerate(rep.edges):
        positions_by_pair[pair].append(j)

    pairs = []
    eperm_set = set()
    for tau in _class_respecting_perms(blocks, nv):
        mapped = [tuple(sorted((tau[u], tau[w]))) for u, w in rep.edges]
        if sorted(mapped) != rep_sorted:
            continue
        sources_by_pair = defaultdict(list)
        for i, pair in enumerate(mapped):
            sources_by_pair[pair].append(i)
        keys = sorted(sources_by_pair)
        for combo in product(
            *(permutations(positions_by_pair[k]) for k in keys)
        ):
            eperm = [0] * len(rep.edges)
            for k, slots in zip(keys, combo):
                for src, dst in zip(sources_by_pair[k], slots):
                    eperm[src] = dst
            eperm = tuple(eperm)
            pairs.append((tau, eperm))
            eperm_set.add(eperm)
    return tuple(sorted(pairs)), tuple(sorted(eperm_set))


def _label_string(rep: MulticurveGraph) -> str:
    decs = ";".join(f"{d.piece_genus},{d.piece_marked}" for d in rep.vertices)
    edges = ";".join(f"{u}-{w}" for u, w in rep.edges)
    return f"v[{decs}]e[{edges}]"


def label_hash(label: str) -> str:
    return hashlib.sha1(label.encode("ascii")).hexdigest()[:10]


def delete_curve(graph: MulticurveGraph, edge: int) -> MulticurveGraph | None:
    """Remove one curve from the system; the face operation on cut graphs.

    Deleting a loop reglues a handle: the vertex gains one genus.
    Deleting a joining edge merges its endpoints, adding decorations.
    Surviving edges keep their relative order (edge ``j`` becomes
    ``j - 1`` for ``j`` past the deleted index).  Returns ``None`` for
    the empty system when the last curve is deleted.
    """
    if not (0 <= edge < len(graph.edges)):
        raise InvalidMulticurve(f"no edge {edge} in graph with {len(graph.edges)} edges")
    if len(graph.edges) == 1:
        return None
    u, w = graph.edges[edge]
    rest = tuple(e for i, e in enumerate(graph.edges) if i != edge)
    verts = list(graph.vertices)
    if u == w:
        verts[u] = VertexDecoration(verts[u].piece_genus + 1, verts[u].piece_marked)
        return MulticurveGraph(tuple(verts), rest)
    merged = VertexDecoration(
        verts[u].piece_genus + verts[w].piece_genus,
        verts[u].piece_marked + verts[w].piece_marked,
    )
    verts[u] = merged
    del verts[w]

    def renum(x: int) -> int:
        if x == w:
            return u
        return x - 1 if x > w else x

    new_edges = tuple((renum(a), renum(b)) for a, b in rest)
    return MulticurveGraph(tuple(verts), new_edges)


def add_curve(graph: MulticurveGraph, v: int) -> list[MulticurveGraph]:
    """Every way to add one curve inside piece ``v``; the inverse of
    :func:`delete_curve`.

    A nonseparating curve is a loop at ``v`` and takes one genus from
    the piece.  A separating curve splits the piece into ``v`` and a new
    last vertex, dividing its genus, its marked points and the curve
    ends incident to it between the two halves; each half must be
    stable counting the new curve.  The two ends of a loop at ``v`` may
    land on different sides.  The new curve is the last edge and the
    other edges keep their order, so deleting the last edge of any
    result gives back ``graph``.  Results that differ only by swapping
    the two halves, or by which of several parallel edges went where,
    are listed once.  ``graph`` may have no edges: one vertex ``(g, n)``
    stands for the bare surface.

    Examples::

        >>> bare = MulticurveGraph((VertexDecoration(1, 2),), ())
        >>> for h in add_curve(bare, 0):
        ...     print([(d.piece_genus, d.piece_marked) for d in h.vertices], h.edges)
        [(0, 2)] ((0, 0),)
        [(0, 2), (1, 0)] ((0, 1),)
        >>> delete_curve(add_curve(bare, 0)[1], 0) is None
        True
    """
    dec = graph.vertices[v]
    genus, marked = dec.piece_genus, dec.piece_marked
    nv = len(graph.vertices)
    found: list[MulticurveGraph] = []
    if genus > 0:
        verts = list(graph.vertices)
        verts[v] = VertexDecoration(genus - 1, marked)
        found.append(MulticurveGraph(tuple(verts), graph.edges + ((v, v),)))

    # A split is listed under the smaller of its own key and its mirror's.
    swap = {v: nv, nv: v}
    splits: dict[tuple, MulticurveGraph] = {}

    def key(h: MulticurveGraph, relabel: dict) -> tuple:
        verts = [h.vertices[relabel.get(x, x)] for x in range(nv + 1)]
        edges = sorted(
            tuple(sorted((relabel.get(a, a), relabel.get(b, b)))) for a, b in h.edges
        )
        return tuple((d.piece_genus, d.piece_marked) for d in verts), tuple(edges)

    ends = [(i, s) for i, e in enumerate(graph.edges) for s in (0, 1) if e[s] == v]
    for sides in product((v, nv), repeat=len(ends)):
        edges = [list(e) for e in graph.edges]
        for (i, s), side in zip(ends, sides):
            edges[i][s] = side
        edges = tuple(map(tuple, edges)) + ((v, nv),)
        moved = sides.count(nv)
        for g1 in range(genus + 1):
            for m1 in range(marked + 1):
                half = VertexDecoration(g1, m1)
                other = VertexDecoration(genus - g1, marked - m1)
                if is_stable(half, len(ends) - moved + 1) and is_stable(other, moved + 1):
                    verts = graph.vertices[:v] + (half,) + graph.vertices[v + 1:]
                    h = MulticurveGraph(verts + (other,), edges)
                    splits.setdefault(min(key(h, {}), key(h, swap)), h)
    return found + list(splits.values())
