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

from collections import defaultdict
from functools import cached_property
from itertools import permutations, product

from .surfaces import Record, as_integer

try:  # the interpreter's own SHA-1: importing hashlib loads OpenSSL
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1


class InvalidMulticurve(ValueError):
    """The decorated multigraph violates a curve-system invariant."""


class VertexDecoration(Record):
    """Genus and marked-point count of one complementary piece, both
    nonnegative integers (numpy's integer types are stored as ``int``)."""

    __slots__ = ("piece_genus", "piece_marked")

    def __init__(self, piece_genus: int, piece_marked: int):
        piece_genus = as_integer(piece_genus, "piece_genus", InvalidMulticurve)
        piece_marked = as_integer(piece_marked, "piece_marked", InvalidMulticurve)
        object.__setattr__(self, "piece_genus", piece_genus)
        object.__setattr__(self, "piece_marked", piece_marked)
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


class MulticurveGraph(Record):
    """A connected decorated multigraph; edges are curves, vertices pieces.

    ``edges[i]`` is the unordered pair of endpoint vertices of curve ``i``
    (stored low-high; a loop repeats the vertex).  Edge identity is the
    index into ``edges``.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple((u, v) if u <= v else (v, u) for u, v in edges))

    # -- derived counts ----------------------------------------------------

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

    def is_connected(self) -> bool:
        """Whether every vertex is reached from vertex 0: each pass over
        the edges adds the far end of every edge with one end reached,
        until a pass adds nothing."""
        if not self.vertices:
            return False
        reached, size = {0}, 0
        while size != len(reached):
            size = len(reached)
            for u, w in self.edges:
                if u in reached:
                    reached.add(w)
                elif w in reached:
                    reached.add(u)
        return size == len(self.vertices)

    def validate(self) -> tuple[list[int], list[int]]:
        """Raise :class:`InvalidMulticurve` with a diagnostic on any
        violation; otherwise return ``(degrees, loops)``, each vertex's
        edge-endpoint count (a loop counts twice) and loop count, taken
        in the same pass over the edges as the checks."""
        if not self.edges:
            raise InvalidMulticurve("curve system must contain at least one curve")
        nv = len(self.vertices)
        degs, loops = [0] * nv, [0] * nv
        for i, (u, w) in enumerate(self.edges):
            if not (0 <= u < nv and 0 <= w < nv):
                raise InvalidMulticurve(f"edge {i} endpoints {(u, w)} out of range")
            degs[u] += 1
            degs[w] += 1
            loops[u] += u == w
        if not self.is_connected():
            raise InvalidMulticurve("cut graph must be connected")
        for v, dec in enumerate(self.vertices):
            if not is_stable(dec, degs[v]):
                raise InvalidMulticurve(
                    f"vertex {v} with decoration ({dec.piece_genus}, "
                    f"{dec.piece_marked}) and degree {degs[v]} is unstable"
                )
        genus, marked = self.genus, self.marked_points
        complexity = 3 * genus - 3 + marked
        if len(self.edges) > complexity:
            raise InvalidMulticurve(
                f"{len(self.edges)} curves exceed the pants count {complexity} "
                f"of genus {genus} with {marked} marked points"
            )
        return degs, loops


class CanonicalForm(Record):
    """Canonical labeling of a decorated multigraph plus its symmetries.

    ``vertex_numberings`` are all the numberings of the input graph's
    vertices onto the canonical representative, in scan order;
    ``vertex_order`` is the least of them.  The symmetries are derived
    from them on first read, so a caller that needs only the label and
    the numberings pays nothing for them: ``vertex_symmetries`` are the
    decoration-preserving vertex automorphisms of the representative,
    sorted; ``automorphisms`` is the full group of edge permutations
    they induce; ``automorphism_pairs`` keeps the underlying (vertex
    permutation, edge permutation) pairs, whose count can exceed the
    edge group's order when a vertex symmetry acts trivially on edges.
    """

    # The cached properties below keep their values in the ``__dict__``.
    __slots__ = ("graph", "label", "vertex_order", "edge_order", "vertex_numberings", "__dict__")

    @cached_property
    def vertex_symmetries(self) -> tuple[tuple[int, ...], ...]:
        # Representative vertex vertex_order[v] is input vertex v, which
        # each numbering sends to sigma[v]: those are the symmetries.
        unbest = sorted(range(len(self.vertex_order)), key=self.vertex_order.__getitem__)
        return tuple(sorted(tuple(sigma[v] for v in unbest) for sigma in self.vertex_numberings))

    @cached_property
    def automorphism_pairs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        return _automorphism_pairs(self.graph, self.vertex_symmetries)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({eperm for _tau, eperm in self.automorphism_pairs}))


def _class_blocks(graph: MulticurveGraph, degs, loops):
    """Vertices grouped by isomorphism-invariant class key (genus, marked
    points, degree, loop count), with the position block each class
    occupies in any canonical numbering."""
    by_key = defaultdict(list)
    for v, dec in enumerate(graph.vertices):
        by_key[(dec.piece_genus, dec.piece_marked, degs[v], loops[v])].append(v)
    blocks = []
    start = 0
    for key in sorted(by_key):
        members = by_key[key]
        blocks.append((key, members, start))
        start += len(members)
    return blocks


def _assignments(size: int, groups):
    """Every tuple of length ``size`` that sends the sources of each
    ``(sources, targets)`` group onto some ordering of its targets."""
    out = [0] * size
    free = []
    for sources, targets in groups:
        if len(sources) == 1:
            out[sources[0]] = targets[0]
        else:
            free.append((sources, permutations(targets)))
    for combo in product(*(perms for _sources, perms in free)):
        for (sources, _perms), perm in zip(free, combo):
            for old, new in zip(sources, perm):
                out[old] = new
        yield tuple(out)


def _renumber(edges, sigma) -> list[tuple[int, int]]:
    """The edges with their endpoints renumbered by ``sigma``, low-high."""
    out = []
    for u, w in edges:
        a, b = sigma[u], sigma[w]
        out.append((a, b) if a <= b else (b, a))
    return out


def slot_order(edges, numbering) -> list[int]:
    """The slot each of ``edges`` takes among a representative's edges
    once ``numbering``, an isomorphism onto the representative,
    renumbers its endpoints.  The representative's edges are the
    renumbered ones sorted, so a stable sort gives the slots, with
    parallel edges taking their pair's slots in input order."""
    renumbered = _renumber(edges, numbering)
    out = [0] * len(renumbered)
    for slot, i in enumerate(sorted(range(len(renumbered)), key=renumbered.__getitem__)):
        out[i] = slot
    return out


def canonicalize(graph: MulticurveGraph) -> CanonicalForm:
    """Deterministic canonical form and exact automorphism group.

    Two graphs receive equal ``label`` exactly when they are isomorphic
    as decorated multigraphs.  The scan runs over vertex numberings
    compatible with the (decoration, degree, loop-count) partition, which
    every isomorphism preserves.  The numberings that reach the least
    sorted edge list number the graph onto its representative, and the
    least of them is ``vertex_order``; parallel edges take their slots in
    input order.  Those numberings are the chosen one followed by each
    vertex symmetry of the representative, so the scan finds the
    numbering and the symmetries follow from it: they are derived once
    per form, on first read (see :class:`CanonicalForm`).  A closure
    that keeps the first form of each label derives them once per orbit.
    """
    degs, loops = graph.validate()
    nv = len(graph.vertices)
    blocks = _class_blocks(graph, degs, loops)

    best_edges = None
    ties = []
    # Every numbering that sends each class onto its position block.
    numberings = _assignments(
        nv, [(members, range(start, start + len(members))) for _key, members, start in blocks]
    )
    for sigma in numberings:
        cand = _renumber(graph.edges, sigma)
        cand.sort()
        if best_edges is None or cand < best_edges:
            best_edges, ties = cand, [sigma]
        elif cand == best_edges:
            ties.append(sigma)
    best_sigma = min(ties)

    decorations = [None] * nv
    for v, dec in enumerate(graph.vertices):
        decorations[best_sigma[v]] = dec
    rep = MulticurveGraph(tuple(decorations), tuple(best_edges))

    return CanonicalForm(
        graph=rep,
        label=_label_string(rep),
        vertex_order=best_sigma,
        edge_order=tuple(slot_order(graph.edges, best_sigma)),
        vertex_numberings=tuple(ties),
    )


def _automorphism_pairs(rep: MulticurveGraph, vertex_perms):
    """Every (vertex, edge) automorphism pair of a canonical representative,
    sorted, given its vertex symmetries: each extends to edges by every
    bijection between the parallel-edge slots it matches up."""
    slots = defaultdict(list)  # the positions of each endpoint pair, in order
    for j, pair in enumerate(rep.edges):
        slots[pair].append(j)
    pairs = []
    for tau in vertex_perms:
        groups = []
        for (u, w), sources in slots.items():
            a, b = tau[u], tau[w]
            groups.append((sources, slots[(a, b) if a <= b else (b, a)]))
        pairs.extend((tau, eperm) for eperm in _assignments(len(rep.edges), groups))
    return tuple(sorted(pairs))


def _label_string(rep: MulticurveGraph) -> str:
    decs = ";".join(f"{d.piece_genus},{d.piece_marked}" for d in rep.vertices)
    edges = ";".join(f"{u}-{w}" for u, w in rep.edges)
    return f"v[{decs}]e[{edges}]"


def label_hash(label: str) -> str:
    return sha1(label.encode("ascii")).hexdigest()[:10]


def deletion_vertex_map(graph: MulticurveGraph, edge: int) -> list[int]:
    """Where :func:`delete_curve` sends each vertex of ``graph``.

    Deleting a joining edge merges its higher endpoint into its lower one
    and shifts the vertices past it down by one; deleting a loop moves no
    vertex.
    """
    u, w = graph.edges[edge]
    return [
        x if u == w else u if x == w else x - (x > w)
        for x in range(len(graph.vertices))
    ]


def delete_curve(graph: MulticurveGraph, edge: int) -> MulticurveGraph | None:
    """Remove one curve from the system; the face operation on cut graphs.

    Deleting a loop reglues a handle: the vertex gains one genus.
    Deleting a joining edge merges its endpoints, adding decorations, and
    renumbers the vertices as :func:`deletion_vertex_map` says.
    Surviving edges keep their relative order (edge ``j`` becomes
    ``j - 1`` for ``j`` past the deleted index).  Returns ``None`` for
    the empty system when the last curve is deleted.  An ``edge`` that
    is not an edge index of ``graph`` raises :class:`InvalidMulticurve`.
    """
    edge = as_integer(edge, "edge", InvalidMulticurve)
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
    to = deletion_vertex_map(graph, edge)
    return MulticurveGraph(tuple(verts), tuple((to[a], to[b]) for a, b in rest))


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
    stands for the bare surface.  A ``v`` that is not one of its
    vertices raises :class:`InvalidMulticurve`.

    Examples::

        >>> bare = MulticurveGraph((VertexDecoration(1, 2),), ())
        >>> for h in add_curve(bare, 0):
        ...     print([(d.piece_genus, d.piece_marked) for d in h.vertices], h.edges)
        [(0, 2)] ((0, 0),)
        [(0, 2), (1, 0)] ((0, 1),)
        >>> delete_curve(add_curve(bare, 0)[1], 0) is None
        True
    """
    nv = len(graph.vertices)
    v = as_integer(v, "vertex", InvalidMulticurve)
    if not 0 <= v < nv:
        raise InvalidMulticurve(f"no vertex {v} in graph with {nv} vertices")
    genus, marked = graph.vertices[v].piece_genus, graph.vertices[v].piece_marked
    found: list[MulticurveGraph] = []
    if genus > 0:
        verts = list(graph.vertices)
        verts[v] = VertexDecoration(genus - 1, marked)
        found.append(MulticurveGraph(tuple(verts), graph.edges + ((v, v),)))

    # A split is listed under the smaller of its own key and its mirror's:
    # the two halves' decorations, then the sorted edge list.  The other
    # vertices are the same in every split, so they need no place in it.
    swap = {v: nv, nv: v}
    seen = set()
    decorations = {}  # one VertexDecoration per (genus, marked) half
    ends = [(i, s) for i, e in enumerate(graph.edges) for s in (0, 1) if e[s] == v]
    for sides in product((v, nv), repeat=len(ends)):
        if sides and sides[0] == nv:
            break  # the rest move the first end: mirrors of splits above
        moved = sides.count(nv)
        # is_stable for both halves, each counting the new curve.
        halves = [
            ((g1, m1), (genus - g1, marked - m1))
            for g1 in range(genus + 1)
            for m1 in range(marked + 1)
            if 2 * g1 - 1 + m1 + len(ends) - moved > 0
            and 2 * (genus - g1) - 1 + marked - m1 + moved > 0
        ]
        if not halves:
            continue
        edges = [list(e) for e in graph.edges]
        for (i, s), side in zip(ends, sides):
            edges[i][s] = side
        edges = tuple((a, b) if a <= b else (b, a) for a, b in edges) + ((v, nv),)
        own = tuple(sorted(edges))
        mirror = tuple(sorted(
            (a, b) if a <= b else (b, a)
            for a, b in ((swap.get(a, a), swap.get(b, b)) for a, b in edges)
        ))
        for half, other in halves:
            key = min((half, other, own), (other, half, mirror))
            if key not in seen:
                seen.add(key)
                for pair in (half, other):
                    if pair not in decorations:
                        decorations[pair] = VertexDecoration(*pair)
                verts = (
                    graph.vertices[:v] + (decorations[half],)
                    + graph.vertices[v + 1:] + (decorations[other],)
                )
                found.append(MulticurveGraph(verts, edges))
    return found
