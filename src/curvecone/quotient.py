"""The finite quotient complex of curve-system orbits for one surface.

Every simplex orbit is stored once, as the canonical form of its cut
graph, together with its edge-symmetry group.  One closure loop
(:func:`build_complex`) enumerates the orbits, starting from the bare
surface and adding one curve at a time
(:func:`~curvecone.multicurves.add_curve`), deduplicated by canonical
form.  The same loop makes the face maps, from the inverse step of
deleting a curve, which record which orbit a deletion lands on and how
the surviving curves are re-identified there: as each curve count
closes, they are read off that level's steps, since deleting the curve
a step added gives back the face it started from.
The complex also exposes the derived gluing data needed by the metric
layer: one face table per orbit, giving the face spanned by each nonempty
curve subset at the subset's bit mask (the orbit itself at the full mask),
the set of embeddings of an orbit into a host orbit, and the transit
identifications between pairs of top-dimensional orbits.  A transit
table from ``X`` to ``Y`` is the transpose of the one from ``Y`` to
``X``: the pair with the larger source id is always read off the other
(see :meth:`QuotientComplex.transits`).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import wraps
from operator import lshift

from .multicurves import (
    CanonicalForm,
    InvalidMulticurve,
    MulticurveGraph,
    VertexDecoration,
    add_curve,
    canonicalize,
    deletion_vertex_map,
    label_hash,
    slot_order,
)
from .surfaces import Record, Surface, as_integer, payload_fields, read_payload

SCHEMA_COMPLEX = "curvecone/quotient-complex/1"


class SimplexOrbit(Record):
    """One orbit of curve systems: canonical cut graph plus symmetries."""

    __slots__ = ("id", "graph", "dim", "automorphisms")

    @property
    def n_edges(self) -> int:
        return len(self.graph.edges)


class FaceMap(Record):
    """Curve deletion between orbits, with the surviving-edge injection.

    ``edge_injection`` pairs each surviving canonical edge of ``source``
    with its canonical edge in ``target``.  Distinct deleted edges may
    share a target orbit.
    """

    __slots__ = ("source", "deleted_edge", "target", "edge_injection")


class Transit(Record):
    """Shared-face identification between consecutive gallery orbits.

    ``into_source[c]`` / ``into_target[c]`` give the host edges carrying
    face edge ``c`` in the two orbits; automorphism twists of the face
    are already folded in.  The apex transit (empty face) is the
    degenerate case with no carried edges.
    """

    __slots__ = ("face_id", "into_source", "into_target")


def orbit_from_canonical(cf: CanonicalForm) -> SimplexOrbit:
    k = len(cf.graph.edges)
    return SimplexOrbit(
        id=f"d{k - 1}-{label_hash(cf.label)}",
        graph=cf.graph,
        dim=k - 1,
        automorphisms=cf.automorphisms,
    )


# ---------------------------------------------------------------------------
# The assembled complex
# ---------------------------------------------------------------------------


def _memoized(fill):
    """A method cached per instance in ``self._memo[name][args]``, args
    positional; ``fill`` never returns ``None``.  A value is stored only
    once ``fill`` has returned it whole, so no thread can read a table
    that is still being built."""
    name = fill.__name__

    @wraps(fill)
    def method(self, *key):
        memo = self._memo[name]
        value = memo.get(key)
        if value is None:
            value = memo[key] = fill(self, *key)
        return value

    return method


class QuotientComplex:
    """All simplex orbits of one surface with face maps and gluing caches.

    Immutable after construction; the gluing tables are derived lazily
    into one memo (:func:`_memoized`), each stored only once complete, so
    instances are safe to share across threads, as
    ``tests/test_quotient.py::test_threads_fill_the_tables_of_a_shared_complex``
    checks.
    """

    def __init__(self, surface: Surface, orbits, face_maps):
        self.surface = surface
        self.orbits = tuple(sorted(orbits, key=lambda o: (o.dim, o.id)))
        self.face_maps = tuple(face_maps)
        self._by_id = {o.id: o for o in self.orbits}
        self._face_at = {
            (fm.source, fm.deleted_edge): fm for fm in self.face_maps
        }
        self.max_dim = max(o.dim for o in self.orbits)
        self.maximal_ids = tuple(
            o.id for o in self.orbits if o.dim == self.max_dim
        )
        self._memo = defaultdict(dict)  # {method name: {args: value}}

    # -- basic access -------------------------------------------------------

    def orbit(self, orbit_id: str) -> SimplexOrbit:
        try:
            return self._by_id[orbit_id]
        except KeyError:
            raise KeyError(f"no orbit {orbit_id!r} in complex of {self.surface}")

    def orbits_of_dim(self, dim: int) -> tuple[SimplexOrbit, ...]:
        dim = as_integer(dim, "dim")
        return tuple(o for o in self.orbits if o.dim == dim)

    def face(self, orbit_id: str, edge: int) -> FaceMap:
        edge = as_integer(edge, "edge")
        try:
            return self._face_at[(orbit_id, edge)]
        except KeyError:
            raise KeyError(f"no face of orbit {orbit_id!r} at edge {edge}")

    def orbit_counts(self) -> dict[int, int]:
        return dict(Counter(o.dim for o in self.orbits))

    # -- derived gluing data --------------------------------------------------

    @_memoized
    def subfaces(self, orbit_id: str) -> tuple[tuple[str, tuple[int, ...]] | None, ...]:
        """At the mask of each nonempty edge subset ``F`` of the orbit
        (bit ``e`` is edge ``e``), the face orbit spanned by ``F`` and the
        injection of that face's canonical edges onto ``F`` (``iota[c]``
        is the host edge carrying face edge ``c``); entry 0 is ``None``
        and the full mask holds the orbit itself.

        For a proper subset the lowest-numbered edge ``e`` outside ``F``
        is deleted first: one face map carries ``F`` into that face, whose
        own table (filled once) gives the rest of the way down.  So one
        pass over that table writes every host mask whose lowest missing
        edge is ``e``, each once."""
        k = self.orbit(orbit_id).n_edges
        table = [None] * (1 << k)
        table[-1] = (orbit_id, tuple(range(k)))
        for e in range(k if k > 1 else 0):  # a single curve has no proper face
            fm = self._face_at[(orbit_id, e)]
            faces = self.subfaces(fm.target)
            host = {c: s for s, c in fm.edge_injection}
            below = (1 << e) - 1
            # A face mask's host mask: that of it less its low bit, plus that bit's host.
            host_mask = [0] * len(faces)
            for m in range(1, len(faces)):
                low = m & -m
                h = host_mask[m] = host_mask[m ^ low] | 1 << host[low.bit_length() - 1]
                if h & below == below:
                    fid, iota = faces[m]
                    table[h] = (fid, tuple(map(host.__getitem__, iota)))
        return tuple(table)

    @_memoized
    def _chart(self, host_id: str) -> dict[str, list[tuple[int, ...]]]:
        """The host's face table sorted and grouped by face, the host
        itself included: ``{face id: [iota, ...]}``."""
        chart = {}
        for fid, iota in sorted(self.subfaces(host_id)[1:]):
            chart.setdefault(fid, []).append(iota)
        return chart

    def reduce(self, orbit_id: str, vec) -> tuple[str | None, tuple]:
        """Canonical form of a chart vector of ``orbit_id``: the face
        spanned by its nonzero entries (the face table's entry at their
        mask), and the lexicographically least image of the vector there
        under that face's symmetries.  The apex, where every entry
        vanishes, is ``(None, ())``.  A vector of another length than the
        orbit's edge count raises ``ValueError``."""
        k = self.orbit(orbit_id).n_edges
        if len(vec) != k:
            raise ValueError(f"a vector of length {len(vec)} for orbit {orbit_id} with {k} edges")
        support = sum(1 << i for i, v in enumerate(vec) if v != 0)
        if not support:
            return None, ()
        fid, iota = self.subfaces(orbit_id)[support]
        auts = self.orbit(fid).automorphisms
        return fid, min(tuple(vec[iota[i]] for i in a) for a in auts)

    @_memoized
    def embeddings(self, face_id: str, host_id: str) -> tuple[tuple[int, ...], ...]:
        """All edge injections realizing ``face_id`` as a face of
        ``host_id``, automorphism twists of the face included: every
        ``c -> iota[a[c]]`` for an injection ``iota`` of the face in the
        host's chart and a face symmetry ``a``, sorted; none repeats, as
        each edge subset has one injection, injective, and the twists are
        distinct.  When the two coincide this is the host's edge-symmetry
        group."""
        auts = self.orbit(face_id).automorphisms
        return tuple(sorted([
            tuple(map(iota.__getitem__, a))
            for iota in self._chart(host_id).get(face_id, ())
            for a in auts
        ]))

    def maximal_embeddings(self, face_id: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """All (maximal orbit, embedding) realizations of an orbit."""
        return tuple(
            (mid, emb) for mid in self.maximal_ids for emb in self.embeddings(face_id, mid)
        )

    @_memoized
    def embeddings_mod_host(self, face_id: str, host_id: str) -> tuple[tuple[int, ...], ...]:
        """One embedding per orbit of the host symmetry group's action.

        Post-composing an embedding with a host symmetry relabels the
        whole host chart, so search procedures that already enumerate
        every identification out of the host lose nothing by fixing one
        representative per orbit.  Each orbit's representative is its
        least image.  Cached per ``(face, host)`` as :meth:`embeddings`
        is: ``distance`` asks for it at every start orbit of every call."""
        auts = self.orbit(host_id).automorphisms
        embs = self.embeddings(face_id, host_id)
        return tuple(sorted({min(tuple(b[x] for x in e) for b in auts) for e in embs}))

    @_memoized
    def transits(self, source_id: str, target_id: str) -> tuple[Transit, ...]:
        """Shared-face identifications usable between two maximal orbits,
        reduced to the maximal ones (a transit whose carried-edge maps
        factor through a larger shared face is dropped).

        The pair alone fixes the way: for ``source_id > target_id`` the
        table mirrors ``transits(target_id, source_id)``, each reverse
        transit ``(f, s, t)`` becoming ``(f, s', iota)``, where ``(f,
        iota)`` is the target's face table entry at the mask of the edges
        ``s`` and ``s'[c] = t[s.index(iota[c])]``, with the rows sorted as
        the candidates are.  The face table holds one injection per edge
        subset and the embeddings carry every twist, so the mirror equals
        the table :meth:`_direct_transits` computes, in the same order."""
        if source_id <= target_id:
            return self._direct_transits(source_id, target_id)
        faces = self.subfaces(target_id)
        rows = []
        for t in self.transits(target_id, source_id):
            fid, iota = faces[sum(1 << s for s in t.into_source)]
            to_target = dict(zip(t.into_source, t.into_target))
            rows.append((fid, tuple(map(to_target.__getitem__, iota)), iota))
        return tuple(Transit(*row) for row in sorted(rows))

    def _direct_transits(self, source_id: str, target_id: str) -> tuple[Transit, ...]:
        """The transit table from ``source_id`` to ``target_id``, built
        from the target's faces and their embeddings into the source, in
        one pass that also collects the dominated pair sets."""
        # Candidates, nearly sorted as the charts are: each face of the
        # target's chart that the source's chart also holds, with every
        # injection into the target and every embedding (twists included)
        # into the source, and its set of (source edge, target edge) pairs
        # as a bit mask, pair (s, t) at bit t * width + s; each target
        # injection's bits are shifted once.
        # A candidate is dominated, and dropped, when its pair set lies
        # strictly inside a larger candidate's.  Every nonempty subset of
        # a candidate's pairs is itself a candidate's: its target edges
        # span a face of the target, with one chart injection, and its
        # source edges span that face of the source by one of the
        # embeddings, which carry every twist.  So the dominated sets are
        # exactly those one pair short of a candidate's, read off each
        # candidate's pair bits as it is made.
        width = self.orbit(source_id).n_edges
        in_source = self._chart(source_id)
        candidates = []
        short = set()
        for fid, iotas_t in self._chart(target_id).items():
            if fid not in in_source:
                continue
            embs = self.embeddings(fid, source_id)
            for iota_t in iotas_t:
                row = [1 << (t * width) for t in iota_t]
                for into_s in embs:
                    bits = [*map(lshift, row, into_s)]
                    mask = sum(bits)
                    candidates.append((fid, into_s, iota_t, mask))
                    for b in bits:
                        short.add(mask ^ b)
        return tuple(
            Transit(fid, into_s, into_t)
            for fid, into_s, into_t, _mask in sorted(
                cand for cand in candidates if cand[3] not in short
            )
        )

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        d = self.surface.complexity
        if self.max_dim != d - 1:
            raise InvalidMulticurve(
                f"top orbit dimension {self.max_dim} != {d - 1} for {self.surface}"
            )
        for mid in self.maximal_ids:
            graph = self.orbit(mid).graph
            degs, _loops = graph.validate()
            for v, dec in enumerate(graph.vertices):
                if dec.piece_genus != 0 or dec.piece_marked + degs[v] != 3:
                    raise InvalidMulticurve(
                        f"maximal orbit {mid} has a non-pants piece at vertex {v}"
                    )
        # Each face map drops one curve; each orbit below the top extends.
        covered = set()
        for fm in self.face_maps:
            if self._by_id[fm.target].dim != self._by_id[fm.source].dim - 1:
                raise InvalidMulticurve(f"face map {fm.source} -> {fm.target} is not a facet")
            covered.add(fm.target)
        missing = [o.id for o in self.orbits if o.dim < d - 1 and o.id not in covered]
        if missing:
            raise InvalidMulticurve(f"orbits {missing} extend to no larger curve system")


# ---------------------------------------------------------------------------
# Orbit enumeration
# ---------------------------------------------------------------------------


def build_complex(surface: Surface, *, expected: list | None = None) -> QuotientComplex:
    """Enumerate all orbits of a surface and assemble face maps.

    One closure loop builds the complex.  Every curve system is one curve
    added to each of its faces, so the orbits of ``k + 1`` curves are the
    canonical dedupe of :func:`~curvecone.multicurves.add_curve` over
    those of ``k``, starting from the bare surface; a curve is added in
    one vertex per orbit of the face's vertex symmetries.  When a level
    closes, its orbits are made in id order, each with its face maps read
    off the steps that reached it (deleting the curve a step added gives
    back the face it started from, see :func:`_face_maps`), and the
    level's steps are dropped.  Structural invariants are verified before
    the complex is returned.

    ``expected``, a payload's orbit list, is compared with each level's
    serialized orbits as the level closes, JSON types included
    (:func:`_same_json`), so a payload that does not match stops the
    build at the first dimension that differs, with ``ValueError``.
    Before the first level, its count of dimension-0 entries is compared
    with :func:`_vertex_orbit_count`, since that level alone adds a curve
    in each of the bare surface's ``(g + 1)(n + 1)`` ways.
    """
    if expected is not None and sum(
        isinstance(o, dict) and o.get("dim") == 0 for o in expected
    ) != _vertex_orbit_count(surface):
        raise ValueError("complex payload does not match its surface's complex at dimension 0")
    bare = VertexDecoration(surface.genus, surface.marked_points)
    # Faces are (orbit id, canonical graph, vertex symmetries); the bare
    # surface has no id.
    level = [(None, MulticurveGraph((bare,), ()), ((0,),))]
    orbits, face_maps = [], []
    for dim in range(surface.complexity):
        # The first form of each label, and per label the first step onto
        # each representative edge: (face, bigger, vertex_order), where
        # add_curve built bigger from the face's graph and vertex_order
        # numbers bigger's vertices onto the representative.
        seen: dict[str, CanonicalForm] = {}
        steps: dict[str, dict] = defaultdict(dict)
        for face in level:
            _fid, graph, vertex_perms = face
            for v in range(len(graph.vertices)):
                if any(tau[v] < v for tau in vertex_perms):
                    continue
                for bigger in add_curve(graph, v):
                    cf = canonicalize(bigger)
                    seen.setdefault(cf.label, cf)
                    steps[cf.label].setdefault(
                        cf.edge_order[-1], (face, bigger, cf.vertex_order)
                    )
        made = sorted(
            ((orbit_from_canonical(cf), cf) for cf in seen.values()),
            key=lambda pair: pair[0].id,
        )
        if expected is not None:
            listed = expected[len(orbits) : len(orbits) + len(made)]
            if not _same_json(listed, [_orbit_dict(o) for o, _cf in made]):
                raise ValueError(
                    f"complex payload does not match its surface's complex at dimension {dim}"
                )
        level = []
        for orbit, cf in made:
            orbits.append(orbit)
            if orbit.n_edges > 1:
                face_maps += _face_maps(orbit, cf.automorphism_pairs, steps[cf.label])
            level.append((orbit.id, cf.graph, cf.vertex_symmetries))
    cx = QuotientComplex(surface, orbits, face_maps)
    cx.check_invariants()
    return cx


def _vertex_orbit_count(surface: Surface) -> int:
    """The number of single-curve orbits of S(g, n), without enumerating
    them: one nonseparating curve when ``g >= 1``, and one separating
    curve per unordered split of the genus and the marked points whose
    sides are both stable.  A side ``(g1, m1)`` is unstable when it is a
    disk, ``(0, 0)``, or a once-marked disk, ``(0, 1)``; a split is
    unordered, so the one split that is its own mirror, ``(g/2, n/2)``,
    is counted once."""
    g, n = surface.genus, surface.marked_points
    unstable = {(0, 0), (0, 1), (g, n), (g, n - 1)}
    in_range = sum(0 <= m1 <= n for _g1, m1 in unstable)
    mirror = g % 2 == 0 and n % 2 == 0 and (g // 2, n // 2) not in unstable
    return (g >= 1) + ((g + 1) * (n + 1) - in_range + mirror) // 2


def _face_maps(orbit: SimplexOrbit, pairs, steps: dict) -> list[FaceMap]:
    """Every face map of an orbit, read off the closure steps onto it.

    A step added a last edge to a face's representative ``F``, giving
    ``bigger``, and canonicalizing ``bigger`` numbered its vertices onto
    the orbit's representative, the new curve landing on edge ``n``.
    Composed with a symmetry ``(tau, eperm)`` that carries ``n`` to
    ``e``, and with the renumberings of
    :func:`~curvecone.multicurves.delete_curve` on both sides, that
    numbering gives a vertex isomorphism ``sigma0`` from
    ``delete_curve(rep, e)`` onto ``F``.  The isomorphisms onto ``F`` are
    exactly ``F``'s vertex symmetries after ``sigma0``, one coset of its
    symmetry group (McKay & Piperno 2014, *Practical graph isomorphism
    II*), and the least of them is the numbering :func:`~curvecone.multicurves.canonicalize`
    picks.  Parallel edges then take ``F``'s slots in input order, as
    there (:func:`~curvecone.multicurves.slot_order`).  So each map equals
    the one canonicalizing the deletion would give, whichever step and
    symmetry reached it.
    """
    rep = orbit.graph
    k = orbit.n_edges
    via = {}
    for tau, eperm in pairs:
        for n, step in steps.items():
            via.setdefault(eperm[n], (tau, step))
    out = []
    for e in range(k):
        if e not in via:
            raise InvalidMulticurve(
                f"face of {orbit.id} (delete {e}) missing from enumeration"
            )
        tau, ((face_id, face, face_taus), bigger, vertex_order) = via[e]
        to_g = deletion_vertex_map(rep, e)
        to_f = deletion_vertex_map(bigger, k - 1)
        sigma0 = [0] * len(face.vertices)
        for x, y in enumerate(vertex_order):
            sigma0[to_g[tau[y]]] = to_f[x]
        sigma = min(tuple(t[g] for g in sigma0) for t in face_taus)
        kept = [s for s in range(k) if s != e]
        into = slot_order([rep.edges[s] for s in kept], [sigma[g] for g in to_g])
        out.append(FaceMap(orbit.id, e, face_id, tuple(zip(kept, into))))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def complex_to_dict(cx: QuotientComplex) -> dict:
    """Serialize to the versioned schema.

    Top-level fields: ``schema_version`` (string, required),
    ``surface`` (``genus``/``marked_points``), ``orbits`` (each with
    ``id``, ``dim``, ``vertices`` as [genus, marked] pairs, ``edges`` as
    endpoint pairs in canonical order, and ``automorphisms`` as edge
    permutations), and ``face_maps`` (``from``, ``deleted_edge``,
    ``to``, ``edge_injection`` as [source edge, target edge] pairs).
    """
    return {
        "schema_version": SCHEMA_COMPLEX,
        "surface": {
            "genus": cx.surface.genus,
            "marked_points": cx.surface.marked_points,
        },
        "orbits": [_orbit_dict(o) for o in cx.orbits],
        "face_maps": [
            {
                "from": fm.source,
                "deleted_edge": fm.deleted_edge,
                "to": fm.target,
                "edge_injection": [list(p) for p in fm.edge_injection],
            }
            for fm in cx.face_maps
        ],
    }


def _orbit_dict(o: SimplexOrbit) -> dict:
    return {
        "id": o.id,
        "dim": o.dim,
        "vertices": [[d.piece_genus, d.piece_marked] for d in o.graph.vertices],
        "edges": [list(e) for e in o.graph.edges],
        "automorphisms": [list(a) for a in o.automorphisms],
    }


def complex_to_json(cx: QuotientComplex) -> str:
    return json.dumps(complex_to_dict(cx), indent=2, sort_keys=True)


def _same_json(payload, made) -> bool:
    """Whether ``payload`` is the JSON document ``made``, types included:
    ``==`` would take ``true`` for ``1`` and ``0.0`` for ``0``.  A payload
    that is no JSON document matches nothing."""
    try:
        return json.dumps(payload, sort_keys=True) == json.dumps(made, sort_keys=True)
    except TypeError:
        return False


def complex_from_dict(payload: dict) -> QuotientComplex:
    """Rebuild a complex from its serialized form.

    The complex is reconstructed from the surface and re-derived; the
    payload must be the rebuilt complex's :func:`complex_to_dict`
    exactly, JSON types included (orbits, automorphisms and face maps
    alike), which guards against stale or hand-edited files.  Any
    payload that does not raises ``ValueError``, one of the wrong shape
    included.  Its dimension-0 entries are counted against the surface's
    vertex orbits before any curve is added, so a short file naming a
    large surface fails at once; its orbits are then compared level by
    level as the build closes each dimension, so a file that matches up
    to a dimension pays for the build up to the next one.  No message
    names a file; the caller that read one does.
    """
    surface, orbits = payload_fields(payload, SCHEMA_COMPLEX, ("surface", "orbits"), "complex")
    if not isinstance(surface, dict):
        raise ValueError(f"complex surface must be an object, got {surface!r}")
    surface = Surface(surface.get("genus"), surface.get("marked_points"))
    if not isinstance(orbits, list):
        raise ValueError(f"complex orbits must be a list, got {type(orbits).__name__}")
    cx = build_complex(surface, expected=orbits)
    if not _same_json(payload, complex_to_dict(cx)):
        raise ValueError("complex payload does not match its surface's complex")
    return cx


def complex_from_json(text: bytes | str) -> QuotientComplex:
    """:func:`complex_from_dict` of the JSON ``text`` or bytes; input that
    is not JSON raises ``ValueError`` too (:func:`~curvecone.surfaces.read_payload`)."""
    return complex_from_dict(read_payload(text))


def complex_to_dot(cx: QuotientComplex) -> str:
    """Face-map diagram in DOT format, one node per orbit."""
    lines = [
        "digraph quotient_complex {",
        '  rankdir="BT";',
        f'  label="{cx.surface} curve-system orbits";',
    ]
    for o in cx.orbits:
        decs = ",".join(
            f"({d.piece_genus},{d.piece_marked})" for d in o.graph.vertices
        )
        edges = ",".join(f"{u}-{w}" for u, w in o.graph.edges)
        sym = len(o.automorphisms)
        lines.append(
            f'  "{o.id}" [label="dim {o.dim}\\npieces {decs}\\ncurves {edges}\\n'
            f'symmetries {sym}"];'
        )
    for fm in cx.face_maps:
        lines.append(
            f'  "{fm.source}" -> "{fm.target}" [label="drop {fm.deleted_edge}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
