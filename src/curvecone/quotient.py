"""The finite quotient complex of curve-system orbits for one surface.

Every simplex orbit is stored once, as the canonical form of its cut
graph, together with its edge-symmetry group.  Orbits are enumerated as
the closure of the bare surface under adding one curve at a time
(:func:`~curvecone.multicurves.add_curve`), deduplicated by canonical
form.  Face maps, from the inverse step of deleting a curve, record
which orbit a deletion lands on and how the surviving curves are
re-identified there.  The complex also exposes the derived gluing data
needed by the metric layer: face tables for arbitrary curve subsets,
the set of embeddings of an orbit into a host orbit, and the transit
identifications between pairs of top-dimensional orbits.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .multicurves import (
    CanonicalForm,
    InvalidMulticurve,
    MulticurveGraph,
    VertexDecoration,
    add_curve,
    canonicalize,
    delete_curve,
    label_hash,
)
from .surfaces import Surface

SCHEMA_COMPLEX = "curvecone/quotient-complex/1"


@dataclass(frozen=True)
class SimplexOrbit:
    """One orbit of curve systems: canonical cut graph plus symmetries."""

    id: str
    graph: MulticurveGraph
    dim: int
    automorphisms: tuple[tuple[int, ...], ...]

    @property
    def n_edges(self) -> int:
        return len(self.graph.edges)


@dataclass(frozen=True)
class FaceMap:
    """Curve deletion between orbits, with the surviving-edge injection.

    ``edge_injection`` pairs each surviving canonical edge of ``source``
    with its canonical edge in ``target``.  Distinct deleted edges may
    share a target orbit.
    """

    source: str
    deleted_edge: int
    target: str
    edge_injection: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Transit:
    """Shared-face identification between consecutive gallery orbits.

    ``into_source[c]`` / ``into_target[c]`` give the host edges carrying
    face edge ``c`` in the two orbits; automorphism twists of the face
    are already folded in.  The apex transit (empty face) is the
    degenerate case with no carried edges.
    """

    face_id: str
    into_source: tuple[int, ...]
    into_target: tuple[int, ...]

    @property
    def is_apex(self) -> bool:
        return not self.into_source


def orbit_from_canonical(cf: CanonicalForm) -> SimplexOrbit:
    k = len(cf.graph.edges)
    return SimplexOrbit(
        id=f"d{k - 1}-{label_hash(cf.label)}",
        graph=cf.graph,
        dim=k - 1,
        automorphisms=cf.automorphisms,
    )


# ---------------------------------------------------------------------------
# Orbit enumeration
# ---------------------------------------------------------------------------


def _orbit_levels(surface: Surface, top: int) -> list[dict[str, CanonicalForm]]:
    """Canonical forms of the ``k``-curve systems, keyed by label, for
    ``k = 1 .. top``.

    Every curve system is one curve added to each of its faces, so level
    ``k + 1`` is the canonical dedupe of :func:`add_curve` over level
    ``k``, starting from the bare surface.  A curve is added in one
    vertex per orbit of the graph's symmetries.
    """
    bare = VertexDecoration(surface.genus, surface.marked_points)
    level = [(MulticurveGraph((bare,), ()), ((0,),))]
    levels = []
    for _ in range(top):
        seen: dict[str, CanonicalForm] = {}
        for graph, vertex_perms in level:
            for v in range(len(graph.vertices)):
                if any(tau[v] < v for tau in vertex_perms):
                    continue
                for bigger in add_curve(graph, v):
                    cf = canonicalize(bigger)
                    seen.setdefault(cf.label, cf)
        levels.append(seen)
        level = [
            (cf.graph, {tau for tau, _eperm in cf.automorphism_pairs})
            for cf in seen.values()
        ]
    return levels


def enumerate_orbits(surface: Surface, k: int) -> list[SimplexOrbit]:
    """All orbits of ``k``-curve systems on ``surface``.

    The closure of the bare surface under :func:`add_curve`, deduplicated
    by canonical form after each added curve.  Output is sorted by orbit
    id.
    """
    if not 1 <= k <= surface.complexity:
        raise ValueError(
            f"curve count {k} out of range [1, {surface.complexity}] for {surface}"
        )
    return _sorted_orbits(_orbit_levels(surface, k)[-1])


def _sorted_orbits(level: dict[str, CanonicalForm]) -> list[SimplexOrbit]:
    return sorted((orbit_from_canonical(cf) for cf in level.values()), key=lambda o: o.id)


# ---------------------------------------------------------------------------
# The assembled complex
# ---------------------------------------------------------------------------


class QuotientComplex:
    """All simplex orbits of one surface with face maps and gluing caches.

    Immutable after construction; the lazy caches are filled with
    idempotent derived data only, so instances are safe to share.
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
        self._subface_cache: dict[str, dict] = {}
        self._chart_cache: dict[str, dict] = {}
        self._embedding_cache: dict[tuple[str, str], tuple] = {}
        self._transit_cache: dict[tuple[str, str], tuple] = {}

    # -- basic access -------------------------------------------------------

    def orbit(self, orbit_id: str) -> SimplexOrbit:
        try:
            return self._by_id[orbit_id]
        except KeyError:
            raise KeyError(f"no orbit {orbit_id!r} in complex of {self.surface}")

    def orbits_of_dim(self, dim: int) -> tuple[SimplexOrbit, ...]:
        return tuple(o for o in self.orbits if o.dim == dim)

    def face(self, orbit_id: str, edge: int) -> FaceMap:
        return self._face_at[(orbit_id, edge)]

    def orbit_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for o in self.orbits:
            counts[o.dim] = counts.get(o.dim, 0) + 1
        return counts

    # -- derived gluing data --------------------------------------------------

    def subfaces(self, orbit_id: str) -> dict[frozenset, tuple[str, tuple[int, ...]]]:
        """For each proper nonempty edge subset ``F`` of the orbit, the face
        orbit spanned by ``F`` and the injection of that face's canonical
        edges onto ``F`` (``iota[c]`` is the host edge carrying face edge
        ``c``).

        The lowest-numbered edge outside ``F`` is deleted first: one face
        map carries ``F`` into that face, whose own table (filled once)
        gives the rest of the way down.  The host's chart is filled in the
        same pass."""
        cached = self._subface_cache.get(orbit_id)
        if cached is not None:
            return cached
        k = self.orbit(orbit_id).n_edges
        table = {}
        chart = {orbit_id: [tuple(range(k))]}
        for size in range(1, k):
            for keep in combinations(range(k), size):
                spare = next(e for e in range(k) if e not in keep)
                fm = self._face_at[(orbit_id, spare)]
                inj = dict(fm.edge_injection)
                host_of = {inj[f]: f for f in keep}
                if size == k - 1:
                    fid, iota = fm.target, range(size)
                else:
                    fid, iota = self.subfaces(fm.target)[frozenset(host_of)]
                emb = tuple(host_of[c] for c in iota)
                table[frozenset(keep)] = (fid, emb)
                chart.setdefault(fid, []).append(emb)
        self._subface_cache[orbit_id] = table
        self._chart_cache[orbit_id] = chart
        return table

    def _chart(self, host_id: str) -> dict[str, list[tuple[int, ...]]]:
        """Every face of the host, the host itself included, with the
        injections that realize it: ``{face id: [iota, ...]}``, filled
        together with the host's ``subfaces`` table."""
        self.subfaces(host_id)
        return self._chart_cache[host_id]

    def reduce(self, orbit_id: str, vec) -> tuple[str | None, tuple]:
        """Canonical form of a chart vector of ``orbit_id``: the face
        spanned by its nonzero entries, and the lexicographically least
        image of the vector there under that face's symmetries.  The
        apex, where every entry vanishes, is ``(None, ())``."""
        support = [i for i, v in enumerate(vec) if v != 0]
        if len(support) < len(vec):
            if not support:
                return None, ()
            orbit_id, iota = self.subfaces(orbit_id)[frozenset(support)]
            vec = [vec[e] for e in iota]
        auts = self.orbit(orbit_id).automorphisms
        return orbit_id, min(tuple(vec[i] for i in a) for a in auts)

    def embeddings(self, face_id: str, host_id: str) -> tuple[tuple[int, ...], ...]:
        """All edge injections realizing ``face_id`` as a face of
        ``host_id``, automorphism twists of the face included: every
        ``c -> iota[a[c]]`` for an injection ``iota`` of the face in the
        host's chart and a face symmetry ``a``, sorted.  When the two coincide
        this is the host's edge-symmetry group."""
        key = (face_id, host_id)
        cached = self._embedding_cache.get(key)
        if cached is not None:
            return cached
        auts = self.orbit(face_id).automorphisms
        result = tuple(sorted({
            tuple(iota[c] for c in a)
            for iota in self._chart(host_id).get(face_id, ())
            for a in auts
        }))
        self._embedding_cache[key] = result
        return result

    def maximal_embeddings(self, face_id: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """All (maximal orbit, embedding) realizations of an orbit."""
        out = []
        for mid in self.maximal_ids:
            for emb in self.embeddings(face_id, mid):
                out.append((mid, emb))
        return tuple(out)

    def embeddings_mod_host(self, face_id: str, host_id: str) -> tuple[tuple[int, ...], ...]:
        """One embedding per orbit of the host symmetry group's action.

        Post-composing an embedding with a host symmetry relabels the
        whole host chart, so search procedures that already enumerate
        every identification out of the host lose nothing by fixing one
        representative per orbit."""
        embs = self.embeddings(face_id, host_id)
        auts = self.orbit(host_id).automorphisms
        reps = set()
        for e in embs:
            reps.add(
                min(tuple(b[e[c]] for c in range(len(e))) for b in auts)
            )
        return tuple(sorted(reps))

    def transits(self, source_id: str, target_id: str) -> tuple[Transit, ...]:
        """Shared-face identifications usable between two maximal orbits,
        reduced to the maximal ones (a transit whose carried-edge maps
        factor through a larger shared face is dropped)."""
        key = (source_id, target_id)
        cached = self._transit_cache.get(key)
        if cached is not None:
            return cached

        # Candidates: each face in the target's chart, with every injection
        # into the target and every embedding (twists included) into the source.
        candidates = sorted(
            (fid, into_s, iota_t)
            for fid, iotas_t in self._chart(target_id).items()
            for into_s in self.embeddings(fid, source_id)
            for iota_t in iotas_t
        )

        # A candidate is dominated, and dropped, when its set of (source
        # edge, target edge) pairs lies strictly inside a larger
        # candidate's.  The larger one's source map is injective, so the
        # inclusion fixes one edge map j of the smaller face into the
        # larger; j(C) spans the same face of the source as the smaller
        # candidate, so j is one of embeddings(fid, fid2): the test
        # agrees with trying every embedding.  A strict superset holds
        # every pair of the smaller set, so it is filed under its least.
        pair_sets = [frozenset(zip(into_s, into_t)) for _f, into_s, into_t in candidates]
        maximal: set[frozenset] = set()
        by_pair = defaultdict(list)
        for pairs in sorted(set(pair_sets), key=len, reverse=True):
            if not any(pairs < big for big in by_pair.get(min(pairs), ())):
                maximal.add(pairs)
                for pair in pairs:
                    by_pair[pair].append(pairs)
        result = tuple(
            Transit(*cand)
            for cand, pairs in zip(candidates, pair_sets)
            if pairs in maximal
        )
        self._transit_cache[key] = result
        return result

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        d = self.surface.complexity
        if self.max_dim != d - 1:
            raise InvalidMulticurve(
                f"top orbit dimension {self.max_dim} != {d - 1} for {self.surface}"
            )
        for mid in self.maximal_ids:
            graph = self.orbit(mid).graph
            degs = graph.degrees()
            for v, dec in enumerate(graph.vertices):
                if dec.piece_genus != 0 or dec.piece_marked + degs[v] != 3:
                    raise InvalidMulticurve(
                        f"maximal orbit {mid} has a non-pants piece at vertex {v}"
                    )
        # Every orbit below the top extends to one more curve.
        for k in range(1, d):
            lower = {o.id for o in self.orbits_of_dim(k - 1)}
            covered = {
                fm.target
                for fm in self.face_maps
                if self._by_id[fm.source].dim == k
            }
            if not lower <= covered:
                missing = sorted(lower - covered)
                raise InvalidMulticurve(
                    f"orbits {missing} extend to no larger curve system"
                )


def build_complex(surface: Surface) -> QuotientComplex:
    """Enumerate all orbits of a surface and assemble face maps.

    One closure under :func:`~curvecone.multicurves.add_curve` yields the
    orbits for every curve count up to the pants number; face maps come
    from curve deletion matched through canonical forms.  Structural
    invariants are verified before the complex is returned.
    """
    all_orbits = [
        orbit
        for level in _orbit_levels(surface, surface.complexity)
        for orbit in _sorted_orbits(level)
    ]

    by_id = {o.id: o for o in all_orbits}
    face_maps = []
    for orbit in all_orbits:
        k = orbit.n_edges
        if k < 2:
            continue
        for e in range(k):
            sub = delete_curve(orbit.graph, e)
            cf = canonicalize(sub)
            target = orbit_from_canonical(cf)
            if target.id not in by_id:
                raise InvalidMulticurve(
                    f"face of {orbit.id} (delete {e}) missing from enumeration"
                )
            injection = []
            for s in range(k):
                if s == e:
                    continue
                pos = s - 1 if s > e else s
                injection.append((s, cf.edge_order[pos]))
            face_maps.append(
                FaceMap(orbit.id, e, target.id, tuple(injection))
            )
    cx = QuotientComplex(surface, all_orbits, face_maps)
    cx.check_invariants()
    return cx


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
        "orbits": [
            {
                "id": o.id,
                "dim": o.dim,
                "vertices": [
                    [d.piece_genus, d.piece_marked] for d in o.graph.vertices
                ],
                "edges": [list(e) for e in o.graph.edges],
                "automorphisms": [list(a) for a in o.automorphisms],
            }
            for o in cx.orbits
        ],
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


def complex_to_json(cx: QuotientComplex) -> str:
    return json.dumps(complex_to_dict(cx), indent=2, sort_keys=True)


def complex_from_dict(payload: dict) -> QuotientComplex:
    """Rebuild a complex from its serialized form.

    The complex is reconstructed from the surface and re-derived; the
    payload's orbit ids must match exactly, which guards against stale
    or hand-edited files.  A payload of the wrong shape raises
    ``ValueError``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a complex must be an object, got {type(payload).__name__}")
    if payload.get("schema_version") != SCHEMA_COMPLEX:
        raise ValueError(
            f"unsupported complex schema {payload.get('schema_version')!r}"
        )
    surface, orbits = payload["surface"], payload["orbits"]
    if not isinstance(surface, dict):
        raise ValueError(f"complex surface must be an object, got {surface!r}")
    if not isinstance(orbits, list) or not all(
        isinstance(o, dict) and isinstance(o.get("id"), str) for o in orbits
    ):
        raise ValueError("complex orbits must be a list of objects with string ids")
    cx = build_complex(Surface(surface.get("genus"), surface.get("marked_points")))
    stored = sorted(o["id"] for o in orbits)
    derived = sorted(o.id for o in cx.orbits)
    if stored != derived:
        raise ValueError("complex payload does not match its surface's orbits")
    return cx


def complex_from_json(text: str) -> QuotientComplex:
    return complex_from_dict(json.loads(text))


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
