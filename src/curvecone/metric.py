"""The cone metric space over a quotient complex.

Points live in orthants ``[0, oo)^k`` attached to simplex orbits, all
sharing one apex where every coordinate vanishes.  Each orthant carries
the half-sup metric ``d(x, y) = max_i |x_i - y_i| / 2`` and the whole
space carries the induced path metric, with orbit symmetries glueing
orthant boundaries to each other.

Distances come from a best-first search over simple galleries
(sequences of pairwise distinct top-dimensional orbits joined by
shared-face identifications): each gallery's length is a linear program
in its transit breakpoints, and the best over all galleries and the apex
route is kept.  The simple-gallery restriction keeps the search finite
and is its known inexactness: where a top orbit is glued to itself along
a face (S(0,7), S(2,1), S(1,4)) a geodesic may leave it and come back,
and the search returns a longer path (ROADMAP item 1).

A gallery program is an interval-covering problem: each curve
coordinate, followed through the transits, demands a total length over
a run of consecutive segments.  Its exact value is a weighted-interval
DP over these threads.  Each prefix on the search heap carries its
threads and its DP row (:class:`_Prefix`), and extends them by one
transit for a child or one end embedding for a closing, so the screen
reads every program's value without walking its gallery again.  The
screen runs first; the simplex (the sparse Bland solver in
:mod:`curvecone.lp`) runs only where its value can still change the
answer, and every value that reaches the result comes from the simplex.
The screen reads the bound less one rounding slack, ``_SLACK`` times
``1 + max p + max q``: a program is skipped when that clears the
pruning threshold, and a closed gallery also when it is within ``_TIE``
of the best and the gallery ranks no lower than the best in the tie
order.  The simplex value of a skipped program would be thrown away, so
the result is the same bit for bit.  A program's cost and rows follow
from its key, the sizes of its orbits and its transits' index maps; the
replay store keeps those it replays under that key.  The prefix carries
the key's parts and the right-hand side's rows for ``p``, the children
of one popped prefix share one open right-hand side, and ``q`` is padded
once per call, so a solve builds little more than its key tuple.
"""

from __future__ import annotations

import heapq
import json

from .lp import MAX_COORD, program_of, solve_lp
from .quotient import QuotientComplex, SimplexOrbit, Transit
from .surfaces import Record, as_integer, as_real, payload_fields

APEX_ID = "apex"
SCHEMA_POINT = "curvecone/cone-point/1"
SCHEMA_GEODESIC = "curvecone/geodesic/1"

# Distances within this of each other are equal lengths, and the tie
# order picks between them; simplex values carry rounding well below it.
_TIE = 1e-12

# Rounding slack between the interval-covering bound and the simplex, on
# the scale ``1 + max p + max q``: the two solve the same closed program
# (for an open prefix the bound solves a relaxation), so they differ
# only by rounding, which grows with the coordinates.  It is 64 ulps of
# the scale.  Unscreened searches on S(1,2), S(2,0), S(1,3), S(0,6),
# S(0,7) and S(2,1) with uniform, integer, x1e3 and x1e-3 points put the
# bound at most 0.33 ulp above the simplex on 22 903 open prefixes and
# within 0.59 ulp of it on 27 190 closed programs, so the slack keeps
# about 100 times headroom.  It sits below ``_TIE`` up to a scale of
# about 70, so the tie screen fires on every benchmark input.
_SLACK = 2.0**-46


class ComplexMismatchError(ValueError):
    """The two points do not belong to the same quotient complex."""


class OrbitMismatchError(ValueError):
    """Coordinate data does not fit the orbit's edge set."""


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class ConePoint(Record):
    """A canonical point of the cone: supporting orbit plus positive
    coordinates, reduced to the lexicographically least vector in its
    symmetry orbit.  ``orbit_id`` is ``None`` at the apex.  The complex
    is carried, not compared: points are equal by orbit and coordinates."""

    __slots__ = ("orbit_id", "coords", "complex")
    _fields = ("orbit_id", "coords")

    @property
    def is_apex(self) -> bool:
        return self.orbit_id is None

    @property
    def max_coord(self) -> float:
        return max(self.coords) if self.coords else 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_POINT,
            "orbit": self.orbit_id,
            "coords": {str(i): v for i, v in enumerate(self.coords)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _listed(coords) -> list:
    # Strings and bytes are iterable, but "" would read as the apex's
    # empty list and b"\x01\x02" as (1.0, 2.0).
    if not isinstance(coords, (str, bytes, bytearray, memoryview)):
        try:
            return list(coords)
        except TypeError:
            pass
    raise ValueError(f"coordinates must be a list or an object, got {coords!r}")


def _coerce_coords(orbit: SimplexOrbit, coords) -> list[float]:
    k = orbit.n_edges
    if isinstance(coords, dict):
        vec = [0.0] * k
        seen = set()
        for key, val in coords.items():
            try:
                # JSON keys are strings, read only as ``to_dict`` writes
                # them, str(i); any other key needs an integer type.
                i = int(key) if isinstance(key, str) else as_integer(key, "edge key")
            except ValueError:
                i = None
            if i is None or isinstance(key, str) and key != str(i):
                raise OrbitMismatchError(f"edge key {key!r} is not an integer")
            if not 0 <= i < k:
                raise OrbitMismatchError(f"edge {key} not in orbit {orbit.id}")
            if i in seen:
                raise OrbitMismatchError(f"two keys name edge {i} of orbit {orbit.id}")
            seen.add(i)
            vec[i] = as_real(val, "coordinate")
    else:
        vec = [as_real(v, "coordinate") for v in _listed(coords)]
        if len(vec) != k:
            raise OrbitMismatchError(
                f"{len(vec)} coordinates for orbit {orbit.id} with {k} edges"
            )
    for v in vec:
        if not v >= 0.0 or v == float("inf"):
            raise ValueError(f"coordinates must be finite and nonnegative, got {vec}")
    return vec


def cone_point(cx: QuotientComplex, orbit_id: str | None, coords=()) -> ConePoint:
    """Canonicalizing constructor: zero coordinates are dropped onto the
    spanned face, and the apex is returned when everything vanishes.
    The apex has no edges, so it takes only empty coordinates.  A
    coordinate must be finite, nonnegative and at most ``lp.MAX_COORD``,
    as the simplex that measures :func:`distance` needs."""
    if orbit_id in (None, APEX_ID):
        if _listed(coords):
            raise OrbitMismatchError(f"the apex has no edges, got coordinates {coords!r}")
        return ConePoint(None, (), cx)
    vec = _coerce_coords(cx.orbit(orbit_id), coords)
    if max(vec) > MAX_COORD:
        raise ValueError(
            f"coordinates must be finite, nonnegative and at most {MAX_COORD:.3g}, got {vec}"
        )
    return ConePoint(*cx.reduce(orbit_id, vec), cx)


def apex(cx: QuotientComplex) -> ConePoint:
    return ConePoint(None, (), cx)


def point_from_dict(cx: QuotientComplex, payload: dict) -> ConePoint:
    """Rebuild a point from its serialized form; a payload of the wrong
    shape raises ``ValueError``."""
    orbit_id, coords = payload_fields(payload, SCHEMA_POINT, ("orbit", "coords"), "point")
    if orbit_id is not None and not isinstance(orbit_id, str):
        raise ValueError(f"point orbit must be a string or null, got {orbit_id!r}")
    return cone_point(cx, orbit_id, coords)


def scale(p: ConePoint, lam: float) -> ConePoint:
    """Dilate a point by ``lam > 0``; the cone's self-similarity.

    The result goes through :func:`cone_point`: a coordinate past
    ``lp.MAX_COORD`` raises ``ValueError``, and one that underflows to zero
    drops the point onto its face."""
    lam = as_real(lam, "scale factor")
    if not lam > 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    return cone_point(p.complex, p.orbit_id, [lam * v for v in p.coords])


# ---------------------------------------------------------------------------
# Orthant-level distances
# ---------------------------------------------------------------------------


def orthant_distance(orbit: SimplexOrbit, x, y) -> float:
    """Half-sup distance between two coordinate vectors on one orbit."""
    xs = _coerce_coords(orbit, x)
    ys = _coerce_coords(orbit, y)
    return 0.5 * max(abs(a - b) for a, b in zip(xs, ys))


def symmetric_orthant_distance(orbit: SimplexOrbit, x, y) -> float:
    """Minimum of the orthant distance over the orbit's symmetry group.

    An upper bound for the quotient path metric between the two classes;
    within a single orbit it is also attained by a straight segment.
    """
    xs = _coerce_coords(orbit, x)
    ys = _coerce_coords(orbit, y)
    best = None
    for a in orbit.automorphisms:
        cand = 0.5 * max(abs(xs[i] - ys[a[i]]) for i in range(len(xs)))
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# Galleries and geodesics
# ---------------------------------------------------------------------------


class Gallery(Record):
    """Combinatorial trace of a geodesic: orbit sequence, shared-face
    transits with their developing identifications, and the embeddings
    realizing the endpoints in the first and last orbit."""

    __slots__ = ("orbit_ids", "transits", "start_embedding", "end_embedding")


class GeodesicResult(Record):
    __slots__ = ("distance", "gallery", "breakpoints")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_GEODESIC,
            "distance": self.distance,
            "gallery": {
                "orbits": list(self.gallery.orbit_ids),
                "transits": [
                    {
                        "face": t.face_id,
                        "into_source": list(t.into_source),
                        "into_target": list(t.into_target),
                    }
                    for t in self.gallery.transits
                ],
                "start_embedding": list(self.gallery.start_embedding),
                "end_embedding": list(self.gallery.end_embedding),
            },
            "breakpoints": [list(w) for w in self.breakpoints],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _require_same_complex(p: ConePoint, q: ConePoint) -> None:
    if p.complex is q.complex:
        return
    same = p.complex.surface == q.complex.surface and [
        o.id for o in p.complex.orbits
    ] == [o.id for o in q.complex.orbits]
    if not same:
        raise ComplexMismatchError(
            f"points live on different complexes "
            f"({p.complex.surface} vs {q.complex.surface})"
        )


def _pad(embedding, coords, size) -> list[float]:
    vec = [0.0] * size
    for c, e in enumerate(embedding):
        vec[e] = coords[c]
    return vec


def _gallery_lp(cx, seq, transits, emb_p, p, emb_q, q, key, rhs):
    """Value of one gallery, minimizing over transit breakpoints.

    With ``emb_q`` given the gallery is closed at ``q``; with ``None`` the
    last orbit is left open and the value lower-bounds every completion:
    the path may stop at the final breakpoint for free, except that
    reaching ``q`` still costs at least half the gap between ``q``'s top
    coordinate and the breakpoint height (the top-coordinate function is
    nonexpansive up to the factor two in the metric), which a slack
    variable charges against the breakpoint coordinate sum.

    The first seven arguments name the gallery; ``key`` and ``rhs`` are
    its program, which :func:`distance` carries (:class:`_Prefix`)
    instead of walking the gallery for them.  The gallery itself is read
    only for the breakpoints and for a closed gallery of one orbit,
    measured directly, whose key and right-hand side go unread.  The key
    is the sizes of the segments' orbits and the inner transits'
    ``(into_source, into_target)``, then, for an open program, the last
    transit's ``into_source``: ints only.  The cost and rows are built
    from the key alone (:func:`_gallery_rows`), so one key is one program,
    and the replay store names the program's shape by that key and keeps
    it once replayed (:func:`curvecone.lp.program_of` hands it back, with
    one lookup of the key).  ``rhs`` holds each row pair's constants
    ``(-v, v)``, where ``v`` is ``p``'s coordinate on the first segment,
    ``0.0 - q``'s on a closed last and 0 between; an open program's climb
    constant ``-max(q) / 2`` comes first.
    """
    if emb_q is not None and not transits:
        # Single segment: direct half-sup evaluation.
        u = _pad(emb_p, p.coords, key[0][0])
        v = _pad(emb_q, q.coords, key[0][0])
        return 0.5 * max(abs(a - b) for a, b in zip(u, v)), ()
    program = program_of(key, _gallery_rows)
    res = solve_lp(program.cost, program, rhs)
    if emb_q is None:
        return res.value, ()
    bps, off = [], len(seq)
    for t in transits:
        bps.append(res.x[off : off + len(t.into_source)])
        off += len(t.into_source)
    return res.value, tuple(bps)


def _gallery_rows(key):
    """Cost and rows of the gallery program of ``key`` (see
    :func:`_gallery_lp`): one length per segment, then one variable per
    carried curve at each transit, then, open, the climb variable."""
    sizes, inner, *last = key
    n_seg = len(sizes)
    # The into_source of each transit the program reads: the inner ones',
    # then an open program's last.
    sources = [src for src, _ in inner] + last
    offsets = []
    pos = n_seg
    for src in sources:
        offsets.append(pos)
        pos += len(src)
    c = [1.0] * n_seg + [0.0] * (pos - n_seg)
    rows = []
    if last:
        # The climb variable s: s + sum(w_last) / 2 >= max(q) / 2, an
        # admissible completion cost.
        c.append(1.0)
        rows.append({pos: -1.0, **dict.fromkeys(range(offsets[-1], pos), -0.5)})
    for j, m in enumerate(sizes):
        coefs: list[dict[int, float]] = [{} for _ in range(m)]
        if j > 0:
            for cidx, e in enumerate(inner[j - 1][1]):
                coefs[e][offsets[j - 1] + cidx] = 1.0
        if j < len(sources):
            for cidx, e in enumerate(sources[j]):
                coefs[e][offsets[j] + cidx] = -1.0
        for e in range(m):
            rows.append({j: -2.0, **coefs[e]})
            rows.append({j: -2.0, **{var: -co for var, co in coefs[e].items()}})
    return c, rows


class _Prefix:
    """A gallery prefix of the search, with its threads carried along.

    With the segment lengths fixed, the breakpoint program splits into
    *threads*: one curve coordinate followed through the transits from
    where it starts (a coordinate of ``p``, or 0 where it is born) to
    where it ends (a coordinate of ``q``, or 0 where it dies).  A thread
    over segments ``l..r`` is feasible exactly when those segments have
    total length at least ``|a - b| / 2``, so the program is an
    interval-covering LP.  Its matrix has consecutive ones and is totally
    unimodular, so the optimum is the dual's: the heaviest set of
    pairwise disjoint intervals, found by a weighted-interval DP.

    The prefix carries the threads that reach its last orbit, each as its
    height ``height[e]`` on edge ``e`` there and the segment ``born[e]``
    where it started, and the DP row ``best``: ``best[r]`` is the weight
    of the heaviest set of disjoint threads ended within segments
    ``0..r-1``.  A closing or a child
    extends them by one end embedding or one transit, in time linear in
    the orbit's edges.  Half the row's last entry is the interval-covering
    value: exactly the simplex value of a closed gallery, and for an open
    prefix, which drops the threads that reach its free end and the climb
    term, a lower bound on its open program.

    It carries its program's parts too, so that no solve walks the
    gallery: the sizes of its orbits ``sizes``, its transits' maps
    ``inner`` as ``(into_source, into_target)`` pairs, and ``head``, the
    right-hand side's pairs ``(-v, v)`` for ``p``'s coordinates on the
    first segment, shared by every prefix of one start.  The closed
    program's key is ``(sizes, inner)`` and an open child's ``(sizes,
    inner, into_source)``: the tuples :func:`_gallery_lp` used to build
    from the gallery, equal entry for entry.
    """

    __slots__ = ("seq", "transits", "emb_p", "sizes", "inner", "head", "height", "born", "best")

    def __init__(self, seq: tuple, transits: tuple, emb_p, sizes: tuple, inner: tuple,
                 head: list, height: list, born: list, best: tuple):
        self.seq = seq
        self.transits = transits
        self.emb_p = emb_p
        self.sizes = sizes
        self.inner = inner
        self.head = head
        self.height = height
        self.born = born
        self.best = best

    @classmethod
    def start(cls, orbit_id: str, size: int, emb_p, p: ConePoint) -> _Prefix:
        height = _pad(emb_p, p.coords, size)
        head = [x for v in height for x in (-v, v)]
        return cls((orbit_id,), (), emb_p, (size,), (), head, height, [0] * size, (0.0,))

    def closing(self, end: list) -> float:
        """The DP's last entry for the gallery closed at ``q``, padded to
        the last orbit as ``end``: every thread that misses its height in
        ``q`` ends in the last segment."""
        best = self.best
        top = best[-1]
        for a, b, first in zip(self.height, end, self.born):
            if a != b:
                top = max(top, best[first] + abs(a - b))
        return top

    def opening(self, tr: Transit) -> float:
        """The DP's last entry for the child through ``tr``: every thread
        that ``tr`` does not carry dies in the last segment."""
        src = tr.into_source
        best = self.best
        top = best[-1]
        for e, (a, first) in enumerate(zip(self.height, self.born)):
            if a and e not in src:
                top = max(top, best[first] + a)
        return top

    def child(self, nxt: str, size: int, tr: Transit, top: float) -> _Prefix:
        """The child through ``tr`` into ``nxt``, of ``size`` edges, whose
        DP entry :meth:`opening` gave as ``top``."""
        height = [0.0] * size
        born = [len(self.seq)] * size
        for e, f in zip(tr.into_source, tr.into_target):
            height[f] = self.height[e]
            born[f] = self.born[e]
        return _Prefix(
            self.seq + (nxt,),
            self.transits + (tr,),
            self.emb_p,
            self.sizes + (size,),
            self.inner + ((tr.into_source, tr.into_target),),
            self.head,
            height,
            born,
            self.best + (top,),
        )


def _apex_route(p: ConePoint, q: ConePoint) -> GeodesicResult:
    value = 0.5 * p.max_coord + 0.5 * q.max_coord
    gallery = Gallery(
        orbit_ids=(p.orbit_id, q.orbit_id),
        transits=(Transit(APEX_ID, (), ()),),
        start_embedding=tuple(range(len(p.coords))),
        end_embedding=tuple(range(len(q.coords))),
    )
    return GeodesicResult(value, gallery, ((),))


def _ray_result(other: ConePoint, at_start: bool) -> GeodesicResult:
    ident = tuple(range(len(other.coords)))
    gallery = Gallery(
        orbit_ids=(other.orbit_id,),
        transits=(),
        start_embedding=() if at_start else ident,
        end_embedding=ident if at_start else (),
    )
    return GeodesicResult(0.5 * other.max_coord, gallery, ())


def distance(p: ConePoint, q: ConePoint) -> GeodesicResult:
    """Distance and a geodesic between two cone points.

    Searches simple galleries of top-dimensional orbits best-first by a
    lower-bound linear program, with every shared-face transit
    identification, scores each closed gallery by its breakpoint program,
    and always considers the route through the apex.  On a self-glued
    surface the value can exceed the true distance (module docstring).

    Ties (values within ``_TIE``) go to the strictly lower rank: a gallery
    ranks as ``(0, orbit sequence)``, the apex route as ``(1,)``, so the
    apex route loses every tie.  Galleries with one orbit sequence (other
    transits or end embeddings) share a rank and the first closed in pop
    order is kept: which of them is returned depends on search order, the
    value by no more than ``_TIE``.  Each program is first screened by its
    interval-covering bound less ``_SLACK`` times ``1 + max p + max q``.
    It is skipped without the simplex when that clears the pruning
    threshold, and a closed gallery also when it is no more than ``_TIE``
    below the best and ranks no lower than the best, so the tie order
    would reject it.  Neither skip changes the result by a bit.  The
    bound is read off the threads each prefix on the heap carries
    (:class:`_Prefix`), not walked from the start of the gallery.

    Nothing a solve needs is walked from the gallery either: the key is
    one tuple of the prefix's carried sizes and transit maps, the open
    programs of one popped prefix, which differ only in the last
    ``into_source``, share one right-hand side built for the first of
    them that reaches the simplex, and ``q`` is padded once per call for
    each end embedding of each top orbit, for the closing screen and the
    closed right-hand side alike.  Each of these is the value the search
    once rebuilt per solve, entry for entry, and nothing decides
    differently, so the simplex sees the same programs and right-hand
    sides in the same order.
    """
    _require_same_complex(p, q)
    cx = p.complex
    if p.is_apex and q.is_apex:
        return GeodesicResult(0.0, Gallery((), (), (), ()), ())
    if p.is_apex:
        return _ray_result(q, at_start=True)
    if q.is_apex:
        return _ray_result(p, at_start=False)

    best = _apex_route(p, q)
    best_rank = (1,)
    slack = _SLACK * (1.0 + p.max_coord + q.max_coord)
    max_ids = list(cx.maximal_ids)
    size_of = {top: cx.orbit(top).n_edges for top in max_ids}
    # q padded once per end embedding of each top orbit, with a closed
    # last segment's right-hand-side pairs (-v, v), v = 0.0 - q's
    # coordinate: a zero gives (-0.0, 0.0), as on every other segment.
    ends = {}
    for top in max_ids:
        ends[top] = []
        for emb_q in cx.embeddings(q.orbit_id, top):
            end = _pad(emb_q, q.coords, size_of[top])
            tail = []
            for v in end:
                d = 0.0 - v
                tail += (-d, d)
            ends[top].append((emb_q, end, tail))
    climb = -0.5 * max(q.coords)

    # Best-first over gallery prefixes ordered by their open lower bound;
    # once the cheapest open prefix cannot beat the best value, nothing
    # else on the heap can either and the search stops.
    heap = []
    counter = 0
    for start in max_ids:
        # One start embedding per symmetry orbit of the start chart: the
        # twist is absorbed by the fully enumerated first transit (or end
        # embedding), so the quotient loses no gallery values.
        for emb_p in cx.embeddings_mod_host(p.orbit_id, start):
            prefix = _Prefix.start(start, size_of[start], emb_p, p)
            heap.append((0.0, counter, prefix, None, None, None))
            counter += 1
    heapq.heapify(heap)
    while heap:
        # A child is pushed as its parent and the step to it, and only
        # built once popped.
        bound, _, prefix, nxt, tr, top = heapq.heappop(heap)
        if bound > best.distance + _TIE:
            break
        if nxt is not None:
            prefix = prefix.child(nxt, size_of[nxt], tr, top)
        seq, transits, emb_p = prefix.seq, prefix.transits, prefix.emb_p
        sizes, inner, head = prefix.sizes, prefix.inner, prefix.head
        # No gallery through seq ranks below seq, so once seq ranks above
        # the best, a tie cannot help any of them.
        rank = (0, seq)
        if bound >= best.distance - _TIE and rank > best_rank:
            continue
        cur = seq[-1]
        # The screen skips only programs whose simplex value would be
        # thrown away: a closed gallery the tie order rejects, a child
        # that is not pushed.  Heap, pop order and the values compared
        # with the best are those of the unscreened search.
        for emb_q, end, tail in ends[cur]:
            wins_tie = rank < best_rank
            low = 0.5 * prefix.closing(end) - slack
            if low > best.distance + _TIE or (
                not wins_tie and low >= best.distance - _TIE
            ):
                continue
            # p on the first segment, zeros between, q on the last.
            rhs = head + [-0.0, 0.0] * sum(sizes[1:-1]) + tail
            value, bps = _gallery_lp(cx, seq, transits, emb_p, p, emb_q, q, (sizes, inner), rhs)
            if value < best.distance - _TIE or (
                wins_tie and value <= best.distance + _TIE
            ):
                gallery = Gallery(seq, transits, emb_p, emb_q)
                best, best_rank = GeodesicResult(value, gallery, bps), rank
        # (open bound, DP entry) per open program of a child.
        children = {}
        # The children's open programs differ only in the last into_source,
        # so they share one right-hand side: the climb, then p on the first
        # segment and zeros on the rest, built for the first one solved.
        open_rhs = None
        for nxt in max_ids:
            if nxt in seq:
                continue
            for tr in cx.transits(cur, nxt):
                # A child's open program stops at the last breakpoint, so it
                # never reads that transit's into_target or the orbit it
                # enters: children that share into_source share it bit for bit.
                key = tr.into_source
                child = children.get(key)
                if child is None:
                    top = prefix.opening(tr)
                    child_bound = 0.5 * top
                    if child_bound - slack <= best.distance + _TIE:
                        if open_rhs is None:
                            open_rhs = [climb, *head] + [-0.0, 0.0] * sum(sizes[1:])
                        child_bound, _ = _gallery_lp(
                            cx, seq + (nxt,), transits + (tr,), emb_p, p, None, q,
                            (sizes, inner, key), open_rhs,
                        )
                    children[key] = child = (child_bound, top)
                child_bound, top = child
                if child_bound <= best.distance + _TIE:
                    heapq.heappush(heap, (child_bound, counter, prefix, nxt, tr, top))
                    counter += 1
    return best


def segment_lengths(result: GeodesicResult, p: ConePoint, q: ConePoint) -> tuple[float, ...]:
    """Per-segment half-sup lengths recomputed from the breakpoints; their
    sum equals the reported distance up to solver tolerance.  The apex
    route and the rays from the apex are covered by the same arithmetic:
    an empty transit or end embedding pads to the zero vector."""
    cx = p.complex
    gal = result.gallery
    lengths = []
    n_seg = len(gal.orbit_ids)
    for j in range(n_seg):
        size = cx.orbit(gal.orbit_ids[j]).n_edges
        if j == 0:
            u = _pad(gal.start_embedding, p.coords, size)
        else:
            t = gal.transits[j - 1]
            u = _pad(t.into_target, result.breakpoints[j - 1], size)
        if j == n_seg - 1:
            v = _pad(gal.end_embedding, q.coords, size)
        else:
            t = gal.transits[j]
            v = _pad(t.into_source, result.breakpoints[j], size)
        lengths.append(0.5 * max(abs(a - b) for a, b in zip(u, v)))
    return tuple(lengths)
