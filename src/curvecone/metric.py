"""The cone metric space over a quotient complex.

Points live in orthants ``[0, oo)^k`` attached to simplex orbits, all
sharing one apex where every coordinate vanishes.  Each orthant carries
the half-sup metric ``d(x, y) = max_i |x_i - y_i| / 2`` and the whole
space carries the induced path metric, with orbit symmetries glueing
orthant boundaries to each other.

Distances are computed exactly: enumerate simple galleries (sequences of
pairwise distinct top-dimensional orbits joined by shared-face
identifications) best-first by a lower bound on every completion,
minimize each gallery's length as a linear program in the transit
breakpoints, and keep the best over all galleries and the route through
the apex.  Restricting to simple galleries is what makes the search
finite; a validation mode re-runs the search allowing orbit revisits so
tests can corroborate that revisiting never helps.

A gallery program is an interval-covering problem: each curve
coordinate, followed through the transits, demands a total length over
a run of consecutive segments.  Its exact value is a weighted-interval
DP (:func:`_gallery_bound`), which screens every program first; the
simplex (the sparse Bland solver in :mod:`curvecone.lp`) runs only
where its value can still change the answer, and every value that
reaches the result comes from the simplex.  The screen reads the bound
less one rounding slack, ``_SLACK`` times ``1 + max p + max q``: a
program is skipped when that clears the pruning threshold, and a closed
gallery also when it is within ``_TIE`` of the best and the gallery
ranks no lower than the best in the tie order.  The simplex value of a
skipped program would be thrown away, so the result is the same bit for
bit.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .lp import solve_lp
from .quotient import QuotientComplex, SimplexOrbit, Transit

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


@dataclass(frozen=True)
class ConePoint:
    """A canonical point of the cone: supporting orbit plus positive
    coordinates, reduced to the lexicographically least vector in its
    symmetry orbit.  ``orbit_id`` is ``None`` at the apex."""

    orbit_id: str | None
    coords: tuple[float, ...]
    complex: QuotientComplex = field(compare=False, repr=False)

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


def _coord(value) -> float:
    # float() also takes numeric strings and bools, which are no coordinates.
    if not isinstance(value, (str, bytes, bool)):
        try:
            return float(value)
        except TypeError:
            pass
    raise ValueError(f"coordinate must be a number, got {value!r}")


def _listed(coords) -> list:
    try:
        return list(coords)
    except TypeError:
        raise ValueError(
            f"coordinates must be a list or an object, got {coords!r}"
        ) from None


def _coerce_coords(orbit: SimplexOrbit, coords) -> list[float]:
    k = orbit.n_edges
    if isinstance(coords, dict):
        vec = [0.0] * k
        seen = set()
        for key, val in coords.items():
            try:
                i = int(key)
            except (TypeError, ValueError):
                raise OrbitMismatchError(f"edge key {key!r} is not an integer") from None
            if not 0 <= i < k:
                raise OrbitMismatchError(f"edge {key} not in orbit {orbit.id}")
            if i in seen:
                raise OrbitMismatchError(f"two keys name edge {i} of orbit {orbit.id}")
            seen.add(i)
            vec[i] = _coord(val)
    else:
        vec = [_coord(v) for v in _listed(coords)]
        if len(vec) != k:
            raise OrbitMismatchError(
                f"{len(vec)} coordinates for orbit {orbit.id} with {k} edges"
            )
    for v in vec:
        if not (v >= 0.0) or v != v or v == float("inf"):
            raise ValueError(f"coordinates must be finite and nonnegative, got {vec}")
    return vec


def cone_point(cx: QuotientComplex, orbit_id: str | None, coords=()) -> ConePoint:
    """Canonicalizing constructor: zero coordinates are dropped onto the
    spanned face, and the apex is returned when everything vanishes."""
    if orbit_id in (None, APEX_ID):
        values = coords.values() if isinstance(coords, dict) else _listed(coords)
        if any(_coord(v) != 0.0 for v in values):
            raise ValueError("apex point cannot carry nonzero coordinates")
        return ConePoint(None, (), cx)
    vec = _coerce_coords(cx.orbit(orbit_id), coords)
    return ConePoint(*cx.reduce(orbit_id, vec), cx)


def apex(cx: QuotientComplex) -> ConePoint:
    return ConePoint(None, (), cx)


def point_from_dict(cx: QuotientComplex, payload: dict) -> ConePoint:
    """Rebuild a point from its serialized form; a payload of the wrong
    shape raises ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(f"a point must be an object, got {type(payload).__name__}")
    if payload.get("schema_version") != SCHEMA_POINT:
        raise ValueError(f"unsupported point schema {payload.get('schema_version')!r}")
    orbit_id = payload["orbit"]
    if orbit_id is not None and not isinstance(orbit_id, str):
        raise ValueError(f"point orbit must be a string or null, got {orbit_id!r}")
    return cone_point(cx, orbit_id, payload.get("coords", {}))


def scale(p: ConePoint, lam: float) -> ConePoint:
    """Dilate a point by ``lam > 0``; the cone's self-similarity.

    The result goes through :func:`cone_point`: a coordinate that
    overflows raises ``ValueError``, and one that underflows to zero
    drops the point onto its face."""
    if not lam > 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    if p.is_apex:
        return p
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


@dataclass(frozen=True)
class Gallery:
    """Combinatorial trace of a geodesic: orbit sequence, shared-face
    transits with their developing identifications, and the embeddings
    realizing the endpoints in the first and last orbit."""

    orbit_ids: tuple[str, ...]
    transits: tuple[Transit, ...]
    start_embedding: tuple[int, ...]
    end_embedding: tuple[int, ...]


@dataclass(frozen=True)
class GeodesicResult:
    distance: float
    gallery: Gallery
    breakpoints: tuple[tuple[float, ...], ...]

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


def _gallery_lp(cx, seq, transits, emb_p, p, emb_q, q):
    """Value of one gallery, minimizing over transit breakpoints.

    With ``emb_q`` given the gallery is closed at ``q``; with ``None`` the
    last orbit is left open and the value lower-bounds every completion:
    the path may stop at the final breakpoint for free, except that
    reaching ``q`` still costs at least half the gap between ``q``'s top
    coordinate and the breakpoint height (the top-coordinate function is
    nonexpansive up to the factor two in the metric), which a slack
    variable charges against the breakpoint coordinate sum.
    """
    sizes = [cx.orbit(oid).n_edges for oid in seq]
    closed = emb_q is not None
    n_seg = len(seq) if closed else len(seq) - 1
    if closed and not transits:
        # Single segment: direct half-sup evaluation.
        u = _pad(emb_p, p.coords, sizes[0])
        v = _pad(emb_q, q.coords, sizes[0])
        return 0.5 * max(abs(a - b) for a, b in zip(u, v)), ()

    offsets = []
    pos = n_seg
    for t in transits:
        offsets.append(pos)
        pos += len(t.into_source)
    nvar = pos if closed else pos + 1
    c = [1.0] * n_seg + [0.0] * (nvar - n_seg)
    rows, rhs = [], []
    if not closed:
        # The climb variable s: s + sum(w_last) / 2 >= max(q) / 2, an
        # admissible completion cost.
        climb_var = pos
        c[climb_var] = 1.0
        last = range(offsets[-1], offsets[-1] + len(transits[-1].into_source))
        rows.append({climb_var: -1.0, **dict.fromkeys(last, -0.5)})
        rhs.append(-0.5 * max(q.coords))
    for j in range(n_seg):
        m = sizes[j]
        const = _pad(emb_p, p.coords, m) if j == 0 else [0.0] * m
        coefs: list[dict[int, float]] = [{} for _ in range(m)]
        if j > 0:
            t = transits[j - 1]
            for cidx, e in enumerate(t.into_target):
                coefs[e][offsets[j - 1] + cidx] = 1.0
        if closed and j == n_seg - 1:
            for e, v in enumerate(_pad(emb_q, q.coords, m)):
                const[e] -= v
        else:
            t = transits[j]
            for cidx, e in enumerate(t.into_source):
                coefs[e][offsets[j] + cidx] = -1.0
        for e in range(m):
            rows.append({j: -2.0, **coefs[e]})
            rhs.append(-const[e])
            rows.append({j: -2.0, **{var: -co for var, co in coefs[e].items()}})
            rhs.append(const[e])
    res = solve_lp(c, rows, rhs)
    if not closed:
        return res.value, ()
    return res.value, tuple(
        res.x[off : off + len(t.into_source)] for t, off in zip(transits, offsets)
    )


def _gallery_bound(cx, seq, transits, emb_p, p, emb_q, q):
    """Interval-covering value of one gallery, without the simplex.

    With the segment lengths fixed, the breakpoint program splits into
    *threads*: one curve coordinate followed through the transits from
    where it starts (a coordinate of ``p``, or 0 where it is born) to
    where it ends (a coordinate of ``q``, or 0 where it dies).  A thread
    over segments ``l..r`` is feasible exactly when those segments have
    total length at least ``|a - b| / 2``, so the program is an
    interval-covering LP.  Its matrix has consecutive ones and is totally
    unimodular, so the optimum is the dual's: the heaviest set of
    pairwise disjoint intervals, found by a weighted-interval DP.

    A closed gallery gets exactly the value of :func:`_gallery_lp`.  An
    open prefix drops the threads that reach its free end and the climb
    term, a relaxation of the open program and hence a lower bound on it.
    """
    closed = emb_q is not None
    n_seg = len(seq) if closed else len(seq) - 1
    # ends[r] holds (l, |a - b|) for the threads over segments l..r.
    ends: list[list[tuple[int, float]]] = [[] for _ in range(n_seg)]
    height = _pad(emb_p, p.coords, cx.orbit(seq[0]).n_edges)
    born = [0] * len(height)
    for j, tr in enumerate(transits):
        src = tr.into_source
        for e, a in enumerate(height):
            if a and e not in src:
                ends[j].append((born[e], a))
        if j + 1 == n_seg:
            # Free end of an open prefix: surviving threads cost nothing.
            break
        m = cx.orbit(seq[j + 1]).n_edges
        nxt_height = [0.0] * m
        nxt_born = [j + 1] * m
        for e, f in zip(src, tr.into_target):
            nxt_height[f] = height[e]
            nxt_born[f] = born[e]
        height, born = nxt_height, nxt_born
    if closed:
        target = _pad(emb_q, q.coords, len(height))
        for e, (a, b) in enumerate(zip(height, target)):
            if a != b:
                ends[n_seg - 1].append((born[e], abs(a - b)))
    best = [0.0] * (n_seg + 1)
    for r in range(n_seg):
        top = best[r]
        for first, w in ends[r]:
            top = max(top, best[first] + w)
        best[r + 1] = top
    return 0.5 * best[n_seg]


def _open_program_key(tr: Transit):
    """What a child prefix's open program reads of its last transit.

    The open program stops at the last breakpoint, so it never reads that
    transit's ``into_target`` or the orbit it enters: children of one
    expansion that share ``into_source`` share their program bit for bit.
    """
    return tr.into_source


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


def distance(p: ConePoint, q: ConePoint, *, revisit_budget: int = 0) -> GeodesicResult:
    """Exact distance and a geodesic between two cone points.

    Enumerates galleries of top-dimensional orbits best-first by a
    lower-bound linear program, allowing each orbit at most once plus
    ``revisit_budget`` repeats, with every shared-face transit
    identification; each closed gallery is scored by its breakpoint
    linear program, and the route through the apex is always considered.
    Among equal-length geodesics (values within ``_TIE``) the tie order
    decides: a gallery ranks as ``(0, orbit sequence)`` and the apex route
    as ``(1,)``, and the least rank wins, so the lexicographically least
    orbit sequence wins and the apex route loses every tie, independent of
    search order.  Each program is first screened by its interval-covering
    bound less ``_SLACK`` times ``1 + max p + max q``.  A program is
    skipped without the simplex when that clears the pruning threshold,
    and a closed gallery also when it is no more than ``_TIE`` below the
    best value and the gallery ranks no lower than the best: its value
    would come in as a tie at best, and the tie order rejects it.  Both
    skips leave the result unchanged bit for bit.  A negative
    ``revisit_budget`` raises ``ValueError``.
    """
    if revisit_budget < 0:
        raise ValueError(f"revisit_budget must be nonnegative, got {revisit_budget}")
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
            heap.append((0.0, counter, [start], [], emb_p))
            counter += 1
    heapq.heapify(heap)
    while heap:
        bound, _, seq, transits, emb_p = heapq.heappop(heap)
        if bound > best.distance + _TIE:
            break
        # No gallery through seq ranks below seq, so once seq ranks above
        # the best, a tie cannot help any of them.
        rank = (0, tuple(seq))
        if bound >= best.distance - _TIE and rank > best_rank:
            continue
        cur = seq[-1]
        # The screen skips only programs whose simplex value would be
        # thrown away: a closed gallery the tie order rejects, a child
        # that is not pushed.  Heap, pop order and the values compared
        # with the best are those of the unscreened search.
        for emb_q in cx.embeddings(q.orbit_id, cur):
            wins_tie = rank < best_rank
            low = _gallery_bound(cx, seq, transits, emb_p, p, emb_q, q) - slack
            if low > best.distance + _TIE or (
                not wins_tie and low >= best.distance - _TIE
            ):
                continue
            value, bps = _gallery_lp(cx, seq, transits, emb_p, p, emb_q, q)
            if value < best.distance - _TIE or (
                wins_tie and value <= best.distance + _TIE
            ):
                gallery = Gallery(tuple(seq), tuple(transits), emb_p, emb_q)
                best, best_rank = GeodesicResult(value, gallery, bps), rank
        repeats = len(seq) - len(set(seq))
        child_bounds = {}
        for nxt in max_ids:
            extra = 1 if nxt in seq else 0
            if repeats + extra > revisit_budget:
                continue
            for tr in cx.transits(cur, nxt):
                key = _open_program_key(tr)
                child_bound = child_bounds.get(key)
                if child_bound is None:
                    child = (cx, seq + [nxt], transits + [tr], emb_p, p, None, q)
                    child_bound = _gallery_bound(*child)
                    if child_bound - slack <= best.distance + _TIE:
                        child_bound, _ = _gallery_lp(*child)
                    child_bounds[key] = child_bound
                if child_bound <= best.distance + _TIE:
                    heapq.heappush(
                        heap,
                        (child_bound, counter, seq + [nxt], transits + [tr], emb_p),
                    )
                    counter += 1
    return best


def segment_lengths(result: GeodesicResult, p: ConePoint, q: ConePoint) -> tuple[float, ...]:
    """Per-segment half-sup lengths recomputed from the breakpoints; their
    sum equals the reported distance up to solver tolerance.  The apex
    route is covered by the same arithmetic: its empty transit pads to
    the zero vector on both sides."""
    cx = p.complex
    gal = result.gallery
    if not gal.orbit_ids:
        return ()
    if p.is_apex or q.is_apex:
        other = q if p.is_apex else p
        return (0.5 * other.max_coord,)
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


def dropped_edges(result: GeodesicResult, p: ConePoint, q: ConePoint):
    """Support edges of the endpoints whose thread dies inside the gallery.

    Returns ``(dropped_from_p, dropped_from_q)`` as lists of (edge, coord)
    pairs.  Any such coordinate forces ``distance >= coord / 2``, since a
    dropped curve's coordinate must pass through zero along the path.
    """
    gal = result.gallery

    def thread(embedding, coords, transits, into_first, into_second):
        dropped = []
        for c, x in enumerate(coords):
            e = embedding[c]
            alive = True
            for t in transits:
                src = getattr(t, into_first)
                if e in src:
                    e = getattr(t, into_second)[src.index(e)]
                else:
                    alive = False
                    break
            if not alive:
                dropped.append((c, x))
        return dropped

    fwd = thread(gal.start_embedding, p.coords, gal.transits, "into_source", "into_target")
    bwd = thread(
        gal.end_embedding,
        q.coords,
        tuple(reversed(gal.transits)),
        "into_target",
        "into_source",
    )
    return fwd, bwd
