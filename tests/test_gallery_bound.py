"""The interval-covering screen in ``distance``.

The screen reads each prefix's carried threads (``metric._Prefix``).  It
must equal :func:`gallery_bound`, the interval-covering value walked
from scratch, bit for bit on every program a search screens; that value
must equal the gallery program's on closed galleries and stay below it
on open prefixes; and the screen must leave every geodesic payload
byte-identical to the unscreened search at any scale.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvecone.metric as metric
from conftest import SELF_GLUED_DEFECTS, complex_for
from curvecone import cone_point, distance, scale
from reference_search import gallery_program, linprog_value

SURFACES = [(1, 2), (2, 0), (1, 3), (0, 6)]
# Points as (integer coordinates, scale factor); the screen's rounding
# slack is relative to ``1 + max p + max q``, so it must hold at every scale.
POINT_KINDS = {"uniform": (False, 1.0), "integer": (True, 1.0),
               "x1e3": (False, 1e3), "x1e-3": (False, 1e-3)}


def _slack(p, q):
    return 1e-12 * (1.0 + p.max_coord + q.max_coord)


def gallery_bound(cx, seq, transits, emb_p, p, emb_q, q):
    """Interval-covering value of one gallery, walked from scratch.

    Each thread (one curve coordinate followed through the transits, from
    ``p`` or from 0 where it is born to ``q`` or to 0 where it dies) over
    segments ``l..r`` demands ``|a - b| / 2`` of their total length; the
    value is the heaviest set of pairwise disjoint intervals, by a
    weighted-interval DP.  An open prefix drops the threads that reach
    its free end, whose orbit it never reads.
    """
    closed = emb_q is not None
    n_seg = len(seq) if closed else len(seq) - 1
    # ends[r] holds (l, |a - b|) for the threads over segments l..r.
    ends = [[] for _ in range(n_seg)]
    height = metric._pad(emb_p, p.coords, cx.orbit(seq[0]).n_edges)
    born = [0] * len(height)
    for j, tr in enumerate(transits):
        src = tr.into_source
        for e, a in enumerate(height):
            if a and e not in src:
                ends[j].append((born[e], a))
        if j + 1 == n_seg:
            break
        m = cx.orbit(seq[j + 1]).n_edges
        nxt_height = [0.0] * m
        nxt_born = [j + 1] * m
        for e, f in zip(src, tr.into_target):
            nxt_height[f] = height[e]
            nxt_born[f] = born[e]
        height, born = nxt_height, nxt_born
    if closed:
        target = metric._pad(emb_q, q.coords, len(height))
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


def _random_point(cx, rng, integer):
    ids = [o.id for o in cx.orbits]
    oid = ids[rng.integers(len(ids))]
    k = cx.orbit(oid).n_edges
    coords = rng.integers(0, 4, size=k) if integer else rng.uniform(0.25, 8, size=k)
    return cone_point(cx, oid, coords)


def _pairs(surface, integer, n):
    cx = complex_for(*surface)
    rng = np.random.default_rng([*surface, int(integer), n])
    return [(_random_point(cx, rng, integer), _random_point(cx, rng, integer)) for _ in range(n)]


def _payloads(pairs):
    return [distance(p, q).to_json() for p, q in pairs]


def _siblings(cx, seq, transits):
    """The other children of ``seq[:-1]`` whose last transit has the
    ``into_source`` of ``transits[-1]``, as ``(seq, transits)``: the
    search solves one open program for all of them."""
    last = transits[-1]
    for nxt in cx.maximal_ids:
        if nxt in seq[:-1]:
            continue
        for tr in cx.transits(seq[-2], nxt):
            if tr.into_source == last.into_source and (nxt, tr) != (seq[-1], last):
                yield (*seq[:-1], nxt), (*transits[:-1], tr)


def _unscreened(mp):
    # A bound of -inf never clears the pruning threshold.  The search
    # solves an open program once for all children that share it; here
    # each of them is solved too, and must give the same value.
    mp.setattr(metric._Prefix, "closing", lambda *args: -math.inf)
    mp.setattr(metric._Prefix, "opening", lambda *args: -math.inf)
    solve = metric._gallery_lp

    def every_child(cx, seq, transits, emb_p, p, emb_q, q, key, rhs):
        got = solve(cx, seq, transits, emb_p, p, emb_q, q, key, rhs)
        if emb_q is None:
            for sib in _siblings(cx, seq, transits):
                program = gallery_program(cx, *sib, emb_p, p, None, q)
                assert solve(cx, *sib, emb_p, p, None, q, *program)[0] == got[0]
        return got

    mp.setattr(metric, "_gallery_lp", every_child)


def _recorded_programs(pairs):
    """Every gallery program an unscreened search solves, with its value,
    an open program once per child."""
    seen = []
    solve = metric._gallery_lp

    def record(cx, seq, transits, emb_p, p, emb_q, q, key, rhs):
        value, bps = solve(cx, seq, transits, emb_p, p, emb_q, q, key, rhs)
        seen.append((cx, list(seq), list(transits), emb_p, p, emb_q, q, value))
        return value, bps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_gallery_lp", record)
        _unscreened(mp)
        _payloads(pairs)
    return seen


# -- the screen is invisible in payloads --------------------------------------


# S(0,7) and S(2,1) glue top orbits to themselves; S(2,1) costs the most
# per pair, so it gets fewer.  Each id ends in the revisit count, 0.
@pytest.mark.parametrize(
    "surface, integer",
    [
        pytest.param(s, i, id=f"S{s[0]}_{s[1]}-{'integer' if i else 'uniform'}-0")
        for s in [*SURFACES, (0, 7), (2, 1)]
        for i in (False, True)
    ],
)
def test_screen_leaves_payloads_byte_identical(surface, integer, monkeypatch):
    pairs = _pairs(surface, integer, 4 if surface == (2, 1) else 12)
    screened = _payloads(pairs)
    _unscreened(monkeypatch)
    assert _payloads(pairs) == screened


@pytest.mark.parametrize("genus, marked, orbit_id, p, q", SELF_GLUED_DEFECTS)
def test_screen_leaves_self_glued_defects_unchanged(genus, marked, orbit_id, p, q):
    # ROADMAP item 1's instances, which test_gridgraph holds as expected
    # failures against the grid, get the unscreened search's payload.
    cx = complex_for(genus, marked)
    pair = [(cone_point(cx, orbit_id, p), cone_point(cx, orbit_id, q))]
    screened = _payloads(pair)
    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        assert _payloads(pair) == screened


def _solves(pairs):
    """Closed and all ``_gallery_lp`` calls of the searches over ``pairs``."""
    calls = [0, 0]
    solve = metric._gallery_lp

    def counting(cx, seq, transits, emb_p, p, emb_q, q, key, rhs):
        calls[0] += emb_q is not None
        calls[1] += 1
        return solve(cx, seq, transits, emb_p, p, emb_q, q, key, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_gallery_lp", counting)
        _payloads(pairs)
    return tuple(calls)


@pytest.mark.parametrize("surface", [(2, 0), (1, 3)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_tie_screen_skips_closed_programs(surface, monkeypatch):
    # Most closed programs the simplex would solve are ties that lose the
    # tie order; an infinite slack turns the screen off.
    pairs = _pairs(surface, False, 12)
    screened, _ = _solves(pairs)
    monkeypatch.setattr(metric, "_SLACK", math.inf)
    assert screened < _solves(pairs)[0]


@pytest.mark.parametrize("surface", [(2, 0), (1, 3), (0, 6)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_screen_skips_programs(surface, monkeypatch):
    pairs = _pairs(surface, False, 12)
    _, screened = _solves(pairs)
    _unscreened(monkeypatch)
    assert screened < _solves(pairs)[1]


# -- the carried screen against the reference ---------------------------------


def _screened_values(pairs):
    """(carried, reference) for every closing and child a search screens:
    half the DP entry the prefix's carried threads give, and
    :func:`gallery_bound` walked from scratch."""
    seen = []
    closing, opening = metric._Prefix.closing, metric._Prefix.opening
    for p, q in pairs:
        cx = p.complex

        def checked_closing(prefix, end):
            # The prefix reads q padded to its last orbit: the reference
            # pads it again, through the identity.
            top = closing(prefix, end)
            ref = gallery_bound(cx, prefix.seq, prefix.transits, prefix.emb_p, p,
                                range(len(end)), SimpleNamespace(coords=end))
            seen.append((0.5 * top, ref))
            return top

        def checked_opening(prefix, tr):
            top = opening(prefix, tr)
            # The reference never reads an open prefix's last orbit.
            child = (*prefix.seq, None), (*prefix.transits, tr)
            seen.append((0.5 * top, gallery_bound(cx, *child, prefix.emb_p, p, None, q)))
            return top

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric._Prefix, "closing", checked_closing)
            mp.setattr(metric._Prefix, "opening", checked_opening)
            distance(p, q)
    return seen


@pytest.mark.parametrize("lam", [1.0, 1e3, 1e-3])
@pytest.mark.parametrize("surface", [(1, 3), (0, 7), (2, 1)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_carried_screen_equals_reference_bit_for_bit(surface, lam):
    pairs = [(scale(p, lam), scale(q, lam))
             for p, q in _pairs(surface, False, 4 if surface == (2, 1) else 8)]
    seen = _screened_values(pairs)
    assert len(seen) > 10 * len(pairs)
    assert [carried.hex() for carried, _ in seen] == [ref.hex() for _, ref in seen]


@pytest.mark.parametrize("lam", [1.0, 1e3, 1e-3])
@pytest.mark.parametrize("surface", [(1, 3), (0, 7), (2, 1)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_carried_programs_equal_the_gallery_walk(surface, lam, monkeypatch):
    # The key and right-hand side each program reaches _gallery_lp with
    # come from the prefix's carried parts, the call's padded ends and a
    # right-hand side shared by one expansion's children; walked from the
    # whole gallery they must come out the same, bit for bit.
    solve = metric._gallery_lp
    checked = [0]

    def walked(cx, seq, transits, emb_p, p, emb_q, q, key, rhs):
        if emb_q is None or transits:
            want_key, want_rhs = gallery_program(cx, seq, transits, emb_p, p, emb_q, q)
            assert key == want_key
            assert list(map(float.hex, rhs)) == list(map(float.hex, want_rhs))
            checked[0] += 1
        return solve(cx, seq, transits, emb_p, p, emb_q, q, key, rhs)

    monkeypatch.setattr(metric, "_gallery_lp", walked)
    pairs = [(scale(p, lam), scale(q, lam))
             for p, q in _pairs(surface, False, 4 if surface == (2, 1) else 8)]
    _payloads(pairs)
    assert checked[0] > 5 * len(pairs)


# -- the bound against the gallery program ------------------------------------


@pytest.mark.parametrize("integer", [False, True], ids=["uniform", "integer"])
@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: f"S{s[0]}_{s[1]}")
def test_bound_exact_on_closed_and_admissible_on_open(surface, integer):
    programs = _recorded_programs(_pairs(surface, integer, 8))
    closed = [g for g in programs if g[5] is not None]
    assert closed and len(closed) < len(programs)
    for cx, seq, transits, emb_p, p, emb_q, q, value in programs:
        bound = gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
        if emb_q is not None:
            assert abs(bound - value) <= _slack(p, q)
        else:
            assert bound <= value + _slack(p, q)


def test_tie_screen_below_tie():
    # Benchmark coordinates lie in [0.25, 8], a scale of at most 17; the
    # slack must stay below _TIE there or the tie screen never fires.
    assert metric._SLACK * 17 < metric._TIE


@functools.cache
def _scaled_programs(surface, kind):
    integer, lam = POINT_KINDS[kind]
    pairs = [(scale(p, lam), scale(q, lam)) for p, q in _pairs(surface, integer, 8)]
    return _recorded_programs(pairs)


def _bound_value_slack(program):
    # Bound and simplex value of one program, and a sixteenth of _SLACK
    # at its scale.
    cx, seq, transits, emb_p, p, emb_q, q, value = program
    bound = gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
    return bound, value, metric._SLACK / 16 * (1.0 + p.max_coord + q.max_coord)


@pytest.mark.parametrize("kind", POINT_KINDS)
@pytest.mark.parametrize("surface", [*SURFACES, (0, 7)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_closed_bound_within_tie_screen(surface, kind):
    # The screen skips a closed gallery on its bound alone, which is exact
    # only if the bound is within _SLACK of the simplex value; require a
    # sixteenth of it.
    closed = [g for g in _scaled_programs(surface, kind) if g[5] is not None]
    assert closed
    for program in closed:
        bound, value, slack = _bound_value_slack(program)
        assert abs(bound - value) <= slack


@pytest.mark.parametrize("kind", POINT_KINDS)
@pytest.mark.parametrize("surface", [*SURFACES, (0, 7)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_open_bound_within_slack(surface, kind):
    # An open child is pruned on its bound alone, which is exact only if
    # the bound is at most _SLACK above the simplex value of the open
    # program; require a sixteenth of it.
    open_ = [g for g in _scaled_programs(surface, kind) if g[5] is None]
    assert open_
    for program in open_:
        bound, value, slack = _bound_value_slack(program)
        assert bound <= value + slack


@pytest.mark.parametrize("surface", [(2, 0), (1, 3)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_open_program_reads_only_its_key(surface):
    # What lets one expansion solve one open program per into_source of
    # its children's transits; _unscreened checks the values on every
    # search it runs.
    for cx, seq, transits, emb_p, p, emb_q, q, value in _recorded_programs(
        _pairs(surface, False, 4)
    ):
        if emb_q is not None:
            continue
        for sib in _siblings(cx, seq, transits):
            program = gallery_program(cx, *sib, emb_p, p, None, q)
            assert metric._gallery_lp(cx, *sib, emb_p, p, None, q, *program)[0] == value
            assert gallery_bound(cx, *sib, emb_p, p, None, q) == gallery_bound(
                cx, seq, transits, emb_p, p, None, q
            )


@pytest.mark.parametrize("surface", [(2, 0), (1, 3)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_closed_bound_matches_linprog(surface):
    programs = _recorded_programs(_pairs(surface, False, 6))
    closed = sorted(
        (g for g in programs if g[5] is not None and g[2]), key=lambda g: -len(g[1])
    )
    assert closed
    for cx, seq, transits, emb_p, p, emb_q, q, _ in closed[:12]:
        bound = gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
        ref = linprog_value(cx, seq, transits, emb_p, p, emb_q, q)
        assert bound == pytest.approx(ref, abs=1e-9 * (1.0 + p.max_coord + q.max_coord))


# -- scale ---------------------------------------------------------------------


@st.composite
def _scaled_pair(draw):
    surface = draw(st.sampled_from([(1, 2), (2, 0)]))
    cx = complex_for(*surface)
    coord = st.floats(0.25, 8.0, allow_nan=False)
    points = []
    for _ in range(2):
        orbit = draw(st.sampled_from(cx.orbits))
        coords = draw(st.lists(coord, min_size=orbit.n_edges, max_size=orbit.n_edges))
        points.append(cone_point(cx, orbit.id, coords))
    return points[0], points[1], draw(st.sampled_from([1e-6, 1e6]))


@given(_scaled_pair())
@settings(max_examples=25, deadline=None)
def test_homogeneity_and_screen_at_extreme_scales(case):
    p, q, lam = case
    sp, sq = scale(p, lam), scale(q, lam)
    screened = distance(sp, sq)
    base = distance(p, q).distance
    assert screened.distance == pytest.approx(lam * base, rel=1e-9, abs=1e-15 * lam)
    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        assert distance(sp, sq).to_json() == screened.to_json()


# The simplex's tolerances (``lp.TOL`` 1e-9, ``lp._PHASE1_TOL`` 1e-7) are
# absolute, so at a scale of 1e-6 they swallow a gap of 1e-11.  The
# screened search returns one orbit at 4.99999999992626e-12, while the
# unscreened one solves a two-orbit gallery, ('d1-57fb6950d4',
# 'd1-a2f55d89d8'), and returns it at -0.0.  The test above fails
# whenever Hypothesis draws this pair; here it is pinned.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the simplex's absolute tolerances do not scale with the coordinates")
def test_unscreened_search_at_extreme_scale_on_a_vertex_pair():
    cx = complex_for(1, 2)
    p, q = (cone_point(cx, "d0-d9f7d07a62", (x,)) for x in (1.0, 0.99999))
    sp, sq = scale(p, 1e-6), scale(q, 1e-6)
    screened = distance(sp, sq)
    assert screened.distance == pytest.approx(1e-6 * distance(p, q).distance, rel=1e-9)
    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        assert distance(sp, sq).to_json() == screened.to_json()
