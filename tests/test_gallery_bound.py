"""The interval-covering screen in ``distance``.

``_gallery_bound`` must equal the gallery program's value on closed
galleries, stay below it on open prefixes, and leave every geodesic
payload byte-identical to the unscreened search at any scale.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import curvecone.metric as metric
from conftest import SELF_GLUED_DEFECTS, complex_for
from curvecone import cone_point, distance, scale

SURFACES = [(1, 2), (2, 0), (1, 3), (0, 6)]
PAIRS_PER_BUDGET = {0: 12, 1: 3}
# Points as (integer coordinates, scale factor); the screen's rounding
# slack is relative to ``1 + max p + max q``, so it must hold at every scale.
POINT_KINDS = {"uniform": (False, 1.0), "integer": (True, 1.0),
               "x1e3": (False, 1e3), "x1e-3": (False, 1e-3)}


def _slack(p, q):
    return 1e-12 * (1.0 + p.max_coord + q.max_coord)


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


def _payloads(pairs, budget):
    return [distance(p, q, revisit_budget=budget).to_json() for p, q in pairs]


def _unscreened(mp):
    # A bound of -inf never clears the pruning threshold, and a fresh key
    # per child solves every open program afresh.
    mp.setattr(metric, "_gallery_bound", lambda *args: -math.inf)
    mp.setattr(metric, "_open_program_key", lambda tr: object())


def _recorded_programs(pairs):
    """Every gallery program an unscreened search solves, with its value."""
    seen = []
    solve = metric._gallery_lp

    def record(cx, seq, transits, emb_p, p, emb_q=None, q=None):
        value, bps = solve(cx, seq, transits, emb_p, p, emb_q, q)
        seen.append((cx, list(seq), list(transits), emb_p, p, emb_q, q, value))
        return value, bps

    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        mp.setattr(metric, "_gallery_lp", record)
        _payloads(pairs, 0)
    return seen


# -- the screen is invisible in payloads --------------------------------------


# S(0,7) and S(2,1) glue top orbits to themselves; a revisit budget of
# 1 costs seconds per pair on S(2,1), so it gets a few pairs at budget 0.
@pytest.mark.parametrize(
    "surface, integer, budget",
    [
        pytest.param(s, i, b, id=f"S{s[0]}_{s[1]}-{'integer' if i else 'uniform'}-{b}")
        for s in [*SURFACES, (0, 7), (2, 1)]
        for i in (False, True)
        for b in ((0,) if s == (2, 1) else (0, 1))
    ],
)
def test_screen_leaves_payloads_byte_identical(surface, integer, budget, monkeypatch):
    n = 4 if surface == (2, 1) else PAIRS_PER_BUDGET[budget]
    pairs = _pairs(surface, integer, n)
    screened = _payloads(pairs, budget)
    _unscreened(monkeypatch)
    assert _payloads(pairs, budget) == screened


@pytest.mark.parametrize("genus, marked, orbit_id, p, q", SELF_GLUED_DEFECTS)
def test_screen_leaves_self_glued_defects_unchanged(genus, marked, orbit_id, p, q):
    # ROADMAP item 1's instances, which test_gridgraph holds as expected
    # failures against the grid, get the unscreened search's payload.
    cx = complex_for(genus, marked)
    pair = [(cone_point(cx, orbit_id, p), cone_point(cx, orbit_id, q))]
    screened = _payloads(pair, 0)
    with pytest.MonkeyPatch.context() as mp:
        _unscreened(mp)
        assert _payloads(pair, 0) == screened


def _solves(pairs):
    """Closed and all ``_gallery_lp`` calls of the searches over ``pairs``."""
    calls = [0, 0]
    solve = metric._gallery_lp

    def counting(cx, seq, transits, emb_p, p, emb_q=None, q=None):
        calls[0] += emb_q is not None
        calls[1] += 1
        return solve(cx, seq, transits, emb_p, p, emb_q, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_gallery_lp", counting)
        _payloads(pairs, 0)
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


# -- the bound against the gallery program ------------------------------------


@pytest.mark.parametrize("integer", [False, True], ids=["uniform", "integer"])
@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: f"S{s[0]}_{s[1]}")
def test_bound_exact_on_closed_and_admissible_on_open(surface, integer):
    programs = _recorded_programs(_pairs(surface, integer, 8))
    closed = [g for g in programs if g[5] is not None]
    assert closed and len(closed) < len(programs)
    for cx, seq, transits, emb_p, p, emb_q, q, value in programs:
        bound = metric._gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
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
    bound = metric._gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
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
    # What lets one expansion solve one open program per _open_program_key.
    for cx, seq, transits, emb_p, p, emb_q, q, value in _recorded_programs(
        _pairs(surface, False, 4)
    ):
        if emb_q is not None:
            continue
        last = transits[-1]
        for nxt in cx.maximal_ids:
            for tr in cx.transits(seq[-2], nxt):
                if metric._open_program_key(tr) != metric._open_program_key(last):
                    continue
                args = (cx, seq[:-1] + [nxt], transits[:-1] + [tr], emb_p, p, None, q)
                assert metric._gallery_lp(*args)[0] == value
                assert metric._gallery_bound(*args) == metric._gallery_bound(
                    cx, seq, transits, emb_p, p, None, q
                )


def _linprog_value(cx, seq, transits, emb_p, p, emb_q, q):
    """The closed gallery program from its definition: segment lengths
    ``t_j`` and breakpoints ``w_k``, with every edge of segment ``j``
    moving by at most ``2 t_j``."""
    n_seg = len(seq)
    offsets = np.cumsum([n_seg] + [len(t.into_source) for t in transits])
    nvar = int(offsets[-1])

    def side(j, at_start):
        # (constants, {edge: breakpoint variable}) at one end of segment j.
        m = cx.orbit(seq[j]).n_edges
        if at_start and j == 0:
            return metric._pad(emb_p, p.coords, m), {}
        if not at_start and j == n_seg - 1:
            return metric._pad(emb_q, q.coords, m), {}
        k = j - 1 if at_start else j
        edges = transits[k].into_target if at_start else transits[k].into_source
        return [0.0] * m, {e: int(offsets[k]) + c for c, e in enumerate(edges)}

    rows, rhs = [], []
    for j in range(n_seg):
        (u, u_var), (v, v_var) = side(j, True), side(j, False)
        for e in range(len(u)):
            for sign in (1.0, -1.0):
                # sign * (u_e - v_e) <= 2 t_j
                row = np.zeros(nvar)
                row[j] = -2.0
                if e in u_var:
                    row[u_var[e]] += sign
                if e in v_var:
                    row[v_var[e]] -= sign
                rows.append(row)
                rhs.append(-sign * (u[e] - v[e]))
    cost = np.zeros(nvar)
    cost[:n_seg] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("surface", [(2, 0), (1, 3)], ids=lambda s: f"S{s[0]}_{s[1]}")
def test_closed_bound_matches_linprog(surface):
    programs = _recorded_programs(_pairs(surface, False, 6))
    closed = sorted(
        (g for g in programs if g[5] is not None and g[2]), key=lambda g: -len(g[1])
    )
    assert closed
    for cx, seq, transits, emb_p, p, emb_q, q, _ in closed[:12]:
        bound = metric._gallery_bound(cx, seq, transits, emb_p, p, emb_q, q)
        ref = _linprog_value(cx, seq, transits, emb_p, p, emb_q, q)
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
