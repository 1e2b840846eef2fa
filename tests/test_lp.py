import hashlib
import struct
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

import curvecone.lp as lp
import curvecone.metric as metric
from conftest import complex_for
from curvecone import LPInfeasibleError, LPUnboundedError, cone_point, distance, solve_lp
from curvecone.lp import TOL


# -- the dense numpy tableau the sparse solver must match bit for bit -----------


def _ref_pivot(tab, basis, row, col):
    piv = tab[row] / tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, piv)
    tab[row] = piv
    basis[row] = col


def _ref_bland_entering(costs, ncols):
    neg = np.flatnonzero(costs[:ncols] < -TOL)
    return int(neg[0]) if neg.size else None


def _ref_bland_leaving(tab, basis, col):
    column = tab[:, col]
    rows = np.flatnonzero(column > TOL)
    if not rows.size:
        return None
    ratios = tab[rows, -1] / column[rows]
    floor = ratios.min()
    ties = rows[ratios <= floor + TOL]
    if ties.size == 1:
        return int(ties[0])
    basis_arr = np.asarray(basis)
    return int(ties[np.argmin(basis_arr[ties])])


def _ref_run_simplex(tab, basis, ncols):
    while True:
        col = _ref_bland_entering(tab[-1, :ncols], ncols)
        if col is None:
            return
        row = _ref_bland_leaving(tab[:-1], basis, col)
        if row is None:
            raise LPUnboundedError(f"unbounded in column {col}")
        _ref_pivot(tab, basis, row, col)


def reference_solve_lp(c, a_ub, b_ub):
    """The dense two-phase Bland simplex the sparse solver replaced:
    ``(value, x)`` with ``x`` an array."""
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    neg = b < 0
    n_art = int(neg.sum())
    ncols = n + m + n_art
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :n] = a
    tab[:m, -1] = b
    basis = [0] * m
    art_col = n + m
    art_cols = []
    for i in range(m):
        tab[i, n + i] = 1.0
        if neg[i]:
            tab[i] *= -1.0
            tab[i, art_col] = 1.0
            basis[i] = art_col
            art_cols.append(art_col)
            art_col += 1
        else:
            basis[i] = n + i

    if n_art:
        for j in art_cols:
            tab[-1, j] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                tab[-1] -= tab[i]
        _ref_run_simplex(tab, basis, ncols)
        if -tab[-1, -1] > 1e-7:
            raise LPInfeasibleError(f"phase-1 residual {-tab[-1, -1]:g}")
        for i in range(m):
            if basis[i] in art_cols:
                pivot_col = None
                for j in range(n + m):
                    if abs(tab[i, j]) > TOL:
                        pivot_col = j
                        break
                if pivot_col is None:
                    continue
                _ref_pivot(tab, basis, i, pivot_col)
        tab = np.delete(tab, np.s_[n + m : n + m + n_art], axis=1)
        ncols = n + m

    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for i in range(m):
        if basis[i] < ncols and tab[-1, basis[i]] != 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    _ref_run_simplex(tab, basis, ncols)

    x = np.zeros(ncols)
    for i in range(m):
        if basis[i] < ncols:
            x[basis[i]] = tab[i, -1]
    return float(-tab[-1, -1]), x[:n].copy()


def _packed(value, x):
    # Packed doubles, so a zero's sign counts as a difference.
    return struct.pack(f"<{1 + len(x)}d", value, *x)


def sparse(rows):
    """Dense rows as the ``{column: coefficient}`` rows ``solve_lp`` reads."""
    return [dict(enumerate(row)) for row in rows]


def solve_dense(c, rows, rhs):
    return solve_lp(c, sparse(rows), rhs)


def keyed(c, rows, key=0):
    """``rows`` as a :class:`lp.Program` under ``key``, which the replay
    store records and replays; plain rows only run the tableau."""
    return lp.Program(key, list(map(float, c)), rows)


def dense(rows, n):
    """``{column: coefficient}`` rows as the dense rows of the reference."""
    return [[row.get(j, 0.0) for j in range(n)] for row in rows]


def assert_bit_identical(c, rows, rhs, res=None):
    # ``rows`` are dense; ``res`` is a recorded result of the same program.
    res = solve_dense(c, rows, rhs) if res is None else res
    assert isinstance(res.x, tuple)
    assert _packed(res.value, res.x) == _packed(*reference_solve_lp(c, rows, rhs))


# One segment from (0, 0) to (2, 6): min t with t >= |x_e - y_e| / 2.
# Rows: -2t <= -(y_e - x_e) and -2t <= (y_e - x_e) per edge.
HALF_SUP = ([1.0], [[-2.0], [-2.0], [-2.0], [-2.0]], [2.0, -2.0, 6.0, -6.0])

# Two quadrant segments joined at one shared-ray breakpoint w, over the
# variables (t0, t1, w).
TWO_SEGMENT_ROWS = [
    [-2.0, 0.0, 0.0],   # 4 - 0 <= 2 t0
    [-2.0, 0.0, 0.0],
    [-2.0, 0.0, 1.0],   # w - 0 <= 2 t0
    [-2.0, 0.0, -1.0],
    [0.0, -2.0, 1.0],   # w - 2 <= 2 t1
    [0.0, -2.0, -1.0],
    [0.0, -2.0, 0.0],   # 0 - 2 <= 2 t1
    [0.0, -2.0, 0.0],
]
# Endpoints (4, 0) and (2, 2); minimize t0 + t1 with
#   t0 >= max(4, w) / 2   (first quadrant: (4,0) to (0,w))
#   t1 >= max(|w-2|, 2) / 2   (second quadrant: (w,0) to (2,2))
# Hand minimization gives 2 + 1 = 3 at any w in [0, 4].
TWO_SEGMENT = (
    [1.0, 1.0, 0.0],
    TWO_SEGMENT_ROWS,
    [-4.0, 4.0, 0.0, 0.0, 2.0, -2.0, 2.0, -2.0],
)
# Endpoint already on the shared face: first segment can have length 0.
# p = (0, 3) on the shared ray, q = (3, 1): w = 3 gives t0 = 0 and the
# value is the direct second-segment length max(0, 1) / 2.
DEGENERATE_FIRST = (
    [1.0, 1.0, 0.0],
    TWO_SEGMENT_ROWS,
    [0.0, 0.0, 3.0, -3.0, 3.0, -3.0, 1.0, -1.0],
)
# Two equally good vertices: the tie-break must be deterministic.
TIES = ([1.0, 1.0], [[-1.0, -1.0]], [-1.0])
# x >= 1 and x <= 1: phase 1's ratio tie goes to the slack (the lesser
# basis index), which leaves the artificial basic at zero, so the
# artificial kick-out pivots.
PINNED = ([1.0], [[-1.0], [1.0]], [-1.0, 1.0])


def test_single_segment_reproduces_half_sup():
    res = solve_dense(*HALF_SUP)
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_two_segment_hand_derived():
    res = solve_dense(*TWO_SEGMENT)
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_degenerate_first_segment():
    res = solve_dense(*DEGENERATE_FIRST)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)


def test_pinned_variable_after_artificial_kick_out():
    res = solve_dense(*PINNED)
    assert res.value == 1.0
    assert res.x == (1.0,)


def test_infeasible_detected():
    # x <= -1 with x >= 0.
    with pytest.raises(LPInfeasibleError):
        solve_lp([1.0], [{0: 1.0}], [-1.0])


def test_unbounded_detected():
    # min -x with only the slack row of -x <= 1.
    with pytest.raises(LPUnboundedError):
        solve_lp([-1.0], [{0: -1.0}], [1.0])


@pytest.mark.parametrize(
    "c, rows, rhs",
    [
        ([1.0], [{1: 1.0}], [1.0]),  # a column past the end of c
        ([1.0], [{0: 1.0}, {0: 1.0}], [1.0]),  # more rows than right-hand sides
        ([1.0], [{0: 1.0}], [1.0, 2.0]),  # more right-hand sides than rows
        ([1.0], [{0: 1.0}, {-1: 2.0}], [1.0, 2.0]),  # a negative column
        ([1.0, 1.0], [[1.0, 0.0]], [1.0]),  # a dense list row
    ],
)
def test_inconsistent_dimensions_rejected(c, rows, rhs):
    with pytest.raises(ValueError):
        solve_lp(c, rows, rhs)


@pytest.mark.parametrize("program", [TWO_SEGMENT, DEGENERATE_FIRST])
def test_explicit_zero_entries_match_omitted_ones(program):
    c, rows, rhs = program
    omitted = [{j: v for j, v in enumerate(row) if v} for row in rows]
    negative_zeros = [{j: v or -0.0 for j, v in enumerate(row)} for row in rows]
    results = [solve_lp(c, r, rhs) for r in (omitted, sparse(rows), negative_zeros)]
    assert len({_packed(res.value, res.x) for res in results}) == 1


def random_bounded_program(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 8), rng.integers(2, 6)
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0, 2, size=n)
    b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
    c = rng.uniform(0.1, 2.0, size=n)  # c >= 0 keeps the program bounded
    return c, a, b


@pytest.mark.parametrize("seed", range(12))
def test_matches_scipy_on_random_bounded_programs(seed):
    c, a, b = random_bounded_program(seed)
    mine = solve_dense(c, a, b)
    ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert mine.value == pytest.approx(ref.fun, abs=1e-7)
    assert np.all(a @ mine.x <= b + 1e-7)
    assert np.all(np.asarray(mine.x) >= -1e-12)


def test_deterministic_resolution_of_ties():
    first = solve_dense(*TIES)
    second = solve_dense(*TIES)
    assert first.value == second.value == pytest.approx(1.0)
    assert np.array_equal(first.x, second.x)


# -- bit identity with the dense tableau -----------------------------------------

PAIRS = 25


@pytest.mark.parametrize(
    "program", [HALF_SUP, TWO_SEGMENT, DEGENERATE_FIRST, TIES, PINNED]
)
def test_hand_programs_match_dense_tableau_bits(program):
    assert_bit_identical(*program)


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_match_dense_tableau_bits(seed):
    assert_bit_identical(*random_bounded_program(seed))


@pytest.mark.parametrize(
    "surface", [(1, 2), (2, 0), (1, 3), (0, 6)], ids=lambda s: f"S{s[0]}_{s[1]}"
)
@pytest.mark.parametrize("coords", ["uniform", "integer"])
def test_gallery_programs_match_dense_tableau_bits(surface, coords, monkeypatch, empty_plan_store):
    # Every program distance() hands the simplex, from seeded point pairs.
    # Small-integer coordinates (zeros included) give degenerate pivots,
    # ratio ties and several pivot paths per program shape.
    cx = complex_for(*surface)
    recorded = []

    def recording_solve_lp(c, rows, rhs):
        res = solve_lp(c, rows, rhs)
        recorded.append((c, rows, rhs, res))
        return res

    monkeypatch.setattr(metric, "solve_lp", recording_solve_lp)
    rng = np.random.default_rng([*surface, coords == "integer"])
    ids = [o.id for o in cx.orbits if o.n_edges]

    def point():
        oid = ids[rng.integers(len(ids))]
        k = cx.orbit(oid).n_edges
        if coords == "integer":
            xs = rng.integers(0, 4, size=k).astype(float)
        else:
            xs = rng.uniform(0.25, 8.0, size=k)
        return cone_point(cx, oid, xs)

    for _ in range(PAIRS):
        distance(point(), point())
    assert recorded
    for c, rows, rhs, res in recorded:
        assert all(isinstance(row, dict) for row in rows)
        # On an empty store: solved on the tableau, which records the
        # whole pivot path, then replayed.  The search's Program carries
        # its own store's tries, so a fresh one is solved.
        assert isinstance(rows, lp.Program) and c is rows.cost
        monkeypatch.setattr(lp, "_STORE", lp._PlanStore())
        for r in (res, *solved_until_replayed(lp.Program(rows.key, c, rows), rhs)):
            assert_bit_identical(c, dense(rows, len(c)), rhs, r)


# -- replay of recorded pivot paths --------------------------------------------


def solved_until_replayed(program, rhs):
    """Solve one :class:`lp.Program` until the replay store answers it,
    which must be by the second solve: a solve that misses records its
    whole pivot path.  Returns every result, the replay's last."""
    replays = lp.plan_stats()["replays"]
    results = []
    for _ in range(2):
        results.append(solve_lp(program.cost, program, rhs))
        if lp.plan_stats()["replays"] > replays:
            return results
    pytest.fail("the second solve ran the tableau: the first did not record its path")


@pytest.mark.parametrize("program", [HALF_SUP, TWO_SEGMENT, DEGENERATE_FIRST, TIES, PINNED])
def test_replayed_hand_programs_match_dense_tableau_bits(program, empty_plan_store):
    c, rows, rhs = program
    results = solved_until_replayed(keyed(c, sparse(rows)), rhs)
    assert lp.plan_stats()["misses"] == len(results) - 1
    for r in results:
        assert_bit_identical(c, rows, rhs, r)


def two_segments(s, t, u):
    """The right-hand side of the two-segment rows from p = (0, s), on the
    shared ray, to q = (t, u); DEGENERATE_FIRST is (3, 3, 1)."""
    return [0.0, 0.0, s, -s, t, -t, u, -u]


def test_one_miss_records_its_whole_path(empty_plan_store):
    # DEGENERATE_FIRST passes three ratio tests with several candidates
    # (2, 6 and 5 rows), so its path is four stretches.  One solve records
    # all four, and the next replays.
    c, rows, rhs = DEGENERATE_FIRST
    program = keyed(c, sparse(rows))
    first = solve_lp(program.cost, program, rhs)
    assert lp.plan_stats() == {"shapes": 1, "nodes": 4, "programs": 0, "replays": 0, "misses": 1}
    second = solve_lp(program.cost, program, rhs)
    assert lp.plan_stats() == {"shapes": 1, "nodes": 4, "programs": 1, "replays": 1, "misses": 1}
    for r in (first, second):
        assert_bit_identical(c, rows, rhs, r)


@pytest.mark.parametrize("s, t, u, after", [(1.0, 2.0, 1.0, 3), (4.0, 2.0, 1.0, 1)])
def test_a_branching_solve_records_only_the_stretches_after_the_branch(s, t, u, after, empty_plan_store):
    # Both take DEGENERATE_FIRST's shape and its first ratio test's way.
    # (1, 2, 1) then wins another row at its second test and passes two
    # more tests (three stretches after the branch); (4, 2, 1) wins
    # another row at its third test (one stretch after it).  The branching
    # solve replays up to the branch and records only what follows.
    c, rows, rhs = DEGENERATE_FIRST
    program = keyed(c, sparse(rows))
    solve_lp(program.cost, program, rhs)
    other = two_segments(s, t, u)
    res = solve_lp(program.cost, program, other)
    stats = lp.plan_stats()
    assert (stats["shapes"], stats["nodes"], stats["misses"]) == (1, 4 + after, 2)
    assert_bit_identical(c, rows, other, res)
    # Both paths now replay.
    for b in (rhs, other, rhs, other):
        assert_bit_identical(c, rows, b, solve_lp(program.cost, program, b))
    assert lp.plan_stats()["misses"] == 2
    assert lp.plan_stats()["replays"] == 4


def test_a_warm_solve_looks_its_key_up_once(empty_plan_store):
    # program_of finds the key's tries and kept program in one entry and
    # hands the tries on with the program, so once the key is recorded a
    # solve through it hashes the key once, whether or not it is kept.
    class Key(tuple):
        hashes = 0

        def __hash__(self):
            Key.hashes += 1
            return tuple.__hash__(self)

    c, rows, rhs = DEGENERATE_FIRST
    key = Key((1, 2))

    def build(k):
        return list(map(float, c)), sparse(rows)

    first = lp.program_of(key, build)
    solve_lp(first.cost, first, rhs)
    hashes = []
    for _ in range(3):
        Key.hashes = 0
        program = lp.program_of(key, build)
        assert_bit_identical(c, rows, rhs, solve_lp(program.cost, program, rhs))
        hashes.append(Key.hashes)
    assert hashes == [1, 1, 1]
    # The second solve replayed and was kept; the later ones reuse it.
    assert program is lp.program_of(key, None) is not first
    assert lp.plan_stats()["programs"] == 1


def raised_by_replay(program, data, exc):
    """Solve ``program(*d)``, keyed, for each ``d`` in ``data``; each must
    raise ``exc``, as the dense reference does.  Returns how many of the
    solves raised from the replay store, without running the tableau."""
    replayed = 0
    for d in data:
        c, rows, rhs = program(*d)
        with pytest.raises(exc):
            reference_solve_lp(c, dense(rows, len(c)), rhs)
        misses = lp.plan_stats()["misses"]
        keyed_rows = keyed(c, rows)
        with pytest.raises(exc):
            solve_lp(keyed_rows.cost, keyed_rows, rhs)
        replayed += lp.plan_stats()["misses"] == misses
    return replayed


def test_recorded_path_with_infeasible_data_raises(empty_plan_store):
    # x >= lo and x <= hi.  For lo > hi the ratio test on x goes to the
    # row of hi and phase 1 ends with residual lo - hi; lo - hi = 5e-8 is
    # below _PHASE1_TOL, so that program is solved and its path recorded,
    # and the infeasible ones then take that path to the phase-1 check.
    def program(lo, hi):
        return [1.0], [{0: -1.0}, {0: 1.0}], [-lo, hi]

    c, rows, rhs = program(1.0 + 5e-8, 1.0)
    solved_until_replayed(keyed(c, rows), rhs)
    data = [(2.0, 1.0), (5.0, 0.5), (3.0, 2.0), (1.0 + 2e-7, 1.0)]
    assert raised_by_replay(program, data, LPInfeasibleError) == len(data)


def test_recorded_shape_with_infeasible_data_raises(empty_plan_store):
    # x0 + x1 >= lo, x0 <= u0, x1 <= u1: feasible data records the shape;
    # for lo > u0 + u1 phase 1 takes other ways at its two ratio tests and
    # ends with the artificial basic and positive.
    def program(lo, u0, u1):
        return [1.0, 1.0], [{0: -1.0, 1: -1.0}, {0: 1.0}, {1: 1.0}], [-lo, u0, u1]

    c, rows, rhs = program(1.0, 2.0, 2.0)
    solved_until_replayed(keyed(c, rows), rhs)
    data = [(5.0, 1.0, 2.0), (9.0, 3.0, 4.0), (4.0, 1.0, 1.0), (7.0, 2.0, 2.5)] * 3
    raised_by_replay(program, data, LPInfeasibleError)
    assert lp.plan_stats()["shapes"] == 1


@pytest.mark.parametrize("phase_one", [False, True])
def test_recorded_shape_with_unbounded_data_raises(phase_one, empty_plan_store):
    # min -x over x >= -b, or over x >= b after a phase 1, for b > 0: one
    # stretch.  The first solve records it, and every later one raises
    # from the replay.
    def program(b):
        return [-1.0], [{0: -1.0}], [-b if phase_one else b]

    data = [(1.0,), (2.0,), (0.5,), (3.0,), (8.0,), (0.25,), (5.0,), (0.75,)]
    assert raised_by_replay(program, data, LPUnboundedError) == len(data) - 1


@pytest.mark.parametrize("program", [TWO_SEGMENT, DEGENERATE_FIRST, HALF_SUP])
def test_zeros_signed_zeros_and_subnormal_right_hand_sides(program, monkeypatch):
    # A right-hand side of 0.0, -0.0 (also as the underflowed -1e-400) or
    # a positive subnormal gives the tableau of a zero, and may share its
    # plan; a negative subnormal gives a row with an artificial, another
    # shape.  Each is solved until replayed, in both orders, and every
    # result must match the dense tableau of its own right-hand side.
    c, rows, rhs = program
    zeros = [0.0, -0.0, -1e-400, 5e-324, 1e-300, -5e-324, -1e-300]
    for order in (zeros, zeros[::-1]):
        monkeypatch.setattr(lp, "_STORE", lp._PlanStore())
        for z in order:
            b = [z if v == 0 else v for v in rhs]
            for r in solved_until_replayed(keyed(c, sparse(rows)), b):
                assert_bit_identical(c, rows, b, r)
        assert lp.plan_stats()["shapes"] == (2 if any(v == 0 for v in rhs) else 1)


def payload_digest(seed):
    """sha256 over distance payloads on S(1,2), S(2,0), S(1,3), S(0,7),
    with uniform and small-integer points from every orbit."""
    digest = hashlib.sha256()
    for surface in [(1, 2), (2, 0), (1, 3), (0, 7)]:
        cx = complex_for(*surface)
        rng = np.random.default_rng([*surface, seed])
        ids = [o.id for o in cx.orbits if o.n_edges]
        for k in range(6):
            pts = []
            for _ in range(2):
                oid = ids[rng.integers(len(ids))]
                n = cx.orbit(oid).n_edges
                xs = rng.integers(0, 4, size=n) if k % 2 else rng.uniform(0.25, 8.0, size=n)
                pts.append(cone_point(cx, oid, xs.astype(float)))
            digest.update(distance(*pts).to_json().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [0])
def test_payloads_match_between_empty_and_warm_store(seed, monkeypatch, empty_plan_store):
    monkeypatch.setattr(lp, "_MAX_NODES", 0)
    tableau_only = payload_digest(seed)
    assert lp.plan_stats()["shapes"] == lp.plan_stats()["replays"] == 0
    monkeypatch.undo()
    monkeypatch.setattr(lp, "_STORE", lp._PlanStore())
    # The first rounds start from an empty store; the last is warm.
    for _ in range(3):
        assert payload_digest(seed) == tableau_only
    warm = lp.plan_stats()["replays"]
    assert payload_digest(seed) == tableau_only
    assert lp.plan_stats()["replays"] > warm


def test_store_stays_within_its_cap(monkeypatch, empty_plan_store):
    # Many S(2,1) and S(1,3) searches against a small cap: the store fills
    # up to it and stops, and the results past the cap are those of the
    # tableau alone.
    def payloads():
        out = []
        for surface in [(2, 1), (1, 3)]:
            cx = complex_for(*surface)
            rng = np.random.default_rng([*surface, 7])
            ids = [o.id for o in cx.orbits if o.n_edges]
            for _ in range(4):
                p, q = (cone_point(cx, oid, rng.uniform(0.25, 8.0, size=cx.orbit(oid).n_edges))
                        for oid in (ids[rng.integers(len(ids))], ids[rng.integers(len(ids))]))
                out.append(distance(p, q).to_json())
        return out

    # After every solve: no more programs kept than shapes recorded, and
    # no more shapes than stretches.
    solve = metric.solve_lp

    def checked(*args):
        res = solve(*args)
        stats = lp.plan_stats()
        assert stats["programs"] <= stats["shapes"] <= stats["nodes"] <= lp._MAX_NODES
        return res

    monkeypatch.setattr(metric, "solve_lp", checked)
    monkeypatch.setattr(lp, "_MAX_NODES", 0)
    tableau_only = payloads()
    assert lp.plan_stats()["programs"] == 0
    cap = 4
    monkeypatch.setattr(lp, "_MAX_NODES", cap)
    for _ in range(8):
        assert payloads() == tableau_only
        if lp.plan_stats()["nodes"] == cap:
            break
    assert payloads() == tableau_only
    assert lp.plan_stats()["nodes"] == cap


def test_warm_search_keeps_recording_until_its_paths_replay(empty_plan_store):
    # Twelve rounds of the benchmark's geodesic inputs on S(1,3): every
    # ordered orbit pair, with points from default_rng([0, r]).  The store
    # must hold every path these rounds record, so that their misses keep
    # falling: with room for every path rounds 9-11 miss 109 solves, and
    # a store full by round 2 leaves them missing over 400.
    cx = complex_for(1, 3)
    ids = [o.id for o in cx.orbits]
    pairs = [(a, b) for a in ids for b in ids]
    late = 0
    for r in range(12):
        rng = np.random.default_rng([0, r])
        misses = lp.plan_stats()["misses"]
        for j in rng.permutation(len(pairs)):
            a, b = pairs[j]
            p = cone_point(cx, a, rng.uniform(0.25, 8.0, size=cx.orbit(a).n_edges))
            q = cone_point(cx, b, rng.uniform(0.25, 8.0, size=cx.orbit(b).n_edges))
            distance(p, q)
        stats = lp.plan_stats()
        assert stats["nodes"] < lp._MAX_NODES, (r, stats)
        if r >= 9:
            late += stats["misses"] - misses
    assert late < 200


def gallery_rows(cx, seq, transits, closed):
    """Cost and rows of a gallery program read off the whole gallery: the
    size of every segment's orbit and both maps of every transit.

    The variables are a length ``t_j`` per segment, a breakpoint ``w`` per
    curve carried by each transit, and, open, a climb ``s``.  On segment
    ``j`` an edge starts at the ``w`` the transit before carries into it
    (or at a constant) and ends at the ``w`` the transit after carries out
    of it (or at a constant); each edge gives the rows ``start - end -
    2 t_j`` and ``end - start - 2 t_j``, and an open program first the row
    ``-s - sum(w_last) / 2``.
    """
    n_seg = len(seq) if closed else len(seq) - 1
    first_w = [n_seg]
    for tr in transits:
        first_w.append(first_w[-1] + len(tr.into_source))
    n = first_w[-1] if closed else first_w[-1] + 1
    cost = [1.0 if j < n_seg or j == n - 1 and not closed else 0.0 for j in range(n)]
    rows = []
    if not closed:
        rows.append({n - 1: -1.0, **{w: -0.5 for w in range(first_w[-2], first_w[-1])}})
    for j in range(n_seg):
        for e in range(cx.orbit(seq[j]).n_edges):
            row = {j: -2.0}
            if j > 0 and e in transits[j - 1].into_target:
                row[first_w[j - 1] + transits[j - 1].into_target.index(e)] = 1.0
            if j < len(transits) and e in transits[j].into_source:
                row[first_w[j] + transits[j].into_source.index(e)] = -1.0
            rows.append(row)
            rows.append({v: -a if v != j else a for v, a in row.items()})
    return cost, rows


def test_rows_built_from_the_key_match_the_whole_gallery(monkeypatch, empty_plan_store):
    # Every program the search solves, built from its key or kept by the
    # store under it, has the cost and rows of the gallery it is solved
    # for.  A key that left out part of what the rows read would hand one
    # gallery another's kept program: dropping the sizes from the key
    # mixes up surfaces of other complexity, dropping an open program's
    # last into_source mixes up the children of one expansion.
    gallery_lp, solve = metric._gallery_lp, metric.solve_lp
    gallery = []
    kept = [0]

    def recording(cx, seq, transits, emb_p, p, emb_q, q):
        gallery[:] = [cx, seq, transits, emb_q is not None]
        return gallery_lp(cx, seq, transits, emb_p, p, emb_q, q)

    def checking(c, rows, rhs):
        assert (c, list(rows)) == gallery_rows(*gallery)
        kept[0] += rows.tries is not None and rows.tries.program is rows
        return solve(c, rows, rhs)

    monkeypatch.setattr(metric, "_gallery_lp", recording)
    monkeypatch.setattr(metric, "solve_lp", checking)
    for surface in [(1, 2), (2, 0), (1, 3), (0, 7), (2, 1)]:
        cx = complex_for(*surface)
        rng = np.random.default_rng([*surface, 29])
        ids = [o.id for o in cx.orbits if o.n_edges]
        pairs = []
        for integer in (False, True):
            for _ in range(2 if surface == (2, 1) else 6):
                p, q = (cone_point(cx, oid, rng.integers(0, 4, size=cx.orbit(oid).n_edges)
                                   if integer else rng.uniform(0.25, 8.0, size=cx.orbit(oid).n_edges))
                        for oid in (ids[rng.integers(len(ids))], ids[rng.integers(len(ids))]))
                pairs.append((p, q))
        for p, q in pairs * 3:
            distance(p, q)
    assert kept[0] > 0


def test_warm_search_replays(monkeypatch, empty_plan_store):
    # A search on a warm store answers most of its programs by replay, and
    # builds the rows of few of them; a change that sent every solve back
    # to the tableau, or rebuilt every program, would fail here.
    cx = complex_for(1, 3)
    ids = [o.id for o in cx.orbits if o.n_edges]

    def search(seed):
        rng = np.random.default_rng(seed)
        for a in ids:
            for b in ids:
                p = cone_point(cx, a, rng.uniform(0.25, 8.0, size=cx.orbit(a).n_edges))
                q = cone_point(cx, b, rng.uniform(0.25, 8.0, size=cx.orbit(b).n_edges))
                distance(p, q)

    for seed in range(3):
        search(seed)
    built = [0]
    build = metric._gallery_rows

    def counting(*args):
        built[0] += 1
        return build(*args)

    monkeypatch.setattr(metric, "_gallery_rows", counting)
    before = lp.plan_stats()
    search(3)
    after = lp.plan_stats()
    replays = after["replays"] - before["replays"]
    misses = after["misses"] - before["misses"]
    assert replays > misses
    assert after["programs"] > 0
    assert 10 * built[0] < replays + misses


def test_threads_sharing_the_store_get_serial_payloads(monkeypatch, empty_plan_store):
    # Four threads search S(1,3) at once on one store, switching every
    # microsecond, so they record and replay the same shapes between each
    # other's steps; every payload must be the one of the tableau alone.
    cx = complex_for(1, 3)
    ids = [o.id for o in cx.orbits if o.n_edges]
    rng = np.random.default_rng(11)
    pairs = [
        tuple(cone_point(cx, oid, rng.uniform(0.25, 8.0, size=cx.orbit(oid).n_edges))
              for oid in (ids[rng.integers(len(ids))], ids[rng.integers(len(ids))]))
        for _ in range(12)
    ]
    monkeypatch.setattr(lp, "_MAX_NODES", 0)
    serial = [distance(p, q).to_json() for p, q in pairs]
    monkeypatch.undo()
    monkeypatch.setattr(lp, "_STORE", lp._PlanStore())
    results = [[] for _ in range(4)]

    def search(out):
        for _ in range(3):
            out.append([distance(p, q).to_json() for p, q in pairs])

    threads = [threading.Thread(target=search, args=(out,), daemon=True) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert lp.plan_stats()["replays"] > 0
    assert all(out == [serial] * 3 for out in results)


def test_plain_rows_run_the_tableau_and_leave_the_store_alone(empty_plan_store):
    # Only a Program solved with its own cost reaches the replay store.
    # Rows of numpy scalars, rows of a dict subclass, an ordinary program
    # and a Program solved with a copy of its cost each run the tableau,
    # however often, and get its answer; the store neither records nor
    # counts them.
    class Row(dict):
        pass

    pinned = keyed(PINNED[0], sparse(PINNED[1]))
    for _ in range(6):
        res = solve_lp([-1.0], [{0: np.int64(1)}], [4.0])
        assert (res.value, res.x) == (-4.0, (4.0,))
        # A pivot of 5e-324 is below TOL.
        with pytest.raises(LPUnboundedError):
            solve_lp([-1.0], [{0: np.float64(5e-324)}], [4.0])
        res = solve_lp([1.0, 1.0], [Row({0: -1.0, 1: -1.0})], [-1.0])
        assert (res.value, res.x) == (1.0, (1.0, 0.0))
        assert_bit_identical(*TWO_SEGMENT)
        assert solve_lp(list(pinned.cost), pinned, PINNED[2]).x == (1.0,)
    assert lp.plan_stats() == {"shapes": 0, "nodes": 0, "programs": 0, "replays": 0, "misses": 0}
