import struct

import numpy as np
import pytest
from scipy.optimize import linprog

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
def test_gallery_programs_match_dense_tableau_bits(surface, coords, monkeypatch):
    # Every program distance() hands the simplex, from seeded point pairs.
    # Small-integer coordinates (zeros included) give degenerate pivots.
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
        assert_bit_identical(c, dense(rows, len(c)), rhs, res)
