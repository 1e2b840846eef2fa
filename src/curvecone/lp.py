"""Sparse two-phase simplex solver for the small gallery programs.

Solves ``min c.x  s.t.  A x <= b,  x >= 0`` with Bland's anti-cycling
pivot rule (Bland 1977), so runs are deterministic and finite even on
the degenerate programs the geodesic search produces.

The programs are tiny and sparse (about 17 rows and 7 variables, each
row touching two or three of them).  The cost ``c`` is a dense list
whose length is the number of variables; each row of ``A`` is a
``{column: coefficient}`` dict, absent columns being 0.  Each tableau
row, the cost row included, is likewise a ``{column: value}`` dict of
its nonzero entries, with the right-hand side under the column after
the last artificial.  Every stored entry comes from the IEEE operation
a dense tableau would apply (``v / d`` on the pivot row, ``t - f * p``
on the others, where an absent ``t`` is 0 and ``0.0 - y`` is exactly
``-y``); an entry that cancels to zero is dropped, and a dense tableau
would hold ``+0.0`` there.  So the pivots and every nonzero entry match
a dense tableau bit for bit; only the sign of a zero could differ, and
no comparison depends on it (``tests/test_lp.py`` compares results with
signed zeros too).
"""

from __future__ import annotations

from dataclasses import dataclass

# Pivot threshold: gallery tableau entries are sums of a few coordinates.
TOL = 1e-9
# Phase-1 residual of an infeasible program: feasible ones end at rounding.
_PHASE1_TOL = 1e-7


class LPError(RuntimeError):
    pass


class LPInfeasibleError(LPError):
    """No feasible point; a malformed program (internal bug upstream)."""


class LPUnboundedError(LPError):
    """Objective unbounded below; impossible for well-formed programs here."""


@dataclass(frozen=True)
class LPResult:
    value: float
    x: tuple[float, ...]


def _subtract(row: dict, f: float, other: dict) -> None:
    """``row -= f * other``, keeping only nonzero entries."""
    get = row.get
    for k, p in other.items():
        v = get(k, 0.0) - f * p
        if v:
            row[k] = v
        else:
            row.pop(k, None)


def _pivot(tab: list[dict], basis: list[int], r: int, col: int) -> None:
    # The pivot column cancels exactly in every other row (f - f * 1.0),
    # so it is dropped there and set to d / d = 1.0 in the pivot row last.
    # The row update is _subtract inlined: this loop is the solver's cost.
    d = tab[r].pop(col)
    piv = {k: q for k, v in tab[r].items() if (q := v / d)}
    tab[r] = piv
    for row in tab:
        f = row.pop(col, None)
        if f is not None:
            get = row.get
            for k, p in piv.items():
                v = get(k, 0.0) - f * p
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    piv[col] = 1.0
    basis[r] = col


def _run_simplex(tab: list[dict], basis: list[int], ncols: int, rhs: int) -> None:
    """Bland pivots on ``tab`` (cost row last) until no cost is below -TOL."""
    while True:
        neg = [j for j, v in tab[-1].items() if v < -TOL and j < ncols]
        if not neg:
            return
        col = min(neg)
        # Least ratio, ties within TOL to the least basis index.  The cost
        # row's entry in ``col`` is below -TOL, so it is never a candidate.
        cands = [
            (row.get(rhs, 0.0) / a, i)
            for i, row in enumerate(tab)
            if (a := row.get(col, 0.0)) > TOL
        ]
        if not cands:
            raise LPUnboundedError(f"unbounded in column {col}")
        if len(cands) == 1:
            r = cands[0][1]
        else:
            floor = min(cands)[0] + TOL
            r = min((i for ratio, i in cands if ratio <= floor), key=basis.__getitem__)
        _pivot(tab, basis, r, col)


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimize ``c.x`` over ``a_ub x <= b_ub``, ``x >= 0``.

    ``c`` is dense; ``a_ub`` holds one ``{column: coefficient}`` dict over
    ``range(len(c))`` per ``b_ub`` entry, anything else raising ``ValueError``.
    Raises :class:`LPInfeasibleError` / :class:`LPUnboundedError`; both
    indicate a malformed caller program rather than a recoverable state.
    """
    c = list(map(float, c))
    b = list(map(float, b_ub))
    n, m = len(c), len(b)
    if len(a_ub) != m:
        raise ValueError(f"{len(a_ub)} rows in a_ub but {m} right-hand sides")

    # Slack per row; rows with negative right-hand side get an artificial
    # after a sign flip, and phase 1 drives the artificials to zero.
    real = n + m  # structural and slack columns
    n_art = sum(v < 0 for v in b)
    rhs = ncols = real + n_art
    tab: list[dict] = []
    basis: list[int] = []
    art_col = real
    columns = set(range(n))
    for i, a_row in enumerate(a_ub):
        if not isinstance(a_row, dict) or not a_row.keys() <= columns:
            raise ValueError(f"a_ub row {i} is not a {{column: coefficient}} dict over range({n})")
        row = {j: float(v) for j, v in a_row.items() if v}
        row[n + i] = 1.0
        if b[i] < 0:
            row = {j: -v for j, v in row.items()}
            row[rhs] = -b[i]
            row[art_col] = 1.0
            basis.append(art_col)
            art_col += 1
        else:
            if b[i]:
                row[rhs] = b[i]
            basis.append(n + i)
        tab.append(row)

    if n_art:
        cost = dict.fromkeys(range(real, rhs), 1.0)
        for i in range(m):
            if basis[i] >= real:
                _subtract(cost, 1.0, tab[i])
        tab.append(cost)
        _run_simplex(tab, basis, ncols, rhs)
        residual = -cost.get(rhs, 0.0)
        if residual > _PHASE1_TOL:
            raise LPInfeasibleError(f"phase-1 residual {residual:g}")
        # Kick leftover artificials out of the basis.
        for i in range(m):
            if basis[i] >= real:
                pivot_col = min(
                    (j for j, v in tab[i].items() if j < real and abs(v) > TOL),
                    default=None,
                )
                if pivot_col is None:
                    continue  # redundant row, harmless
                _pivot(tab, basis, i, pivot_col)
        # Drop the phase-1 cost row and the artificial columns.  A basis
        # entry still naming an artificial stays, as in a dense tableau.
        del tab[m]
        for row in tab:
            for j in range(real, rhs):
                row.pop(j, None)
        ncols = real

    cost = {j: v for j, v in enumerate(c) if v}
    for i in range(m):
        f = cost.get(basis[i])
        if f:
            _subtract(cost, f, tab[i])
    tab.append(cost)
    _run_simplex(tab, basis, ncols, rhs)

    x = [0.0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i].get(rhs, 0.0)
    return LPResult(value=-cost.get(rhs, 0.0), x=tuple(x))
