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

**Replay.**  Only a :class:`Program` is replayed: a caller whose
programs follow from a key, as the gallery search's do, passes its rows
as a Program carrying that key and its cost.  Other rows run the
tableau and never touch the store.  A program's *shape* is its key and
which entries of ``b`` are negative.  Every tableau entry outside the
right-hand side is then fixed by the pivots taken so far, and so is
Bland's entering column; the only step that reads ``b`` is which row
wins a ratio test with more than one candidate.  So a solve is a chain
of *stretches* of right-hand-side operations (pivots, cost-row
rebuilds, the phase-1 feasibility check), each ending at such a ratio
test or at the optimum.  Per shape the solver keeps a trie of the
stretches it has run, branching on the winning candidate.  A program
whose shape and pivot path are recorded is solved by walking the trie
and doing only the right-hand-side operations, the same IEEE operations
as the tableau with a zero stored as ``+0.0``, and the same ratio
tests; so on finite data a replay returns, or raises, exactly what the
tableau would.  At a branch not yet recorded, or on a new shape, the
solver runs the tableau, which hands back its whole pivot path, and
links the path in the trie: it follows the recorded ways from the root
and adds the stretches past them, so a path replays from its second
solve on.  This serves warm searches, whose program shapes recur.  The
store holds at most ``_MAX_NODES`` stretches, sized from a warm
search's own traffic, first come first kept and never evicted; once
full it drops its intern tables.  :func:`plan_stats` reports the store.
A node is complete before the trie links to it under the store's lock,
so a replay in another thread only reads whole nodes; the counters of
:func:`plan_stats` may miss a solve when threads race.

The store also keeps programs.  Once a replay answers a program, the
store keeps it beside its key's tries, at most one per key, and
:func:`program_of` hands it back: a later solve of the key builds only
``b``, not the rows, and looks the key up once.  A program whose solves
all run the tableau is not kept, as the tableau costs far more than
building its rows.  Like a node, a program is complete before the store
links to it, and its rows and cost are never written.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from .surfaces import Record

# Pivot threshold: gallery tableau entries are sums of a few coordinates.
TOL = 1e-9
# Phase-1 residual of an infeasible program: feasible ones end at rounding.
_PHASE1_TOL = 1e-7
# Stretches kept for replay.  On the warm S(1,3) search of the benchmark's
# geodesic workload, 250 rounds at seeds 0 and 1 record 10 020 and 9 987
# stretches, missing a solve or two a round by then.  The cap is 1.5 times
# the larger: about 4.1 MB at the 269 bytes a stretch (kept programs too,
# by sys.getsizeof) found there.  Past it a miss runs the tableau alone.
_MAX_NODES = 15_100

# Right-hand-side operations, the parts of a stretch.
_PIVOT, _COST, _CHECK = range(3)
# ``_NEGATIVE(v)`` is ``v < 0``.
_NEGATIVE = (0.0).__gt__


class LPError(RuntimeError):
    pass


class LPInfeasibleError(LPError):
    """No feasible point; a malformed program (internal bug upstream)."""


class LPUnboundedError(LPError):
    """Objective unbounded below; impossible for well-formed programs here."""


class LPResult(Record):
    __slots__ = ("value", "x")


class _Tries(dict):
    """A key's tries by the signs of ``b``, and the program kept under it."""

    __slots__ = ("program",)

    def __init__(self):
        super().__init__()
        self.program = None


class _PlanStore:
    """The recorded stretches of every program shape, shared by all solves.

    ``plans`` maps a :class:`Program`'s key to its :class:`_Tries`.  A
    shape's trie is a flat list of nodes, the root first.  A node at
    position ``pos`` holds its stretch's operations and its ``test``,
    then one slot per way on: the position of the node that follows, or
    0 while that is unrecorded.  ``test`` is ``(col, rows, coefs)``, a
    ratio test in column ``col`` with its candidate rows in basis-index
    order; after the optimum (``test`` None) the node holds instead the
    ``(row, variable)`` pairs, flat, that read ``x`` off the basis.  Equal
    tuples of one kind are stored once, through ``shared``, until the
    store is full; kinds stay apart, since ``(1, 2) == (1.0, 2.0)``.
    """

    def __init__(self):
        self.plans: dict = {}
        self.shared: dict = defaultdict(dict)
        self.shapes = 0
        self.nodes = 0
        self.replays = 0
        self.misses = 0
        self.lock = threading.Lock()

    def share(self, kind: str, value):
        return self.shared[kind].setdefault(value, value)

    @staticmethod
    def ints(values) -> bytes | tuple:
        """Indices as bytes where they fit: a third of a tuple's memory."""
        try:
            return bytes(values)
        except ValueError:
            return tuple(values)

    def stretch(self, ops: list) -> tuple:
        """A stretch's operations, lists ``[kind, r, d, i0, f0, ...]``, as a
        tuple of flat tuples.  A stretch stored before is found as it is;
        only a new one has its floats (and ``d`` of None) and operations
        stored once."""
        got = self.shared["ops"].get(tuple(map(tuple, ops)))
        if got is None:
            one = self.shared["float"].setdefault
            for op in ops:
                op[2::2] = map(one, op[2::2], op[2::2])
            got = self.share("ops", tuple([self.share("op", tuple(op)) for op in ops]))
        return got

    def test(self, col: int, cands: list, basis: list) -> tuple:
        """``(col, rows, coefs)`` of a ratio test's candidates ``(ratio, row,
        coef)``, in basis-index order: found, or stored once as a stretch is."""
        cands = sorted(cands, key=lambda t: basis[t[1]])
        rows, coefs = self.ints([t[1] for t in cands]), tuple([t[2] for t in cands])
        got = self.shared["test"].get((col, rows, coefs))
        one = self.shared["float"].setdefault
        return got or self.share("test", (col, rows, tuple(list(map(one, coefs, coefs)))))


_STORE = _PlanStore()


def plan_stats() -> dict:
    """Replay-store counters: shapes, stretches and programs kept, and
    solves answered by replay or by the tableau (``misses``) so far."""
    s = _STORE
    kept = sum(t.program is not None for t in list(s.plans.values()))
    return {"shapes": s.shapes, "nodes": s.nodes, "programs": kept,
            "replays": s.replays, "misses": s.misses}


class Program(list):
    """The rows of a program the replay store may replay and keep, with
    its cost vector, a list of floats, and a hashable ``key`` that
    determines both: programs with equal keys have equal costs and rows.
    Solve it as ``solve_lp(program.cost, program, b)``; :func:`program_of`
    hands back the one the store keeps.  Neither its rows nor its cost
    may change."""

    __slots__ = ("key", "cost", "tries")

    def __init__(self, key, cost: list, rows: list):
        super().__init__(rows)
        self.key = key
        self.cost = cost
        # The store's tries of the key, once known, so a solve skips the lookup.
        self.tries = None


def program_of(key, build) -> Program:
    """The program the replay store keeps under ``key``, or else
    ``Program(key, *build(key))`` with the key's tries: one lookup."""
    tries = _STORE.plans.get(key)
    if tries is not None and tries.program is not None:
        return tries.program
    made = Program(key, *build(key))
    made.tries = tries
    return made


# -- replay ---------------------------------------------------------------------


def _replay(plan: list, n: int, b: list) -> LPResult | None:
    """Solve by walking a shape's trie: apply each node's operations
    ``(kind, r, d, i0, f0, ...)`` to the right-hand sides, the cost row's
    last, then run its ratio test as :func:`_run_simplex` does.  At a
    branch not recorded, return None."""
    # Rows with a negative right-hand side were negated; a zero is +0.0.
    rhs = [*map(abs, b), 0.0]
    pos = 0
    while True:
        for op in plan[pos]:
            it = iter(op)
            kind, r, d = next(it), next(it), next(it)
            if kind == _PIVOT:
                # A zero is skipped, as the tableau skips an absent entry; no
                # difference below is -0.0, since no right-hand side is.
                p = rhs[r]
                if p:
                    p = rhs[r] = p / d or 0.0
                    if p:
                        for i, f in zip(it, it):
                            rhs[i] -= f * p
            elif kind == _COST:
                # A fresh cost row less f times each listed row, in order.
                acc = 0.0
                for i, f in zip(it, it):
                    p = rhs[i]
                    if p:
                        acc -= f * p
                rhs[r] = acc
            elif -rhs[r] > _PHASE1_TOL:  # _CHECK
                raise LPInfeasibleError(f"phase-1 residual {-rhs[r]:g}")
        test = plan[pos + 1]
        if test is None:
            x = [0.0] * n
            it = iter(plan[pos + 2])
            for i, j in zip(it, it):
                x[j] = rhs[i]
            return LPResult(value=-rhs[-1], x=tuple(x))
        # The first candidate whose ratio is within TOL of the least.
        col, rows, coefs = test
        if not rows:
            raise LPUnboundedError(f"unbounded in column {col}")
        ratios = [rhs[i] / a for i, a in zip(rows, coefs)]
        floor = min(ratios) + TOL
        slot = pos + 2
        for ratio in ratios:
            if ratio <= floor:
                break
            slot += 1
        else:
            raise ValueError(f"no ratio in column {col} is a number")
        pos = plan[slot]
        if not pos:
            return None


# -- the tableau ------------------------------------------------------------------


def _subtract(row: dict, f: float, other: dict) -> None:
    """``row -= f * other``, keeping only nonzero entries."""
    get = row.get
    for k, p in other.items():
        v = get(k, 0.0) - f * p
        if v:
            row[k] = v
        else:
            row.pop(k, None)


def _pivot(tab: list[dict], basis: list[int], r: int, col: int) -> list:
    """Pivot on ``tab[r][col]`` and return its right-hand-side operation
    ``[_PIVOT, r, d, i0, f0, ...]``: the pivot ``d``, then each other row
    ``i`` holding the column, in order, with its entry ``f``."""
    # The pivot column cancels exactly in every other row (f - f * 1.0),
    # so it is dropped there and set to d / d = 1.0 in the pivot row last.
    # The row update is _subtract inlined, walking the pivot row's items
    # as a tuple, quicker than the dict: this loop is the solver's cost.
    d = tab[r].pop(col)
    piv = {k: q for k, v in tab[r].items() if (q := v / d)}
    tab[r] = piv
    op = [_PIVOT, r, d]
    items = tuple(piv.items())
    for i, row in enumerate(tab):
        f = row.pop(col, None)
        if f is not None:
            op += i, f
            get = row.get
            for k, p in items:
                v = get(k, 0.0) - f * p
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
    piv[col] = 1.0
    basis[r] = col
    return op


def _run_simplex(tab: list[dict], basis: list[int], ncols: int, rhs: int, path: list) -> None:
    """Bland pivots on ``tab`` (cost row last) until no cost is below -TOL.
    Appends to ``path`` each pivot's operation and each ratio test with
    other than one candidate as ``(col, cands, basis, r)``: candidates
    ``(ratio, row, coef)``, a copy of the basis, the winner or None."""
    while True:
        neg = [j for j, v in tab[-1].items() if v < -TOL and j < ncols]
        if not neg:
            return
        col = min(neg)
        # Least ratio, ties within TOL to the least basis index.  The cost
        # row's entry in ``col`` is below -TOL, so it is never a candidate.
        cands = [
            (row.get(rhs, 0.0) / a, i, a)
            for i, row in enumerate(tab)
            if (a := row.get(col, 0.0)) > TOL
        ]
        if len(cands) == 1:
            r = cands[0][1]
        else:
            r = None
            if cands:
                floor = min(cands)[0] + TOL
                r = min((i for ratio, i, _ in cands if ratio <= floor), key=basis.__getitem__)
            path.append((col, cands, basis[:], r))
            if r is None:
                raise LPUnboundedError(f"unbounded in column {col}")
        path.append(_pivot(tab, basis, r, col))


def _solve_tableau(c: list, a_ub, b: list, path: list) -> LPResult:
    """The two-phase tableau.  Appends its pivot path to ``path``: the
    right-hand-side operations (lists) and ratio tests it runs, then at
    the optimum ``(None, pairs)``, the ``(row, variable)`` pairs of x."""
    n, m = len(c), len(b)
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
        op = [_COST, m, None]
        for i in range(m):
            if basis[i] >= real:
                op += i, 1.0
                _subtract(cost, 1.0, tab[i])
        path.append(op)
        tab.append(cost)
        _run_simplex(tab, basis, ncols, rhs, path)
        path.append([_CHECK, m, None])
        residual = -cost.get(rhs, 0.0)
        if residual > _PHASE1_TOL:
            raise LPInfeasibleError(f"phase-1 residual {residual:g}")
        # Kick leftover artificials out of the basis.
        for i in range(m):
            if basis[i] >= real:
                pivot_col = min((j for j, v in tab[i].items() if j < real and abs(v) > TOL),
                                default=None)
                if pivot_col is None:
                    continue  # redundant row, harmless
                path.append(_pivot(tab, basis, i, pivot_col))
        # Drop the phase-1 cost row and the artificial columns.  A basis
        # entry still naming an artificial stays, as in a dense tableau.
        del tab[m]
        for row in tab:
            for j in range(real, rhs):
                row.pop(j, None)
        ncols = real

    cost = {j: v for j, v in enumerate(c) if v}
    op = [_COST, m, None]
    for i in range(m):
        f = cost.get(basis[i])
        if f:
            op += i, f
            _subtract(cost, f, tab[i])
    path.append(op)
    tab.append(cost)
    _run_simplex(tab, basis, ncols, rhs, path)

    x = [0.0] * n
    pairs = []
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tab[i].get(rhs, 0.0)
            pairs += i, j
    path.append((None, pairs))
    return LPResult(value=-cost.get(rhs, 0.0), x=tuple(x))


def _link(store: _PlanStore, key, signs: int, path: list) -> None:
    """Walk the stretches of a tableau solve's ``path`` down its shape's
    trie from the root, and link each one past the recorded ways as a
    node, complete before it is linked, until ``_MAX_NODES``.  The open
    stretch of a solve that raised is dropped."""
    with store.lock:
        tries = store.plans.get(key)
        plan = tries.get(signs) if tries else None
        pos, start = (0 if plan else None), 0  # the stretch's recorded node, if any
        for end, test in enumerate(path):
            if type(test) is list:
                continue  # an operation of the stretch
            if pos is None:
                if store.nodes >= _MAX_NODES:
                    return
                ops = store.stretch(path[start:end])
                if test[0] is None:
                    node = [ops, None, store.share("x", store.ints(test[1]))]
                else:
                    node = [ops, store.test(*test[:3])] + [0] * len(test[1])
                if plan is None:
                    tries = store.plans.setdefault(key, _Tries())
                    tries[signs] = plan = node
                    store.shapes += 1
                    pos = 0
                else:
                    pos = len(plan)
                    plan += node
                    plan[slot] = pos
                store.nodes += 1
                if store.nodes >= _MAX_NODES:
                    store.shared.clear()  # read only while recording
            if test[0] is None or test[3] is None:
                return  # the optimum, or an unbounded ratio test
            slot = pos + 2 + plan[pos + 1][1].index(test[3])
            pos, start = plan[slot] or None, end + 1


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimize ``c.x`` over ``a_ub x <= b_ub``, ``x >= 0``.

    ``c`` is dense; ``a_ub`` holds one ``{column: coefficient}`` dict over
    ``range(len(c))`` per ``b_ub`` entry, anything else raising ``ValueError``.
    Raises :class:`LPInfeasibleError` / :class:`LPUnboundedError`; both
    indicate a malformed caller program rather than a recoverable state.
    A :class:`Program` solved with its own cost, of a recorded shape and
    pivot path, is replayed (see the module docstring), with the same
    result bit for bit; other rows run the tableau alone.
    """
    b = list(map(float, b_ub))
    if len(a_ub) != len(b):
        raise ValueError(f"{len(a_ub)} rows in a_ub but {len(b)} right-hand sides")
    if type(a_ub) is not Program or c is not a_ub.cost:
        return _solve_tableau(list(map(float, c)), a_ub, b, [])
    store = _STORE
    # The signs of ``b`` as an int: byte i is 1 where b[i] < 0.
    signs = int.from_bytes(bytes(map(_NEGATIVE, b)), "little")
    tries = a_ub.tries or store.plans.get(a_ub.key)
    plan = tries.get(signs) if tries else None
    if plan is not None:
        res = _replay(plan, len(c), b)
        if res is not None:
            store.replays += 1
            if tries.program is None:
                # Complete, with rows and cost that never change.
                a_ub.tries = tries
                tries.program = a_ub
            return res
    store.misses += 1
    path: list = []
    try:
        return _solve_tableau(c, a_ub, b, path)
    finally:
        _link(store, a_ub.key, signs, path)
