"""Sparse two-phase simplex solver for the small gallery programs.

Solves ``min c.x  s.t.  A x <= b,  x >= 0`` with Bland's anti-cycling
pivot rule (Bland 1977), so runs are deterministic and finite even on
the degenerate programs the geodesic search produces.

The programs are tiny and sparse (about 17 rows and 7 variables, each
row touching two or three of them).  The cost ``c`` is a dense list
whose length is the number of variables; each row of ``A``, and each
tableau row, the cost row included, is a ``{column: value}`` dict of its
nonzero coefficients.  The right-hand sides are a list apart, the cost
row's last.  Every entry comes from the IEEE operation a dense tableau
would apply (``v / d`` on the pivot row, ``t - f * p`` on the others,
where an absent ``t`` is 0 and ``0.0 - y`` is exactly ``-y``); a
coefficient that cancels to zero is dropped, and a zero right-hand side
is ``+0.0``, as a dense tableau holds one that cancels.  So the pivots
and every nonzero entry match a dense tableau bit for bit but for the
sign of a zero, which no comparison reads (``tests/test_lp.py``
compares results with signed zeros too).

**Replay.**  Only a :class:`Program` is replayed: a caller whose
programs follow from a key, as the gallery search's do, passes its rows
as a Program carrying that key and its cost.  Other rows run the
tableau and never touch the store.  A program's *shape* is its key and
which entries of ``b`` are negative.  Every coefficient is then fixed by
the pivots taken so far, and so is Bland's entering column; the only
step that reads ``b`` is which row wins a ratio test with other than
one candidate.  So a solve is a chain of *stretches* of right-hand-side
operations (pivots, cost-row rebuilds, the phase-1 feasibility check),
each ending at such a ratio test or at the optimum.  :func:`_walk` runs
a trie of stretches, branching on the winner; the tableau runs each of
its stretches through it as a one-node trie, and a replay walks the
trie of the shape's recorded stretches, so a replay returns, or raises,
exactly what the tableau would.  At a branch not yet recorded, or on a
new shape, the solver runs the tableau, which hands back its whole
pivot path, and links the path in the trie: it follows the recorded
ways from the root and adds the stretches past them, so a path replays
from its second solve on.  This serves warm searches, whose program
shapes recur.  The store holds at most ``_MAX_NODES`` stretches, sized
from a warm search's own traffic, first come first kept and never
evicted; once full it drops its intern tables.  :func:`plan_stats`
reports the store.  A node is complete before the trie links to it
under the store's lock, so a replay in another thread only reads whole
nodes; the counters of :func:`plan_stats` may miss a solve when threads
race.

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
from math import isfinite

from .surfaces import Record

# Pivot threshold: gallery tableau entries are sums of a few coordinates.
TOL = 1e-9
# Phase-1 residual of an infeasible program: feasible ones end at rounding.
_PHASE1_TOL = 1e-7
# Largest cone coordinate: phase 1 of a feasible gallery program ends at
# rounding of up to 2**-49.6 of its largest (S(0,7), S(2,1), S(1,3), S(2,0)).
MAX_COORD = 0.1 * _PHASE1_TOL * 2.0**49.6
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

    def test(self, col: int, rows: list, coefs: list) -> tuple:
        """A ratio test ``(col, rows, coefs)``: found, or stored once as a
        stretch is."""
        rows, coefs = self.ints(rows), tuple(coefs)
        one = self.shared["float"].setdefault
        return self.shared["test"].get((col, rows, coefs)) or self.share(
            "test", (col, rows, tuple(map(one, coefs, coefs))))


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
    may change.  A replay does not check ``b``, so it must be finite, as
    the search's always is; the tableau rejects non-finite data."""

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


# -- the right-hand sides -----------------------------------------------------------


def _walk(plan: list, rhs: list) -> tuple:
    """Walk a trie of stretches from its root, the one place the
    right-hand sides ``rhs`` change: at each node apply its operations
    ``(kind, r, d, i0, f0, ...)``, then run its ratio test (the first
    candidate, in basis-index order, whose ratio is within TOL of the
    least wins) and take the winner's way.  Returns the last node run and
    its winner's place among the candidates, None at the optimum."""
    pos = 0
    while True:
        for op in plan[pos]:
            it = iter(op)
            kind, r, d = next(it), next(it), next(it)
            if kind == _PIVOT:
                # A zero moves no other row.  A quotient that underflows is kept
                # as +0.0, so no right-hand side is -0.0, nor a difference below.
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
            return pos, None
        col, rows, coefs = test
        if not rows:
            raise LPUnboundedError(f"unbounded in column {col}")
        ratios = [rhs[i] / a for i, a in zip(rows, coefs)]
        floor = min(ratios) + TOL
        k = 0
        for ratio in ratios:
            if ratio <= floor:
                break
            k += 1
        else:
            raise ValueError(f"no ratio in column {col} is a number")
        if not plan[pos + 2 + k]:
            return pos, k
        pos = plan[pos + 2 + k]


def _replay(plan: list, n: int, rhs: list) -> LPResult | None:
    """Walk a trie and read the result off ``rhs`` at the optimum node's
    ``(row, variable)`` pairs; None at a way not recorded."""
    pos, k = _walk(plan, rhs)
    if k is not None:
        return None
    x = [0.0] * n
    it = iter(plan[pos + 2])
    for i, j in zip(it, it):
        x[j] = rhs[i]
    return LPResult(value=-rhs[-1], x=tuple(x))


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
    """Pivot on ``tab[r][col]`` and return the operation that does the
    same to the right-hand sides, ``[_PIVOT, r, d, i0, f0, ...]``: the
    pivot ``d``, then each other row ``i`` holding the column, in order,
    with its entry ``f``."""
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


def _run_simplex(tab: list[dict], basis: list[int], ncols: int, rhs, ops, path) -> list:
    """Bland pivots on ``tab`` (cost row last) until no cost is below
    -TOL, each pivot's operation appended to the open stretch ``ops``,
    which it returns.  A ratio test with other than one candidate ends
    the stretch: :func:`_walk` runs it as a one-node trie and picks the
    winner, and ``path`` gets ``[ops, (col, rows, coefs), k]``."""
    while True:
        neg = [j for j, v in tab[-1].items() if v < -TOL and j < ncols]
        if not neg:
            return ops
        col = min(neg)
        # The cost row's entry in ``col`` is below -TOL, so it is never a
        # candidate and never reads past the basis.
        rows = [i for i, row in enumerate(tab) if row.get(col, 0.0) > TOL]
        if len(rows) == 1:
            r = rows[0]
        else:
            rows.sort(key=basis.__getitem__)  # the walk's order
            test = (col, rows, [tab[i][col] for i in rows])
            try:
                k = _walk([ops, test] + [0] * len(rows), rhs)[1]
            except LPUnboundedError:
                path.append([ops, test, None])  # no candidate; its operations ran
                raise
            path.append([ops, test, k])
            ops, r = [], rows[k]
        ops.append(_pivot(tab, basis, r, col))


def _solve_tableau(c: list, a_ub, b: list, path: list) -> LPResult:
    """The two-phase tableau.  Appends to ``path`` each stretch whose
    operations ran, a failed phase-1 check's not, and at the optimum
    ``[ops, None, pairs]``, the ``(row, variable)`` pairs of x.  Raises
    ``ValueError`` on data that is not finite: replays never check."""
    n, m = len(c), len(b)
    # Slack per row; rows with negative right-hand side get an artificial
    # after a sign flip, and phase 1 drives the artificials to zero.
    real = n + m  # structural and slack columns
    tab: list[dict] = []
    basis: list[int] = []
    art_col = real
    columns = set(range(n))
    total = sum(c) + sum(b)
    for i, a_row in enumerate(a_ub):
        if not isinstance(a_row, dict) or not a_row.keys() <= columns:
            raise ValueError(f"a_ub row {i} is not a {{column: coefficient}} dict over range({n})")
        row = {j: float(v) for j, v in a_row.items() if v}
        total += sum(row.values())
        row[n + i] = 1.0
        if b[i] < 0:
            row = {j: -v for j, v in row.items()}
            row[art_col] = 1.0
            basis.append(art_col)
            art_col += 1
        else:
            basis.append(n + i)
        tab.append(row)
    # The sum is the quick test; only a sum that overflows needs the exact one.
    if not isfinite(total) and not all(isfinite(v) for vs in (c, b, *map(dict.values, tab)) for v in vs):
        raise ValueError(f"costs, coefficients and right-hand sides must be finite: {c}, {a_ub}, {b}")
    # Rows with a negative right-hand side were negated; a zero is +0.0.
    rhs = [*map(abs, b), 0.0]
    ops: list = []
    if art_col > real:
        cost = dict.fromkeys(range(real, art_col), 1.0)
        op = [_COST, m, None]
        for i in range(m):
            if basis[i] >= real:
                op += i, 1.0
                _subtract(cost, 1.0, tab[i])
        ops.append(op)
        tab.append(cost)
        ops = _run_simplex(tab, basis, art_col, rhs, ops, path)
        ops.append([_CHECK, m, None])
        # Kick leftover artificials out of the basis.
        for i in range(m):
            if basis[i] >= real:
                pivot_col = min((j for j, v in tab[i].items() if j < real and abs(v) > TOL),
                                default=None)
                if pivot_col is None:
                    continue  # redundant row, harmless
                ops.append(_pivot(tab, basis, i, pivot_col))
        # Drop the phase-1 cost row and the artificial columns.  A basis
        # entry still naming an artificial stays, as in a dense tableau.
        del tab[m]
        for row in tab:
            for j in range(real, art_col):
                row.pop(j, None)

    cost = {j: v for j, v in enumerate(c) if v}
    op = [_COST, m, None]
    for i in range(m):
        f = cost.get(basis[i])
        if f:
            op += i, f
            _subtract(cost, f, tab[i])
    ops.append(op)
    tab.append(cost)
    ops = _run_simplex(tab, basis, real, rhs, ops, path)
    last = [ops, None, [v for i, j in enumerate(basis) if j < n for v in (i, j)]]
    res = _replay(last, n, rhs)
    path.append(last)
    return res


def _link(store: _PlanStore, key, signs: int, path: list) -> None:
    """Walk the stretches ``[ops, test, k]`` of a tableau solve's
    ``path`` (at the optimum ``k`` is the pairs of x) down its shape's
    trie from the root, following the recorded ways, and link each one
    past them as a node, complete before it is linked, until
    ``_MAX_NODES``."""
    with store.lock:
        tries = store.plans.get(key)
        plan = tries.get(signs) if tries else None
        pos = 0 if plan else None  # the stretch's recorded node, if any
        for ops, test, k in path:
            if pos is None:
                if store.nodes >= _MAX_NODES:
                    return
                node = ([store.stretch(ops), None, store.share("x", store.ints(k))] if test is None
                        else [store.stretch(ops), store.test(*test)] + [0] * len(test[1]))
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
            if test is None or k is None:
                return  # the optimum, or an unbounded ratio test
            slot = pos + 2 + k
            pos = plan[slot] or None


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimize ``c.x`` over ``a_ub x <= b_ub``, ``x >= 0``.

    ``c`` is dense; ``a_ub`` holds one ``{column: coefficient}`` dict over
    ``range(len(c))`` per ``b_ub`` entry, anything else raising ``ValueError``,
    as a NaN or infinite entry does wherever the tableau runs.
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
    # The signs of ``b`` as an int: byte i is 1 where b[i] < 0.
    signs = int.from_bytes(bytes(map(_NEGATIVE, b)), "little")
    tries = a_ub.tries or _STORE.plans.get(a_ub.key)
    plan = tries.get(signs) if tries else None
    if plan is not None:
        res = _replay(plan, len(c), [*map(abs, b), 0.0])
        if res is not None:
            _STORE.replays += 1
            if tries.program is None:
                # Complete, with rows and cost that never change.
                a_ub.tries = tries
                tries.program = a_ub
            return res
    _STORE.misses += 1
    path: list = []
    try:
        return _solve_tableau(c, a_ub, b, path)
    finally:
        _link(_STORE, a_ub.key, signs, path)
