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
solver runs the tableau, which records the rest of its path, from there
to the optimum; so a path replays from its second solve on.  This serves
warm searches, whose program shapes recur.  :func:`plan_stats` reports
the store, which holds at most ``_MAX_NODES`` stretches.  A node is
complete before the trie links to it under the store's lock, so a replay
in another thread only reads whole nodes, and a way that another thread
has recorded ends a recording; the counters of :func:`plan_stats` may
miss a solve when threads race.

The store also keeps programs.  Once a replay answers a program, the
store keeps it beside its key's tries, and :func:`program_of` hands it
back: a later solve of the key builds only ``b``, not the rows, and
looks the key up once.  A program whose solves all run the tableau is
not kept, as the tableau costs far more than building its rows.  The
store keeps one program at most per recorded key, so ``_MAX_NODES``
bounds them too.  Like a node, a program is complete before the store
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
# Stretches kept for replay, about 1 MB.  A solve that misses records
# the rest of its path, first come first kept, and nothing is evicted;
# past the cap new paths are solved without recording.
_MAX_NODES = 4_500

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
    tuples of one kind are stored once; kinds stay apart, since ``(1, 2)
    == (1.0, 2.0)``.
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

    def floats(self, values) -> tuple:
        # From a list: a tuple grown from an iterator is resized as it grows.
        one = self.shared["float"].setdefault
        return tuple(list(map(one, values, values)))

    @staticmethod
    def ints(values) -> bytes | tuple:
        """Row or variable indices, as bytes where they fit: a third of the
        memory of a tuple."""
        try:
            return bytes(values)
        except ValueError:
            return tuple(values)

    def op(self, kind: int, r: int, d, rows, facs) -> tuple:
        """``(kind, r, d, i0, f0, i1, f1, ...)``: one flat tuple per operation."""
        one = self.shared["float"].setdefault
        pairs = [v for i, f in zip(rows, facs) for v in (i, one(f, f))]
        return self.share("op", (kind, r, d and one(d, d), *pairs))


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


def _run(ops, rhs: list) -> None:
    """Apply one stretch's operations ``(kind, r, d, i0, f0, ...)`` to the
    right-hand sides ``rhs``, the cost row's last."""
    for op in ops:
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


def _leaving(col, rows, coefs, rhs: list) -> int:
    """The ratio test of :func:`_run_simplex` on candidates in basis-index
    order: the first whose ratio is within TOL of the least."""
    if not rows:
        raise LPUnboundedError(f"unbounded in column {col}")
    ratios = [rhs[i] / a for i, a in zip(rows, coefs)]
    floor = min(ratios) + TOL
    for k, ratio in enumerate(ratios):
        if ratio <= floor:
            return k
    raise ValueError(f"no ratio in column {col} is a number")


def _replay(plan: list, n: int, b: list) -> LPResult | int:
    """Solve by walking a shape's trie; at a branch not recorded, return
    the slot that would hold it."""
    # Rows with a negative right-hand side were negated; a zero is +0.0.
    rhs = [-v if v < 0 else v or 0.0 for v in b]
    rhs.append(0.0)
    pos = 0
    while True:
        _run(plan[pos], rhs)
        test = plan[pos + 1]
        if test is None:
            x = [0.0] * n
            it = iter(plan[pos + 2])
            for i, j in zip(it, it):
                x[j] = rhs[i]
            return LPResult(value=-rhs[-1], x=tuple(x))
        slot = pos + 2 + _leaving(*test, rhs)
        pos = plan[slot]
        if not pos:
            return slot


# -- the tableau ------------------------------------------------------------------


class _Recorder:
    """Follows a tableau solve down its shape's trie to the way ``slot``
    that replay found unrecorded (from the root, with no ``plan`` yet) and
    records the rest of the path, linking a node per stretch once complete,
    until the optimum, the cap or a way another thread recorded first."""

    def __init__(self, store: _PlanStore, key, signs: int, plan: list | None, slot: int | None):
        self.store = store
        self.key = key
        self.signs = signs
        self.plan = plan
        self.slot = slot
        # The recorded node being followed, or else the stretch being
        # recorded; neither once the recording has ended.
        self.pos = 0 if plan else None
        self.ops = None if plan else []

    def pivot(self, tab: list[dict], r: int, col: int) -> None:
        if self.ops is not None:
            rows = [i for i, row in enumerate(tab) if i != r and col in row]
            self.ops.append(self.store.op(_PIVOT, r, tab[r][col], rows, [tab[i][col] for i in rows]))

    def cost(self, r: int, rows: list, facs: list) -> None:
        if self.ops is not None:
            self.ops.append(self.store.op(_COST, r, None, rows, facs))

    def check(self, r: int) -> None:
        if self.ops is not None:
            self.ops.append(self.store.op(_CHECK, r, None, (), ()))

    def ratio_test(self, tab: list[dict], basis: list[int], col: int, cands: list, r) -> None:
        if self.ops is not None:
            rows = sorted([i for _, i in cands], key=basis.__getitem__)
            coefs = self.store.floats([tab[i][col] for i in rows])
            test = self.store.share("test", (col, self.store.ints(rows), coefs))
            self._close(test, len(rows), rows.index(r) if rows else 0)
        elif self.pos is not None:
            slot = self.pos + 2 + self.plan[self.pos + 1][1].index(r)
            if slot == self.slot:
                self.pos, self.ops = None, []
            else:
                self.pos = self.plan[slot]

    def optimum(self, basis: list[int], n: int) -> None:
        if self.ops is not None:
            pairs = [v for i, j in enumerate(basis) if j < n for v in (i, j)]
            self._close(None, 0, 0, self.store.share("x", self.store.ints(pairs)))

    def _close(self, test, ways: int, k: int, *tail) -> None:
        """Link the stretch, ending at ``test``, as a new node, and go on
        recording after its way ``k``, which this solve takes."""
        store, plan = self.store, self.plan
        node = [store.share("ops", tuple(self.ops)), test, *tail] + [0] * ways
        self.ops = None
        # The node is complete before anything links to it, so a replay
        # never follows a slot to a node that is not there yet.
        with store.lock:
            if store.nodes >= _MAX_NODES:
                return
            if plan is None:
                tries = store.plans.setdefault(self.key, _Tries())
                if self.signs in tries:
                    return  # another thread recorded the shape
                tries[self.signs] = self.plan = node
                store.shapes += 1
                pos = 0
            elif plan[self.slot]:
                return  # another thread recorded the way
            else:
                pos = len(plan)
                plan += node
                plan[self.slot] = pos
            store.nodes += 1
        if ways:
            self.slot, self.ops = pos + 2 + k, []


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


def _run_simplex(tab: list[dict], basis: list[int], ncols: int, rhs: int, rec) -> None:
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
        if len(cands) == 1:
            r = cands[0][1]
        else:
            r = None
            if cands:
                floor = min(cands)[0] + TOL
                r = min((i for ratio, i in cands if ratio <= floor), key=basis.__getitem__)
            if rec:
                rec.ratio_test(tab, basis, col, cands, r)
            if r is None:
                raise LPUnboundedError(f"unbounded in column {col}")
        if rec:
            rec.pivot(tab, r, col)
        _pivot(tab, basis, r, col)


def _solve_tableau(c: list, a_ub, b: list, rec: _Recorder | None) -> LPResult:
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
        arts = [i for i in range(m) if basis[i] >= real]
        for i in arts:
            _subtract(cost, 1.0, tab[i])
        if rec:
            rec.cost(m, arts, [1.0] * n_art)
        tab.append(cost)
        _run_simplex(tab, basis, ncols, rhs, rec)
        if rec:
            rec.check(m)
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
                if rec:
                    rec.pivot(tab, i, pivot_col)
                _pivot(tab, basis, i, pivot_col)
        # Drop the phase-1 cost row and the artificial columns.  A basis
        # entry still naming an artificial stays, as in a dense tableau.
        del tab[m]
        for row in tab:
            for j in range(real, rhs):
                row.pop(j, None)
        ncols = real

    cost = {j: v for j, v in enumerate(c) if v}
    rows, facs = [], []
    for i in range(m):
        f = cost.get(basis[i])
        if f:
            rows.append(i)
            facs.append(f)
            _subtract(cost, f, tab[i])
    if rec:
        rec.cost(m, rows, facs)
    tab.append(cost)
    _run_simplex(tab, basis, ncols, rhs, rec)
    if rec:
        rec.optimum(basis, n)

    x = [0.0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i].get(rhs, 0.0)
    return LPResult(value=-cost.get(rhs, 0.0), x=tuple(x))


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
        return _solve_tableau(list(map(float, c)), a_ub, b, None)
    store = _STORE
    # The signs of ``b`` as an int: byte i is 1 where b[i] < 0.
    signs = int.from_bytes(bytes(map(_NEGATIVE, b)), "little")
    tries = a_ub.tries or store.plans.get(a_ub.key)
    plan = tries.get(signs) if tries else None
    slot = None
    if plan is not None:
        res = _replay(plan, len(c), b)
        if isinstance(res, LPResult):
            store.replays += 1
            if tries.program is None:
                # Complete, with rows and cost that never change.
                a_ub.tries = tries
                tries.program = a_ub
            return res
        slot = res
    store.misses += 1
    rec = _Recorder(store, a_ub.key, signs, plan, slot) if store.nodes < _MAX_NODES else None
    return _solve_tableau(c, a_ub, b, rec)
