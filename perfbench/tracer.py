"""Outside-in tracing of curvecone's layers.

The tracer replaces public names where the library looks them up (a
module attribute such as ``curvecone.metric.solve_lp``, or a method on a
class such as ``QuotientComplex.transits``) with a wrapper that records
a span around each call.  Nothing inside the library is edited, so a
name that a later version of the library removes is reported as absent
instead of failing the run.

Spans are kept in memory as ``(name, start, end, parent, request,
outermost)`` tuples until the run ends.  ``outermost`` is false when the
span is nested inside another span of the same name, so inclusive times
do not count recursion twice.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# The gluing caches of QuotientComplex: the first call per (complex
# instance, key) fills the cache, every later call is a hit.
CACHED_METHODS = ("subfaces", "embeddings", "transits")

LAYERS = (
    "multicurves",
    "quotient",
    "metric",
    "lp",
    "gridgraph",
    "fenchel_nielsen",
    "verify",
    "cli",
)

_FN_FUNCTIONS = (
    "length_coords",
    "extensions",
    "to_fenchel_nielsen",
    "to_plane_coords",
    "half_plane_distance",
    "sup_product_distance",
    "partial_sup_distance",
)

# (span name, module, attribute path) for every lookup site that the
# benchmark or the library itself goes through.
TARGETS = (
    ("multicurves.canonicalize", "curvecone.quotient", "canonicalize"),
    ("multicurves.canonicalize", "curvecone.verify", "canonicalize"),
    ("quotient.enumerate_orbits", "curvecone.quotient", "enumerate_orbits"),
    ("quotient.build_complex", "curvecone", "build_complex"),
    ("quotient.build_complex", "curvecone.quotient", "build_complex"),
    ("quotient.build_complex", "curvecone.cli", "build_complex"),
    ("quotient.subfaces", "curvecone.quotient", "QuotientComplex.subfaces"),
    ("quotient.embeddings", "curvecone.quotient", "QuotientComplex.embeddings"),
    ("quotient.transits", "curvecone.quotient", "QuotientComplex.transits"),
    ("quotient.complex_to_json", "curvecone", "complex_to_json"),
    ("quotient.complex_to_json", "curvecone.cli", "complex_to_json"),
    ("quotient.complex_from_json", "curvecone", "complex_from_json"),
    ("quotient.complex_from_json", "curvecone.cli", "complex_from_json"),
    ("metric.distance", "curvecone", "distance"),
    ("metric.distance", "curvecone.verify", "distance"),
    ("metric.distance", "curvecone.cli", "distance"),
    ("metric.cone_point", "curvecone", "cone_point"),
    ("metric.cone_point", "curvecone.metric", "cone_point"),
    ("metric.cone_point", "curvecone.verify", "cone_point"),
    ("lp.solve_lp", "curvecone.metric", "solve_lp"),
    ("gridgraph.GridOracle.init", "curvecone.gridgraph", "GridOracle.__init__"),
    ("gridgraph.distance", "curvecone.gridgraph", "GridOracle.distance"),
    ("verify.run_verification", "curvecone", "run_verification"),
    ("verify.run_verification", "curvecone.cli", "run_verification"),
) + tuple(
    (f"fenchel_nielsen.{f}", "curvecone.fenchel_nielsen", f) for f in _FN_FUNCTIONS
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval covered by
    its direct children (overlapping children are merged first)."""
    children = defaultdict(list)
    for i, (_n, start, end, parent, _r, _o) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_n, start, end, _p, _r, _o) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and boundary counters while installed and active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.request = None
        self.active = False
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._seen = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.request, outermost))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _e, parent, req, outer = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, req, outer)
        self._stack.pop()
        self._depth[name] -= 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def suspended(self):
        """Run the benchmark's own correctness checks without recording."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- boundary counters -----------------------------------------------------

    def _before(self, name: str, args) -> None:
        method = name.rsplit(".", 1)[1]
        if method in CACHED_METHODS:
            seen = self._seen.setdefault(args[0], set())
            key = (method,) + tuple(args[1:])
            if key not in seen:
                seen.add(key)
                self.counters[f"quotient.{method}.fills"] += 1
                return True
        elif name == "lp.solve_lp":
            c, a_ub = args[0], args[1]
            self.counters["lp.solve_lp.rows"] += len(a_ub)
            self.counters["lp.solve_lp.vars"] += len(c)
        return False

    def _after(self, name: str, args, result, filled: bool) -> None:
        if name == "quotient.transits" and filled:
            self.counters["quotient.transits.count"] += len(result)
        elif name == "gridgraph.GridOracle.init":
            self.counters["gridgraph.nodes"] += args[0].n_nodes
            self.counters["gridgraph.classes"] += args[0].n_classes
        elif name == "quotient.build_complex":
            self.counters["quotient.orbits"] += len(result.orbits)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            filled = tracer._before(name, args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(name, args, result, filled)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, module_name, attr_path in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, targets=TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds (outermost spans
        only) and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span, own in zip(self.spans, self_times(self.spans)):
            name, start, end, _p, _r, outer = span
            row = out[name]
            row["calls"] += 1
            row["self_s"] += own
            if outer:
                row["s"] += end - start
        return out

    def layer_self_times(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, row in self.by_name().items():
            layer = layer_of(name)
            if layer in totals:
                totals[layer] += row["self_s"]
        return totals

    def absent_layers(self) -> list[str]:
        present = {layer_of(name) for name, _m, _a in TARGETS if name not in self.absent}
        return sorted({layer_of(n) for n in self.absent} - present)
