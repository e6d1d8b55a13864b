"""Per-module tracing of ricciforge from outside the program.

`Tracer.install` rebinds, on each of the package's modules, every function
named in the module's `__all__`, plus any name another module re-imported
from it (such as `positivity.diagonal_blocks`), to a wrapper. Calls from
inside the package find the wrappers too, because they look the names up
in the module namespace at call time. Charts returned by the chart
constructors, `oracle.preset` and `warped.chart_metric` are replaced by
copies whose `components` callable is wrapped, so each metric evaluation
is counted.

A span is recorded only at the outermost entry into a module; nested
calls into the same module (recursive `exprs.evaluate`, `frame_ricci`
calling `ricci`) are counted, not spanned. Chart evaluations are spans of
their own, attributed to the oracle layer. Every thread keeps its own
span stack; a span that opens on an empty stack in a worker thread takes
the main thread's innermost open span as its parent. A span's self time
is its duration minus the part of it that child spans cover; children in
other threads can overlap each other, so their intervals are merged first.

Nothing is written while tracing: counts and self times accumulate per
thread and are summed by `totals`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import threading
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exprs", "oracle", "warped", "variation", "positivity", "bundlecalc", "cli")
CURVATURE = frozenset({"christoffel", "riemann", "ricci", "ricci_with_asymmetry", "frame_ricci", "sectional"})
CHART_MAKERS = frozenset(
    {
        "oracle.preset",
        "oracle.euclidean_chart",
        "oracle.sphere_chart",
        "oracle.hyperbolic_plane_chart",
        "oracle.s3_left_invariant_chart",
        "warped.chart_metric",
    }
)


class _Span:
    __slots__ = ("layer", "start", "cover", "foreign", "parent")

    def __init__(self, layer: str, start: int, parent):
        self.layer = layer
        self.start = start
        self.cover = 0  # ns covered by same-thread children (they never overlap)
        self.foreign = []  # (start, end) of children that ran in other threads
        self.parent = parent  # cross-thread parent, for worker-thread roots only


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()


def _merged_length(intervals: list, lo: int, hi: int) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.on = False
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._main_state = None
        self._patched: list = []

    # --- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            is_main = threading.current_thread() is threading.main_thread()
            st = _ThreadState(is_main)
            self._local.st = st
            with self._lock:
                self._states.append(st)
                if is_main:
                    self._main_state = st
        return st

    def _open(self, st: _ThreadState, layer: str) -> _Span:
        parent = None
        if not st.stack and not st.is_main and self._main_state is not None and self._main_state.stack:
            parent = self._main_state.stack[-1]
        span = _Span(layer, perf_counter_ns(), parent)
        st.stack.append(span)
        return span

    def _close(self, st: _ThreadState, span: _Span, chart: bool = False) -> int:
        end = perf_counter_ns()
        st.stack.pop()
        dur = end - span.start
        cover = span.cover
        if span.foreign:
            cover += _merged_length(list(span.foreign), span.start, end)
        own = max(0, dur - cover)
        st.self_ns[span.layer] += own
        if chart:
            st.self_ns["oracle.chart"] += own
        if st.stack:
            st.stack[-1].cover += dur
        elif span.parent is not None:
            span.parent.foreign.append((span.start, end))
        return dur

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}.{name}"
        is_curvature = layer == "oracle" and name in CURVATURE
        makes_chart = key in CHART_MAKERS
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            st = tracer._state()
            st.counts[key] += 1
            if st.stack and st.stack[-1].layer == layer:
                out = fn(*args, **kwargs)
                dur = None
            else:
                if is_curvature:
                    st.counts["oracle.calls"] += 1
                span = tracer._open(st, layer)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    st.counts[f"{layer}.errors"] += 1
                    tracer._close(st, span)
                    raise
                dur = tracer._close(st, span)
            if hook is not None:
                hook(st, args, out, dur)
            if makes_chart:
                out = tracer._wrap_chart(out)
            return out

        traced.__wrapped_by_bench__ = True
        return traced

    def _wrap_chart(self, chart):
        inner = chart.components
        if getattr(inner, "__wrapped_by_bench__", False):
            return chart
        tracer = self

        def components(x):
            if not tracer.on:
                return inner(x)
            st = tracer._state()
            st.counts["oracle.metric_points"] += 1
            span = tracer._open(st, "oracle")
            try:
                return inner(x)
            finally:
                tracer._close(st, span, chart=True)

        components.__wrapped_by_bench__ = True
        return dataclasses.replace(chart, components=components)

    def install(self) -> None:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrapped = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapped[value])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # --- results --------------------------------------------------------------

    def totals(self) -> tuple:
        """(counts, self_ns) summed over every thread that traced."""
        counts: Counter = Counter()
        self_ns: Counter = Counter()
        with self._lock:
            for st in self._states:
                counts.update(st.counts)
                self_ns.update(st.self_ns)
        return counts, self_ns


def _grid_points(st, args, out, dur):
    st.counts["exprs.grid_points"] += out.size


def _verify_rows(st, args, out, dur):
    st.counts["warped.verify_rows"] += len(out.rows)
    if dur is not None and not st.is_main:
        st.counts["cli.worker_verify_ns"] += dur


def _minp_points(st, args, out, dur):
    st.counts["positivity.grid_points"] += out.grid_points


def _plan_steps(st, args, out, dur):
    st.counts["bundlecalc.plans"] += 1
    st.counts["bundlecalc.trace_steps"] += len(out.trace)


_HOOKS = {
    "exprs.evaluate_grid": _grid_points,
    "warped.verify_against_oracle": _verify_rows,
    "positivity.min_p": _minp_points,
    "bundlecalc.evaluate_plan": _plan_steps,
}
