"""Spans around guessbench's public functions, recorded from outside the package.

`install()` wraps each function in TARGETS and rebinds every module-level
name that refers to it, so calls through names that modules imported
directly (`exact._count`, `cli.emit_table`, the names `bounds` takes from
`exact` and `montecarlo`, ...) are traced too.  The entries of
`montecarlo._KERNELS` are wrapped in place.  `core` gets no spans: its
per-card helpers run millions of times and would swamp the trace, so their
cost shows in the callers' self time.

Spans (name, start, end, parent) stay in flat arrays in memory until the job
ends; a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); the span name is the metric prefix.
TARGETS = (
    ("combinatorics", "_count", "combinatorics.count"),
    ("combinatorics", "last_card_fraction", "combinatorics.last_card_fraction"),
    ("exact", "solve_partial", "exact.solve_partial"),
    ("exact", "optimal_complete", "exact.optimal_complete"),
    ("exact", "probe_persistence", "exact.probe_persistence"),
    ("exact", "exact_value", "exact.exact_value"),
    ("exact", "verify_pointwise", "exact.verify_pointwise"),
    ("exact", "first_third_distribution", "exact.first_third_distribution"),
    ("strategies", "posterior_by_pair", "strategies.posterior_by_pair"),
    ("strategies", "make_strategy", "strategies.make_strategy"),
    ("montecarlo", "estimate_value", "montecarlo.estimate_value"),
    ("montecarlo", "estimate_repeat_time", "montecarlo.estimate_repeat_time"),
    ("montecarlo", "estimate_chain", "montecarlo.estimate_chain"),
    ("bounds", "single_tail_grid", "bounds.single_tail_grid"),
    ("bounds", "first_third_dominance_reports", "bounds.first_third_dominance_reports"),
    ("bounds", "empirical_maximal", "bounds.empirical_maximal"),
    ("bounds", "hyp_tail_report", "bounds.hyp_tail_report"),
    ("reporting", "emit_table", "reporting.emit_table"),
    ("cli", "main", "cli.main"),
)

MODULES = ("combinatorics", "strategies", "exact", "montecarlo", "bounds", "reporting", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _hooks(shuffle_count):
    """Per span name, the counters read from a traced call's arguments or
    result, as (counter, function of (args, kwargs, result))."""
    return {
        "exact.solve_partial": [("exact.solve_partial.states", lambda a, k, r: len(r.values))],
        "exact.exact_value": [("exact.exact_value.decks", lambda a, k, r: shuffle_count(a[0]))],
        "exact.verify_pointwise": [
            ("exact.verify_pointwise.states", lambda a, k, r: r.states_checked)],
        "montecarlo.estimate_value": [
            ("montecarlo.games", lambda a, k, r: _arg(a, k, 3, "trials"))],
        "montecarlo.estimate_repeat_time": [
            ("montecarlo.games", lambda a, k, r: _arg(a, k, 2, "trials"))],
        "montecarlo.estimate_chain": [
            ("montecarlo.games", lambda a, k, r: _arg(a, k, 1, "trials"))],
        "bounds.single_tail_grid": [("bounds.single_tail_grid.reports", lambda a, k, r: len(r))],
        "reporting.emit_table": [
            ("reporting.rows", lambda a, k, r: len(_arg(a, k, 0, "rows"))),
            ("reporting.bytes", lambda a, k, r: len(r.encode())),
        ],
    }


class Tracer:
    """In-memory span recorder; `wrap` returns a traced stand-in for a function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name: str, fn, counts=()):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counters = self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for counter, measure in counts:
                counters[counter] += measure(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        own = np.bincount(name, weights=dur - child, minlength=size)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def write_spans(self, path: str) -> None:
        """All spans as arrays: name index, start, end, parent index (-1 at top)."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.intc))


def _rebind(modules, original, replacement) -> int:
    rebound = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                rebound += 1
    return rebound


def install() -> Tracer:
    """Trace every function in TARGETS and every simulation kernel."""
    import importlib

    pkg = importlib.import_module("guessbench")
    mods = {name: importlib.import_module(f"guessbench.{name}") for name in MODULES}
    modules = [pkg] + list(mods.values())
    tracer = Tracer()
    hooks = _hooks(mods["combinatorics"].shuffle_count)
    for mod_name, attr, span in TARGETS:
        original = getattr(mods[mod_name], attr)
        if not _rebind(modules, original, tracer.wrap(span, original, hooks.get(span, ()))):
            raise RuntimeError(f"{mod_name}.{attr} not found to trace")
    kernels = mods["montecarlo"]._KERNELS
    for sid, kernel in kernels.items():
        kernels[sid] = tracer.wrap("montecarlo.kernel", kernel)
    return tracer
