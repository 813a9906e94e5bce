"""Per-layer spans recorded from outside the package.

A Tracer wraps callables so that every call is counted and timed. Spans
nest through a stack: a span's self time is its duration minus the time of
the spans it caused. Inclusive time is added only for the outermost active
call of a name, so a function that reaches itself again is not counted
twice. Totals are kept per span name in memory and read once at the end.

Wrappers are installed by replacing the attribute callers look up: a module
global (in every module that bound the same object by name), a class
attribute, or the function inside a functools.cached_property. uninstall()
puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time


class SpanStat:
    __slots__ = ("calls", "incl_ns", "self_ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def active(self, name: str) -> bool:
        st = self.stats.get(name)
        return st is not None and st.depth > 0

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn):
        """fn wrapped in a span named name."""
        st = self.stat(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_ns += dt - child
                if st.depth == 0:
                    st.incl_ns += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, wrapper) -> None:
        """Replace module.attr by wrapper wherever a loaded module of the
        same package bound the original object."""
        original = getattr(module, attr)
        package = module.__name__.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def trace_function(self, module, attr: str, name: str | None = None) -> None:
        span_name = name or f"{module.__name__.split('.')[-1]}.{attr}"
        self.patch_function(module, attr, self.span(span_name, getattr(module, attr)))

    def trace_method(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self.span(name, cls.__dict__[attr]))

    def trace_cached_property(self, cls, attr: str, name: str) -> None:
        """Count and time the computations behind a cached_property."""
        prop = cls.__dict__[attr]
        self._set(prop, "func", self.span(name, prop.func))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def nearest_rank(values, pct: float):
    """Nearest-rank percentile of a non-empty list: the value at rank
    ceil(pct/100 * n) of the sorted values."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * pct // 100))
    return xs[int(rank) - 1]


def tail_percentile(values, pct: float = 99.0, beyond: int = 10):
    """(percentile, value) of the tail latency that keeps at least `beyond`
    samples above it.

    pct is used when it leaves `beyond` samples above its nearest rank;
    otherwise the highest rank that does, and with `beyond` samples or
    fewer in total, the maximum (percentile 100).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = int(max(1, -(-n * pct // 100)))
    if n - rank < beyond:
        rank = n - beyond if n > beyond else n
    return 100.0 * rank / n, xs[rank - 1]
