"""In-memory spans around calls into the library's public functions.

The benchmark traces the library from outside.  `Tracer.install` replaces every
binding of a function object in the loaded `inloop.*` modules with a wrapper
that records a span, so calls made inside the library (`in_loop_spectrum`
calling `assert_stable`, `cli.main` calling `run_ensemble`) are seen as well
as the benchmark's own calls.  Nothing in the library's source is changed,
and `Tracer.restore` puts the original functions back.

A span holds its name, layer, start, end, parent span and run id; one run id
covers one workload pass.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    run_id: int
    span_id: int
    parent_id: int | None
    name: str
    layer: str
    start: float
    end: float = float("nan")
    error: bool = False


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(self.run_id, len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def install(self, specs) -> None:
        """Trace each `(module_name, func_name, count)` of `specs` as span
        `<layer>.<func_name>`, where the layer is the module's last name
        component.  `count(counters, arguments, result)`, if given, adds to
        the run's counters after each call; `arguments` maps parameter
        names to the values passed.  Modules not loaded are skipped: the
        run cannot call into them."""
        for module_name, func_name, count in specs:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], func_name)
            layer = module_name.rsplit(".", 1)[-1]
            traced = self._wrapper(original, f"{layer}.{func_name}", layer, count)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "inloop" and not mod_name.startswith("inloop."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def _wrapper(self, original, name: str, layer: str, count):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def duration(s: Span) -> float:
    return s.end - s.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.  Children of
    one span run one after another in a single thread, so their durations
    add up to the covered time."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] += duration(s)
    return {s.span_id: duration(s) - covered[s.span_id] for s in spans}


def busy_time(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals, so that a span nested in
    another of the same set is not counted twice."""
    total = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.start >= end:
            total += duration(s)
            end = s.end
        elif s.end > end:
            total += s.end - end
            end = s.end
    return total
