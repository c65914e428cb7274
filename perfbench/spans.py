"""In-memory spans recorded around calls into the measured program.

Layer functions are imported by name all over ``repro`` (for example
``from repro.core.flooding import flood``), so patching only the
defining module would miss most callers.  :func:`installed` therefore
replaces a function object in every loaded module that holds it, and
puts every original back when the block ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One timed call: *parent* is the enclosing span's id in the same
    thread (``None`` at the top); *note* is what the target's observer
    read off the return value."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    note: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self) -> tuple[list[int], int, int | None]:
        """Push a new span id on this thread's stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return stack, span_id, parent

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack, span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[Any], float] | None = None) -> Callable:
        """*fn* with a span named *name* around every call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, span_id, parent = recorder._open()
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    note = observe(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, name, start, end, parent, note))

        return wrapper


def covered(parent: Span, children: Iterable[Span]) -> float:
    """Seconds of *parent*'s interval covered by the union of *children*."""
    intervals = sorted((max(c.start, parent.start), min(c.end, parent.end))
                       for c in children)
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Totals:
    """Per-name aggregate of spans."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    notes: list[float] = field(default_factory=list)


def aggregate(spans: list[Span]) -> dict[str, Totals]:
    """Fold spans by name.

    ``s`` counts only the outermost span of a name, so a call nested in
    another call of the same name is not counted twice; ``self_s`` is a
    span's duration minus the time its wrapped children cover.
    """
    by_id = {sp.id: sp for sp in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    totals: dict[str, Totals] = defaultdict(Totals)
    for sp in spans:
        tot = totals[sp.name]
        tot.calls += 1
        tot.self_s += sp.duration - covered(sp, children.get(sp.id, ()))
        if sp.note is not None:
            tot.notes.append(sp.note)
        ancestor = by_id.get(sp.parent)
        while ancestor is not None and ancestor.name != sp.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            tot.s += sp.duration
    return dict(totals)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module:qualname`` recorded as *metric*.

    *qualname* is ``func`` or ``Class.method``; *observe* maps the
    return value to a number kept on the span.
    """

    metric: str
    module: str
    qualname: str
    observe: Callable[[Any], float] | None = None


def _resolve(target: Target) -> tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    return owner, attr, original


@contextmanager
def installed(targets: Iterable[Target], recorder: Recorder, *,
              prefix: str = "repro") -> Iterator[None]:
    """Wrap every target in the owner that defines it and in every
    loaded module under *prefix* that holds the same object; restore
    all of them on exit, including modules loaded inside the block."""
    swaps: list[tuple[Any, str, Any]] = []
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    try:
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapper = recorder.wrap(target.metric, original, target.observe)
            wrappers[id(wrapper)] = (wrapper, original)
            swaps.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for module in _modules(prefix):
                for name, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for holder, name, original in reversed(swaps):
            setattr(holder, name, original)
        for module in _modules(prefix):
            for name, value in list(vars(module).items()):
                wrapper, original = wrappers.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, name, original)


def _modules(prefix: str) -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == prefix or name.startswith(prefix + "."))]
