"""Span recording around the package's public functions.

Only the traced benchmark process installs these wrappers.  A wrapper must
replace every name bound to the original function, not just the attribute
on its defining module: ``lad`` does ``from .simplex import solve``, so the
solver is reached through ``fuzzylad.lad.solve``.  ``install`` therefore
rebinds the name in every ``fuzzylad`` module that holds the function.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: int | None = None

    def begin_request(self, request: int) -> None:
        self.request = request
        self._stack.clear()

    def end_request(self) -> None:
        self.request = None

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` wrapped so each call inside a request records a span.

        ``describe(args, kwargs, result)`` may return counts to attach.
        Calls made outside a request, such as correctness checks, pass
        straight through.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder, targets) -> list:
    """Wrap each ``(module, function, span name, describe)`` target.

    Every ``fuzzylad`` module that binds the original function gets the
    wrapper under the same name.  Returns the undo list for ``uninstall``.
    """
    modules = [
        m for name, m in sys.modules.items() if name == "fuzzylad" or name.startswith("fuzzylad.")
    ]
    undo = []
    for module_name, attr, span_name, describe in targets:
        original = getattr(sys.modules[module_name], attr)
        wrapper = recorder.wrap(span_name, original, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result
