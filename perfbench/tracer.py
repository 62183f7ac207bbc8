"""Outside-in span tracer for the tweezer_ising layers.

The package is not changed.  Inside a ``with tracer:`` block every
attribute of a package module that refers to a traced function is
replaced by a timing wrapper, and every replaced attribute is restored on
exit.  Patching each referring attribute matters because modules import
their collaborators by name (``optimizer`` holds its own
``minimize_box``), so patching only the defining module would miss most
calls.  Methods are patched once, on their class.

Each call becomes one span ``(label, start, end, parent, note, error)``
kept in memory; ``parent`` is the index of the enclosing traced call, or
-1, so self time can subtract child spans.  ``note`` is what the
target's observer extracts from the return value, or the exception type
name when the call raised (``error`` is then True).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

#: the package whose module attributes are patched
PACKAGE = "tweezer_ising"


@dataclass(frozen=True)
class Target:
    label: str  # reported name, "<module>.<function>"
    module: str  # defining module
    qualname: str  # "function" or "Class.method"
    observe: Optional[Callable[[Any], Any]] = None


class Span(NamedTuple):
    label: str
    start: float
    end: float
    parent: int
    note: Any
    error: bool


class Tracer:
    """Collects spans for the given targets while active; reusable."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, target: Target) -> None:
        owner = importlib.import_module(target.module)
        *outer, name = target.qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        wrapper = self._wrap(target, original)
        if outer:
            holders = [(owner, name)]
        else:
            holders = [
                (module, attr)
                for mod_name, module in list(sys.modules.items())
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                for attr, value in list(vars(module).items())
                if value is original
            ]
        for holder, attr in holders:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label, observe = target.label, target.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, type(err).__name__, True)
                raise
            end = clock()
            stack.pop()
            note = observe(result) if observe is not None else None
            spans[index] = Span(label, start, end, parent, note, False)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
