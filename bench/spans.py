"""Span recorder for the traced benchmark mode.

`traced(recorder)` replaces every public function of the envgain modules,
under every name a module binds it to, and the public methods of the
dataset classes, with a wrapper that records a span: name, start, end, the
enclosing span and the benchmark round. The program itself is unchanged.
Spans stay in memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, round]
        self.round = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, self.round]
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return wrapper

    def summary(self) -> dict:
        """name -> (self seconds, calls); self time is a span's duration
        minus the durations of its direct children."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child_time[i]
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}


def _targets(modules, classes):
    """(owner, attribute, qualified name, function) for every binding."""
    found = []
    for module in modules:
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__.startswith("envgain")
                and not inspect.isgeneratorfunction(obj)
            ):
                short = obj.__module__.rsplit(".", 1)[-1]
                found.append((module, attr, f"{short}.{obj.__name__}", obj))
    for cls in classes:
        short = cls.__module__.rsplit(".", 1)[-1]
        for attr, obj in vars(cls).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and not inspect.isgeneratorfunction(obj):
                found.append((cls, attr, f"{short}.{cls.__name__}.{attr}", obj))
    return found


@contextlib.contextmanager
def traced(recorder: SpanRecorder, modules, classes):
    """Install span wrappers for the duration of the block, then restore."""
    wrappers = {}
    saved = []
    for owner, attr, name, fn in _targets(modules, classes):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = recorder.wrap(name, fn)
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrappers[id(fn)])
    try:
        yield recorder
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
