"""In-memory span tracer and the wrappers that put spans around each layer.

A span records its name, start, end, parent span and trace id. Every
span opened while no other span is open starts a new trace (its root).
Spans are kept in flat lists and written out once, when the run ends.

``patched(tracer)`` wraps the public functions and methods of the
``repro.core`` modules for the duration of a ``with`` block and restores
the originals afterwards. A function imported by name into another
module (``hamlet.py`` does ``from .optimizer import choose_plan``) is
looked up through that module's globals, so every loaded ``repro``
module that holds the same object under the same name is patched too.
``repro.sparkrt`` modules are left alone: their UDF closures are pickled
to Spark workers, and a wrapper of this process must not travel with them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = (
    ("repro.core.events", "events_from_pandas", "events.from_pandas"),
    ("repro.core.template", "sharable_sets", "template.sharable_sets"),
    ("repro.core.engine", "run_system", "engine.run_system"),
    ("repro.core.optimizer", "choose_plan", "optimizer.choose_plan"),
    ("repro.core.snapshots", "vadd", "snapshots.vadd"),
    ("repro.core.snapshots", "SnapshotTable.resolve", "snapshots.resolve"),
    ("repro.core.snapshots", "SnapshotTable.create", "snapshots.create"),
    ("repro.core.snapshots", "SnapshotTable.gc", "snapshots.gc"),
    ("repro.core.hamlet", "HamletSetEngine.on_event", "hamlet.on_event"),
    ("repro.core.hamlet", "HamletSetEngine.end_window", "hamlet.end_window"),
    ("repro.core.hamlet", "HamletSetEngine.results", "hamlet.results"),
    ("repro.core.greta", "GretaState.on_event", "greta.on_event"),
    ("repro.core.greta", "GretaState.results", "greta.results"),
)


class Tracer:
    """Collects spans of one process; single-threaded use only."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self._stack: list[int] = []
        self._next_trace = 0

    def begin(self, name: str) -> int:
        idx = len(self.name)
        if self._stack:
            parent = self._stack[-1]
            trace = self.trace[parent]
        else:
            parent = -1
            trace = self._next_trace
            self._next_trace += 1
        self.name.append(name)
        self.parent.append(parent)
        self.trace.append(trace)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def roots(self, root_name: str) -> set[int]:
        """Trace ids whose root span is called ``root_name``."""
        return {
            self.trace[i]
            for i, p in enumerate(self.parent)
            if p == -1 and self.name[i] == root_name
        }

    def summary(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per span name under roots called ``root_name``: total ms, self
        ms (duration minus the time its child spans cover) and calls."""
        traces = self.roots(root_name)
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.name):
            if self.trace[i] not in traces:
                continue
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            agg["ms"] += dur * 1e3
            agg["self_ms"] += (dur - child[i]) * 1e3
            agg["calls"] += 1
        return out

    def dump(self, path) -> None:
        """Write all spans as compressed numpy columns (``.npz``)."""
        names = sorted(set(self.name))
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[n] for n in self.name], dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            trace=np.array(self.trace, dtype=np.int64),
        )


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every target in ``TARGETS`` with ``tracer`` spans; restore on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module, attr, span_name in TARGETS:
            owner, name, original = _resolve(module, attr)
            wrapper = tracer.wrap(span_name, original)
            holders = [owner]
            if "." not in attr:
                holders += [
                    m
                    for mod_name, m in list(sys.modules.items())
                    if mod_name.startswith("repro.")
                    and not mod_name.startswith("repro.sparkrt")
                    and m is not owner
                    and getattr(m, name, None) is original
                ]
            for holder in holders:
                saved.append((holder, name, original))
                setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(saved):
            setattr(holder, name, original)
