"""Workload-level execution: windows, systems, metrics.

``WindowRunner(workload, system)`` is the online windowed executor.
``feed(events)`` pushes events into live engines, one set per window
instance; ``close_until(t, rr)`` reads out every instance that has ended
by ``t`` into a :class:`RunResult` (a window's aggregates are final when
it closes, §3.3). ``run_system(events, workload, system)`` feeds one
group's whole stream and closes every window; the Structured Streaming
operator (``repro.sparkrt.streaming``) feeds one micro-batch at a time
and closes the windows its event time has passed. Systems:

- ``hamlet``            — sharable sets + dynamic per-burst optimizer (§4)
- ``hamlet-static``     — sharable sets, compile-time always-share (§6.2)
- ``hamlet-nonshared``  — Hamlet executor, sharing disabled
- ``greta``             — the non-shared GRETA baseline (§3.2, Eq. 4 loop)
- ``sharon`` / ``mcep`` — whole-window baselines (repro.baselines),
  ``run_system`` only

Windows: each (window, slide) signature is evaluated per window
*instance* (DESIGN.md substitution: cross-window pane sharing is prior
work, not the contribution). Latency is the wall-clock to process a
window instance; throughput is events/second over the whole run —
matching the paper's metric definitions (§6.1).
"""
from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from .events import Event
from .greta import GretaState
from .hamlet import HamletSetEngine, Metrics
from .queries import Query
from .template import pane_size, sharable_sets

SYSTEMS = ("hamlet", "hamlet-static", "hamlet-nonshared", "greta", "sharon", "mcep")


@dataclass
class RunResult:
    """Outcome of one system over one group's stream."""

    system: str
    results: dict = field(default_factory=dict)  # (qid, window_start) -> {agg: value}
    metrics: Metrics = field(default_factory=Metrics)
    window_wall: dict = field(default_factory=dict)  # window_start -> seconds
    total_wall: float = 0.0
    n_events: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Average per-window processing latency in seconds (§6.1)."""
        if not self.window_wall:
            return 0.0
        return sum(self.window_wall.values()) / len(self.window_wall)

    @property
    def throughput(self) -> float:
        """Events processed per second across the run."""
        return self.n_events / self.total_wall if self.total_wall > 0 else 0.0

    def merge(self, other: "RunResult") -> None:
        """Combine results from another group's run (Spark partitions)."""
        self.results.update(other.results)
        self.metrics.absorb(other.metrics)
        for w, s in other.window_wall.items():
            self.window_wall[w] = self.window_wall.get(w, 0.0) + s
        self.total_wall += other.total_wall
        self.n_events += other.n_events


def window_instances(events: Sequence[Event], window: float, slide: float):
    """Yield ``(window_start, events_in_window)`` for every non-empty
    instance of a sliding window over a time-sorted event list."""
    if not events:
        return
    times = [e.time for e in events]
    t_max = times[-1]
    # instances ending a full slide before the first event hold none of them
    m = max(0, int((times[0] - window) // slide))
    while m * slide <= t_max:
        start = m * slide
        lo = bisect_left(times, start)
        hi = bisect_right(times, start + window - 1e-12)
        if hi > lo:
            yield start, events[lo:hi]
        m += 1


class _HamletWindow:
    """One sharable set's (or Kleene singleton's) engine on one window instance."""

    def __init__(self, queries, kleene_type: str, mode: str, pane: float):
        self.eng = HamletSetEngine(queries, kleene_type, mode=mode, pane=pane)

    def feed(self, events: Sequence[Event]) -> None:
        for e in events:
            self.eng.on_event(e)

    def close(self) -> tuple[dict, Metrics]:
        self.eng.end_window()
        return self.eng.results(), self.eng.m


class _GretaWindow:
    """Per-query GRETA states on one window instance.

    With ``count_mem`` the instance's peak memory is the sum of the live
    per-query graphs (each query replicates its matched events, §3.2).
    A Kleene-free query run beside Hamlet engines reports none: Hamlet's
    peak memory is the largest single engine's."""

    def __init__(self, queries, count_mem: bool):
        self.states = [GretaState(q) for q in queries]
        self.count_mem = count_mem
        self.n_events = 0

    def feed(self, events: Sequence[Event]) -> None:
        self.n_events += len(events)
        for st in self.states:
            for e in events:
                st.on_event(e)

    def close(self) -> tuple[dict, Metrics]:
        stored = sum(st.n_stored for st in self.states)
        m = Metrics(
            events=self.n_events * len(self.states),
            stored_events=stored,
            ops=sum(st.ops for st in self.states),
            peak_mem_bytes=stored * 32 if self.count_mem else 0,
        )
        return {st.q.qid: st.results() for st in self.states}, m


_MODES = {"hamlet": "dynamic", "hamlet-static": "static", "hamlet-nonshared": "nonshared"}


def _engine_groups(workload: Sequence[Query], system: str) -> dict[tuple, list[Callable]]:
    """Map each (window, slide) signature to the factories of one window
    instance's engines (workload analysis, §3.1). GRETA gets one group of
    per-query states per signature; Hamlet gets one engine per sharable
    set plus one per remaining query, a GRETA state when it is Kleene-free.
    The only place that knows the system."""
    groups: dict[tuple, list[Callable]] = {}
    if system == "greta":
        by_sig: dict[tuple, list[Query]] = {}
        for q in workload:
            by_sig.setdefault((q.window, q.slide), []).append(q)
        for sig, qs in by_sig.items():
            groups[sig] = [partial(_GretaWindow, tuple(qs), True)]
        return groups
    mode = _MODES[system]
    sets, singles = sharable_sets(workload)
    for s in sets:
        q0 = s.queries[0]
        groups.setdefault((q0.window, q0.slide), []).append(
            partial(_HamletWindow, s.queries, s.etype, mode, s.pane)
        )
    for q in singles:
        kts = sorted(q.kleene_types())
        if kts:
            pane = pane_size([q.window, q.slide])
            factory = partial(_HamletWindow, (q,), kts[0], "nonshared", pane)
        else:
            factory = partial(_GretaWindow, (q,), False)
        groups.setdefault((q.window, q.slide), []).append(factory)
    return groups


class WindowRunner:
    """Online windowed evaluation of a workload over one group's stream.

    ``feed`` pushes events into the window instances that contain them,
    creating an instance's engines when its first event arrives;
    ``close_until`` reads out the instances that have ended. ``open``
    maps ``(window, slide, start)`` to ``[engines, wall seconds so far]``.
    With ``closed_until`` it is all the state between calls: the
    streaming operator pickles exactly these two.
    """

    def __init__(self, workload: Sequence[Query], system: str):
        self._groups = _engine_groups(workload, system)
        self.open: dict[tuple, list] = {}
        self.closed_until = -math.inf

    def feed(self, events: Sequence[Event]) -> None:
        """Process time-sorted ``events``. An event whose window instance
        was closed already is dropped (late)."""
        for (window, slide), factories in self._groups.items():
            for start, evs in window_instances(events, window, slide):
                if start + window <= self.closed_until:
                    continue
                t0 = time.perf_counter()
                key = (window, slide, start)
                win = self.open.get(key)
                if win is None:
                    win = self.open[key] = [[f() for f in factories], 0.0]
                for eng in win[0]:
                    eng.feed(evs)
                win[1] += time.perf_counter() - t0

    def close_until(self, t: float, rr: RunResult) -> None:
        """Finalize every open instance with ``start + window <= t`` into ``rr``."""
        self.closed_until = max(self.closed_until, t)
        for key in sorted(k for k in self.open if k[2] + k[0] <= t):
            engines, wall = self.open.pop(key)
            start = key[2]
            t0 = time.perf_counter()
            for eng in engines:
                res, m = eng.close()
                for qid, aggs in res.items():
                    rr.results[(qid, start)] = aggs
                rr.metrics.absorb(m)
            wall += time.perf_counter() - t0
            rr.window_wall[start] = rr.window_wall.get(start, 0.0) + wall
            rr.total_wall += wall


def run_system(
    events: Sequence[Event],
    workload: Sequence[Query],
    system: str = "hamlet",
    *,
    sharon_l: Optional[int] = None,
    mcep_max_trends: int = 200_000,
) -> RunResult:
    """Evaluate ``workload`` over one group's time-sorted ``events``."""
    events = sorted(events, key=lambda e: e.time)
    if system in ("sharon", "mcep"):
        from ..baselines import mcep as _mcep
        from ..baselines import sharon as _sharon

        if system == "sharon":
            return _sharon.run_sharon(events, workload, l_max=sharon_l)
        return _mcep.run_mcep(events, workload, max_trends=mcep_max_trends)

    rr = RunResult(system=system, n_events=len(events))
    runner = WindowRunner(workload, system)
    runner.feed(events)
    runner.close_until(math.inf, rr)
    return rr
