"""Helpers shared by the three workloads: statistics, the run outcome,
the environment record, the workload fingerprint and result checks."""
from __future__ import annotations

import contextlib
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

MIN_BEYOND = 10
REL_TOL = 1e-9


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else math.nan


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that leaves ``MIN_BEYOND`` samples beyond it, 100 * (1 - 10 / n).
    Below 20 samples that falls under the median; the tail is then
    reported at the median."""
    n = len(xs)
    if not n:
        return math.nan, 50.0, 0
    p = max(50.0, 100.0 * (1.0 - MIN_BEYOND / n))
    return float(np.percentile(xs, p)), p, int(n * (100.0 - p) / 100.0 + 1e-9)


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    gates_ok: bool = True
    # end-to-end metric -> (value, unit, details such as sample counts)
    e2e: dict = field(default_factory=dict)
    # printed and recorded, but not in BENCHMARK.json (absent or 0 on
    # other workloads, so no share-of-median bound can apply)
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # per-layer metric -> value
    fingerprint: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # first few failure reasons

    def note(self, reason: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(reason)

    def fail(self, n: int, reason: str) -> None:
        self.failed += n
        self.note(reason)

    def latency(self, seconds_per_unit, unit: str) -> None:
        """Set latency_p50_ms / latency_tail_ms from per-unit seconds."""
        ms = [s * 1e3 for s in seconds_per_unit]
        value, pct, beyond = tail(ms)
        self.e2e["latency_p50_ms"] = (median(ms), "ms", {"samples": len(ms), "unit": unit})
        self.e2e["latency_tail_ms"] = (
            value, "ms",
            {"percentile": pct, "samples": len(ms), "beyond": beyond, "max": max(ms, default=None), "unit": unit},
        )


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat;
    (0, 0) where that is not available."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def descendants(pid: int) -> list[int]:
    """Process ids below ``pid``, from /proc (Linux)."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    parent[int(entry)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    out, todo = [], [pid]
    while todo:
        cur = todo.pop()
        kids = [c for c, p in parent.items() if p == cur]
        out += kids
        todo += kids
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux), so a
    process whose parent ends before it, such as a Python worker of the
    JVM, stays below this one and ``stop_children`` still finds it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_children(grace_s: float = 10.0) -> list[int]:
    """Wait up to ``grace_s`` for every process this one started (and
    theirs) to end, kill what is left, and reap them all, so that nothing
    outlives the run. Returns the ids that had to be killed."""
    # the resource tracker that spawn-method pools start ends only when
    # this process closes its pipe, so it is stopped here (private API,
    # the one multiprocessing offers)
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + grace_s
    while any(alive(p) for p in descendants(os.getpid())) and time.monotonic() < deadline:
        time.sleep(0.05)
    killed = [p for p in descendants(os.getpid()) if alive(p)]
    for pid in killed:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + grace_s
    while any(alive(p) for p in killed) and time.monotonic() < deadline:
        time.sleep(0.01)
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    return killed


def environment(root, seed: int, driver_mem: str | None) -> dict:
    """Record what the numbers depend on besides the code."""

    def run(cmd):
        try:
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return (p.stdout + p.stderr).strip() if p.returncode == 0 else None

    java = run(["java", "-version"])
    try:
        import pyspark

        pyspark_version = pyspark.__version__
    except ImportError:
        pyspark_version = None
    return {
        "git_sha": run(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "pyspark": pyspark_version,
        "java": java.splitlines()[0] if java else None,
        "driver_memory": driver_mem,
        "seed": seed,
        "platform": platform.platform(),
        "executable": sys.executable,
    }


def fingerprint(pdf: pd.DataFrame, workload, kleene_type: str, result_rows: int) -> dict:
    """Input properties the engine's behaviour depends on."""
    from repro.core.template import sharable_sets

    bursts: list[int] = []
    for _, sub in pdf.sort_values("time", kind="mergesort").groupby("gkey", sort=True):
        is_k = (sub["etype"] == kleene_type).to_numpy()
        run = 0
        for flag in is_k:
            if flag:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        if run:
            bursts.append(run)
    window = max(q.window for q in workload)
    kle = pdf[pdf["etype"] == kleene_type]
    per_gw = kle.groupby([kle["gkey"], (kle["time"] // window).astype(int)]).size()
    sets, singles = sharable_sets(workload)
    return {
        "events": int(len(pdf)),
        "groups": int(pdf["gkey"].nunique()),
        "kleene_bursts": len(bursts),
        "kleene_burst_mean": float(np.mean(bursts)) if bursts else 0.0,
        "kleene_burst_max": int(max(bursts)) if bursts else 0,
        "max_kleene_per_group_window": int(per_gw.max()) if len(per_gw) else 0,
        "window_for_max_s": window,
        "k": len(workload),
        "sharable_sets": len(sets),
        "singleton_queries": len(singles),
        "result_rows": int(result_rows),
    }


def same_value(a: float, b: float) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def compare(got: dict, want: dict) -> list:
    """Mismatches between two {op key: {agg: value}} maps, as (key, reason);
    a key that only one side has is a mismatch too."""
    bad = []
    for key in set(got) | set(want):
        g, w = got.get(key), want.get(key)
        if g is None or w is None:
            bad.append((key, "missing" if g is None else "unexpected"))
        elif set(g) != set(w) or not all(same_value(g[a], w[a]) for a in w):
            bad.append((key, f"{g} != {w}"))
    return bad


def ops_from(rows) -> dict:
    """Result rows (gkey, window_start, qid, agg, value) -> op map
    {(gkey, window_start, qid): {agg: value}}."""
    out: dict = {}
    for g, ws, qid, agg, val in rows:
        out.setdefault((int(g), float(ws), qid), {})[agg] = float(val)
    return out
