"""``diverse``: the in-process engine on bursty stock data, no Spark.

Long Kleene bursts under the diverse workload 2 are where the dynamic
optimizer, snapshot create/resolve and the non-shared fallback do their
work. One caller feeds one group's 120 s span at a time through
``events_from_pandas`` + ``run_system(..., "hamlet")`` and waits for the
result before sending the next (closed loop, one client), cycling over
the spans until the run time is used up.
"""
from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import repro.core.engine as engine_mod
import repro.core.events as events_mod
from repro.core.hamlet import Metrics
from repro.core.workloads import workload2
from repro.streams import ATTR_COLS, stock_stream

from common import Outcome, compare, fingerprint, median
from layers import engine_layers, zero_layers
from tracing import Tracer, patched

KLEENE = "T"
SPAN_S = 120.0
N_GROUPS = 8
MINUTES = 80.0  # 40 spans per group, 320-odd distinct units, each timed several times
EVENTS_PER_MIN = 150
SETUP_REPS = 9
WARMUP_UNITS = 5 * N_GROUPS  # spread the set-up's cost over many inputs
GRETA_TRACED_UNITS = 40
REFERENCES = ("greta", "hamlet-static", "hamlet-nonshared")
REF_WORKERS = 3
GATES_TIMEOUT_S = 120
# The two paper shape gates that `pytest benchmarks/ --benchmark-only`
# skips; run as they are, with their own configs and bounds.
GATES = (
    "benchmarks/bench_t11_greta.py::test_bench_t11_gap",
    "benchmarks/bench_t12_t13_dynamic.py::test_bench_t13_dynamic_creates_fewer_snapshots",
)


def workload():
    return workload2(40, kleene_type=KLEENE, windows=(60.0, 120.0), seed=5)


def make_units(seed: int):
    """The stream and its units: (gkey, span start, frame), in time order."""
    pdf = stock_stream(
        minutes=MINUTES, events_per_min=EVENTS_PER_MIN, n_groups=N_GROUPS,
        burst_mean=30.0, p_kleene=0.55, seed=seed,
    )
    span = (pdf["time"] // SPAN_S).astype(int)
    units = [
        (int(g), float(s * SPAN_S), sub.reset_index(drop=True))
        for (s, g), sub in pdf.groupby([span, pdf["gkey"]], sort=True)
    ]
    return pdf, units


def run_unit(chunk, wl, system="hamlet"):
    events = events_mod.events_from_pandas(chunk, ATTR_COLS)
    return engine_mod.run_system(events, wl, system)


def closed_loop(units, wl, seconds, tracer=None):
    """Run units back to back for ``seconds``; one sample per unit."""
    samples = []  # (unit index, seconds, RunResult or exception text)
    i = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not samples:
        idx = i % len(units)
        chunk = units[idx][2]
        t0 = time.perf_counter()
        try:
            with tracer.span("unit") if tracer else contextlib.nullcontext():
                rr = run_unit(chunk, wl)
        except Exception:  # counted as failed operations, never aborts the run
            rr = traceback.format_exc(limit=3)
        samples.append((idx, time.perf_counter() - t0, rr))
        i += 1
    return samples


def references(chunk, wl) -> dict:
    """Results of one unit under each reference system (an exception's
    text where a system raised). Runs in a worker process."""
    refs = {}
    for system in REFERENCES:
        try:
            refs[system] = run_unit(chunk, wl, system).results
        except Exception:
            refs[system] = traceback.format_exc(limit=2)
    return refs


def check(samples, units, wl, root, out: Outcome) -> int:
    """Compare every result of the timed runs with the three reference
    systems, computed once per distinct unit in a few worker processes
    while the shape gates run; one operation is one (group, window,
    query) result. Returns the result rows of the input."""
    gates = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GATES],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    idxs = sorted({s[0] for s in samples})
    try:
        with ProcessPoolExecutor(REF_WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
            chunks = [units[i][2] for i in idxs]
            refs = dict(zip(idxs, pool.map(references, chunks, itertools.repeat(wl), chunksize=8)))
        log, _ = gates.communicate(timeout=GATES_TIMEOUT_S)
        last = (log.strip().splitlines() or ["no output"])[-1]
    except subprocess.TimeoutExpired:
        last = "timed out"
    finally:
        if gates.poll() is None:
            gates.kill()
            gates.communicate()
    print(f"shape gates: {'pass' if gates.returncode == 0 else 'FAIL'} ({last})")
    if gates.returncode != 0:
        out.gates_ok = False
        out.note(f"shape gates failed: {last}")

    rows: dict[int, int] = {}
    for idx, _, rr in samples:
        keys = set().union(*(ref for ref in refs[idx].values() if isinstance(ref, dict)))
        if isinstance(rr, str):
            out.attempted += len(keys)
            out.fail(len(keys), f"unit {idx} raised: {rr}")
            continue
        keys |= set(rr.results)
        rows[idx] = sum(len(aggs) for aggs in rr.results.values())
        bad = set()
        for system, ref in refs[idx].items():
            if isinstance(ref, str):  # the reference raised: nothing verifies the unit
                mismatches = [(k, f"{system} raised: {ref}") for k in keys]
            else:
                mismatches = compare(rr.results, ref)
            for key, why in mismatches:
                if key not in bad:
                    bad.add(key)
                    out.note(f"unit {idx} {key} vs {system}: {why}")
        out.attempted += len(keys)
        out.failed += len(bad)
    return sum(rows.values())


def run(ctx) -> Outcome:
    out = Outcome()
    wl = workload()
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pdf, units = make_units(ctx.seed)
        for chunk in [u[2] for u in units[:WARMUP_UNITS]]:
            run_unit(chunk, wl)
        setup.append(time.perf_counter() - t0)

    tracer = Tracer() if ctx.trace else None
    plain = closed_loop(units, wl, ctx.seconds / 2 if tracer else ctx.seconds)
    traced = []
    if tracer:
        with patched(tracer):
            traced = closed_loop(units, wl, ctx.seconds / 2, tracer)

    ok = [s for s in plain if not isinstance(s[2], str)]
    n_events = sum(len(units[idx][2]) for idx, _, _ in ok)
    busy = sum(dt for _, dt, _ in plain)
    out.e2e["setup_s"] = (median(setup), "s", {"samples": len(setup), "each": setup})
    out.e2e["throughput_eps"] = (n_events / busy, "events/s", {"events": n_events, "seconds": busy})
    # one latency sample per distinct unit, the median of its repetitions:
    # the tail then ranks the slowest inputs, not the moments the shared
    # host stalled a single call
    reps: dict[int, list[float]] = {}
    for idx, dt, _ in ok:
        reps.setdefault(idx, []).append(dt)
    out.latency([median(v) for v in reps.values()], "one group's 120 s span, median of its repetitions")
    for name in ("latency_p50_ms", "latency_tail_ms"):
        out.e2e[name][2]["timed_calls"] = len(ok)
    # the median over distinct units of each one's peak engine state: the
    # maximum over units depends on the one largest burst a seed happens
    # to draw, the median on the input's distribution
    peaks = {idx: rr.metrics.peak_mem_bytes / 1024.0 for idx, _, rr in ok}
    out.e2e["engine_state_kb"] = (
        median(list(peaks.values())), "KiB",
        {"units": len(peaks), "of": "median per-unit peak", "max": max(peaks.values(), default=None)},
    )

    rows = check(plain + traced, units, wl, ctx.root, out)
    if tracer:
        # GretaState is the reference here, not part of "hamlet": time it
        # on the first units, outside the timed passes
        with patched(tracer):
            for chunk in [u[2] for u in units[:GRETA_TRACED_UNITS]]:
                with tracer.span("ref.greta"):
                    run_unit(chunk, wl, "greta")
        m = Metrics()
        traced_ok = [rr for _, _, rr in traced if not isinstance(rr, str)]
        for rr in traced_ok:
            m.absorb(rr.metrics)
        out.layers = zero_layers()
        out.layers.update(engine_layers(
            tracer.summary("unit"), m, len(traced_ok),
            tracer.summary("ref.greta"), len(tracer.roots("ref.greta")),
        ))
        out.layers["trace.overhead_ratio"] = (
            median([dt for _, dt, _ in traced]) / median([dt for _, dt, _ in plain])
        )
        ctx.save_trace(tracer)
    out.fingerprint = fingerprint(pdf, wl, KLEENE, rows)
    out.fingerprint.update(units=len(units), distinct_units_run=len({s[0] for s in plain + traced}))
    return out
