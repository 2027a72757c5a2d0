"""``spark-stream``: the Hamlet stateful operator in Structured Streaming.

Pane files are staged once (``write_pane_files``); each ``run_stream``
drains them, one pane per micro-batch, with a fresh checkpoint. Each
trigger starts when the previous one ends (closed loop). Spark's
per-partition tasks and state stores, plus the pickled engine state
carried across batches, dominate; the engine takes milliseconds. Per
micro-batch numbers come from Spark's public progress reporting
(``StreamingQueryListener``).

The batch operator (``run_workload_spark``) runs on the same input in
every set-up, as warm-up and as the reference the stream rows must
equal; traced runs also time it, with its jobs' stages and tasks from
the status tracker, for the ``batch.*`` layer metrics.
"""
from __future__ import annotations

import contextlib
import threading
import time
import traceback

from pyspark.sql.streaming import StreamingQueryListener

from repro.core.hamlet import Metrics
from repro.core.workloads import workload1
from repro.sparkrt.batch import run_workload_spark
from repro.sparkrt.streaming import run_stream, write_pane_files
from repro.streams import ridesharing_stream, to_spark

import sparkenv
from common import Outcome, compare, fingerprint, median, ops_from
from layers import engine_layers, zero_layers
from tracing import Tracer, patched

KLEENE = "T"
N_GROUPS = 8
K = 6
WINDOW = 20.0
PANE = 10.0
PANES = 2
EVENTS_PER_MIN = 1200
SETUP_REPS = 5
REPLAYS = 3
BATCH_ACTIONS = 3
RESULT_COLS = ["gkey", "window_start", "qid", "agg", "value"]
DURATIONS = {
    "stream.trigger_ms": "triggerExecution",
    "stream.add_batch_ms": "addBatch",
    "stream.query_planning_ms": "queryPlanning",
    "stream.wal_commit_ms": "walCommit",
    "stream.commit_offsets_ms": "commitOffsets",
    "stream.latest_offset_ms": "latestOffset",
    "stream.get_batch_ms": "getBatch",
}


class Progress(StreamingQueryListener):
    """Keeps the progress of every micro-batch, per query run."""

    def __init__(self):
        self.cond = threading.Condition()
        self.started: list[str] = []
        self.ended: set[str] = set()
        self.batches: dict[str, list[dict]] = {}

    def onQueryStarted(self, event):
        with self.cond:
            self.started.append(str(event.runId))

    def onQueryProgress(self, event):
        p = event.progress
        ops = p.stateOperators
        rec = {
            "batch": p.batchId,
            "ms": dict(p.durationMs),
            "state_rows": sum(o.numRowsTotal for o in ops),
            "state_bytes": sum(o.memoryUsedBytes for o in ops),
            "state_update_ms": sum(o.allUpdatesTimeMs for o in ops),
            "state_commit_ms": sum(o.commitTimeMs for o in ops),
            "partitions": sum(o.numShufflePartitions for o in ops),
            "instances": sum(o.numStateStoreInstances for o in ops),
        }
        with self.cond:
            self.batches.setdefault(str(p.runId), []).append(rec)

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        with self.cond:
            self.ended.add(str(event.runId))
            self.cond.notify_all()

    def settle(self, since: int, timeout: float = 60.0) -> list[dict]:
        """Wait until every run started after the first ``since`` has
        ended; return their micro-batches in order."""
        with self.cond:
            self.cond.wait_for(lambda: set(self.started) <= self.ended, timeout)
            runs = self.started[since:]
            return [b for r in runs for b in sorted(self.batches.get(r, []), key=lambda b: b["batch"])]


def workload():
    return workload1(K, kleene_type=KLEENE, window=WINDOW, slide=WINDOW)


def make_input(seed: int):
    """PANES whole panes: the generator's time jitter would otherwise spill
    a few events into one more pane, and so one more micro-batch."""
    pdf = ridesharing_stream(
        minutes=PANES * PANE / 60.0, events_per_min=EVENTS_PER_MIN, n_groups=N_GROUPS,
        burst_mean=3.0, p_kleene=0.3, seed=seed,
    )
    return pdf[pdf["time"] < PANES * PANE].reset_index(drop=True)


def closed_loop(spark, ctx, in_dir, wl, listener, seconds, name, tracer=None):
    runs = []  # (seconds, rows or exception text, micro-batch progress)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not runs:
        ckpt = str(ctx.tmp / f"ckpt-{name}{len(runs)}")
        since = len(listener.started)
        t0 = time.perf_counter()
        try:
            with tracer.span("stream.run") if tracer else contextlib.nullcontext():
                out = run_stream(spark, in_dir, wl, system="hamlet", window=WINDOW, checkpoint_dir=ckpt)
        except Exception:  # counted as failed operations, never aborts the run
            out = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        runs.append((dt, out, listener.settle(since)))
    return runs


def batch_action(spark, sdf, wl, group=None):
    if group is not None:
        spark.sparkContext.setJobGroup(group, group)
    return run_workload_spark(spark, sdf, wl, system="hamlet").collect()


def job_shape(spark, group) -> tuple[int, int]:
    """(stages, tasks) of the jobs an action ran, from the status tracker."""
    tracker = spark.sparkContext.statusTracker()
    stages = tasks = 0
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            stages += 1
            st = tracker.getStageInfo(sid)
            tasks += st.numTasks if st else 0
    return stages, tasks


def traced_batch_actions(spark, sdf, wl, tracer, out: Outcome):
    """Time the batch operator; returns [(seconds, (stages, tasks))]."""
    actions = []
    for i in range(BATCH_ACTIONS):
        group = f"perfbench-batch-{i}"
        t0 = time.perf_counter()
        try:
            with tracer.span("batch.action"):
                batch_action(spark, sdf, wl, group)
        except Exception:  # a diagnostic pass: noted, never aborts the run
            out.note(f"traced batch action raised: {traceback.format_exc(limit=3)}")
            continue
        actions.append((time.perf_counter() - t0, job_shape(spark, group)))
    return actions


def check(runs, batch_ops, oracle, out: Outcome) -> int:
    """Stream rows must equal the batch rows, and COUNT(*) the oracle."""
    rows = 0
    for _, got, _ in runs:
        if isinstance(got, str):
            n = len(set(batch_ops) | set(oracle))
            out.attempted += n
            out.fail(n, f"run_stream raised: {got}")
            continue
        ops = ops_from(got[RESULT_COLS].itertuples(index=False))
        rows += len(got)
        bad = compare(ops, batch_ops)
        bad_keys = {k for k, _ in bad}
        for key, why in bad[:3]:
            out.note(f"stream vs batch {key}: {why}")
        for key, g, w in sparkenv.check_counts(ops, oracle):
            if key not in bad_keys:
                out.note(f"COUNT(*) vs DuckDB oracle {key}: {g} != {w}")
            bad_keys.add(key)
        out.attempted += len(set(ops) | set(batch_ops) | set(oracle))
        out.failed += len(bad_keys)
    return rows


def run(ctx) -> Outcome:
    out = Outcome()
    wl = workload()
    staging = []

    def prepare(spark):
        pdf = make_input(ctx.seed)
        in_dir = str(ctx.tmp / f"panes-{len(staging)}")
        t0 = time.perf_counter()
        n_files = write_pane_files(pdf, PANE, in_dir, WINDOW)
        staging.append(time.perf_counter() - t0)
        sdf = to_spark(spark, pdf)
        # warm-up, and the batch rows the stream must reproduce
        return pdf, sdf, in_dir, n_files, batch_action(spark, sdf, wl)

    setup, spark, (pdf, sdf, in_dir, n_files, batch_rows) = sparkenv.timed_setups(ctx, SETUP_REPS, prepare)
    listener = Progress()
    spark.streams.addListener(listener)
    tracer = Tracer() if ctx.trace else None
    try:
        # one stream run before timing: the first micro-batch of a
        # session's first query pays for class loading and code generation
        t0 = time.perf_counter()
        warm = closed_loop(spark, ctx, in_dir, wl, listener, 0, "warm")
        warm_s = time.perf_counter() - t0
        plain = closed_loop(spark, ctx, in_dir, wl, listener, ctx.seconds / 2 if tracer else ctx.seconds, "plain")
        traced = closed_loop(spark, ctx, in_dir, wl, listener, ctx.seconds / 2, "traced", tracer) if tracer else []
        actions = traced_batch_actions(spark, sdf, wl, tracer, out) if tracer else []
    finally:
        spark.streams.removeListener(listener)
        sparkenv.shutdown(spark)

    ok = [r for r in plain if not isinstance(r[1], str)]
    busy = sum(dt for dt, _, _ in plain)
    batches = [b for _, _, bs in ok for b in bs]
    out.e2e["setup_s"] = (median(setup), "s", {"samples": len(setup), "each": setup, "stream_warmup_s": warm_s})
    out.e2e["throughput_eps"] = (
        len(pdf) * len(ok) / busy, "events/s",
        {"events": len(pdf) * len(ok), "seconds": busy, "stream_runs": len(plain)},
    )
    out.latency([b["ms"].get("triggerExecution", 0) / 1e3 for b in batches], "one micro-batch triggerExecution")
    replays = [sparkenv.replay(pdf, wl) for _ in range(REPLAYS if tracer else 1)]
    peaks = [b / 1024.0 for b in replays[0][2]]
    out.e2e["engine_state_kb"] = (
        median(peaks), "KiB",
        {"source": "in-process replay", "groups": len(peaks), "of": "median per-group peak", "max": max(peaks)},
    )
    out.extra["state_store_kb"] = (
        max((b["state_bytes"] for b in batches), default=0) / 1024.0, "KiB",
        {"micro_batches": len(batches), "of": "max stateOperators[].memoryUsedBytes"},
    )

    batch_ops = ops_from(batch_rows)
    oracle = sparkenv.oracle_counts(pdf, wl, WINDOW)
    for key, got, want in sparkenv.check_counts(batch_ops, oracle):
        out.note(f"batch COUNT(*) vs DuckDB oracle {key}: {got} != {want}")
    rows = check(warm + plain + traced, batch_ops, oracle, out)

    if tracer:
        m = Metrics()
        with patched(tracer):
            for _ in range(REPLAYS):
                m.absorb(sparkenv.replay(pdf, wl, tracer)[1])
        t_batches = [b for _, _, bs in traced for b in bs]
        per_run = max(len(t_batches) / max(len(traced), 1), 1.0)
        out.layers = zero_layers()
        out.layers.update(engine_layers(tracer.summary("replay"), m, REPLAYS * per_run))
        for name, key in DURATIONS.items():
            out.layers[name] = median([b["ms"].get(key, 0) for b in t_batches])
        action_ms = median([dt for dt, _ in actions]) * 1e3
        replay_ms = median([r[0] for r in replays]) * 1e3
        out.layers.update({
            "batch.action_ms": action_ms,
            "batch.engine_replay_ms": replay_ms,
            "batch.spark_overhead_ms": action_ms - replay_ms,
            "batch.stages": median([st for _, (st, _) in actions]),
            "batch.tasks": median([tk for _, (_, tk) in actions]),
            "stream.write_pane_files_ms": median(staging) * 1e3,
            "stream.state_update_ms": median([b["state_update_ms"] for b in t_batches]),
            "stream.state_commit_ms": median([b["state_commit_ms"] for b in t_batches]),
            "stream.state_rows_total": max((b["state_rows"] for b in t_batches), default=0),
            "stream.state_size_bytes": max((b["state_bytes"] for b in t_batches), default=0),
            "stream.shuffle_partitions": max((b["partitions"] for b in t_batches), default=0),
            "stream.state_store_instances": max((b["instances"] for b in t_batches), default=0),
            "stream.batches": per_run,
            "trace.overhead_ratio": median([dt for dt, _, _ in traced]) / median([dt for dt, _, _ in plain]),
        })
        ctx.save_trace(tracer)
    out.fingerprint = fingerprint(pdf, wl, KLEENE, rows // len(warm + plain + traced))
    out.fingerprint.update(pane_files=n_files, pane_s=PANE)
    return out
