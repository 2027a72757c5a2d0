"""Per-layer metrics: what each one measures and what it should move.

``LAYERS`` is the prediction table written down before any optimisation:
for every per-layer metric, the repository module (layer) it belongs to
and the end-to-end metric it should move, on which workload. Times are
milliseconds per latency unit of the workload (one group's 120 s span on
``diverse``, one micro-batch on ``spark-stream``) and counts are per unit
too, except the ``batch.*`` rows, which are per batch action. A layer
that does not run on a workload reports 0 there: the prediction "none".

On ``spark-stream`` the engine runs inside Spark's Python workers, out of
reach of the wrappers in the benchmark process, so the engine rows come
from replaying the same groups through ``run_system`` in that process,
single-threaded.
"""
from __future__ import annotations

# name, unit, better, layer, moves -> on
LAYERS = (
    ("events.from_pandas_ms", "ms", "lower", "core.events", "latency_p50_ms, throughput_eps -> diverse (small)"),
    ("template.sharable_sets_ms", "ms", "lower", "core.template", "latency_p50_ms -> diverse (small)"),
    ("engine.run_system_ms", "ms", "lower", "core.engine", "latency_p50_ms, throughput_eps -> diverse"),
    ("engine.run_system_calls", "count", "lower", "core.engine", "latency_p50_ms -> diverse"),
    ("hamlet.on_event_self_ms", "ms", "lower", "core.hamlet", "latency_* -> diverse; ~none -> spark-stream"),
    ("hamlet.end_window_self_ms", "ms", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.results_ms", "ms", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.bursts", "count", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.shared_burst_ratio", "ratio", "higher", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.coeff_ops", "count", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.ops", "count", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.splits", "count", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.merges", "count", "lower", "core.hamlet", "latency_* -> diverse"),
    ("hamlet.stored_events", "count", "lower", "core.hamlet", "engine_state_kb -> diverse, spark-stream"),
    ("optimizer.choose_plan_ms", "ms", "lower", "core.optimizer", "latency_* -> diverse; ~none -> spark-stream"),
    ("optimizer.choose_plan_calls", "count", "lower", "core.optimizer", "latency_* -> diverse"),
    ("optimizer.plans_per_decision", "count", "lower", "core.optimizer", "latency_* -> diverse"),
    ("snapshots.resolve_ms", "ms", "lower", "core.snapshots", "latency_* -> diverse; none -> spark-stream"),
    ("snapshots.resolve_calls", "count", "lower", "core.snapshots", "latency_* -> diverse"),
    ("snapshots.create_calls", "count", "lower", "core.snapshots", "latency_*, engine_state_kb -> diverse"),
    ("snapshots.gc_ms", "ms", "lower", "core.snapshots", "latency_* -> diverse"),
    ("snapshots.vadd_ms", "ms", "lower", "core.snapshots", "latency_* -> diverse"),
    ("snapshots.vadd_calls", "count", "lower", "core.snapshots", "latency_* -> diverse"),
    ("snapshots.created_per_shared_burst", "ratio", "lower", "core.snapshots", "engine_state_kb -> diverse"),
    # GretaState runs only for Kleene-free queries under "hamlet"; no
    # workload has one, so these come from the GRETA reference run that
    # checks the diverse units (0 on spark-stream).
    ("greta.on_event_ms", "ms", "lower", "core.greta", "none (reference run on diverse)"),
    ("greta.results_ms", "ms", "lower", "core.greta", "none (reference run on diverse)"),
    # per batch action on the spark-stream input (its set-up runs one)
    ("batch.action_ms", "ms", "lower", "sparkrt.batch", "setup_s -> spark-stream"),
    ("batch.engine_replay_ms", "ms", "lower", "sparkrt.batch", "setup_s -> spark-stream (small)"),
    ("batch.spark_overhead_ms", "ms", "lower", "sparkrt.batch", "setup_s -> spark-stream"),
    ("batch.stages", "count", "lower", "sparkrt.batch", "setup_s -> spark-stream"),
    ("batch.tasks", "count", "lower", "sparkrt.batch", "setup_s -> spark-stream"),
    ("stream.write_pane_files_ms", "ms", "lower", "sparkrt.streaming", "setup_s -> spark-stream (small)"),
    ("stream.trigger_ms", "ms", "lower", "sparkrt.streaming", "latency_*, throughput_eps -> spark-stream; none -> diverse"),
    ("stream.add_batch_ms", "ms", "lower", "sparkrt.streaming", "latency_*, throughput_eps -> spark-stream"),
    ("stream.query_planning_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.wal_commit_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.commit_offsets_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.latest_offset_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.get_batch_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.state_update_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.state_commit_ms", "ms", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.state_rows_total", "count", "lower", "sparkrt.streaming", "state_store_kb -> spark-stream"),
    ("stream.state_size_bytes", "B", "lower", "sparkrt.streaming", "state_store_kb -> spark-stream"),
    ("stream.shuffle_partitions", "count", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.state_store_instances", "count", "lower", "sparkrt.streaming", "latency_* -> spark-stream"),
    ("stream.batches", "count", "lower", "sparkrt.streaming", "throughput_eps -> spark-stream"),
    ("trace.overhead_ratio", "ratio", "lower", "(trace)", "-"),
)

NAMES = tuple(row[0] for row in LAYERS)


def engine_layers(summary: dict, metrics, units: int, greta_summary: dict | None = None,
                  greta_units: int = 1) -> dict:
    """Engine rows of the table from a span summary (see ``Tracer.summary``)
    and the summed ``repro.core.hamlet.Metrics`` of the same work."""
    u = max(units, 1)

    def ms(name, key="ms", s=summary, n=u):
        return s.get(name, {}).get(key, 0.0) / n

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / u

    gs = greta_summary or {}
    return {
        "events.from_pandas_ms": ms("events.from_pandas"),
        "template.sharable_sets_ms": ms("template.sharable_sets"),
        "engine.run_system_ms": ms("engine.run_system"),
        "engine.run_system_calls": calls("engine.run_system"),
        "hamlet.on_event_self_ms": ms("hamlet.on_event", "self_ms"),
        "hamlet.end_window_self_ms": ms("hamlet.end_window", "self_ms"),
        "hamlet.results_ms": ms("hamlet.results"),
        "hamlet.bursts": metrics.bursts / u,
        "hamlet.shared_burst_ratio": metrics.shared_bursts / metrics.bursts if metrics.bursts else 0.0,
        "hamlet.coeff_ops": metrics.coeff_ops / u,
        "hamlet.ops": metrics.ops / u,
        "hamlet.splits": metrics.splits / u,
        "hamlet.merges": metrics.merges / u,
        "hamlet.stored_events": metrics.stored_events / u,
        "optimizer.choose_plan_ms": ms("optimizer.choose_plan"),
        "optimizer.choose_plan_calls": calls("optimizer.choose_plan"),
        "optimizer.plans_per_decision": (
            metrics.plans_considered / metrics.decisions if metrics.decisions else 0.0
        ),
        "snapshots.resolve_ms": ms("snapshots.resolve"),
        "snapshots.resolve_calls": calls("snapshots.resolve"),
        "snapshots.create_calls": calls("snapshots.create"),
        "snapshots.gc_ms": ms("snapshots.gc"),
        "snapshots.vadd_ms": ms("snapshots.vadd"),
        "snapshots.vadd_calls": calls("snapshots.vadd"),
        "snapshots.created_per_shared_burst": (
            metrics.snapshots_created / metrics.shared_bursts if metrics.shared_bursts else 0.0
        ),
        "greta.on_event_ms": ms("greta.on_event", s=gs, n=max(greta_units, 1)),
        "greta.results_ms": ms("greta.results", s=gs, n=max(greta_units, 1)),
    }


def zero_layers() -> dict:
    return {name: 0.0 for name in NAMES}
