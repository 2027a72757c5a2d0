"""Structured Streaming runtime: Hamlet as a stateful operator.

This is the reproduction-band mapping: *adaptive shared trend
aggregation as a Structured Streaming stateful operator with dynamic
sharing plan selection per micro-batch*. A file source delivers one
**pane** per micro-batch (``maxFilesPerTrigger=1``); the stream is keyed
by the group attribute and processed with ``applyInPandasWithState``.
Each group runs the engine's :class:`~repro.core.engine.WindowRunner`:
a micro-batch's events are fed to the live per-window engines, then the
windows whose end the group's event time has reached are closed and
their rows emitted in update mode. The group state is the runner's open
windows and close boundary, pickled, so graphlets span micro-batches
and the dynamic optimizer re-decides the sharing plan for every burst
(``choose_plan``) exactly as the paper's optimizer adapts per burst.
An event of a window that is already closed is dropped. A far-future
flush sentinel closes the final windows (the offline stand-in for a
watermark).

The state lives in one state store per shuffle partition, and every
micro-batch runs one stateful task and one store commit per partition,
whether or not a group key hashes to it. ``run_stream`` therefore starts
a query with ``min(spark.sql.shuffle.partitions, defaultParallelism)``
partitions. Spark records that count in the checkpoint's offset log and
reuses it on every restart, so a restarted query finds its groups' state
where it left it, whatever the session's setting is by then.
"""
from __future__ import annotations

import math
import os
import pickle
from typing import Sequence

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from ..core.engine import RunResult, WindowRunner
from ..core.events import events_from_pandas
from ..core.queries import Query
from ..streams import ATTR_COLS
from .batch import RESULT_COLS, RESULT_SCHEMA, result_frame

FLUSH_TYPE = "__flush__"
SHUFFLE_PARTITIONS = "spark.sql.shuffle.partitions"

EVENT_SCHEMA = StructType(
    [
        StructField("time", DoubleType()),
        StructField("etype", StringType()),
        StructField("gkey", LongType()),
    ]
    + [StructField(c, DoubleType()) for c in ATTR_COLS]
)
STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


def make_stateful_func(workload: Sequence[Query], system: str, window: float):
    """Build the applyInPandasWithState function.

    Tumbling windows only (all queries share window==slide==``window``).
    The group state carries the runner's *live* pickled engines, so
    graphlets span micro-batches and the dynamic optimizer re-selects its
    sharing plan for every burst of every micro-batch. Windows whose end
    time has passed are finalized and their aggregates emitted.
    """
    workload = list(workload)
    for q in workload:
        if q.window != window or q.slide != window:
            raise ValueError("streaming runtime supports one tumbling window size")
    runner = WindowRunner(workload, system)

    def func(key, pdf_iter, state: GroupState):
        if state.exists:
            runner.open, runner.closed_until = pickle.loads(state.get[0])
        else:
            runner.open, runner.closed_until = {}, -math.inf
        pdf = pd.concat(list(pdf_iter), ignore_index=True)
        runner.feed(events_from_pandas(pdf[pdf["etype"] != FLUSH_TYPE], ATTR_COLS))
        rr = RunResult(system=system)
        runner.close_until(float(pdf["time"].max()), rr)
        state.update((pickle.dumps((runner.open, runner.closed_until)),))
        yield result_frame(int(key[0]), rr)

    return func


def write_pane_files(pdf: pd.DataFrame, pane: float, out_dir: str, window: float) -> int:
    """Split a stream frame into one JSON-lines file per pane (the
    micro-batch unit) plus a flush sentinel pane; returns the file count."""
    os.makedirs(out_dir, exist_ok=True)
    pdf = pdf.sort_values("time", kind="mergesort")
    pane_ids = (pdf["time"] // pane).astype(int)
    n = 0
    # FileStreamSource drains pending files oldest-modification-first; give
    # the panes strictly increasing mtimes so micro-batches arrive in pane
    # order (the engine state assumes in-order event time across batches).
    base_mtime = 1_600_000_000
    for pid in sorted(pane_ids.unique()):
        chunk = pdf[pane_ids == pid]
        path = os.path.join(out_dir, f"{n:05d}.json")
        chunk.to_json(path, orient="records", lines=True)
        os.utime(path, (base_mtime + n, base_mtime + n))
        n += 1
    t_flush = (math.floor(pdf["time"].max() / window) + 2) * window
    flush = pd.DataFrame(
        {
            "time": [t_flush] * pdf["gkey"].nunique(),
            "etype": [FLUSH_TYPE] * pdf["gkey"].nunique(),
            "gkey": sorted(pdf["gkey"].unique()),
            **{c: 0.0 for c in ATTR_COLS},
        }
    )
    path = os.path.join(out_dir, f"{n:05d}.json")
    flush.to_json(path, orient="records", lines=True)
    os.utime(path, (base_mtime + n, base_mtime + n))
    return n + 1


def run_stream(
    spark: SparkSession,
    in_dir: str,
    workload: Sequence[Query],
    *,
    system: str = "hamlet",
    window: float,
    checkpoint_dir: str,
) -> pd.DataFrame:
    """Run the streaming query over the pane files; returns collected rows.

    A new checkpoint starts the query with ``min(spark.sql.shuffle.partitions,
    defaultParallelism)`` state partitions; a restart on an existing
    checkpoint keeps the count that checkpoint recorded.
    """
    src = (
        spark.readStream.schema(EVENT_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .json(in_dir)
    )
    out = src.groupBy("gkey").applyInPandasWithState(
        make_stateful_func(workload, system, window),
        RESULT_SCHEMA,
        STATE_SCHEMA,
        "update",
        GroupStateTimeout.NoTimeout,
    )
    collected: list[pd.DataFrame] = []

    def sink(batch_df, _bid):
        pdf = batch_df.toPandas()
        if len(pdf):
            collected.append(pdf)

    # The query clones the session conf at .start(), so the cap is set on
    # the caller's session for that call only.
    conf = spark.conf.get(SHUFFLE_PARTITIONS)
    spark.conf.set(SHUFFLE_PARTITIONS, min(int(conf), spark.sparkContext.defaultParallelism))
    try:
        q = (
            out.writeStream.foreachBatch(sink)
            .option("checkpointLocation", checkpoint_dir)
            .outputMode("update")
            .start()
        )
    finally:
        spark.conf.set(SHUFFLE_PARTITIONS, conf)
    try:
        q.processAllAvailable()
    finally:
        q.stop()
    if not collected:
        return pd.DataFrame(columns=RESULT_COLS)
    return pd.concat(collected, ignore_index=True)
