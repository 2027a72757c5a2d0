"""Batch Spark runtime: Hamlet as a grouped-map DataFrame operator.

The stream is partitioned by the group-by key (Hamlet partitions by
grouping attributes, §2.2); each partition runs the full windowed
multi-query engine (`repro.core.engine.run_system`) and emits one row
per (group, window, query, aggregate). Catalyst plans the shuffle; the
engine is the custom physical operator expressed as a
DataFrame→DataFrame transformation (see DESIGN.md §3 — a true JVM
operator is out of scope for a Python reproduction).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, LongType, StringType, StructField, StructType

from ..core.engine import RunResult, run_system
from ..core.events import events_from_pandas
from ..core.queries import Query
from ..streams import ATTR_COLS

# one row per (group, window, query, aggregate); the streaming runtime
# emits the same rows
RESULT_SCHEMA = StructType(
    [
        StructField("gkey", LongType()),
        StructField("window_start", DoubleType()),
        StructField("qid", StringType()),
        StructField("agg", StringType()),
        StructField("value", DoubleType()),
    ]
)
RESULT_COLS = RESULT_SCHEMA.fieldNames()


def result_frame(gkey: int, rr: RunResult) -> pd.DataFrame:
    """The result rows of one group's run."""
    rows = [
        (gkey, float(ws), qid, agg, float(val))
        for (qid, ws), aggs in rr.results.items()
        for agg, val in aggs.items()
    ]
    return pd.DataFrame(rows, columns=RESULT_COLS)


def run_workload_spark(
    spark: SparkSession,
    events_df: DataFrame,
    workload: Sequence[Query],
    *,
    system: str = "hamlet",
    attr_cols: Sequence[str] = ATTR_COLS,
    **run_kwargs,
) -> DataFrame:
    """Evaluate the workload per group partition; returns the result frame.

    ``events_df`` must have columns ``time, etype, gkey`` plus ``attr_cols``.
    """
    workload = list(workload)
    attr_cols = tuple(attr_cols)

    def _run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        gkey = int(pdf["gkey"].iloc[0])
        events = events_from_pandas(pdf, attr_cols)
        return result_frame(gkey, run_system(events, workload, system, **run_kwargs))

    return events_df.groupBy("gkey").applyInPandas(_run_group, RESULT_SCHEMA)


def count_star_df(results_df: DataFrame, qid: str) -> DataFrame:
    """Project one query's COUNT(*) series — the shape the DuckDB trend
    oracle produces (gkey, window_start, value), zero rows dropped."""
    from pyspark.sql.functions import col

    # NB: results_df.agg would resolve to DataFrame.agg (the method), not
    # the column — use col() for the "agg" column.
    return (
        results_df.where(
            (col("qid") == qid) & (col("agg") == "COUNT(*)") & (col("value") > 0)
        )
        .select("gkey", "window_start", "value")
    )
