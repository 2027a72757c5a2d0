"""Spark session, in-process replay and the DuckDB oracle.

The session uses the settings of the repository's ``conftest.py``:
64 shuffle partitions, Arrow on, broadcast joins off, UI off, and a
``local[nproc]`` master. They are not tuned, so that a runtime fix of
the partitioning shows up as a gain.
"""
from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import time

import duckdb

import repro.core.engine as engine_mod
import repro.core.events as events_mod
from repro.core.hamlet import Metrics
from repro.oracle_trends import trend_count_sql
from repro.streams import ATTR_COLS

from common import alive, cpu_count, descendants, same_value

SHUFFLE_PARTITIONS = "64"
DEFAULT_DRIVER_MEM = "2g"


def start(ctx):
    """Create (or, after ``stop``, re-create) the SparkSession."""
    mem = os.environ.get("SPARK_DRIVER_MEM", DEFAULT_DRIVER_MEM)
    ctx.driver_mem = mem
    local = ctx.tmp / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_<user>
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cpu_count()}] --driver-memory {mem} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={ctx.tmp} -XX:-UsePerfData')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session and the JVM, and wait until the JVM and the Python
    workers it started have exited."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    workers = descendants(proc.pid) if proc is not None else []
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    for pid in workers:  # they exit when the JVM's pipes close
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if alive(pid):
            os.kill(pid, signal.SIGKILL)


def timed_setups(ctx, reps: int, prepare):
    """Set up ``reps`` times, restarting the session in between; returns
    (seconds per set-up, the last session, the last ``prepare`` result).
    The first set-up also pays for launching the JVM."""
    times, spark, ready = [], None, None
    for _ in range(reps):
        if spark is not None:
            spark.stop()
        t0 = time.perf_counter()
        spark = start(ctx)
        try:
            ready = prepare(spark)
        except BaseException:
            shutdown(spark)
            raise
        times.append(time.perf_counter() - t0)
    return times, spark, ready


def replay(pdf, workload, tracer=None):
    """The same groups through ``run_system`` in this process, single-threaded.
    Returns (seconds, summed Metrics, peak engine state of each group in bytes)."""
    m = Metrics()
    peaks = []
    t0 = time.perf_counter()
    with tracer.span("replay") if tracer else contextlib.nullcontext():
        for _, sub in pdf.groupby("gkey", sort=True):
            events = events_mod.events_from_pandas(sub, ATTR_COLS)
            rm = engine_mod.run_system(events, workload, "hamlet").metrics
            m.absorb(rm)
            peaks.append(rm.peak_mem_bytes)
    return time.perf_counter() - t0, m, peaks


def oracle_counts(pdf, workload, window: float) -> dict:
    """COUNT(*) per (gkey, window_start, qid) from the DuckDB recursive-CTE
    oracle, for SEQ(prefix, K+) queries; windows with no trend are absent."""
    con = duckdb.connect()
    try:
        con.register("events", pdf)
        by_prefix: dict = {}
        out: dict = {}
        for q in workload:
            prefix, kleene = q.elems[0].etype, q.elems[1].etype
            if (prefix, kleene) not in by_prefix:
                sql = trend_count_sql(prefix_type=prefix, kleene_type=kleene, window=window)
                by_prefix[(prefix, kleene)] = con.execute(sql).fetchall()
            for g, ws, value in by_prefix[(prefix, kleene)]:
                out[(int(g), float(ws), q.qid)] = float(value)
        return out
    finally:
        con.close()


def check_counts(ops: dict, oracle: dict) -> list:
    """Keys whose COUNT(*) differs from the oracle, or that either side lacks."""
    bad = []
    for key in set(ops) | set(oracle):
        got = ops.get(key, {}).get("COUNT(*)")
        if got is None or not same_value(got, oracle.get(key, 0.0)):
            bad.append((key, got, oracle.get(key)))
    return bad
