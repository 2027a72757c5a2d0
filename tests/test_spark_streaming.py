"""Structured Streaming stateful operator: one pane per micro-batch,
live Hamlet engine state across batches, dynamic sharing per burst —
output must equal the batch engine's, also across a query restart."""
import glob
import json
import os
import shutil

import pandas as pd
import pytest

from repro.core.workloads import workload1
from repro.sparkrt.batch import run_workload_spark
from repro.sparkrt.streaming import SHUFFLE_PARTITIONS, run_stream, write_pane_files
from repro.streams import ridesharing_stream, to_spark

WINDOW = 20.0
PANE = 10.0
KEY = ["gkey", "window_start", "qid", "agg"]


@pytest.fixture(scope="module")
def stream_pdf():
    return ridesharing_stream(
        minutes=1.0, events_per_min=180, n_groups=3, burst_mean=3.0,
        p_kleene=0.3, burst_cap=6, seed=23,
    )


@pytest.fixture(scope="module")
def workload():
    return workload1(3, kleene_type="T", window=WINDOW, slide=WINDOW)


@pytest.fixture(scope="module")
def batch(spark, stream_pdf, workload):
    return run_workload_spark(
        spark, to_spark(spark, stream_pdf), workload, system="hamlet"
    ).toPandas()


def recorded_partitions(ckpt):
    """{batch id: shuffle partitions} from a checkpoint's offset log."""
    out = {}
    for path in glob.glob(os.path.join(ckpt, "offsets", "*")):
        with open(path) as f:
            meta = json.loads(f.read().splitlines()[1])
        out[int(os.path.basename(path))] = int(meta["conf"][SHUFFLE_PARTITIONS])
    return out


def assert_same_rows(got, want):
    got = got.sort_values(KEY).reset_index(drop=True)
    want = want.sort_values(KEY).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[KEY + ["value"]], want[KEY + ["value"]], check_dtype=False
    )


@pytest.fixture(scope="module")
def streamed(spark, stream_pdf, workload, tmp_path_factory):
    base = tmp_path_factory.mktemp("stream")
    in_dir, ckpt = str(base / "in"), str(base / "ckpt")
    n_files = write_pane_files(stream_pdf, PANE, in_dir, WINDOW)
    assert n_files >= 3  # several micro-batches, not one big batch
    conf = spark.conf.get(SHUFFLE_PARTITIONS)
    out = run_stream(
        spark, in_dir, workload, system="hamlet", window=WINDOW, checkpoint_dir=ckpt
    )
    # at most one state partition per core, and the caller's session untouched
    assert spark.conf.get(SHUFFLE_PARTITIONS) == conf
    assert recorded_partitions(ckpt)[0] == min(
        int(conf), spark.sparkContext.defaultParallelism
    )
    return out


def test_streaming_equals_batch(streamed, batch):
    assert_same_rows(streamed, batch)


def test_streaming_emits_all_windows(streamed, stream_pdf):
    t_max = stream_pdf["time"].max()
    expected_windows = {w * WINDOW for w in range(int(t_max // WINDOW) + 1)}
    got_windows = set(streamed["window_start"].unique())
    # every window that contains events must have been closed by the flush
    assert got_windows <= expected_windows and len(got_windows) >= 2


def test_streaming_rejects_mixed_windows(spark, tmp_path):
    from repro.core.queries import Atom, Kleene, Query, seq
    from repro.sparkrt.streaming import make_stateful_func

    wl = [
        Query(qid="a", elems=seq(Atom("R"), Kleene("T")), window=20.0, slide=20.0),
        Query(qid="b", elems=seq(Atom("P"), Kleene("T")), window=40.0, slide=40.0),
    ]
    with pytest.raises(ValueError):
        make_stateful_func(wl, "hamlet", 20.0)


def test_restart_keeps_state_and_partitions(spark, stream_pdf, workload, batch, tmp_path):
    """A query restarted on its checkpoint resumes the groups' open windows
    and keeps the partition count of its first start."""
    staged, in_dir, ckpt = (str(tmp_path / d) for d in ("staged", "in", "ckpt"))
    write_pane_files(stream_pdf, PANE, staged, WINDOW)
    files = sorted(os.listdir(staged))
    os.makedirs(in_dir)

    def arrive(names):  # mtimes kept: the source reads files oldest first
        for name in names:
            shutil.copy2(os.path.join(staged, name), in_dir)

    def run():
        return run_stream(
            spark, in_dir, workload, system="hamlet", window=WINDOW, checkpoint_dir=ckpt
        )

    arrive(files[:3])
    first = run()
    n = recorded_partitions(ckpt)[0]
    conf = spark.conf.get(SHUFFLE_PARTITIONS)
    # fewer partitions than the checkpoint's, were they not fixed by it
    spark.conf.set(SHUFFLE_PARTITIONS, max(1, n // 2))
    try:
        arrive(files[3:])
        second = run()
    finally:
        spark.conf.set(SHUFFLE_PARTITIONS, conf)
    assert_same_rows(pd.concat([first, second], ignore_index=True), batch)
    assert recorded_partitions(ckpt) == {b: n for b in range(len(files))}
