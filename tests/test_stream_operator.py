"""The Structured Streaming stateful function, driven in-process: pane
files as micro-batches and a stand-in for Spark's GroupState. Its rows
must equal the whole-stream engine's, and late events are dropped."""
import glob
import pickle

import pandas as pd
import pytest

from repro.core.engine import run_system
from repro.core.events import events_from_pandas
from repro.core.queries import Atom, Kleene, Query, seq
from repro.core.workloads import workload1
from repro.sparkrt.batch import result_frame
from repro.sparkrt.streaming import FLUSH_TYPE, make_stateful_func, write_pane_files
from repro.streams import ATTR_COLS, ridesharing_stream

WINDOW = 20.0
KEY = ["gkey", "window_start", "qid", "agg"]


class FakeGroupState:
    """The part of ``pyspark.sql.streaming.state.GroupState`` the function uses."""

    def __init__(self):
        self.row = None

    @property
    def exists(self):
        return self.row is not None

    @property
    def get(self):
        return self.row

    def update(self, row):
        self.row = row


def drive(func, batches):
    """Run micro-batches (frames) through ``func``; returns rows and states."""
    states, out = {}, []
    for batch in batches:
        for gkey, sub in batch.groupby("gkey", sort=True):
            state = states.setdefault(gkey, FakeGroupState())
            # a group's rows may arrive as several Arrow batches
            parts = [sub.iloc[: len(sub) // 2], sub.iloc[len(sub) // 2 :]]
            out.extend(f for f in func((gkey,), iter(parts), state) if len(f))
    return pd.concat(out, ignore_index=True).sort_values(KEY).reset_index(drop=True), states


def engine_rows(pdf, workload, system):
    frames = [
        result_frame(int(gkey), run_system(events_from_pandas(sub, ATTR_COLS), workload, system))
        for gkey, sub in pdf.groupby("gkey", sort=True)
    ]
    return pd.concat(frames, ignore_index=True).sort_values(KEY).reset_index(drop=True)


@pytest.mark.parametrize("system", ["hamlet", "hamlet-static", "hamlet-nonshared", "greta"])
def test_stateful_func_over_panes_equals_run_system(tmp_path, system):
    pdf = ridesharing_stream(
        minutes=2.0, events_per_min=180, n_groups=3, burst_mean=3.0,
        p_kleene=0.3, burst_cap=6, seed=29,
    )
    wl = workload1(4, kleene_type="T", window=WINDOW, slide=WINDOW)
    n_files = write_pane_files(pdf, 5.0, str(tmp_path), WINDOW)
    batches = [
        pd.read_json(path, lines=True, convert_dates=False)
        for path in sorted(glob.glob(str(tmp_path / "*.json")))
    ]
    assert len(batches) == n_files >= 20
    got, states = drive(make_stateful_func(wl, system, WINDOW), batches)
    events = pd.concat(batches[:-1], ignore_index=True)
    pd.testing.assert_frame_equal(got, engine_rows(events, wl, system), check_exact=True)
    # after the flush sentinel every window is closed: the state keeps
    # only the (empty) open windows and the close boundary
    t_flush = batches[-1]["time"].max()
    for state in states.values():
        assert pickle.loads(state.get[0]) == ({}, t_flush)


def _frame(rows):
    return pd.DataFrame(
        [(t, et, 1, 0.0, 0.0) for t, et in rows], columns=["time", "etype", "gkey", *ATTR_COLS]
    )


def test_late_event_of_closed_empty_window_is_dropped():
    """Window [0, 20) never saw an event before the group's event time
    passed 20; its late events are dropped, not emitted as a new window."""
    wl = [Query(qid="a", elems=seq(Atom("A"), Kleene("B")), window=WINDOW, slide=WINDOW)]
    on_time = [(41.0, "A"), (42.0, "B"), (45.0, "B")]
    flush = [(100.0, FLUSH_TYPE)]
    batches = [_frame(on_time[:2]), _frame([(5.0, "A"), (6.0, "B"), on_time[2]]), _frame(flush)]
    got, _ = drive(make_stateful_func(wl, "hamlet", WINDOW), batches)
    assert set(got["window_start"]) == {40.0}
    pd.testing.assert_frame_equal(got, engine_rows(_frame(on_time), wl, "hamlet"), check_exact=True)
    # the same events in time order do fill window 0
    in_order = [_frame([(5.0, "A"), (6.0, "B")] + on_time), _frame(flush)]
    got, _ = drive(make_stateful_func(wl, "hamlet", WINDOW), in_order)
    assert set(got["window_start"]) == {0.0, 40.0}
