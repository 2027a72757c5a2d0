"""T12/T13 benchmark (paper Fig. 12/13): dynamic vs static sharing on the
stock stream with the diverse workload 2."""
import pytest

from repro.bench.harness import run_partitioned
from repro.core.workloads import workload2
from repro.streams import stock_stream

from bench_util import run_once


@pytest.fixture(scope="module")
def stream():
    return stock_stream(minutes=2.0, events_per_min=150, n_groups=4,
                        burst_mean=30.0, p_kleene=0.55, seed=7)


@pytest.fixture(scope="module")
def wl():
    return workload2(40, kleene_type="T", windows=(60.0, 120.0), seed=5)


@pytest.mark.parametrize("system", ["hamlet", "hamlet-static"])
def test_bench_t12_system(benchmark, stream, wl, system):
    rr = run_once(benchmark, run_partitioned, stream, wl, system)
    benchmark.extra_info["latency_ms"] = rr.latency * 1e3
    benchmark.extra_info["snapshots"] = rr.metrics.snapshots_created
    benchmark.extra_info["mem_kb"] = rr.metrics.peak_mem_bytes / 1024.0
    assert rr.results


def test_bench_t13_dynamic_creates_fewer_snapshots(benchmark, stream, wl):
    dyn, sta = run_once(
        benchmark,
        lambda: [run_partitioned(stream, wl, s) for s in ("hamlet", "hamlet-static")],
    )
    assert dyn.metrics.snapshots_created < sta.metrics.snapshots_created / 2
    assert dyn.metrics.peak_mem_bytes <= sta.metrics.peak_mem_bytes