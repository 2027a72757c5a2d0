"""T11 benchmark (paper Fig. 11): Hamlet vs GRETA on the NYC-taxi-like
stream at a load where the quadratic/linear separation is visible."""
import pytest

from repro.bench.harness import run_partitioned
from repro.core.workloads import workload1
from repro.streams import nyc_taxi_stream

from bench_util import run_once


@pytest.fixture(scope="module")
def stream():
    return nyc_taxi_stream(minutes=4.0, events_per_min=150)


@pytest.fixture(scope="module")
def wl():
    return workload1(25, kleene_type="T", prefixes=("R", "P", "D", "C"),
                     window=120.0, slide=120.0)


@pytest.mark.parametrize("system", ["hamlet", "greta"])
def test_bench_t11_system(benchmark, stream, wl, system):
    rr = run_once(benchmark, run_partitioned, stream, wl, system)
    benchmark.extra_info["latency_ms"] = rr.latency * 1e3
    benchmark.extra_info["throughput_eps"] = rr.throughput
    assert rr.results


def test_bench_t11_gap(benchmark, stream, wl):
    """The reproduction's headline shape: Hamlet at least an order of
    magnitude faster than GRETA at this load."""
    h, g = run_once(
        benchmark, lambda: [run_partitioned(stream, wl, s) for s in ("hamlet", "greta")]
    )
    assert g.latency > 5 * h.latency