"""Layered end-to-end benchmark of the Hamlet reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload diverse --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``diverse``: ``events_from_pandas`` + ``run_system`` in-process, no Spark;
- ``spark-stream``: ``write_pane_files`` + ``run_stream``, with the batch
  operator ``run_workload_spark`` on the same input as its reference.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
splits its time between an untraced and a traced pass and reports the
per-layer metrics (``layers.py``) plus the tracing overhead. Both check
every result against reference computations and count each (group,
window, query) result that differs or is missing as a failed operation.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, fingerprint, sample counts) is written to
``.bench_out/`` under the repository root, and the spans of a traced run
next to it.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "diverse": "wl_diverse",
    "spark-stream": "wl_spark_stream",
}


class Context:
    """Run parameters and the places a run may write to."""

    def __init__(self, args):
        self.root = ROOT
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.out_dir = ROOT / ".bench_out"
        self.driver_mem = None  # set by the Spark workloads

    def stem(self) -> str:
        return f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"

    def save_trace(self, tracer) -> None:
        tracer.dump(self.out_dir / f"spans-{self.stem()}.npz")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, per_layer


def finite(value) -> float:
    """A metric with no sample (every operation failed) reads 0, so the
    result line stays valid JSON; ``correct`` is false then anyway."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def report(ctx, out, e2e_units, layer_units) -> dict:
    from layers import LAYERS

    print(f"== perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds} trace={int(ctx.trace)}")
    print("environment: " + json.dumps(out.env, sort_keys=True))
    print("fingerprint: " + json.dumps(out.fingerprint, sort_keys=True))
    rate = out.failed / out.attempted if out.attempted else 0.0
    out.extra["error_rate"] = (rate, "ratio", {"failed": out.failed, "attempted": out.attempted})
    for name, (value, unit, details) in {**out.e2e, **out.extra}.items():
        print(f"  {name:<18} {value:14.4f} {unit:<9} {json.dumps(details)}")
    if out.failures:
        print("failures (first few):")
        for f in out.failures:
            print("  - " + str(f).replace("\n", " | "))
    if ctx.trace:
        print("per-layer (per latency unit)          value  unit   layer -> predicted to move")
        for name, unit, _, layer, moves in LAYERS:
            print(f"  {name:<34} {out.layers[name]:12.4f} {unit:<6} {layer} -> {moves}")
        if set(out.layers) != set(layer_units):
            raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(out.layers) ^ set(layer_units))}")
        metrics = {n: {"value": finite(out.layers[n]), "unit": layer_units[n]} for n in layer_units}
    else:
        if set(out.e2e) != set(e2e_units):
            raise SystemExit(f"end-to-end metrics differ from BENCHMARK.json: {sorted(set(out.e2e) ^ set(e2e_units))}")
        for n, (_, unit, _) in out.e2e.items():
            if unit != e2e_units[n]:
                raise SystemExit(f"{n}: unit {unit} differs from BENCHMARK.json ({e2e_units[n]})")
        metrics = {n: {"value": finite(out.e2e[n][0]), "unit": e2e_units[n]} for n in e2e_units}
    result = {
        "correct": out.failed == 0 and out.gates_ok,
        "attempted": int(max(out.attempted, 1)),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    record = {
        "result": result,
        "e2e": {n: {"value": v, "unit": u, **d} for n, (v, u, d) in {**out.e2e, **out.extra}.items()},
        "layers": out.layers,
        "env": out.env,
        "fingerprint": out.fingerprint,
        "failures": out.failures,
    }
    (ctx.out_dir / f"run-{ctx.stem()}.json").write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from a full source checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared()
    ctx = Context(args)
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    ctx.out_dir.mkdir(exist_ok=True)
    # Spark's Python workers import repro from the source tree; temporary
    # files of Python, the JVM and Spark stay inside the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(ctx.tmp)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from common import adopt_orphans, cpu_ticks, environment, stop_children

    adopt_orphans()
    try:
        mod = importlib.import_module(WORKLOADS[args.workload])
        steal0, total0 = cpu_ticks()
        out = mod.run(ctx)
        steal1, total1 = cpu_ticks()
        out.env = environment(ROOT, args.seed, ctx.driver_mem)
        # CPU time the hypervisor gave to other guests during the run: the
        # main source of run-to-run spread on a shared host
        out.env["host_cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
        result = report(ctx, out, e2e_units, layer_units)
    finally:
        killed = stop_children()
        if killed:
            print(f"perfbench: killed leftover processes {killed}", file=sys.stderr)
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
