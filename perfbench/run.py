"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-77k-k8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-churn-2t --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload largek-20k-k256 --seed 1 --seconds 1 --scale smoke

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  The second-to-last line
of standard output is the run record (sample counts, tail percentiles,
input generation time, deterministic outputs); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  A
failed output check prints ``correct: false`` with no metrics and exits
with status 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


def _import_program():
    """Put the benchmark and the package sources on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"perfbench: no package sources at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout"
        )
    for path in (HERE, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_inputs(workload, scale_name: str, seed: int):
    import inputs

    scale = workload.scales[scale_name]
    params = "-".join(f"{name}{scale[name]}" for name in sorted(scale))
    key = f"{workload.name}-{params}-seed{seed}"
    if workload.kind == "engine":
        return inputs.cached(key, lambda: inputs.engine_inputs(
            scale["n_vertices"], scale["batches"], seed))
    return inputs.cached(key, lambda: inputs.serve_inputs(
        scale["n_vertices"], scale["tenants"], scale["rounds"],
        scale["fanout"], seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    _import_program()
    import layers
    import workloads
    from repro.utils.errors import ReproError

    spec = json.loads(SPEC.read_text())
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {sorted(workloads.WORKLOADS)})")

    data, generation_s = load_inputs(workload, args.scale, args.seed)
    scratch_root = ROOT / ".bench_cache"
    scratch_root.mkdir(exist_ok=True)
    attempted = failed = 0
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            plain, probed = workloads.run_episodes(
                workload, args.scale, data, args.seconds, bool(args.trace),
                Path(scratch))
        attempted = sum(e.attempted for e in plain + probed)
        failed = sum(e.failed for e in plain + probed)
        workloads.check(failed == 0, f"{failed} operations failed")
    except (workloads.CheckFailed, ReproError):
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    values, samples = workloads.end_to_end(workload, plain)
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace:
        values = workloads.per_layer(plain, probed)
        values["obs.span_off_ns"] = layers.span_off_ns()
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "parameters": workload.scales[args.scale],
        "episodes": len(plain),
        "traced_episodes": len(probed),
        "samples": samples,
        "input_generation_s": generation_s,
        "outputs": plain[0].outputs,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    status = main()
    print(f"perfbench: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(status)
