"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the repository root::

    python3 bench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 139 \
        --out bench/trajectory/BENCH_x.json

For every workload of ``BENCHMARK.json`` it runs ``bench/run.py`` once per
seed with ``--trace 0`` for the declared ``run_seconds`` and reports, per
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``. With ``--trace-seed`` it
adds one ``--trace 1`` run per workload. Runs happen one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "trace": trace, "run_s": time.perf_counter() - start,
            "details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        stats = {}
        for name, bound in bounds.items():
            stats[name] = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats[name]["bound"] = bound
            print(f"{workload:10s} {name:12s} median {stats[name]['median']:.6g}  "
                  f"spread {stats[name]['spread']:.4f}  bound/3 {bound / 3:.4f}", flush=True)
        entry = {"end_to_end": stats, "runs": runs,
                 "longest_run_s": max(r["run_s"] for r in runs)}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, 1)
        summary["workloads"][workload] = entry
        summary["environment"] = runs[0]["details"]["environment"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
