"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/report.py                      # every workload, seeds 1-10
    python3 bench/report.py --workloads sweep-parrilo-small --seeds 1-5

Runs bench/run.py once per workload and seed, one process at a time, and
prints for every metric its median over the seeds, its quartiles, and the
quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json ("!" marks a spread above a third of the bound), plus the
failed share of operations.  Each run's JSON line is appended to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=BENCH / "_work" / "report.jsonl")
    args = p.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0 or k.startswith("trace.")
            ), flush=True)
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, failed_frac {failed / attempted:.4g} "
              f"({failed}/{attempted} operations)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = " !" if bound is not None and spread > bound / 3 else ""
            limit = f" bound {bound}" if bound is not None else ""
            print(f"   {name:40s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{limit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
