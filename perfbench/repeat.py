"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30 [--workload NAME ...]
        [--trace 0|1] [--out FILE]

Runs are made one after another, never in parallel, from the root of the
checkout.  For every workload and metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), the spread (quartile
distance over the median) and the sample count; `--out` also writes them as
JSON, with the machine's CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    summary = {"nproc": os.cpu_count(), "seconds": args.seconds, "trace": args.trace,
               "seeds": args.seeds, "workloads": {}}
    status = 0
    for name in names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        if not runs:
            continue
        metrics = {
            k: {"unit": m["unit"], **summarise([r["metrics"][k]["value"] for r in runs])}
            for k, m in runs[0]["metrics"].items()
        }
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for k, s in metrics.items():
            print(f"  {name:12s} {k:28s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} n {s['n']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
