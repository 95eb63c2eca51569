"""Run the benchmark over several seeds and summarise each metric.

usage: python3 bench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                               [--seconds S] [--json OUT]

For each workload and metric prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the distance between the quartiles as a share of the median; this is
how run-to-run stability is judged against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_before": os.getloadavg(),
        },
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [
                    sys.executable,
                    str(BENCH / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=200,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        summary = {}
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"],
                "values": values,
            }
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound} ({spread / bound:.0%} of it)"
            print(f"  {name:<40} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.1%}{mark}")
        failed = [r["failed"] for r in runs]
        attempted = [r["attempted"] for r in runs]
        print(f"  failed/attempted per run: {[f'{f}/{a}' for f, a in zip(failed, attempted)]}")
        report["workloads"][workload] = {
            "metrics": summary,
            "attempted": attempted,
            "failed": failed,
            "correct": [r["correct"] for r in runs],
        }
    report["machine"]["loadavg_after"] = os.getloadavg()
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
