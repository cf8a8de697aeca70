#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

Each seed runs every workload of BENCHMARK.json once, untraced, each run in
a fresh process, interleaving workloads so that host drift spreads over all
of them; then one traced run per workload at the default seed, 0.  For every
end-to-end metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (environment record, result line)."""
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    env = None
    for seed in parse_seeds(args.seeds):
        for w in names:
            env, res = run_once(config, w, seed, 0)
            res["seed"] = seed
            runs[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                file=sys.stderr, flush=True)

    env = {k: v for k, v in env.items() if k not in ("workload", "seed")}
    report = {"environment": env, "run_seconds": config["run_seconds"], "workloads": {}}
    for w in names:
        rs = runs[w]
        report["workloads"][w] = {
            "runs": len(rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "all_correct": all(r["correct"] for r in rs),
            "end_to_end": {
                m: dict(summarize([r["metrics"][m]["value"] for r in rs], bounds.get(m)),
                        unit=rs[0]["metrics"][m]["unit"])
                for m in rs[0]["metrics"]
            },
        }
        _, traced = run_once(config, w, DEFAULT_SEED, 1)
        report["workloads"][w]["per_layer"] = {
            "seed": DEFAULT_SEED,
            "correct": traced["correct"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
