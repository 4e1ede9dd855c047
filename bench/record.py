"""Record a baseline: every workload over ten seeds, plus one traced run.

    python3 bench/record.py [--out bench/baseline.json]

Runs ``run.py`` as BENCHMARK.json's command does, one run at a time, on
seeds 2001-2010, and writes for each workload and end-to-end metric the
median, quartiles and spread (interquartile range over median) across
seeds, with each run's values; then the per-layer metrics of one traced
run per workload, on the first seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(2001, 2011))


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "bench", "baseline.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    report = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [run(spec, name, seed, 0) for seed in SEEDS]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": metric["bound"],
                "values": values,
            }
        traced = run(spec, name, SEEDS[0], 1)
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "host_calib_s": [r["detail"]["host.calib_s"][1] for r in runs],
            "passes": [r["detail"]["passes"] for r in runs],
            "traced": {
                "seed": SEEDS[0],
                "passes": traced["detail"]["passes"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        print("%s: %s" % (name, ", ".join(
            "%s %.4g (spread %.3f)" % (k, v["median"], v["spread"]) for k, v in end_to_end.items()
        )), file=sys.stderr)
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
