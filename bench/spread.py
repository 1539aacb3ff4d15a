"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads shift_flagship even20_localfair \
        --seeds 0 1 2 3 4 5 6 7 8 9

Runs are made one at a time, one process each, with the end-to-end
metrics (``--trace 0``) and BENCHMARK.json's ``run_seconds``. For every
workload and metric it prints the median of the runs, the distance
between their first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, and the bound from BENCHMARK.json. Each
run's JSON line is appended to ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", default=".bench_runs/spread.jsonl")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            began = time.perf_counter()
            proc = subprocess.run(
                config["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, wall_s=wall)
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
            runs.append(result)
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, wall "
              f"{min(r['wall_s'] for r in runs):.0f}..{max(r['wall_s'] for r in runs):.0f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:32s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
