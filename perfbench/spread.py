"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads train_m128 attack_m8 --seeds 10

Runs ``run.py`` once per seed and workload, one after another, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each end-to-end
metric its median and its quartile spread (the distance between the first
and third quartile as a share of the median) next to the metric's bound.
Every run must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            spread = quartile_spread(vals)
            print(
                f"{workload:12s} {metric['name']:12s} median {statistics.median(vals):10.4f} "
                f"spread {spread:.4f} bound {metric['bound']}"
                + ("" if spread <= metric["bound"] / 3 else "  (above a third of the bound)")
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
