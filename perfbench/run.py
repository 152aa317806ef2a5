"""paczero benchmark launcher.

    python3 perfbench/run.py --workload train_m128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each invocation measures one workload in
processes of its own, with BLAS/OpenMP pinned to one thread, and imports
paczero from the checkout's ``src``. ``--trace 0`` reports the end-to-end
metrics: ``setup_s`` is the median over several fresh processes of the time
from process start to the first timed op. ``--trace 1`` reports the
per-layer metrics. A detail line precedes the result; the result is the
last line of standard output. The exit code is nonzero when an output was
wrong or a process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"
WORK_ROOT = ROOT / ".bench_work"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Set-up runs per invocation, the main run included; set-up of audit_m128
# trains a transcript, so it repeats fewer times.
SETUP_REPEATS = {"train_m128": 11, "attack_m8": 11, "audit_m128": 3}
DEADLINE_S = 170.0



class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker process; its spawn time and its last output line."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(spawned: float, out: dict) -> float:
    """Set-up time of one worker, less its first speed probe, scaled to the
    nominal machine speed."""
    return (out["ready_monotonic"] - spawned - out["setup_probe_s"]) * out["speed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn a termination request into an exception, so that the running
    # worker is killed and waited for and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "paczero" / "__init__.py").is_file():
        print(f"no paczero sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for n in range(SETUP_REPEATS[args.workload] - 1):
                setup_dir = work / f"setup{n}"
                setup_dir.mkdir()
                spawned, out = _worker(
                    common + ["--phase", "setup", "--work-dir", str(setup_dir)], env, deadline
                )
                setups.append(_setup_s(spawned, out))
        spawned, run = _worker(
            common + ["--phase", "run", "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--work-dir", str(work)],
            env, deadline,
        )
        setups.append(_setup_s(spawned, run))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(run.get("problems", []))
    pins = json.loads(PINS.read_text())[args.workload]
    if run["reference"] != pins:
        problems.append(f"reference op gave {run['reference']}, pinned {pins}")
    if run["failed"]:
        problems.append(f"{run['failed']} of {run['attempted']} ops failed")

    values = dict(run["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    detail = {k: v for k, v in run.items()
              if k not in ("metrics", "ready_monotonic", "setup_probe_s", "speed")}
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  thread_pins=THREAD_PINS, setup_s=setups, problems=problems)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
