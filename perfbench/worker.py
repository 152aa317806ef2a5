"""One benchmark process: set up a workload, then time its ops.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
thread pins in the environment; prints one JSON object as its last line.

``--phase setup`` stops once set-up is done. ``--phase run --trace 0`` runs
untraced ops until ``--seconds`` have passed. ``--phase run --trace 1``
runs a fixed number of op pairs, each op once untraced and once traced, so
that per-layer totals cover the same work on every commit and the pair
gives the tracing overhead. Both then repeat the pinned reference op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import stats
import tracing
import workloads


# speed_probe() on the reference box (2 vCPUs, Python 3.11, numpy 2.4) while
# nothing else runs; op times are scaled to that speed.
PROBE_NOMINAL_S = 0.0085
_PROBE_DATA = np.random.default_rng(12345).standard_normal((16, 64))


def speed_probe() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter
    work that does not touch paczero: how fast the machine runs right now.

    The box is shared, and its speed drifts by up to a half over tens of
    seconds; raw op times follow that drift, their ratio to this probe
    mostly does not."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(1200):
        a = _PROBE_DATA[k % 16]
        acc += float(np.dot(a, np.logaddexp(a, -a))) + float(np.clip(a, -1.0, 1.0).sum())
        acc += sum(range(50)) * 1e-9
    return time.perf_counter() - start


def _time_op(workload, i: int, capture: bool):
    start = time.perf_counter()
    if capture:
        output, trained = workload.captured_op(i)
        elapsed = time.perf_counter() - start
        return elapsed, lambda: workload.check(i, output, trained)
    output = workload.op(i)
    elapsed = time.perf_counter() - start
    return elapsed, lambda: workload.check(i, output)


def _attempt(workload, i: int, capture: bool = False, tracer=None):
    """Run op i, traced if a tracer is given, then check its output outside
    the trace; (seconds, outcome), or (None, None) if it failed."""
    try:
        if tracer is None:
            elapsed, check = _time_op(workload, i, capture)
        else:
            tracer.op_id = i
            tracer.install()
            try:
                elapsed, check = _time_op(workload, i, capture)
            finally:
                tracer.uninstall()
        return elapsed, check()
    except Exception:
        print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return None, None


def run_untraced(workload, seconds: float, first_probe: float) -> dict:
    raw, scaled, rates, attempted, digests, successes = [], [], [], 0, [], []
    probes = [first_probe]
    window_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - window_start < seconds:
        elapsed, outcome = _attempt(workload, attempted)
        attempted += 1
        probes.append(speed_probe())
        if outcome is not None:
            # the machine's speed around the op: the probes before and after it
            speed = PROBE_NOMINAL_S / ((probes[-2] + probes[-1]) / 2.0)
            raw.append(elapsed)
            scaled.append(elapsed * speed)
            rates.append(outcome.steps / scaled[-1])
            digests.append(outcome.digest)
            successes.append(outcome.successes)
    failed = attempted - len(raw)
    return {
        "attempted": attempted,
        "failed": failed,
        "op_s_raw": raw,
        "op_s_scaled": scaled,
        "probes": probes,
        "op_digests": digests,
        "op_successes": successes,
        "metrics": {
            # medians, so that a few ops slowed by the machine do not move them
            "steps_per_s": statistics.median(rates) if rates else 0.0,
            "op_s_p50": statistics.median(scaled) if scaled else 0.0,
            "ok_share": 1.0 - stats.failed_share(attempted, failed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "op_s_raw_percentiles": stats.percentile_report(raw) if raw else {},
        "op_s_percentiles": stats.percentile_report(scaled) if scaled else {},
    }


def trace_pairs(workload, seconds: float) -> int:
    """Op pairs in a traced run: a function of --seconds and the workload's
    nominal op time, never of the measured speed."""
    return max(2, round(seconds / (2.0 * workload.nominal_op_s)))


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    capture = hasattr(workload, "captured_op")
    untraced_s = traced_s = 0.0
    steps = attempted = failed = 0
    mismatches = []
    for i in range(trace_pairs(workload, seconds)):
        attempted += 1
        # alternate which side goes first, so that warm-up favours neither
        outcomes = {}
        for side in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            outcomes[side] = _attempt(workload, i, capture, tracer if side == "traced" else None)
        (plain_s, plain), (traced_time, traced) = outcomes["plain"], outcomes["traced"]
        if plain is None or traced is None:
            failed += 1
            continue
        if (plain.digest, plain.successes) != (traced.digest, traced.successes):
            mismatches.append(i)
            failed += 1
            continue
        untraced_s += plain_s
        traced_s += traced_time
        steps += plain.steps
    metrics = tracer.metrics()
    problems = [f"op {i}: traced output differs from untraced" for i in mismatches]
    problems += [
        f"layer {layer} recorded no calls"
        for layer in sorted(workload.required_layers)
        if metrics[f"{layer}.calls"] == 0
    ]
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    tracer.write_spans(str(spans_path))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "untraced_steps_per_s": steps / untraced_s if untraced_s else 0.0,
        "traced_steps_per_s": steps / traced_s if traced_s else 0.0,
        "patched_sites": tracer.sites,
        "spans": len(tracer.start),
        "spans_file": str(spans_path),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    # probes on both sides of the set-up work; the launcher subtracts the
    # first one's duration from the set-up time
    probing = time.monotonic()
    before = speed_probe()
    probe_s = time.monotonic() - probing
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    ready = time.monotonic()
    probe = speed_probe()
    out: dict = {
        "ready_monotonic": ready,
        "setup_probe_s": probe_s,
        "speed": PROBE_NOMINAL_S / ((before + probe) / 2.0),
    }
    if args.phase == "run":
        if args.trace:
            spans = args.work_dir.parent / f"spans-{args.workload}.npz"
            out.update(run_traced(workload, args.seconds, spans))
        else:
            out.update(run_untraced(workload, args.seconds, probe))
        out["reference"] = workload.reference()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
