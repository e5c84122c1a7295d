"""Benchmark for beideals.  Run from the repository root:

    python3 perfbench/run.py --workload classify-n6 --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (perfbench/worker.py), because
the package caches graph enumeration, permutation tables and prime fields
with lru_cache; a warm repeat would time those as free.  Repetitions run one
after another, never concurrently.  The number of repetitions follows from
--seconds and is fixed for a given --seconds, so two commits measured with
the same settings process the same inputs.  The timings pool every
repetition: wall_s is the sum of the timed phases, the item percentiles are
taken over all items.

--trace 0 prints the end-to-end metrics.  --trace 1 runs repetition 0 once
untraced and once with the layer wrappers of tracer.py installed, prints the
per-layer metrics, and writes the spans to .bench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads as wl

DEADLINE_S = 170.0
SMOKE_PER_REP = 3
MIN_REPS = 3
REP_SECONDS = 4.2  # nominal length of one repetition, set-up included
SETUP_SAMPLES = 8  # set-up time is the median over this many interpreters

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    """A repetition could not produce a result."""


def _spawn(args: argparse.Namespace, reps: int, per_rep: int, rep: int, trace: bool,
           deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(wl.HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--per-rep", str(per_rep), "--reps", str(reps), "--rep", str(rep),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        spans = wl.ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
        cmd += ["--trace", str(spans)]
    if args.corrupt:
        cmd.append("--corrupt")
    # A fixed hash seed keeps set and dict iteration orders, and so the work
    # done, the same in every repetition.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=wl.ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"repetition {rep} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"repetition {rep} exited {proc.returncode}:\n{err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _quantile(values: list, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(results: list, setups: list) -> dict:
    items_ms = [s * 1000.0 for r in results for s in r["item_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(r["wall_s"] for r in results),
        "item_ms_p50": statistics.median(items_ms),
        "item_ms_p90": _quantile(items_ms, 90),
        "peak_rss_mib": statistics.median(r["maxrss_kib"] / 1024.0 for r in results),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"one repetition of {SMOKE_PER_REP} items, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: break one output in every repetition")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (wl.SRC / "beideals" / "__init__.py").is_file():
        print(f"error: no beideals package under {wl.SRC}", file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        reps, per_rep = 1, SMOKE_PER_REP
    else:
        reps, per_rep = max(MIN_REPS, round(args.seconds / REP_SECONDS)), w.per_rep
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            untraced = _spawn(args, reps, per_rep, 0, False, deadline)
            traced = _spawn(args, reps, per_rep, 0, True, deadline)
            results = [untraced, traced]
            for binding in traced["layers"]["not_wrapped"]:
                print(f"note: beideals.{binding} no longer exists; its metrics read 0",
                      file=sys.stderr)
            metrics = tracer.per_layer_metrics(traced["layers"], traced["wall_s"],
                                               untraced["wall_s"])
        else:
            results = [_spawn(args, reps, per_rep, r, False, deadline) for r in range(reps)]
            setups = [r["setup_s"] for r in results] + [
                _spawn(args, reps, per_rep, r % reps, False, deadline, setup_only=True)["setup_s"]
                for r in range(len(results), SETUP_SAMPLES)
            ]
            metrics = end_to_end(results, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} repetitions={len(results)} "
          f"items={sum(len(r['item_s']) for r in results)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':40s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} outputs)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
