"""One repetition of a workload, run by run.py in a fresh interpreter.

Builds the repetition's inputs, times the workload's calls, checks the
outputs and prints one JSON line.  ``ready`` is CLOCK_MONOTONIC just before
the first timed call, so the parent can measure set-up from its spawn.
"""

from __future__ import annotations

import argparse
import gzip
import json
import pathlib
import resource
import sys
import time

import workloads as wl


def _layer_summary(tracer, wall: float) -> dict:
    self_times, top = tracer.self_times()
    return {
        "self_s": self_times,
        "counts": dict(tracer.counts),
        "unattributed_s": wall - top,
        "spans": len(tracer.spans),
        "not_wrapped": tracer.missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--per-rep", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS",
                    help="install the layer wrappers and write the spans here (gzipped JSON)")
    ap.add_argument("--corrupt", action="store_true", help="self-test: break one output")
    ap.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = ap.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    bd = wl.import_package()
    plan = wl.balanced_plan(w.population(), w.key, args.per_rep, args.reps, args.seed)
    inputs = w.setup(bd, plan[args.rep])
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    try:
        timed = w.run(bd, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.corrupt:
        w.corrupt(timed)
    attempted, failures = w.check(bd, inputs, timed)
    result = {
        "ready": ready,
        "wall_s": timed.wall_seconds,
        "item_s": timed.item_seconds,
        "attempted": attempted,
        "failures": failures,
        "maxrss_kib": maxrss_kib,
    }
    if tracer is not None:
        result["layers"] = _layer_summary(tracer, timed.wall_seconds)
        path = pathlib.Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
