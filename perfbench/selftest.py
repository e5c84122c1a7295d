"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload it makes a tiny smoke run, untraced and traced, and a
smoke run with one output corrupted (a flipped report byte, a changed graph
id, a dropped basis element, a broken certificate).  The clean runs must
pass with failed = 0 and print exactly the metrics BENCHMARK.json lists;
the corrupted runs must count the failure and exit nonzero.  Last, run.py
must refuse to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's files.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads as wl


def _run(args: list, cwd=wl.ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "25", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            code, result, err = _run(["--workload", name, "--smoke", "--trace", str(trace)])
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: clean run failed (exit {code}): {err}")
                continue
            if list(result["metrics"]) != want[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                parts = sum(v for k, v in m.items()
                            if k.endswith("_s") and not k.startswith("trace.")
                            and not k.endswith(".self_s"))
                if abs(parts + m["harness.self_s"] - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
                    problems.append(f"{name}: self times do not add up to the traced wall time")
        code, result, _ = _run(["--workload", name, "--smoke", "--corrupt"])
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: corrupted output ({wl.WORKLOADS[name].corruption}) "
                            f"was not counted (exit {code}, result {result})")

    bare = wl.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(wl.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _run(["--workload", "classify-n6"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without src/ the run exited {code} and printed {result}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
