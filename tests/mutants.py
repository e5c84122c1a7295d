"""Mutation harness: each mutant breaks one fast path or check in ``src/``
and names the tests that must catch it.

    python tests/mutants.py

For each mutant the runner copies ``src/`` to a temporary directory,
replaces the mutant's old text, which must occur there exactly once, by
its new text, and runs only the mutant's tests against the copy, with
``-x``.  It prints one JSON object, the outcome of each mutant and a
summary line, and exits 1 unless every mutant is killed.  A mutant whose
old text is gone from ``src/`` is ``stale``: update it, or delete it with
the code it targeted.

Standard library only; pytest does not collect this file, and
``tests/test_package.py`` checks only that each old text occurs once.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beideals"

# (name, file in src/beideals, old text, new text, test node ids that kill it)
MUTANTS = (
    (
        "interreduce_keeps_every_row",
        "groebner.py",
        "        if all((lm - d) & guard for d, _ in minimal):\n",
        "        if True:\n",
        ("tests/test_groebner.py::test_interreduce_matches_tuple_reference",),
    ),
    (
        "division_table_skips_monic",
        "groebner.py",
        "        b = b.monic()\n",
        "",
        ("tests/test_groebner.py::test_interreduce_matches_tuple_reference",),
    ),
    (
        "normal_form_skips_ring_check",
        "groebner.py",
        '        if b.ctx != ctx:\n            raise ValueError("divisor from a different ring")\n',
        "",
        ("tests/test_groebner.py::test_normal_form_refuses_divisors_from_another_ring",),
    ),
    (
        "subset_sets_ignores_blocked",
        "betti.py",
        "            apexes[bit.bit_length() - 1] |= has[u] & ~blocked\n",
        "            apexes[bit.bit_length() - 1] |= has[u]\n",
        ("tests/test_betti.py::test_domination_sets_match_per_union_oracle",),
    ),
    (
        "star_quotient_keeps_the_link",
        "simplicial.py",
        "    quotient = faces & ~(has[v] | faces >> (1 << v))\n",
        "    quotient = faces & ~has[v]\n",
        ("tests/test_betti.py::test_root_ranks_match_star_quotient_homology",),
    ),
    (
        "level_test_widened",
        "simplicial.py",
        "    if not critical & ~level[j]:\n",
        "    if not critical & ~(level[j] | level[j - 1]):\n",
        ("tests/test_betti.py::test_root_ranks_match_star_quotient_homology",),
    ),
    (
        "boundary_sign_forced_positive",
        "simplicial.py",
        "                    row[t] = -1 if (f & v - 1).bit_count() & 1 else 1\n",
        "                    row[t] = 1\n",
        ("tests/test_simplicial.py::test_signed_rows_against_scan_engine_rows",),
    ),
    (
        "factor_takes_unicode_digits",
        "polys.py",
        '_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|[xy][0-9]+(?:\\s*\\^\\s*[0-9]+)?)"\n',
        '_FACTOR = r"(?:\\d+(?:/\\d+)?|[xy]\\d+(?:\\s*\\^\\s*\\d+)?)"\n',
        ("tests/test_polys.py::test_parse_and_var_index_take_ascii_digits_only",),
    ),
)


def run(mutant) -> dict:
    """Apply one mutant to a copy of ``src/`` and run its tests there."""
    name, file, old, new, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "beideals" / file
        text = target.read_text()
        if text.count(old) != 1:
            return {"name": name, "outcome": "stale"}
        target.write_text(text.replace(old, new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        start = time.perf_counter()
        # -o pythonpath puts the copy first on sys.path, ahead of the
        # pyproject's src; -p no:cacheprovider leaves no cache behind
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test failed; 0 means the mutant survived, and
    # anything else (a bad node id, an internal error) kills nothing
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return {"name": name, "outcome": outcome, "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    start = time.perf_counter()
    results = [run(m) for m in MUTANTS]
    killed = sum(r["outcome"] == "killed" for r in results)
    summary = f"{killed} of {len(results)} mutants killed in {time.perf_counter() - start:.1f} s"
    print(json.dumps({"mutants": results, "summary": summary}, indent=2))
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
