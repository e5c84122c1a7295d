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
        "division_table_skips_monic",
        "groebner.py",
        "    inv = field.inv(terms[lm])\n",
        "    inv = 1\n",
        ("tests/test_groebner.py::test_interreduce_matches_tuple_reference",),
    ),
    (
        "update_keeps_divisible_elements_active",
        "groebner.py",
        "    return [g for g in active if (leads[g] - h) & guard] + [t]\n",
        "    return active + [t]\n",
        ("tests/test_groebner.py::test_interreduce_receives_a_minimal_basis",),
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
        "diagonal_stops_after_one_pass",
        "simplicial.py",
        "        if all(abs(piv[c]) == 1 or len(piv) == 1 for c, piv in pivots.items()):\n",
        "        if True:\n",
        ("tests/test_simplicial.py::test_diagonal_ranks_match_matrix_rank_over_every_field",),
    ),
    (
        "diagonal_skips_the_smith_pass",
        "simplicial.py",
        "diagonal[i], diagonal[t] = gcd(a, b), lcm(a, b)",
        "pass",
        ("tests/test_simplicial.py::test_diagonal_is_a_smith_form",),
    ),
    (
        "every_diagonal_entry_counts_over_fp",
        "betti.py",
        "for q in torsion if p and q % p == 0)",
        "for q in torsion if False)",
        ("tests/test_betti.py::test_projective_plane_needs_the_exact_fallback",
         "tests/test_betti.py::test_projective_plane_root_takes_the_elimination",
         "tests/test_simplicial.py::test_projective_plane_depends_on_the_field"),
    ),
    (
        "torsion_skips_the_degree_above",
        "betti.py",
        "        ranks[d + 1] = ranks.get(d + 1, 0) + tor\n",
        "",
        ("tests/test_betti.py::test_projective_plane_needs_the_exact_fallback",
         "tests/test_betti.py::test_projective_plane_root_takes_the_elimination",
         "tests/test_simplicial.py::test_projective_plane_depends_on_the_field"),
    ),
    (
        "torsion_keeps_unit_entries",
        "simplicial.py",
        "for d in diagonals[k + 1] if abs(d) != 1)",
        "for d in diagonals[k + 1] if d != 1)",
        ("tests/test_betti.py::test_no_open_root_with_n7_or_less_has_torsion",),
    ),
    (
        "factor_takes_unicode_digits",
        "polys.py",
        '_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|[xy][0-9]+(?:\\s*\\^\\s*[0-9]+)?)"\n',
        '_FACTOR = r"(?:\\d+(?:/\\d+)?|[xy]\\d+(?:\\s*\\^\\s*\\d+)?)"\n',
        ("tests/test_polys.py::test_parse_and_var_index_take_ascii_digits_only",),
    ),
    (
        "spread_stops_after_one_sweep",
        "betti.py",
        "        if group == before:\n            return group\n",
        "        return group\n",
        ("tests/test_betti.py::test_betti_tables_match_scan_engine",),
    ),
    (
        "level_test_skipped",
        "simplicial.py",
        "    if not critical & ~level[j]:\n",
        "    if True:\n",
        ("tests/test_betti.py::test_betti_tables_match_scan_engine",),
    ),
    (
        "renumbered_misses_the_lowest_gap",
        "betti.py",
        "reversed(range(appearing.bit_length()))",
        "reversed(range(1, appearing.bit_length()))",
        ("tests/test_betti.py::test_random_squarefree_ideals_match_scan_engine",),
    ),
    (
        "canonical_search_keeps_every_first_cell_vertex",
        "graphs.py",
        "            elif row == top:\n",
        "            else:\n",
        ("tests/test_graphs.py::test_canonical_form_against_scan_oracle",),
    ),
    (
        "classify_keeps_the_given_labeling",
        "classify.py",
        "    g = relabel(g, canon)\n",
        "",
        ("tests/test_classify.py::test_rows_do_not_depend_on_the_input_labeling",),
    ),
    (
        "constructor_keeps_coefficients_as_given",
        "polys.py",
        "            c = field.coerce(c)\n",
        "",
        ("tests/test_polys.py::test_whole_fraction_coefficients_equal_int_ones",),
    ),
    (
        "bracket_row_tail_without_frobenius",
        "edgeideals.py",
        "[(p * trail, 1)]) for",
        "[(trail, 1)]) for",
        ("tests/test_edgeideals.py::test_bracket_rows_match_the_composed_table",),
    ),
    (
        "fedder_factors_hands_out_a_list",
        "edgeideals.py",
        "    return ctx, tuple(factors)\n",
        "    return ctx, factors\n",
        ("tests/test_package.py::test_cached_values_are_shared_and_unchangeable",),
    ),
    (
        "fedder_witness_terms_in_a_plain_dict",
        "edgeideals.py",
        "Polynomial._wrap(ctx, MappingProxyType(dict.fromkeys(keys, 1)))",
        "Polynomial._wrap(ctx, dict.fromkeys(keys, 1))",
        ("tests/test_edgeideals.py::test_the_shared_witness_cannot_be_changed_in_place",
         "tests/test_package.py::test_cached_values_are_shared_and_unchangeable"),
    ),
    (
        "fedder_witness_drops_the_last_factor",
        "edgeideals.py",
        "    for terms in factors:\n",
        "    for terms in factors[:-1]:\n",
        ("tests/test_edgeideals.py::test_closed_form_witness_matches_product",),
    ),
    (
        "clique_path_skips_the_interval_test",
        "edgeideals.py",
        "closed or _interval_is_clique(masks, i, j)",
        "closed or True",
        ("tests/test_edgeideals.py::test_stepwise_memberships_match_full_product",),
    ),
    (
        "clique_false_taken_as_final",
        "edgeideals.py",
        " and _clique_membership(j - i + 1, p):\n"
        "            memberships[(i, j)] = True\n",
        ":\n"
        "            memberships[(i, j)] = _clique_membership(j - i + 1, p)\n",
        ("tests/test_edgeideals.py::test_a_false_clique_membership_falls_back_to_the_graph",),
    ),
    (
        "closedness_checks_one_side",
        "graphs.py",
        "        for side in (below, nb ^ below):\n",
        "        for side in (below,):\n",
        ("tests/test_graphs.py::test_closed_connected_labelings_have_clique_intervals",
         "tests/test_graphs.py::test_mask_graph_layer_matches_set_oracles"),
    ),
    (
        "connectivity_stops_after_one_vertex",
        "graphs.py",
        "            frontier ^= low\n",
        "            frontier = 0\n",
        ("tests/test_graphs.py::test_connectivity_and_paths",
         "tests/test_graphs.py::test_enumeration_against_edge_mask_scan"),
    ),
    (
        "main_exits_0_on_a_failed_check",
        "cli.py",
        "    return EXIT_OK if ok else EXIT_VIOLATION\n",
        "    return EXIT_OK\n",
        ("tests/test_cli.py::test_fedder_forced_cycle_fails_membership",
         "tests/test_cli.py::test_classify_flags_fpt_violations"),
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
