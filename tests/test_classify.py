"""Classification harness: per-graph rows, report serialization, bound checks."""

import itertools
import json
import pathlib
import random

import pytest

import beideals
from beideals import (
    CSV_COLUMNS,
    GF,
    QQ,
    Graph,
    LimitExceededError,
    RunConfig,
    betti_table,
    betti_tables,
    classify_graph,
    classify_range,
    enumerate_connected_graphs,
    fpt_squarefree,
    graph_id,
    homological_summary,
    initial_ideal_generators,
    relabel,
    rows_to_csv,
    rows_to_json,
    violations,
)
from helpers import classify_labeled, has_edge, projective_plane_generators

CLAW_ID = "4-0b"
C4_ID = "4-1e"
GOLDEN_N6 = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "classify-n6"


@pytest.fixture(scope="module")
def rows5():
    return classify_range(RunConfig(2, 5))


def test_run_config_validation():
    with pytest.raises(LimitExceededError):
        RunConfig(2, 8)
    with pytest.raises(ValueError):
        RunConfig(5, 3)
    with pytest.raises(ValueError):
        RunConfig(2, 4, jobs=0)
    # defaults are fine
    RunConfig()


def test_fpt_and_type_depend_on_the_labeling():
    def fpt_and_type(g):
        mingens = initial_ideal_generators(g)
        summary = homological_summary(betti_table(mingens, 6, QQ))
        return fpt_squarefree(mingens, 6).fpt, summary["type"]

    # the path 1-2-3, and the same path labeled 1-3-2
    assert fpt_and_type(Graph(3, [(1, 2), (2, 3)])) == (2, 1)
    assert fpt_and_type(Graph(3, [(1, 3), (2, 3)])) == (1, 2)


def test_graph_id_is_labeling_invariant():
    claw = Graph(4, [(1, 4), (2, 4), (3, 4)])
    assert graph_id(claw) == CLAW_ID
    assert graph_id(relabel(claw, (4, 1, 2, 3))) == CLAW_ID
    assert graph_id(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) == C4_ID


def test_row_counts_per_order(rows5):
    by_n = {}
    for r in rows5:
        by_n[r.n] = by_n.get(r.n, 0) + 1
    assert by_n == {2: 1, 3: 2, 4: 6, 5: 21}
    ids = [r.graph_id for r in rows5]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids, key=lambda i: (int(i.split("-")[0]), i))


def test_unique_path_row_at_n4(rows5):
    paths = [r for r in rows5 if r.n == 4 and r.is_path]
    assert len(paths) == 1
    (p4,) = paths
    assert p4.reg == 3
    assert p4.type == 1
    assert p4.pd == 3
    assert p4.is_closed


def test_path_rows_are_complete_intersections(rows5):
    for r in rows5:
        if r.is_path:
            assert r.reg == r.n - 1
            assert r.pd == r.n - 1
            assert r.type == 1
        else:
            assert r.reg <= r.n - 2


def test_closed_rows_have_fpt_two(rows5):
    for r in rows5:
        if r.is_closed:
            assert r.fpt == 2, r.graph_id


def is_simplicial(g, v):
    """Whether the neighbours of v are pairwise adjacent."""
    nbrs = [u for u in range(1, g.n + 1) if has_edge(g, u, v)]
    return all(has_edge(g, a, b) for a, b in itertools.combinations(nbrs, 2))


def test_fpt_two_with_x_n_and_y_1_absent_exactly_when_the_ends_are_simplicial():
    # README's rule, on every class with n <= 7 under classify's labeling
    # and on every class with n <= 6 under two seeded relabelings
    rng = random.Random(26)
    checked = held = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            labelings = [classify_labeled(g)]
            for _ in range(2 if n <= 6 else 0):
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                labelings.append(relabel(g, sigma))
            for k, h in enumerate(labelings):
                report = fpt_squarefree(initial_ideal_generators(h), 2 * n)
                claim = report.fpt == 2 and set(report.absent) == {n - 1, n}  # x_n, y_1
                assert claim == (is_simplicial(h, 1) and is_simplicial(h, n)), (h.edges, report)
                checked += 1
                held += claim and k == 0
    assert checked == 3 * 143 + 853
    assert held == 996 - 876  # the classes that criterion 4's claim does not miss


def test_fpt_bound_violations_are_flagged(rows5):
    # Not every class satisfies fpt = 2: the first failures appear at n = 4
    # (star with center 4 has fpt 1, the 4-cycle has fpt 0).  The harness
    # must record them rather than hide them.
    bad = {r.graph_id: r for r in violations(rows5)}
    assert CLAW_ID in bad and C4_ID in bad
    assert bad[CLAW_ID].fpt == 1
    assert bad[C4_ID].fpt == 0
    for r in bad.values():
        assert not r.is_closed
        failed = {k for k, ok in r.bound_checks.items() if not ok}
        assert failed == {"fpt_eq_2"}
    # every other check holds everywhere at this scale
    for r in rows5:
        assert r.bound_checks["reg_le_n_minus_1"]
        assert r.bound_checks["nonpath_reg_le_n_minus_2"]
        assert r.bound_checks["dim_ge_n_plus_1"]
        assert r.betti_fields_agree


def test_fields_agree_exactly_without_2_torsion(classification_rows):
    # the report's QQ-against-F_2 column reads "no 2-torsion" off the tables
    rows = {r.graph_id: r for r in classification_rows}
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            tables = betti_tables(initial_ideal_generators(classify_labeled(g)), 2 * n, [QQ, GF(2)])
            assert rows.pop(graph_id(g)).betti_fields_agree == (2 not in tables.torsion_primes)
    assert not rows
    tq, t2 = tables = betti_tables(projective_plane_generators(), 6, [QQ, GF(2)])
    assert tq.entries != t2.entries and 2 in tables.torsion_primes


def test_violation_counts(rows5):
    assert sum(1 for r in rows5 if r.n == 4 and not r.bounds_ok) == 2
    assert sum(1 for r in rows5 if r.n == 5 and not r.bounds_ok) == 11


def test_dimension_column(rows5):
    for r in rows5:
        assert r.dim >= r.n + 1
        if r.is_path:
            assert r.dim == r.n + 1


def test_classify_graph_matches_range_row(rows5):
    row = classify_graph(Graph(3, [(1, 2), (2, 3)]))
    assert row == next(r for r in rows5 if r.graph_id == "3-3")


def test_rows_do_not_depend_on_the_input_labeling(classification_rows):
    # classify_graph labels the class itself, so a relabeled class gives
    # the same row, id included
    rows = {r.graph_id: r for r in classification_rows}
    rng = random.Random(1)
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            row = rows[graph_id(g)]
            for _ in range(3):
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                assert classify_graph(relabel(g, sigma)) == row, (g.edges, sigma)


def test_classify_graph_runs_one_canonical_search(monkeypatch):
    # the search that labels the class also gives the id
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    calls = []
    search = beideals.graphs._canonical_search

    def counting(adj):
        calls.append(adj)
        return search(adj)

    monkeypatch.setattr(beideals.graphs, "_canonical_search", counting)
    for g in graphs:
        classify_graph(relabel(g, range(g.n, 0, -1)))
    assert len(calls) == len(graphs)


def test_classify_graph_reads_the_path_search_masks(monkeypatch, rows5):
    # the rows come from the path search's support masks, with no exponent
    # tuples built and no masks read back off them
    def refuse(*args):
        raise AssertionError("classify_graph went through exponent tuples")

    for module in (beideals.simplicial, beideals.betti, beideals.edgeideals, beideals.classify):
        for name in ("support_masks", "initial_ideal_generators"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    graphs = [g for n in range(2, 6) for g in beideals.enumerate_connected_graphs(n)]
    assert sorted(map(classify_graph, graphs), key=lambda r: (r.n, r.graph_id)) == rows5


def test_csv_shape(rows5):
    text = rows_to_csv(rows5)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rows5) + 1
    first = lines[1].split(",")
    assert first == ["2-1", "2", "1", "true", "true", "1", "2", "3", "1", "1", "true", "true"]
    assert "True" not in text  # booleans serialize lowercase


def test_json_round_trip(rows5):
    cfg = RunConfig(2, 5)
    payload = json.loads(rows_to_json(rows5, cfg))
    assert payload["n_min"] == 2 and payload["n_max"] == 5
    assert payload["count"] == len(rows5) == len(payload["rows"])
    claw = next(d for d in payload["rows"] if d["id"] == CLAW_ID)
    assert claw["bounds_ok"] is False
    assert claw["bound_checks"]["fpt_eq_2"] is False
    assert claw["fpt"] == 1


def test_parallel_run_is_deterministic():
    cfg1 = RunConfig(2, 4, jobs=1)
    cfg2 = RunConfig(2, 4, jobs=2)
    rows1 = classify_range(cfg1)
    rows2 = classify_range(cfg2)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert rows_to_json(rows1, cfg1) == rows_to_json(rows2, cfg1)


def test_jobs_start_at_most_one_worker_per_cpu_and_class(monkeypatch, rows5):
    sizes = []
    handed_out = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=None):
            handed_out.append((chunksize, [(-len(g.edges), g.n) for g in items]))
            return [func(x) for x in items]

    monkeypatch.setattr("multiprocessing.Pool", InProcessPool)
    monkeypatch.setattr("beideals.classify.os.cpu_count", lambda: 4)
    assert classify_range(RunConfig(2, 5, jobs=100_000)) == rows5
    assert classify_range(RunConfig(2, 3, jobs=100_000)) == rows5[:3]  # 3 classes
    assert sizes == [4, 3]
    # one class per task, densest first
    assert [chunksize for chunksize, _ in handed_out] == [1, 1]
    assert all(keys == sorted(keys) for _, keys in handed_out)
    assert handed_out[0][1][0] == (-10, 5)  # K_5
    assert classify_range(RunConfig(2, 2, jobs=8)) == rows5[:1]  # one class: no pool
    monkeypatch.setattr("beideals.classify.os.cpu_count", lambda: None)
    assert classify_range(RunConfig(2, 5, jobs=8)) == rows5  # CPU count unknown: no pool
    assert sizes == [4, 3]


def test_reports_match_the_golden_bytes(classification_rows):
    # the classify --n-max 6 report files, byte for byte, as the benchmark
    # checks them; read only
    rows = [r for r in classification_rows if r.n >= 2]
    assert rows_to_csv(rows).encode() == (GOLDEN_N6 / "report.csv").read_bytes()
    assert rows_to_json(rows, RunConfig(2, 6)).encode() == (GOLDEN_N6 / "report.json").read_bytes()
