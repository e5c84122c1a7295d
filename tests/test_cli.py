"""End-to-end command line tests, driven in process through main(argv),
apart from three that run the CLI as a child process behind a closed pipe."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import beideals
from beideals import IdealBasis, buchberger
from beideals.cli import main


def write_graph(tmp_path, name, n, edges):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    return str(path)


@pytest.fixture
def p3(tmp_path):
    return write_graph(tmp_path, "p3.json", 3, [(1, 2), (2, 3)])


@pytest.fixture
def p4(tmp_path):
    return write_graph(tmp_path, "p4.json", 4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def c4(tmp_path):
    return write_graph(tmp_path, "c4.json", 4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_gb_path_verify(p3, capsys):
    assert main(["gb", p3, "--verify"]) == 0
    out = capsys.readouterr().out
    polys = [line.split("    ")[0] for line in out.splitlines() if "[path" in line]
    assert sorted(polys) == ["x1*y2 - x2*y1", "x2*y3 - x3*y2"]
    assert "verify: reduced basis matches Buchberger (2 elements)" in out


def test_gb_json_payload(p3, capsys):
    assert main(["gb", p3, "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert payload["verified"] is True
    assert {tuple(e["pair"]) for e in payload["elements"]} == {(1, 2), (2, 3)}


def test_gb_nonmonotone_path_has_cubic(tmp_path, capsys):
    # path labeled 1-3-2: the admissible path (1,3,2) contributes x3*f_12
    graph = write_graph(tmp_path, "p132.json", 3, [(1, 3), (2, 3)])
    assert main(["gb", graph, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "x1*x3*y2 - x2*x3*y1" in out
    assert "[path 1-3-2]" in out


def test_gb_verify_mismatch_exits_1(p3, capsys, monkeypatch):
    # an oracle that loses one element of the reduced basis
    monkeypatch.setattr("beideals.cli.buchberger", lambda basis: IdealBasis(buchberger(basis).polys[1:]))
    assert main(["gb", p3, "--verify", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verified"] is False
    assert "verify: MISMATCH against the Buchberger oracle" in captured.err
    assert "  only in path basis:  x2*y3 - x3*y2" in captured.err.splitlines()


def test_gb_over_f2(p3, capsys):
    assert main(["gb", p3, "--field", "f2", "--verify"]) == 0
    assert "matches Buchberger" in capsys.readouterr().out


def test_gb_bad_field_spec(p3, capsys):
    assert main(["gb", p3, "--field", "fp:4"]) == 2
    assert main(["gb", p3, "--field", "zz"]) == 2


def test_huge_prime_is_refused_before_trial_division(p3, monkeypatch, capsys):
    # trial division up to sqrt(2^61 - 1) runs for minutes; the size bound
    # comes first, so factoring never sees a number past it
    factors = beideals.fields._prime_factors

    def bounded(q):
        assert q <= 2**31, f"trial division of {q}"
        return factors(q)

    monkeypatch.setattr(beideals.fields, "_prime_factors", bounded)
    with pytest.raises(ValueError, match="prime too large"):
        beideals.GF(2**61 - 1)
    assert main(["gb", p3, "--field", "fp:2305843009213693951"]) == 2
    assert "prime too large" in capsys.readouterr().err


def test_initial_lists_minimal_monomials(tmp_path, capsys):
    graph = write_graph(tmp_path, "p132.json", 3, [(1, 3), (2, 3)])
    assert main(["initial", graph]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["x1*x3*y2", "x1*y3", "x2*y3"]


def test_closed_reports_given_and_found(p3, tmp_path, capsys):
    assert main(["closed", p3, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_with_given_labeling"] is True

    relabeled = write_graph(tmp_path, "p132.json", 3, [(1, 3), (2, 3)])
    assert main(["closed", relabeled, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_with_given_labeling"] is False
    assert payload["closed_labeling"] is not None


def test_closed_on_cycle_finds_nothing(c4, capsys):
    assert main(["closed", c4]) == 0
    assert "no labeling of this graph is closed" in capsys.readouterr().out


def test_fedder_path_certificate(p4, tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["fedder", p4, "2", "--out", str(out_file)]) == 0
    text = capsys.readouterr().out
    assert "witness degree 6" in text
    assert "certificate valid: yes" in text
    cert = json.loads(out_file.read_text())
    assert cert["valid"] is True
    assert cert["witness_degree"] == 6
    assert cert["p"] == 2


def test_fedder_out_into_a_missing_directory_is_bad_input(p4, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("fedder_check ran before --out was checked")

    monkeypatch.setattr("beideals.cli.fedder_check", no_run)
    out_file = tmp_path / "missing_dir" / "x.json"
    assert main(["fedder", p4, "2", "--out", str(out_file)]) == 2
    assert f"error: cannot write {out_file}" in capsys.readouterr().err
    assert not out_file.parent.exists()


def test_fedder_over_the_witness_cap_exits_3(tmp_path, capsys):
    # the witness of P_18 at p = 2 would have 2^17 terms
    p18 = write_graph(tmp_path, "p18.json", 18, [(i, i + 1) for i in range(1, 18)])
    start = time.perf_counter()
    assert main(["fedder", p18, "2"]) == 3
    assert time.perf_counter() - start < 1
    assert "capped at 65536 terms, got 2^17" in capsys.readouterr().err


def test_fedder_rejects_nonclosed_without_force(c4, capsys):
    assert main(["fedder", c4, "2"]) == 2
    assert "force" in capsys.readouterr().err


def test_fedder_forced_cycle_fails_membership(c4, capsys):
    assert main(["fedder", c4, "2", "--force", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["not_in_m_bracket"] is True
    failed = [e for e in payload["edge_memberships"] if not e["in_colon"]]
    assert failed


def run_behind_a_closed_pipe(args, closed: str) -> tuple:
    """Run the CLI as a child process with the read end of its ``closed``
    pipe, "stdout" or "stderr", closed before the child starts writing;
    its exit code and what reached the other pipe."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(beideals.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "beideals.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    getattr(proc, closed).close()
    out, err = proc.communicate(timeout=60)
    return proc.returncode, err if closed == "stdout" else out


def test_closed_pipe_keeps_the_exit_code(tmp_path):
    # the certificate JSON (167,840 bytes) outgrows the 64 KiB pipe buffer,
    # so the child meets the closed read end whenever it starts writing
    p6 = write_graph(tmp_path, "p6.json", 6, [(i, i + 1) for i in range(1, 6)])
    assert run_behind_a_closed_pipe(["fedder", p6, "5", "--json"], "stdout") == (0, b"")


def test_closed_stderr_keeps_the_bad_input_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_behind_a_closed_pipe(["gb", missing], "stderr") == (2, b"")


def test_closed_stderr_keeps_the_limit_code(tmp_path):
    # in(J_{P_12}) has 22 appearing variables, over the cap of 20
    p12 = write_graph(tmp_path, "p12.json", 12, [(i, i + 1) for i in range(1, 12)])
    assert run_behind_a_closed_pipe(["betti", p12], "stderr") == (3, b"")


def test_fedder_prime_gates(tmp_path, p4, capsys):
    # the library's refusals decide: any prime runs, a non-prime is bad
    # input, and a witness past its cap is a size limit
    for p in ("5", "7"):
        assert main(["fedder", p4, p]) == 0
        assert "certificate valid: yes" in capsys.readouterr().out
    assert main(["fedder", p4, "4"]) == 2
    assert "must be prime" in capsys.readouterr().err
    p7 = write_graph(tmp_path, "p7.json", 7, [(k, k + 1) for k in range(1, 7)])
    assert main(["fedder", p7, "7"]) == 3  # 7^6 witness terms, over 2^16
    assert "capped at 65536 terms" in capsys.readouterr().err


def test_fpt_output(p4, capsys):
    assert main(["fpt", p4]) == 0
    out = capsys.readouterr().out
    assert "fpt = 2" in out
    assert "absent variables: x4 y1" in out


def test_betti_grid_and_summary(p3, capsys):
    assert main(["betti", p3]) == 0
    out = capsys.readouterr().out
    assert "total:  1  2  1" in out
    assert "reg = 2, pd = 2, type = 1" in out
    assert main(["betti", p3, "--field", "f2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"regularity": 2, "pd": 2, "type": 1}


def test_betti_over_the_variable_cap_exits_3(tmp_path, capsys):
    # in(J_{P_12}) has 22 appearing variables, over the cap of 20
    p12 = write_graph(tmp_path, "p12.json", 12, [(i, i + 1) for i in range(1, 12)])
    start = time.perf_counter()
    assert main(["betti", p12]) == 3
    assert time.perf_counter() - start < 1
    assert "capped at 20 appearing variables, got 22" in capsys.readouterr().err


def test_weight_output(p3, capsys):
    assert main(["weight", p3]) == 0
    out = capsys.readouterr().out
    assert "w(x) = 2 1 0" in out
    assert "w(y) = 0 0 0" in out


def test_plucker_identity_vanishes(capsys):
    assert main(["plucker", "1", "2", "3", "4", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_plucker_rejects_bad_indices(capsys):
    assert main(["plucker", "1", "2", "3", "5", "4"]) == 2


def test_plucker_ring_does_not_grow_with_n(capsys):
    # the value is computed in a ring of l vertices, not of N
    start = time.perf_counter()
    assert main(["plucker", "1", "2", "3", "4", "1000000000"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert time.perf_counter() - start < 1.0


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["gb", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gb", str(bad)]) == 2
    loops = write_graph(tmp_path, "loop.json", 2, [(1, 1)])
    assert main(["gb", loops]) == 2


def test_json_booleans_exit_2(tmp_path, capsys):
    bool_n = tmp_path / "bool_n.json"
    bool_n.write_text('{"n": true, "edges": []}')
    assert main(["betti", str(bool_n)]) == 2
    assert "wrong field types" in capsys.readouterr().err
    bool_vertex = tmp_path / "bool_vertex.json"
    bool_vertex.write_text('{"n": 3, "edges": [[true, 3]]}')
    assert main(["betti", str(bool_vertex)]) == 2
    assert "bad edge entry" in capsys.readouterr().err


def test_classify_clean_range(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["classify", "--n-min", "2", "--n-max", "3", "--out", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.json").exists()
    assert not (out_dir / "violations.json").exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["count"] == 3


def test_classify_flags_fpt_violations(tmp_path, capsys):
    # at n = 4 the star and the cycle miss fpt = 2, so the run must exit
    # nonzero and name them in a reproducer file
    out_dir = tmp_path / "run4"
    assert main(["classify", "--n-max", "4", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "bound violation on graph 4-0b" in err
    assert "bound violation on graph 4-1e" in err
    bad = json.loads((out_dir / "violations.json").read_text())
    assert {d["id"] for d in bad} == {"4-0b", "4-1e"}
    for d in bad:
        assert d["bound_checks"]["fpt_eq_2"] is False
    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 9  # header + rows for n in 2..4


def test_classify_clean_run_removes_a_stale_reproducer(tmp_path, capsys):
    # a clean run into a directory that holds an earlier run's reproducer
    # must not leave it there, naming graphs outside the new report
    out_dir = tmp_path / "run"
    assert main(["classify", "--n-max", "4", "--out", str(out_dir)]) == 1
    assert (out_dir / "violations.json").exists()
    assert main(["classify", "--n-min", "2", "--n-max", "2", "--out", str(out_dir)]) == 0
    assert not (out_dir / "violations.json").exists()
    assert json.loads((out_dir / "report.json").read_text())["count"] == 1


def test_classify_out_onto_an_existing_file_is_bad_input(tmp_path, capsys):
    out_file = tmp_path / "taken"
    out_file.write_text("kept\n")
    assert main(["classify", "--n-max", "3", "--out", str(out_file)]) == 2
    assert f"error: cannot write {out_file}" in capsys.readouterr().err
    assert out_file.read_text() == "kept\n"


def test_classify_enumeration_limit(tmp_path, capsys):
    assert main(["classify", "--n-max", "8", "--out", str(tmp_path / "x")]) == 3
    assert "enumeration limit" in capsys.readouterr().err
