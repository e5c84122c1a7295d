"""Byte-for-byte CLI output of `gb`, `fedder`, `weight`, `initial`, `betti`
and `plucker`.

The expected stdout and exit codes in ``cli_frozen.json`` were captured
from the tuple-monomial implementation; the packed-integer port must print
the same bytes.  The ``diamond`` entries were captured before the Fedder
witness was written down from its closed form, which must not change them
either, and the two ``fedder`` text entries before ``cmd_fedder`` printed
through ``_emit``.  The ``weight`` and ``initial`` entries were captured
before the test-only helpers left the edge-ideal layer, and the ``betti``
entries while F_2 ranks still came from a separate bitset elimination and
QQ ranks were copied from them where F_2 homology sat in one degree.
``python tests/test_cli_frozen.py`` rewrites the file from the current
code, which is only right when an output change is intended.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "cli_frozen.json"

GRAPHS = {
    "p3": (3, [(1, 2), (2, 3)]),
    "p132": (3, [(1, 3), (2, 3)]),  # the path 1-3-2: its basis needs a cubic
    "p4": (4, [(1, 2), (2, 3), (3, 4)]),
    "c4": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    # closed, not a path; the edges {1, 3} and {2, 4} span two witness factors
    "diamond": (4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    # each reaches elimination at one root: F_2 homology in two degrees, and in one
    "fb5": (5, [(1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]),
    "fb6": (6, [(1, 6), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)]),
}


def commands() -> list:
    out = []
    for graph in ("p3", "p132"):
        for field in ("q", "f2", "fp:3"):
            for extra in ([], ["--verify"], ["--json"], ["--verify", "--json"]):
                out.append(["gb", graph, "--field", field, *extra])
    out += [["fedder", "p4", str(p), "--json"] for p in (2, 3, 5)]
    out.append(["fedder", "c4", "2", "--force", "--json"])
    out += [["fedder", "diamond", str(p), "--json"] for p in (3, 5)]
    out += [["fedder", "p4", "3"], ["fedder", "c4", "2", "--force"]]
    out += [["weight", "p3"], ["weight", "p132", "--json"], ["initial", "p132"], ["initial", "p4", "--json"]]
    for graph in ("fb5", "fb6"):
        out += [["betti", graph, "--field", field] for field in ("q", "f2", "fp:3")]
        out.append(["betti", graph, "--json"])
    out += [["plucker", "1", "2", "3", "4", "4"], ["plucker", "1", "2", "3", "5", "5", "--field", "f2"],
            ["plucker", "2", "3", "4", "5", "6", "--field", "fp:3"]]
    return out


def run(argv, graph_dir: pathlib.Path) -> tuple:
    from beideals.cli import main

    args = [str(graph_dir / f"{a}.json") if a in GRAPHS else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def write_graphs(graph_dir: pathlib.Path) -> None:
    for name, (n, edges) in GRAPHS.items():
        (graph_dir / f"{name}.json").write_text(json.dumps({"n": n, "edges": edges}))


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: "_".join(argv).replace("--", ""))
def test_cli_bytes_unchanged(argv, tmp_path):
    write_graphs(tmp_path)
    want = json.loads(EXPECTED.read_text())[" ".join(argv)]
    code, stdout = run(argv, tmp_path)
    assert code == want["exit"]
    assert stdout == want["stdout"]


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        write_graphs(pathlib.Path(tmp))
        table = {}
        for argv in commands():
            code, stdout = run(argv, pathlib.Path(tmp))
            table[" ".join(argv)] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
