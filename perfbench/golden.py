"""Regenerate the golden outputs the benchmark checks against.

Run from the repository root:  python3 perfbench/golden.py

The files under perfbench/golden/ were written by this script at the commit
named in golden/manifest.json.  Rerun it only when a change to the package
alters an output on purpose, and say so in CHANGES.md.  Takes a few minutes:
it enumerates every connected graph on 7 vertices.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

import workloads as wl


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hochster_faces(bd, g) -> int:
    """Faces over all restrictions Hochster's formula builds for g's row.

    A property of the initial ideal, not of the code computing it; used to
    sort classes by cost when drawing balanced samples.
    """
    from beideals.simplicial import restriction_faces, support_masks

    sigma = bd.find_closed_labeling(g)
    h = bd.relabel(g, sigma) if sigma else g
    masks = support_masks(bd.initial_ideal_generators(h), 2 * g.n)
    appearing = 0
    for m in masks:
        appearing |= m
    total = 0
    s = appearing
    while True:
        covered = 0
        for m in masks:
            if m & s == m:
                covered |= m
        if covered == s:
            total += len(restriction_faces(masks, s))
        if s == 0:
            return total
        s = (s - 1) & appearing


def main() -> int:
    bd = wl.import_package()
    out = wl.GOLDEN_DIR
    (out / "classify-n6").mkdir(parents=True, exist_ok=True)

    config = bd.RunConfig(n_min=2, n_max=6)
    rows = bd.classify_range(config)
    csv_text = bd.rows_to_csv(rows).encode()
    json_text = bd.rows_to_json(rows, config).encode()
    (out / "classify-n6" / "report.csv").write_bytes(csv_text)
    (out / "classify-n6" / "report.json").write_bytes(json_text)
    faces = {row.graph_id: _hochster_faces(bd, wl.graph_from_id(bd, row.graph_id)) for row in rows}
    (out / "classify-n6" / "faces.json").write_text(json.dumps(faces, indent=0) + "\n")

    n6_ids = [bd.graph_id(g) for n in range(1, 7) for g in bd.enumerate_connected_graphs(n)]
    classes = []
    for g in bd.enumerate_connected_graphs(7):
        paths = sum(
            len(bd.admissible_paths(g, i, j))
            for i in range(1, g.n + 1)
            for j in range(i + 1, g.n + 1)
        )
        classes.append([bd.graph_id(g), bd.find_closed_labeling(g) is not None, paths])
    (out / "graphs-n7.json").write_text(
        json.dumps({"n_le_6_ids": n6_ids, "n7_classes": classes}, separators=(",", ":")) + "\n"
    )

    fedder = []
    for row in rows:
        if row.is_closed and row.edge_count < row.n * (row.n - 1) // 2:
            g = wl.graph_from_id(bd, row.graph_id)
            fedder.append([row.graph_id, list(bd.find_closed_labeling(g))])
    (out / "fedder-p235.json").write_text(json.dumps({"closed_labelings": fedder}) + "\n")

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=wl.ROOT
    ).stdout.strip()
    manifest = {
        "source_commit": commit or "unknown",
        "sha256": {
            str(p.relative_to(out)): _sha256(p.read_bytes())
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
