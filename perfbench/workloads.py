"""Workload definitions: inputs from a seed, the timed calls, output checks.

Every workload draws its items from a fixed population with a balanced
sample: the population is sorted by a cost key that is a property of the
input (not a timing), cut into as many contiguous strata as the run has
picks, and the seed draws one item per stratum.  Consecutive strata go to
different repetitions, so every repetition gets a cheap-to-expensive mix.
The program under test only ever sees the drawn inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pathlib
import random
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
CLOCK = time.perf_counter


class MissingPackageError(RuntimeError):
    """The checkout has no beideals sources next to the benchmark."""


class GoldenError(RuntimeError):
    """A golden file is missing or differs from its recorded sha256."""


def import_package():
    """Import beideals from this checkout's src/, never from site-packages."""
    if not (SRC / "beideals" / "__init__.py").is_file():
        raise MissingPackageError(f"no beideals package under {SRC}")
    sys.path.insert(0, str(SRC))
    bd = importlib.import_module("beideals")
    if pathlib.Path(bd.__file__).resolve().parent != SRC / "beideals":
        raise MissingPackageError(f"imported beideals from {bd.__file__}, not from {SRC}")
    return bd


def graph_from_id(bd, gid: str):
    """Invert classify.graph_id: the hex part is the canonical adjacency code."""
    n_text, code_text = gid.split("-")
    n = int(n_text)
    code = int(code_text, 16)
    m = n * (n - 1) // 2
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return bd.Graph(n, [e for t, e in enumerate(pairs, 1) if code >> (m - t) & 1])


def code_id(bd, g) -> str:
    """graph_id computed from g's own labeling, without canonicalising it."""
    digits = max(1, (g.n * (g.n - 1) // 2 + 3) // 4)
    return f"{g.n}-{bd.adjacency_code(g):0{digits}x}"


def golden_bytes(rel: str) -> bytes:
    """A golden file's bytes, verified against golden/manifest.json."""
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    want = manifest["sha256"].get(rel)
    path = GOLDEN_DIR / rel
    if want is None or not path.is_file():
        raise GoldenError(f"golden file {rel} is missing")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != want:
        raise GoldenError(f"golden file {rel} does not match its recorded sha256")
    return data


def golden_json(rel: str):
    return json.loads(golden_bytes(rel))


def balanced_plan(population: list, key, per_rep: int, reps: int, seed: int) -> list:
    """Items for each repetition: one seeded pick per cost stratum.

    With more picks than items, strata overlap and items repeat (in
    different repetitions, each in a fresh interpreter).
    """
    rng = random.Random(seed)
    ordered = sorted(population, key=key)
    size = len(ordered)
    total = per_rep * reps
    picks = []
    for s in range(total):
        lo = s * size // total
        hi = max((s + 1) * size // total, lo + 1)
        picks.append(ordered[rng.randrange(lo, hi)])
    plan = [picks[r::reps] for r in range(reps)]
    for items in plan:
        rng.shuffle(items)
    return plan


def timed_items(fn, inputs) -> tuple:
    """Call fn on each input; an exception is recorded as that item's output."""
    outputs, seconds = [], []
    for x in inputs:
        start = CLOCK()
        try:
            out = fn(x)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            out = exc
        seconds.append(CLOCK() - start)
        outputs.append(out)
    return outputs, seconds


@dataclasses.dataclass
class Timed:
    """What one repetition's timed phase produced."""

    outputs: list
    item_seconds: list
    wall_seconds: float
    extra: dict = dataclasses.field(default_factory=dict)


def _failed_output(out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return None


class Workload:
    """Base: subclasses define the population, set-up, timed phase and checks."""

    name = ""
    why = ""
    per_rep = 0  # items drawn for one repetition
    corruption = ""  # what --corrupt breaks, for the self-test

    def population(self) -> list:
        raise NotImplementedError

    def key(self, entry):
        raise NotImplementedError

    def setup(self, bd, picks: list):
        raise NotImplementedError

    def run(self, bd, inputs) -> Timed:
        raise NotImplementedError

    def check(self, bd, inputs, timed: Timed) -> tuple:
        """(outputs checked, failure messages)."""
        raise NotImplementedError

    def corrupt(self, timed: Timed) -> None:
        raise NotImplementedError


def _enumerate_ids(bd, graphs_by_n: dict) -> list:
    return [code_id(bd, g) for n in sorted(graphs_by_n) for g in graphs_by_n[n]]


def _check_enumeration(bd, graphs_by_n: dict, failures: list) -> None:
    want = [gid for gid in golden_json("graphs-n7.json")["n_le_6_ids"]
            if int(gid.split("-")[0]) in graphs_by_n]
    if _enumerate_ids(bd, graphs_by_n) != want:
        failures.append("enumeration: class ids differ from the golden list")


class ClassifyN6(Workload):
    name = "classify-n6"
    why = ("the classify report users run: classify_graph on n <= 6 classes, then the CSV "
           "and JSON report; betti and simplicial dominate")
    per_rep = 10
    corruption = "flip one byte of the CSV report"

    def population(self):
        faces = golden_json("classify-n6/faces.json")
        return [(gid, faces[gid]) for gid in faces]

    def key(self, entry):
        return entry[1], entry[0]

    def setup(self, bd, picks):
        # classify_range enumerates the classes; so does this set-up.
        graphs_by_n = {n: bd.graphs.enumerate_connected_graphs(n) for n in range(2, 7)}
        by_id = {code_id(bd, g): g for gs in graphs_by_n.values() for g in gs}
        graphs = [by_id[gid] for gid, _ in picks]
        return {"graphs": graphs, "graphs_by_n": graphs_by_n,
                "config": bd.RunConfig(n_min=2, n_max=6)}

    def run(self, bd, inputs):
        classify = bd.classify
        start = CLOCK()
        rows, seconds = timed_items(classify.classify_graph, inputs["graphs"])
        good = sorted((r for r in rows if not isinstance(r, Exception)),
                      key=lambda r: (r.n, r.graph_id))
        csv_text = classify.rows_to_csv(good)
        json_text = classify.rows_to_json(good, inputs["config"])
        wall = CLOCK() - start
        return Timed(rows, seconds, wall, {"csv": csv_text, "json": json_text})

    def check(self, bd, inputs, timed):
        failures = []
        _check_enumeration(bd, inputs["graphs_by_n"], failures)
        report = json.loads(golden_bytes("classify-n6/report.json"))
        golden_rows = {r["id"]: r for r in report["rows"]}
        csv_lines = golden_bytes("classify-n6/report.csv").decode().splitlines(keepends=True)
        golden_csv = {line.split(",", 1)[0]: line for line in csv_lines[1:]}
        for g, row in zip(inputs["graphs"], timed.outputs):
            gid = code_id(bd, g)
            bad = _failed_output(row)
            if bad is None and row.to_json_dict() != golden_rows[gid]:
                bad = "row differs from the golden report"
            if bad:
                failures.append(f"{gid}: {bad}")
        # The report over the drawn classes must be the golden report's rows,
        # byte for byte; over all 142 classes it is the golden file itself.
        ids = sorted((code_id(bd, g) for g in inputs["graphs"]),
                     key=lambda gid: (int(gid.split("-")[0]), gid))
        want_csv = csv_lines[0] + "".join(golden_csv[gid] for gid in ids)
        payload = {"n_min": 2, "n_max": 6, "count": len(ids),
                   "rows": [golden_rows[gid] for gid in ids]}
        want_json = json.dumps(payload, indent=2) + "\n"
        if timed.extra["csv"] != want_csv or timed.extra["json"] != want_json:
            failures.append("report: CSV or JSON bytes differ from the golden report")
        return len(timed.outputs) + 2, failures

    def corrupt(self, timed):
        text = timed.extra["csv"]
        k = len(text) // 2
        timed.extra["csv"] = text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]


class GraphsN7(Workload):
    name = "graphs-n7"
    why = ("graph layer only: cold enumeration for n <= 6, then graph_id, the closed-labeling "
           "scan and admissible paths on n = 7 classes; no betti or groebner")
    per_rep = 45
    corruption = "change one returned graph id"

    def population(self):
        return golden_json("graphs-n7.json")["n7_classes"]

    def key(self, entry):
        gid, closed, paths = entry
        return closed, paths, gid

    def setup(self, bd, picks):
        return {"graphs": [graph_from_id(bd, gid) for gid, _, _ in picks], "golden": picks}

    def run(self, bd, inputs):
        graphs, classify = bd.graphs, bd.classify

        def item(g):
            paths = sum(
                len(graphs.admissible_paths(g, i, j))
                for i in range(1, g.n + 1)
                for j in range(i + 1, g.n + 1)
            )
            return classify.graph_id(g), graphs.find_closed_labeling(g), paths

        start = CLOCK()
        by_n = {n: graphs.enumerate_connected_graphs(n) for n in range(1, 7)}
        outputs, seconds = timed_items(item, inputs["graphs"])
        wall = CLOCK() - start
        return Timed(outputs, seconds, wall, {"graphs_by_n": by_n})

    def check(self, bd, inputs, timed):
        failures = []
        _check_enumeration(bd, timed.extra["graphs_by_n"], failures)
        for g, (gid, closed, paths), out in zip(inputs["graphs"], inputs["golden"], timed.outputs):
            bad = _failed_output(out)
            if bad is None:
                got_id, sigma, got_paths = out
                if got_id != gid:
                    bad = f"graph_id returned {got_id}"
                elif (sigma is not None) != closed:
                    bad = f"closed labeling {'missing' if closed else 'returned'}"
                elif sigma is not None and not bd.is_closed_with_labeling(bd.relabel(g, sigma)):
                    bad = f"labeling {sigma} is not closed"
                elif got_paths != paths:
                    bad = f"{got_paths} admissible paths, expected {paths}"
            if bad:
                failures.append(f"{gid}: {bad}")
        return len(timed.outputs) + 1, failures

    def corrupt(self, timed):
        gid, sigma, paths = timed.outputs[0]
        timed.outputs[0] = (gid[:-1] + ("0" if gid[-1] != "0" else "1"), sigma, paths)


class GroebnerN7(Workload):
    name = "groebner-n7"
    why = ("groebner, polys and fields: admissible-path basis against the Buchberger oracle "
           "on n = 7 classes over QQ and GF(2)")
    per_rep = 32  # classes; each is run over both fields
    corruption = "drop one element of an admissible-path basis"

    def population(self):
        return golden_json("graphs-n7.json")["n7_classes"]

    def key(self, entry):
        gid, closed, paths = entry
        return paths, gid

    def setup(self, bd, picks):
        items = []
        for gid, _, paths in picks:
            g = graph_from_id(bd, gid)
            items += [(g, bd.QQ, gid, paths), (g, bd.GF(2), gid, paths)]
        return {"items": items}

    def run(self, bd, inputs):
        edgeideals, groebner = bd.edgeideals, bd.groebner

        def item(entry):
            g, fld = entry[0], entry[1]
            basis = [e.poly for e in edgeideals.admissible_groebner_basis(g, fld)]
            gens = edgeideals.edge_ideal_generators(bd.PolyContext(g.n, fld), g)
            return basis, groebner.buchberger(gens).polys

        start = CLOCK()
        outputs, seconds = timed_items(item, inputs["items"])
        return Timed(outputs, seconds, CLOCK() - start)

    def check(self, bd, inputs, timed):
        failures = []
        for (g, fld, gid, paths), out in zip(inputs["items"], timed.outputs):
            bad = _failed_output(out)
            if bad is None:
                basis, oracle = out
                if len(basis) != paths:
                    bad = f"{len(basis)} basis elements, expected {paths} admissible paths"
                elif set(basis) != set(oracle) or len(set(basis)) != len(basis):
                    bad = "admissible-path basis differs from the Buchberger basis"
            if bad:
                failures.append(f"{gid} over {fld!r}: {bad}")
        return len(timed.outputs), failures

    def corrupt(self, timed):
        basis, oracle = timed.outputs[0]
        timed.outputs[0] = (basis[1:], oracle)


class FedderP235(Workload):
    name = "fedder-p235"
    why = ("groebner used differently: Buchberger on bracket powers of degree 2p and normal "
           "forms of high-degree products, closed n <= 6 classes at p = 2, 3, 5")
    per_rep = 38  # with 6 repetitions, every certificate twice
    corruption = "mark one edge membership of a certificate false"
    primes = (2, 3, 5)

    def population(self):
        labelings = golden_json("fedder-p235.json")["closed_labelings"]
        return [(gid, tuple(sigma), p) for gid, sigma in labelings for p in self.primes]

    def key(self, entry):
        gid, sigma, p = entry
        n_text, code_text = gid.split("-")
        # Within one p, the cost grows with n and then with the edge count.
        return p, int(n_text), bin(int(code_text, 16)).count("1"), gid

    def setup(self, bd, picks):
        graphs_by_n = {n: bd.graphs.enumerate_connected_graphs(n) for n in range(2, 7)}
        by_id = {code_id(bd, g): g for gs in graphs_by_n.values() for g in gs}
        items = [(bd.relabel(by_id[gid], sigma), p, gid) for gid, sigma, p in picks]
        return {"items": items, "graphs_by_n": graphs_by_n}

    def run(self, bd, inputs):
        edgeideals = bd.edgeideals
        start = CLOCK()
        outputs, seconds = timed_items(
            lambda entry: edgeideals.fedder_check(entry[0], entry[1]), inputs["items"]
        )
        return Timed(outputs, seconds, CLOCK() - start)

    def check(self, bd, inputs, timed):
        failures = []
        _check_enumeration(bd, inputs["graphs_by_n"], failures)
        for (h, p, gid), cert in zip(inputs["items"], timed.outputs):
            bad = _failed_output(cert)
            if bad is None:
                degree = 2 * (h.n - 1) * (p - 1)
                if not cert.valid:
                    bad = "certificate is not valid"
                elif cert.witness_degree != degree or cert.witness.degree() != degree:
                    bad = f"witness degree {cert.witness_degree}, expected {degree}"
                elif (cert.n, cert.p) != (h.n, p) or not cert.closed_labeling:
                    bad = "certificate describes another input"
            if bad:
                failures.append(f"{gid} at p={p}: {bad}")
        return len(timed.outputs) + 1, failures

    def corrupt(self, timed):
        cert = timed.outputs[0]
        edge = min(cert.edge_memberships)
        timed.outputs[0] = dataclasses.replace(
            cert, edge_memberships={**cert.edge_memberships, edge: False}
        )


WORKLOADS = {w.name: w for w in (ClassifyN6(), GraphsN7(), GroebnerN7(), FedderP235())}
