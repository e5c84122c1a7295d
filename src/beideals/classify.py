"""Per-graph invariant pipeline and the classification report.

For each connected graph up to isomorphism the harness computes the lex
initial ideal of its edge ideal and records regularity, projective
dimension, type, Krull dimension, and the F-pure threshold, then evaluates
the bound checks:

    reg <= n - 1;  non-path implies reg <= n - 2;  dim >= n + 1;  fpt = 2.

Betti data is computed over both QQ and F_2, in one pass that also gives
the Krull dimension.  The QQ ranks of a restriction are read off F_2 only
where universal coefficients prove them equal (F_2 homology in at most one
degree) and come from exact elimination otherwise, so the
``betti_fields_agree`` column can be false only through that exact
fallback.  The tables agree at this scale, but the comparison is recorded,
not assumed.

The initial ideal depends on the labeling, and so do the fpt and type
columns.  Krull dimension does not, since dim S/in(I) = dim S/I; nor do
regularity and projective dimension, since the initial ideal is square-free
(Conca & Varbaro 2020).  Rows are computed under the closed labeling that
``find_closed_labeling`` returns whenever one exists (so the path rows
reflect the monotone labeling, where the initial ideal is a complete
intersection) and under the canonical labeling otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
from dataclasses import dataclass

from .betti import betti_tables, fpt_squarefree, homological_summary, regularity
from .edgeideals import initial_ideal_generators
from .fields import GF, QQ
from .graphs import (
    ENUMERATION_LIMIT,
    Graph,
    LimitExceededError,
    canonical_form,
    enumerate_connected_graphs,
    find_closed_labeling,
    is_path_graph,
    relabel,
)

CSV_COLUMNS = [
    "id",
    "n",
    "edges",
    "is_path",
    "is_closed",
    "reg",
    "fpt",
    "dim",
    "pd",
    "type",
    "betti_fields_agree",
    "bounds_ok",
]


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the classification run."""

    n_min: int = 2
    n_max: int = 6
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"bad n range [{self.n_min}, {self.n_max}]")
        if self.n_max > ENUMERATION_LIMIT:
            raise LimitExceededError(
                f"n_max={self.n_max} exceeds the enumeration limit {ENUMERATION_LIMIT}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass(frozen=True)
class ClassificationRow:
    graph_id: str
    n: int
    edge_count: int
    is_path: bool
    is_closed: bool
    reg: int
    fpt: int
    dim: int
    pd: int
    type: int
    betti_fields_agree: bool
    bound_checks: dict

    @property
    def bounds_ok(self) -> bool:
        return all(self.bound_checks.values())

    def to_json_dict(self) -> dict:
        return {
            "id": self.graph_id,
            "n": self.n,
            "edges": self.edge_count,
            "is_path": self.is_path,
            "is_closed": self.is_closed,
            "reg": self.reg,
            "fpt": self.fpt,
            "dim": self.dim,
            "pd": self.pd,
            "type": self.type,
            "betti_fields_agree": self.betti_fields_agree,
            "bound_checks": dict(self.bound_checks),
            "bounds_ok": self.bounds_ok,
        }

def graph_id(g: Graph) -> str:
    """Stable identifier: vertex count and the canonical adjacency code in hex."""
    code, _ = canonical_form(g)
    pairs = g.n * (g.n - 1) // 2
    digits = max(1, (pairs + 3) // 4)
    return f"{g.n}-{code:0{digits}x}"


def classify_graph(g: Graph) -> ClassificationRow:
    """Compute one report row.  ``g`` should be canonically labeled."""
    n = g.n
    sigma = find_closed_labeling(g)
    h = relabel(g, sigma) if sigma else g
    mingens = initial_ideal_generators(h)
    nvars = 2 * n

    fpt_report = fpt_squarefree(mingens, nvars)
    tables = betti_tables(mingens, nvars, [QQ, GF(2)])
    table_q, table_f2 = tables
    dim = tables.krull_dim
    summary = homological_summary(table_q)
    agree = table_q.entries == table_f2.entries

    path = is_path_graph(g)
    reg_q = summary["regularity"]
    reg_f2 = regularity(table_f2)
    checks = {
        "reg_le_n_minus_1": reg_q <= n - 1 and reg_f2 <= n - 1,
        "nonpath_reg_le_n_minus_2": path or (reg_q <= n - 2 and reg_f2 <= n - 2),
        "dim_ge_n_plus_1": dim >= n + 1,
        "fpt_eq_2": fpt_report.fpt == 2,
    }
    return ClassificationRow(
        graph_id=graph_id(g),
        n=n,
        edge_count=len(g.edges),
        is_path=path,
        is_closed=sigma is not None,
        reg=reg_q,
        fpt=fpt_report.fpt,
        dim=dim,
        pd=summary["pd"],
        type=summary["type"],
        betti_fields_agree=agree,
        bound_checks=checks,
    )


def classify_range(config: RunConfig) -> list:
    """Rows for every connected graph class with n in the configured range,
    sorted by (n, graph id) regardless of parallelism."""
    graphs = []
    for n in range(config.n_min, config.n_max + 1):
        graphs.extend(enumerate_connected_graphs(n))
    if config.jobs > 1:
        with multiprocessing.Pool(config.jobs) as pool:
            rows = pool.map(classify_graph, graphs)
    else:
        rows = [classify_graph(g) for g in graphs]
    rows.sort(key=lambda r: (r.n, r.graph_id))
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        d = r.to_json_dict()
        writer.writerow([_csv_cell(d[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, dict):
        return ";".join(f"{k}={'true' if ok else 'false'}" for k, ok in sorted(v.items()))
    return v


def rows_to_json(rows, config: RunConfig) -> str:
    payload = {
        "n_min": config.n_min,
        "n_max": config.n_max,
        "count": len(rows),
        "rows": [r.to_json_dict() for r in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def violations(rows) -> list:
    return [r for r in rows if not r.bounds_ok]
