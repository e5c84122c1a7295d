"""Command-line interface.

    beideals gb GRAPH.json [--verify] [--field q|f2|fp:P] [--json]
    beideals initial GRAPH.json [--json]
    beideals closed GRAPH.json [--json]
    beideals fedder GRAPH.json P [--force] [--json] [--out FILE]
    beideals fpt GRAPH.json [--json]
    beideals betti GRAPH.json [--field q|f2|fp:P] [--json]
    beideals weight GRAPH.json [--json]
    beideals plucker I J K L N [--field q|f2|fp:P]
    beideals classify [--n-min A] [--n-max B] [--out DIR] [--jobs K]

Graph files hold {"n": int, "edges": [[i, j], ...]} with 1-indexed
vertices.  Exit codes: 0 success, 1 a checked bound or identity failed,
2 bad input, 3 a size limit was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from .betti import betti_table, fpt_squarefree, homological_summary, render_betti
from .classify import RunConfig, classify_range, rows_to_csv, rows_to_json, violations
from .edgeideals import (
    admissible_groebner_basis,
    edge_ideal_generators,
    fedder_check,
    find_weight_vector,
    initial_ideal_generators,
    plucker_relation,
)
from .fields import GF, QQ
from .graphs import (
    Graph,
    LimitExceededError,
    find_closed_labeling,
    graph_from_json_dict,
    is_closed_with_labeling,
)
from .groebner import buchberger
from .polys import PolyContext, format_monomial, format_poly

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _parse_field(spec: str):
    if spec == "q":
        return QQ
    if spec == "f2":
        return GF(2)
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        return GF(p)
    raise ValueError(f"bad field spec {spec!r}; use q, f2 or fp:<prime>")


def _load_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    return graph_from_json_dict(data)


def _write(path: pathlib.Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _check_writable(path: pathlib.Path) -> None:
    """Refuse, before a run, an output file that is a directory or lies in
    a missing or read-only directory; nothing is created."""
    target = path if path.exists() else path.parent
    if path.is_dir() or not path.parent.is_dir() or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write {path}: not a writable file in an existing directory")


def _emit(payload, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_gb(args) -> int:
    g = _load_graph(args.graph)
    fld = _parse_field(args.field)
    elems = admissible_groebner_basis(g, fld)
    payload = {
        "n": g.n,
        "field": repr(fld),
        "count": len(elems),
        "elements": [
            {
                "pair": [e.path[0], e.path[-1]],
                "path": list(e.path),
                "poly": format_poly(e.poly),
            }
            for e in elems
        ],
    }
    lines = [
        f"{format_poly(e.poly)}    [path {'-'.join(map(str, e.path))}]"
        for e in elems
    ]
    if args.verify:
        ctx = PolyContext(g.n, fld)
        oracle = buchberger(edge_ideal_generators(ctx, g))
        ours = {e.poly for e in elems}
        theirs = set(oracle.polys)
        payload["verified"] = ours == theirs
        if ours == theirs:
            lines.append(f"verify: reduced basis matches Buchberger ({len(elems)} elements)")
        else:
            _emit(payload, args.json, lines)
            print("verify: MISMATCH against the Buchberger oracle", file=sys.stderr)
            for p in sorted(ours - theirs, key=lambda f: (f.degree(), f.lm())):
                print(f"  only in path basis:  {format_poly(p)}", file=sys.stderr)
            for p in sorted(theirs - ours, key=lambda f: (f.degree(), f.lm())):
                print(f"  only in oracle:      {format_poly(p)}", file=sys.stderr)
            return EXIT_VIOLATION
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_initial(args) -> int:
    g = _load_graph(args.graph)
    ctx = PolyContext(g.n, QQ)
    gens = initial_ideal_generators(g)
    payload = {"n": g.n, "count": len(gens), "generators": [format_monomial(ctx, m) for m in gens]}
    _emit(payload, args.json, payload["generators"])
    return EXIT_OK


def cmd_closed(args) -> int:
    g = _load_graph(args.graph)
    given = is_closed_with_labeling(g)
    sigma = find_closed_labeling(g)
    payload = {
        "closed_with_given_labeling": given,
        "closed_labeling": list(sigma) if sigma else None,
    }
    lines = [f"given labeling closed: {'yes' if given else 'no'}"]
    if sigma:
        lines.append("closed labeling: " + " ".join(f"{v}->{sigma[v - 1]}" for v in range(1, g.n + 1)))
    else:
        lines.append("no labeling of this graph is closed")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_fedder(args) -> int:
    g = _load_graph(args.graph)
    if args.p not in (2, 3, 5):
        raise ValueError("supported primes are 2, 3 and 5")
    if args.out:
        _check_writable(pathlib.Path(args.out))
    cert = fedder_check(g, args.p, force=args.force)
    payload = cert.to_json_dict()
    text = [
        f"p = {cert.p}, witness degree {cert.witness_degree}",
        f"witness outside m^[p]: {'yes' if cert.not_in_m_bracket else 'no'}",
    ]
    for entry in payload["edge_memberships"]:
        i, j = entry["edge"]
        text.append(f"edge ({i},{j}): witness*f in bracket power: {'yes' if entry['in_colon'] else 'no'}")
    text.append(f"certificate valid: {'yes' if cert.valid else 'no'}")
    if args.out:
        _write(pathlib.Path(args.out), json.dumps(payload, indent=2) + "\n")
    _emit(payload, args.json, text)
    return EXIT_OK if cert.valid else EXIT_VIOLATION


def cmd_fpt(args) -> int:
    g = _load_graph(args.graph)
    ctx = PolyContext(g.n, QQ)
    report = fpt_squarefree(initial_ideal_generators(g), 2 * g.n)
    payload = report.to_json_dict(names=ctx.var_name)
    _emit(payload, args.json, [f"fpt = {payload['fpt']}", "absent variables: " + " ".join(payload["absent"])])
    return EXIT_OK


def cmd_betti(args) -> int:
    g = _load_graph(args.graph)
    fld = _parse_field(args.field)
    table = betti_table(initial_ideal_generators(g), 2 * g.n, fld)
    summary = homological_summary(table)
    payload = {"field": repr(fld), **table.to_json_dict(), "summary": summary}
    lines = [render_betti(table), "", f"reg = {summary['regularity']}, pd = {summary['pd']}, type = {summary['type']}"]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_weight(args) -> int:
    g = _load_graph(args.graph)
    elems = admissible_groebner_basis(g, QQ)
    if not elems:
        raise ValueError("the edge ideal is zero; no weights to certify")
    w = find_weight_vector(elems)
    payload = {
        "x_weights": list(w.weights[: g.n]),
        "y_weights": list(w.weights[g.n:]),
    }
    _emit(
        payload,
        args.json,
        [
            "w(x) = " + " ".join(map(str, payload["x_weights"])),
            "w(y) = " + " ".join(map(str, payload["y_weights"])),
        ],
    )
    return EXIT_OK


def cmd_plucker(args) -> int:
    fld = _parse_field(args.field)
    ctx = PolyContext(args.n, fld)
    value = plucker_relation(ctx, args.i, args.j, args.k, args.l)
    print(format_poly(value))
    return EXIT_OK if value.is_zero() else EXIT_VIOLATION


def cmd_classify(args) -> int:
    config = RunConfig(n_min=args.n_min, n_max=args.n_max, jobs=args.jobs)
    out_dir = pathlib.Path(args.out)
    try:  # before the run, so that a bad --out fails fast
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValueError(f"cannot write {out_dir}: {e}") from None
    rows = classify_range(config)
    _write(out_dir / "report.csv", rows_to_csv(rows))
    _write(out_dir / "report.json", rows_to_json(rows, config))
    bad = violations(rows)
    print(f"classified {len(rows)} graphs (n = {config.n_min}..{config.n_max}) -> {out_dir}")
    repro = out_dir / "violations.json"
    if not bad:  # an earlier run's reproducer would name graphs this report may not hold
        try:
            repro.unlink(missing_ok=True)
        except OSError as e:
            raise ValueError(f"cannot remove {repro}: {e}") from None
        return EXIT_OK
    _write(repro, json.dumps([r.to_json_dict() for r in bad], indent=2) + "\n")
    for r in bad:
        failed = ", ".join(k for k, ok in r.bound_checks.items() if not ok)
        print(f"bound violation on graph {r.graph_id}: {failed}", file=sys.stderr)
    print(f"reproducer written to {repro}", file=sys.stderr)
    return EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="beideals", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", default="q", help="coefficients: q, f2 or fp:<prime> (default q)")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("gb", help="lex Groebner basis of the edge ideal via admissible paths")
    p.add_argument("graph")
    p.add_argument("--verify", action="store_true", help="compare against the Buchberger oracle")
    add_field(p)
    add_json(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("initial", help="minimal generators of the lex initial ideal")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("closed", help="closedness of the labeling; search for a closed one")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=cmd_closed)

    p = sub.add_parser("fedder", help="F-purity certificate at a prime")
    p.add_argument("graph")
    p.add_argument("p", type=int)
    p.add_argument("--force", action="store_true", help="run even if the labeling is not closed")
    p.add_argument("--out", help="also write the certificate JSON to this file")
    add_json(p)
    p.set_defaults(func=cmd_fedder)

    p = sub.add_parser("fpt", help="F-pure threshold of the initial ideal")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=cmd_fpt)

    p = sub.add_parser("betti", help="graded Betti table of the initial ideal")
    p.add_argument("graph")
    add_field(p)
    add_json(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("weight", help="weight vector certifying the lex initial terms")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("plucker", help="evaluate f_ij*f_kl - f_ik*f_jl + f_il*f_jk")
    for name in ("i", "j", "k", "l", "n"):
        p.add_argument(name, type=int)
    add_field(p)
    p.set_defaults(func=cmd_plucker)

    p = sub.add_parser("classify", help="tabulate invariants for all connected graphs in a range")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--out", default="classify_report")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPU count and the number of classes")
    p.set_defaults(func=cmd_classify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LimitExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
