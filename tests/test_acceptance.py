"""Acceptance suite: nine desk-scale checks, one test per criterion.

Each test is a full sweep at the stated size, so the file takes a couple of
minutes.  Two criteria (4 and 7) assert that every connected graph has
F-pure threshold 2 with absent variables exactly {x_n, y_1}; that claim is
false in general (the star K_{1,3} centered at the top label already fails
it), so those two tests fail with the computed counterexamples.  The
classification harness flags the same graphs at run time.
"""

from itertools import combinations

import pytest

from beideals import (
    GF,
    QQ,
    Graph,
    PolyContext,
    admissible_groebner_basis,
    betti_table,
    edge_ideal_generators,
    enumerate_connected_graphs,
    find_closed_labeling,
    find_weight_vector,
    fpt_squarefree,
    initial_ideal_generators,
    plucker_relation,
    regularity,
    relabel,
)
from beideals.edgeideals import fedder_check
from beideals.groebner import (
    buchberger,
    frobenius_power,
    not_in_bracket_m,
)
from helpers import classify_labeled, disjoint_union, path_graph
from hochster_oracle import betti_by_restriction
from test_groebner import colon_contains


def connected_classes(n_max):
    for n in range(1, n_max + 1):
        for g in enumerate_connected_graphs(n):
            yield g


def test_criterion_1_gb_matches_buchberger_oracle():
    count = 0
    for g in connected_classes(6):
        for fld in (QQ, GF(2)):
            elems = admissible_groebner_basis(g, fld)
            ctx = PolyContext(g.n, fld)
            oracle = buchberger(edge_ideal_generators(ctx, g))
            assert {e.poly for e in elems} == set(oracle.polys), (g.n, g.edges, fld)
        count += 1
    assert count == 143


def test_criterion_2_plucker_identity_all_quadruples():
    ctx = PolyContext(8, QQ)
    quadruples = list(combinations(range(1, 9), 4))
    assert len(quadruples) == 70
    for i, j, k, l in quadruples:
        assert plucker_relation(ctx, i, j, k, l).is_zero(), (i, j, k, l)


def test_criterion_3_regularity_anchors(classification_rows):
    for n in range(2, 8):
        mingens = initial_ideal_generators(path_graph(n))
        assert regularity(betti_table(mingens, 2 * n, QQ)) == n - 1

    assert len(classification_rows) == 143
    for row in classification_rows:
        assert row.reg <= row.n - 1, row.graph_id
        if not row.is_path:
            assert row.reg <= row.n - 2, row.graph_id


def test_criterion_4_fpt_two_with_absent_xn_y1():
    # additivity at the monomial level holds: variables absent from the
    # initial ideal of a disjoint union are the per-component absent
    # variables, so thresholds add
    p3, p2 = path_graph(3), path_graph(2)
    claw = Graph(4, [(1, 4), (2, 4), (3, 4)])
    for parts in [(p3, p3), (p2, p3), (p2, p2, p3), (claw, p3)]:
        union = parts[0]
        expected = fpt_squarefree(initial_ideal_generators(parts[0]), 2 * parts[0].n).fpt
        for part in parts[1:]:
            union = disjoint_union(union, part)
            expected += fpt_squarefree(initial_ideal_generators(part), 2 * part.n).fpt
        got = fpt_squarefree(initial_ideal_generators(union), 2 * union.n)
        assert got.fpt == expected
    paths = disjoint_union(disjoint_union(p3, p3), p2)
    assert fpt_squarefree(initial_ideal_generators(paths), 2 * paths.n).fpt == 6

    # headline sweep: fpt = 2 and absent exactly {x_n, y_1} for every
    # connected class, taken under a closed labeling when one exists
    failures = []
    total = 0
    for g in connected_classes(7):
        h = classify_labeled(g)
        report = fpt_squarefree(initial_ideal_generators(h), 2 * h.n)
        total += 1
        if report.fpt != 2 or set(report.absent) != {h.n - 1, h.n}:
            failures.append((h, report))
    if failures:
        h, report = failures[0]
        ctx = PolyContext(h.n, QQ)
        names = [ctx.var_name(v) for v in report.absent]
        pytest.fail(
            f"fpt = 2 with absent variables {{x_n, y_1}} fails for {len(failures)} of "
            f"{total} connected classes with n <= 7. First counterexample: n={h.n}, "
            f"edges {sorted(h.edges)}: fpt = {report.fpt}, "
            f"absent = {names}. x_n divides a minimal generator whenever vertex n has "
            f"two non-adjacent neighbors i < j, since the path (i, n, j) is then "
            f"admissible with lead x_n*x_i*y_j; dually y_1 appears whenever the "
            f"neighborhood of vertex 1 is not a clique. No labeling of the 4-cycle "
            f"avoids both."
        )


def test_criterion_5_fedder_certificates():
    checked = 0
    for g in connected_classes(5):
        if g.n < 2:
            continue
        sigma = find_closed_labeling(g)
        if sigma is None or len(g.edges) == g.n * (g.n - 1) // 2:
            continue
        h = relabel(g, sigma)
        for p in (2, 3):
            cert = fedder_check(h, p)
            assert cert.valid, (g.n, g.edges, p)
            assert cert.not_in_m_bracket
            assert all(cert.edge_memberships.values())
            assert cert.witness_degree == 2 * (g.n - 1) * (p - 1)
            checked += 1
    # 13 closed connected non-complete classes with n <= 5, two primes each
    assert checked == 26


def test_criterion_6_frobenius_colon_instance():
    # the induction step at e = 2: f^(q-1) in (I^[q] : I) \ m^[q] for q = p^2
    p, q = 2, 4
    ctx = PolyContext(2, GF(p))
    gens = edge_ideal_generators(ctx, path_graph(2))
    (f12,) = gens.polys
    witness = f12 ** (q - 1)
    target = buchberger(frobenius_power(gens, q))
    assert colon_contains(witness, gens, target)
    assert not_in_bracket_m(witness, q)


def test_criterion_7_gorenstein_mechanism(classification_rows):
    rows = [r for r in classification_rows if r.n >= 2]
    for row in rows:
        if row.is_path:
            mingens = initial_ideal_generators(classify_labeled(path_graph(row.n)))
            assert len(mingens) == row.n - 1  # complete intersection
            assert row.pd == row.n - 1
            assert row.type == 1
        else:
            assert row.reg <= row.n - 2, row.graph_id
            assert row.dim >= row.n + 1, row.graph_id

    bad = [r for r in rows if not r.is_path and r.fpt != 2]
    if bad:
        ids = ", ".join(f"{r.graph_id} (fpt {r.fpt})" for r in bad[:5])
        pytest.fail(
            f"the contradiction triple needs fpt = 2 on every non-path, but "
            f"{len(bad)} of {len(rows)} classes with n <= 6 miss it, e.g. {ids}. "
            f"The other two legs (reg <= n-2, dim >= n+1) hold everywhere, and "
            f"reg = dim - fpt >= n - 1 still forces a contradiction wherever "
            f"fpt = 2 does hold."
        )


def test_criterion_8_weight_vectors_reproduce_leads():
    count = 0
    for g in connected_classes(6):
        elems = admissible_groebner_basis(g, QQ)
        count += 1
        if not elems:
            continue  # one-vertex graph, nothing to certify
        w = find_weight_vector(elems)
        for e in elems:
            lead = e.poly.lm()
            for m in e.poly.terms:
                if m != lead:
                    assert w.degree(m) < w.degree(lead), (g.edges, e.path)
    assert count == 143


def test_criterion_9_hochster_vs_chain_complex_oracle():
    for g in connected_classes(4):
        mingens = initial_ideal_generators(g)
        for fld in (QQ, GF(2)):
            ours = betti_table(mingens, 2 * g.n, fld)
            reference = betti_by_restriction(mingens, 2 * g.n, fld)
            assert dict(ours.entries) == reference, (g.n, g.edges, fld)
