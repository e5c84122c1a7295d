"""Graded Betti tables via restriction homology, and threshold counting."""

import itertools
import math
import random

import pytest

from beideals import (
    GF,
    QQ,
    Graph,
    PolyContext,
    betti_table,
    betti_tables,
    fpt_squarefree,
    homological_summary,
    initial_ideal_generators,
    projective_dimension,
    regularity,
    render_betti,
)

from beideals.graphs import enumerate_connected_graphs, find_closed_labeling, relabel
from hochster_oracle import betti_by_restriction
from scan_engine import scan_betti_table, scan_facets


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])


def test_single_generator_is_koszul():
    ctx = PolyContext(2, QQ)
    t = betti_table([ctx.monomial(x1=1, y2=1)], 4, QQ)
    assert t.as_dict() == {(0, 0): 1, (1, 2): 1}
    assert regularity(t) == 1
    assert homological_summary(t) == {"regularity": 1, "pd": 1, "type": 1}


def test_zero_ideal_table():
    t = betti_table([], 6, QQ)
    assert t.as_dict() == {(0, 0): 1}
    assert regularity(t) == 0
    assert projective_dimension(t) == 0


def test_path_initial_ideals_follow_the_koszul_pattern():
    # the generators x_i*y_{i+1} have pairwise disjoint supports
    for n in (3, 4, 5):
        t = betti_table(initial_ideal_generators(path_graph(n)), 2 * n, QQ)
        expected = {(0, 0): 1}
        for i in range(1, n):
            expected[(i, 2 * i)] = math.comb(n - 1, i)
        assert t.as_dict() == expected
        assert regularity(t) == n - 1
        assert homological_summary(t) == {"regularity": n - 1, "pd": n - 1, "type": 1}


def test_triangle_table():
    for fld in (QQ, GF(2)):
        t = betti_table(initial_ideal_generators(K3), 6, fld)
        assert t.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
        assert homological_summary(t) == {"regularity": 1, "pd": 2, "type": 2}


def test_multi_field_tables_share_one_pass():
    gens = initial_ideal_generators(K3)
    tq, t2 = betti_tables(gens, 6, [QQ, GF(2)])
    assert tq.as_dict() == betti_table(gens, 6, QQ).as_dict()
    assert t2.as_dict() == betti_table(gens, 6, GF(2)).as_dict()


def test_agrees_with_restriction_oracle_spot_check():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    gens = initial_ideal_generators(g)
    for fld in (QQ, GF(2)):
        assert betti_table(gens, 8, fld).as_dict() == betti_by_restriction(gens, 8, fld)


def classify_labeled_gens(g):
    """Initial ideal generators under the labeling classify_graph uses."""
    sigma = find_closed_labeling(g)
    return initial_ideal_generators(relabel(g, sigma) if sigma else g)


def test_betti_tables_match_scan_engine():
    fields = [QQ, GF(2), GF(3)]
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            gens = classify_labeled_gens(g)
            tables = betti_tables(gens, 2 * n, fields)
            for table, fld in zip(tables, fields):
                assert table.as_dict() == scan_betti_table(gens, 2 * n, fld), (g.edges, fld)
            assert tables.krull_dim == max(len(f) for f in scan_facets(gens, 2 * n))


def test_random_squarefree_ideals_match_scan_engine():
    # generators of any degree, not necessarily minimal, repeats allowed
    rng = random.Random(5)
    fields = [QQ, GF(2), GF(3)]
    for _ in range(300):
        nvars = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(0, 6)):
            support = rng.sample(range(nvars), rng.randint(1, min(4, nvars)))
            gens.append(tuple(int(v in support) for v in range(nvars)))
        tables = betti_tables(gens, nvars, fields)
        for table, fld in zip(tables, fields):
            assert table.as_dict() == scan_betti_table(gens, nvars, fld), (gens, fld)
        assert tables.krull_dim == max(len(f) for f in scan_facets(gens, nvars))


def test_projective_plane_needs_the_exact_fallback():
    # Stanley-Reisner ideal of the six-vertex real projective plane: its
    # minimal non-faces are the ten triangles that are not among its faces
    faces = {
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    }
    gens = [
        tuple(int(v in t) for v in range(6))
        for t in itertools.combinations(range(6), 3)
        if t not in faces
    ]
    tq, t2 = betti_tables(gens, 6, [QQ, GF(2)])
    assert tq.as_dict() != t2.as_dict()
    assert tq.as_dict() == betti_by_restriction(gens, 6, QQ)
    assert t2.as_dict() == betti_by_restriction(gens, 6, GF(2))


def test_structural_invariants():
    for g in [K3, path_graph(4), Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])]:
        t = betti_table(initial_ideal_generators(g), 2 * g.n, QQ)
        d = t.as_dict()
        assert d[(0, 0)] == 1
        assert all(j >= i and v > 0 for (i, j), v in d.items())
        assert t.beta(0, 1) == 0


def test_render_grid():
    t = betti_table(initial_ideal_generators(K3), 6, QQ)
    assert render_betti(t) == (
        "        0  1  2\n"
        "total:  1  3  2\n"
        "0:      1  .  .\n"
        "1:      .  3  2"
    )


# threshold reports -----------------------------------------------------------

def test_fpt_counts_absent_variables():
    ctx = PolyContext(3, QQ)
    rep = fpt_squarefree(initial_ideal_generators(path_graph(3)), 6)
    assert rep.fpt == 2
    assert [ctx.var_name(v) for v in rep.absent] == ["x3", "y1"]


def test_fpt_zero_when_every_variable_appears():
    ctx = PolyContext(2, QQ)
    gens = [ctx.monomial(x1=1, y1=1), ctx.monomial(x2=1, y2=1)]
    assert fpt_squarefree(gens, 4).fpt == 0


def test_fpt_is_additive_over_disjoint_blocks():
    # two paths on separate vertex blocks: absent sets combine
    g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    rep = fpt_squarefree(initial_ideal_generators(g), 12)
    ctx = PolyContext(6, QQ)
    assert rep.fpt == 4
    assert {ctx.var_name(v) for v in rep.absent} == {"x3", "x6", "y1", "y4"}


def test_fpt_tracks_simplicial_endpoints():
    # a non-simplicial top vertex puts x_n into the generators
    claw_center_high = Graph(4, [(1, 4), (2, 4), (3, 4)])
    rep = fpt_squarefree(initial_ideal_generators(claw_center_high), 8)
    ctx = PolyContext(4, QQ)
    assert rep.fpt == 1
    assert [ctx.var_name(v) for v in rep.absent] == ["y1"]
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert fpt_squarefree(initial_ideal_generators(c4), 8).fpt == 0


def test_fpt_rejects_non_minimal_input():
    ctx = PolyContext(2, QQ)
    gens = [ctx.monomial(x1=1), ctx.monomial(x1=1, y2=1)]
    with pytest.raises(ValueError):
        fpt_squarefree(gens, 4)


def test_fpt_report_serialization():
    ctx = PolyContext(3, QQ)
    rep = fpt_squarefree(initial_ideal_generators(path_graph(3)), 6)
    assert rep.to_json_dict(ctx.var_name) == {"fpt": 2, "absent": ["x3", "y1"]}
