"""The cut-set oracle against networkx and against the Betti tables.

The Betti tables are those of in(J_G) under classify's labeling; S/J_G
and S/in(J_G) have the same dimension and depth, since in(J_G) is
square-free (Conca & Varbaro, Invent. Math. 2020).
"""

import networkx as nx
import pytest

from beideals import GF, QQ, Graph, betti_tables, enumerate_connected_graphs, initial_ideal_generators
from beideals.betti import projective_dimension
from cutsets_oracle import component_counts, cut_sets, is_accessible, is_unmixed, krull_dim_formula
from helpers import classify_labeled, complete_graph, path_graph

FIELDS = [QQ, GF(2)]


@pytest.fixture(scope="module")
def tables_n7():
    """(graph, Betti tables over QQ and GF(2)) for every connected class
    with n <= 7 (996 classes)."""
    return [
        (g, betti_tables(initial_ideal_generators(classify_labeled(g)), 2 * g.n, FIELDS))
        for n in range(1, 8)
        for g in enumerate_connected_graphs(n)
    ]


def test_component_counts_match_networkx():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            counts = component_counts(g)
            for t_set in range(1 << n):
                h = nx.Graph()
                h.add_nodes_from(v for v in range(1, n + 1) if not t_set >> (v - 1) & 1)
                h.add_edges_from(e for e in g.edges if all(v in h for v in e))
                assert counts[t_set] == nx.number_connected_components(h), (g.edges, t_set)


def test_cut_sets_of_small_graphs():
    # a path's cut sets are the empty set and the sets of pairwise
    # nonadjacent inner vertices; a complete graph has only the empty set
    assert cut_sets(path_graph(4)) == (0b0000, 0b0010, 0b0100)
    assert cut_sets(complete_graph(5)) == (0,)
    claw = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert cut_sets(claw) == (0, 0b0001)
    assert is_unmixed(path_graph(5)) and is_accessible(path_graph(5))
    assert not is_unmixed(claw)  # c(claw - {1}) = 3 != 1 + 1
    assert krull_dim_formula(claw) == 6  # n - 1 + 3 beats n + 1


def test_krull_dim_formula_matches_betti_tables(tables_n7):
    for g, tables in tables_n7:
        assert krull_dim_formula(g) == tables.krull_dim, g.edges


def test_cohen_macaulay_exactly_when_accessible(tables_n7):
    # CM means depth = dim, that is pd = 2n - dim; CM implies unmixed, and
    # for n <= 7 it holds exactly on the accessible classes
    counts = {"unmixed": 0, "accessible": 0}
    for g, tables in tables_n7:
        unmixed, accessible = is_unmixed(g), is_accessible(g)
        counts["unmixed"] += unmixed
        counts["accessible"] += accessible
        for table, fld in zip(tables, FIELDS):
            cm = projective_dimension(table) == 2 * g.n - tables.krull_dim
            assert cm == accessible, (g.edges, fld)
            assert unmixed or not cm, (g.edges, fld)
    assert counts == {"unmixed": 98, "accessible": 82}
