"""The report columns against closed formulas from the literature, on the
session rows (n <= 6), and their independence of the labeling (n <= 5).

reg, pd and dim are read off S/in(J_G); reg and dim are those of S/J_G
too, and so is Cohen-Macaulayness, since in(J_G) is square-free (Conca &
Varbaro, Invent. Math. 2020).  The formulas are in ``theorem_oracles``.
"""

import itertools

import pytest

from beideals import QQ, Graph, betti_tables, enumerate_connected_graphs, graph_id, initial_ideal_generators, \
    projective_dimension, regularity, relabel
from helpers import classify_labeled, complete_graph, path_graph
from theorem_oracles import is_clique_chain, longest_induced_path, maximal_cliques


@pytest.fixture(scope="module")
def graphs_by_id():
    return {graph_id(g): g for n in range(1, 7) for g in enumerate_connected_graphs(n)}


def test_oracles_on_small_graphs():
    assert [longest_induced_path(path_graph(n)) for n in (1, 2, 5)] == [0, 1, 4]
    assert longest_induced_path(complete_graph(5)) == 1
    assert maximal_cliques(path_graph(4)) == [0b0011, 0b0110, 0b1100]
    assert is_clique_chain(maximal_cliques(path_graph(4)))
    assert maximal_cliques(complete_graph(4)) == [0b1111]
    # two triangles on the edge {2, 3} share two vertices
    diamond = Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert maximal_cliques(diamond) == [0b0111, 0b1110]
    assert not is_clique_chain(maximal_cliques(diamond))
    assert not is_clique_chain([0b0011, 0b0110, 0b1100, 0b1001])  # C_4


def test_regularity_formulas_on_the_report_rows(classification_rows, graphs_by_id):
    assert len(classification_rows) == 143
    for row in classification_rows:
        ell = longest_induced_path(graphs_by_id[row.graph_id])
        assert ell <= row.reg <= row.n - 1, row.graph_id  # Matsuda & Murai
        if row.is_closed:
            assert row.reg == ell, row.graph_id  # Ene & Zarojanu
        if row.n >= 2:
            assert (row.reg == row.n - 1) == row.is_path, row.graph_id  # Kiani & Saeedi Madani


def test_regularity_is_at_most_the_number_of_maximal_cliques(classification_rows, graphs_by_id):
    # Rouzbahani Malayeri, Saeedi Madani & Kiani, J. Combin. Theory Ser. A
    # 2021: reg S/J_G <= c(G); equality holds on every path and complete
    # graph with n >= 2, among others
    equal = 0
    for row in classification_rows:
        cliques = len(maximal_cliques(graphs_by_id[row.graph_id]))
        assert row.reg <= cliques, row.graph_id
        equal += row.reg == cliques
    assert (len(classification_rows), equal) == (143, 48)


def test_closed_rows_are_cohen_macaulay_exactly_on_clique_chains(classification_rows, graphs_by_id):
    # Ene, Herzog & Hibi, under the closed labeling that classify uses
    closed = chains = 0
    for row in classification_rows:
        if not row.is_closed:
            continue
        closed += 1
        chain = is_clique_chain(maximal_cliques(classify_labeled(graphs_by_id[row.graph_id])))
        assert (row.pd == 2 * row.n - row.dim) == chain, row.graph_id
        chains += chain
    # a chain is a sequence of clique sizes up to reversal: 1, 1, 2, 3, 6
    # and 10 of them for n = 1..6
    assert (closed, chains) == (44, 23)


def test_reg_pd_dim_do_not_depend_on_the_labeling(classification_rows, graphs_by_id):
    rows = {row.graph_id: row for row in classification_rows}
    labelings = distinct = 0
    for gid, g in graphs_by_id.items():
        if not 2 <= g.n <= 5:
            continue
        want = (rows[gid].reg, rows[gid].pd, rows[gid].dim)
        seen = set()
        for sigma in itertools.permutations(range(1, g.n + 1)):
            labelings += 1
            h = relabel(g, sigma)
            if h.edges in seen:
                continue
            seen.add(h.edges)
            tables = betti_tables(initial_ideal_generators(h), 2 * g.n, [QQ])
            assert (regularity(tables[0]), projective_dimension(tables[0]), tables.krull_dim) == want, (gid, sigma)
        distinct += len(seen)
    assert (labelings, distinct) == (2678, 771)
