"""Graphs: validation, closedness, admissible paths, canonical labeling.

The closed-labeling search is checked against a scan of all n! labelings,
the admissible-path routine against a from-scratch oracle that enumerates
every simple path and applies the three defining conditions verbatim, and
the isomorphism-class enumeration against a scan of all edge subsets.
"""

import itertools
import random
import time

import pytest

from beideals import (
    Graph,
    LimitExceededError,
    admissible_paths,
    adjacency_code,
    canonical_form,
    canonical_graph,
    enumerate_connected_graphs,
    find_closed_labeling,
    graph_from_json_dict,
    is_closed_with_labeling,
    is_connected,
    is_path_graph,
    relabel,
)
from beideals.graphs import ENUMERATION_LIMIT, _all_graphs_up_to_iso

PETERSEN = Graph(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
     (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
     (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)],
)

# K_9 with three pendant leaves on vertex 1: a claw, so not closed
K9_WITH_LEAVES = Graph(
    12, list(itertools.combinations(range(1, 10), 2)) + [(1, 10), (1, 11), (1, 12)]
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(1, n + 1), 2)))


# construction and predicates -------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 4)])
    with pytest.raises(ValueError):
        Graph(0, [])
    # duplicates and orientation collapse
    g = Graph(3, [(1, 2), (2, 1), (1, 2)])
    assert len(g.edges) == 1
    assert g.has_edge(2, 1)


def test_adjacency_and_degrees():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert g.adjacency()[2] == {1, 3, 4}
    assert g.degree_sequence() == (1, 1, 1, 3)
    assert g.sorted_edges() == [(1, 2), (2, 3), (2, 4)]


def test_connectivity_and_paths():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert is_connected(Graph(1, []))
    assert is_path_graph(path_graph(4))
    assert is_path_graph(Graph(4, [(2, 1), (1, 3), (3, 4)]))  # path, scrambled labels
    assert not is_path_graph(complete_graph(3))
    assert not is_path_graph(Graph(4, [(1, 2), (1, 3), (1, 4)]))


def test_json_round_trip():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert graph_from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": "3", "edges": []})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[1, 2, 3]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[0, 1]]})


def test_json_booleans_are_not_integers():
    with pytest.raises(ValueError, match="wrong field types"):
        graph_from_json_dict({"n": True, "edges": []})
    with pytest.raises(ValueError, match="bad edge entry"):
        graph_from_json_dict({"n": 3, "edges": [[True, 3]]})


def test_relabel_preserves_structure():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    sigma = (3, 1, 4, 2)  # vertex v -> sigma[v-1]
    h = relabel(g, sigma)
    assert h.n == 4
    assert h.edges == frozenset({(1, 3), (1, 4), (1, 2)})
    assert sorted(h.degree_sequence()) == sorted(g.degree_sequence())


# closed labelings -------------------------------------------------------

def test_natural_path_is_closed():
    assert is_closed_with_labeling(path_graph(5))
    assert is_closed_with_labeling(complete_graph(4))


def test_scrambled_path_is_not_closed_as_given():
    g = Graph(3, [(1, 3), (2, 3)])  # the path 1-3-2
    assert not is_closed_with_labeling(g)
    sigma = find_closed_labeling(g)
    assert sigma is not None
    assert is_closed_with_labeling(relabel(g, sigma))


def test_graphs_with_no_closed_labeling():
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    claw = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert find_closed_labeling(c4) is None
    assert find_closed_labeling(claw) is None


def closed_labeling_by_scan(g):
    """The first labeling, in lexicographic order, that is closed; n! checks."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        if is_closed_with_labeling(relabel(g, perm)):
            return perm
    return None


def test_closed_search_against_scan_oracle():
    count = 0
    for n in range(1, 7):
        for g in _all_graphs_up_to_iso(n):  # disconnected graphs included
            sigma = find_closed_labeling(g)
            assert (sigma is None) == (closed_labeling_by_scan(g) is None), g
            if sigma is not None:
                assert is_closed_with_labeling(relabel(g, sigma)), g
            count += 1
    assert count == 208


def test_closed_search_limit():
    # no size cap: graphs with no closed labeling are refused quickly
    for g in (PETERSEN, K9_WITH_LEAVES):
        start = time.perf_counter()
        assert find_closed_labeling(g) is None
        assert time.perf_counter() - start < 1.0


def test_scrambled_band_graph_gets_closed_labeling():
    n, width = 30, 3
    perm = list(range(1, n + 1))
    random.Random(3).shuffle(perm)
    pairs = itertools.combinations(range(1, n + 1), 2)
    band = Graph(n, [(i, j) for i, j in pairs if j - i <= width])
    g = relabel(band, tuple(perm))
    assert not is_closed_with_labeling(g)
    sigma = find_closed_labeling(g)
    assert sigma is not None
    assert is_closed_with_labeling(relabel(g, sigma))


# admissible paths -------------------------------------------------------

def all_simple_paths(g, i, j):
    adj = g.adjacency()
    found = []

    def walk(path, seen):
        v = path[-1]
        if v == j:
            found.append(tuple(path))
            return
        for w in sorted(adj[v]):
            if w not in seen:
                walk(path + [w], seen | {w})

    walk([i], {i})
    return found


def admissible_by_definition(g, path):
    """The three conditions, written out once more from scratch."""
    i, j = path[0], path[-1]
    if i >= j:
        return False
    interior = path[1:-1]
    if any(not (v < i or v > j) for v in interior):
        return False
    for r in range(len(interior)):
        for kept in itertools.combinations(interior, r):
            seq = (i,) + kept + (j,)
            if all(g.has_edge(a, c) for a, c in zip(seq, seq[1:])):
                return False
    return True


def test_path_graph_pairs():
    g = path_graph(3)
    assert [p.vertices for p in admissible_paths(g, 1, 2)] == [(1, 2)]
    assert admissible_paths(g, 1, 3) == []
    scrambled = Graph(3, [(1, 3), (2, 3)])
    assert [p.vertices for p in admissible_paths(scrambled, 1, 2)] == [(1, 3, 2)]


def test_pair_must_be_increasing():
    with pytest.raises(ValueError):
        admissible_paths(path_graph(3), 2, 1)


def test_admissible_against_definition_oracle():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                expected = sorted(
                    p for p in all_simple_paths(g, i, j) if admissible_by_definition(g, p)
                )
                got = [p.vertices for p in admissible_paths(g, i, j)]
                assert got == expected, (g, i, j)


# canonical forms and enumeration ----------------------------------------

def test_canonical_form_invariance():
    rng = random.Random(7)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
            g = Graph(n, edges)
            code, sigma = canonical_form(g)
            assert adjacency_code(relabel(g, sigma)) == code
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
            assert canonical_form(h)[0] == code
            assert canonical_graph(h) == canonical_graph(g)


def test_complete_graph_code_is_all_ones():
    for n in (2, 3, 4):
        pairs = n * (n - 1) // 2
        assert adjacency_code(complete_graph(n)) == (1 << pairs) - 1


def test_enumeration_counts():
    assert [len(enumerate_connected_graphs(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_enumeration_against_edge_mask_scan():
    # every connected graph on up to 5 labeled vertices, bucketed by
    # canonical code, must reproduce the representative list exactly
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        codes = set()
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            g = Graph(n, edges)
            if is_connected(g):
                codes.add(canonical_form(g)[0])
        reps = enumerate_connected_graphs(n)
        assert {adjacency_code(g) for g in reps} == codes
        assert len(reps) == len(codes)


def test_enumeration_reps_are_canonical_and_sorted():
    reps = enumerate_connected_graphs(5)
    codes = [adjacency_code(g) for g in reps]
    assert codes == sorted(codes)
    for g in reps:
        assert canonical_form(g)[0] == adjacency_code(g)


def test_enumeration_limit():
    with pytest.raises(LimitExceededError):
        enumerate_connected_graphs(ENUMERATION_LIMIT + 1)
