"""Graphs: validation, closedness, admissible paths, canonical labeling.

The closed-labeling search is checked against a scan of all n! labelings,
the admissible-path routine against a from-scratch oracle that enumerates
every simple path and applies the three defining conditions verbatim, the
cell-refinement canonical form against a minimum over all n! relabelings
and the former branch-and-bound search, the automorphism groups that the
search's generators generate against a permutation scan and networkx's
matcher, the orbit reduction of augmentation against the former
backtracking automorphism search, and the enumeration by canonical
augmentation against the former extend-and-dedupe generator, the networkx
graph atlas, a scan of all edge subsets and the known class counts.  The
former set- and dict-based path search, pairwise closedness test and
LexBFS are kept here as oracles for the versions that read the neighbour
masks.
"""

import collections
import functools
import itertools
import pickle
import random
import time

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import beideals.graphs
from beideals import (
    Graph,
    LimitExceededError,
    admissible_paths,
    adjacency_code,
    canonical_form,
    enumerate_connected_graphs,
    find_closed_labeling,
    graph_from_json_dict,
    is_closed_with_labeling,
    is_connected,
    is_path_graph,
    relabel,
)
from beideals.graphs import (
    ENUMERATION_LIMIT,
    _all_graphs_up_to_iso,
    _canonical_search,
    _generators,
    _new_neighbourhoods,
)
from helpers import complete_graph, disjoint_union, has_edge, path_graph

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


def cycle_graph(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)])


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
    assert has_edge(g, 2, 1)


def test_adjacency_and_degrees():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert g.masks == (0b0010, 0b1101, 0b0010, 0b0010)
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


def test_graph_value_semantics():
    # the masks are derived data: equality, hashing and repr see only n and
    # the edges, and a pickle (how classify --jobs sends graphs) keeps them
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    h = Graph(4, [(4, 1), (4, 3), (2, 1), (3, 2)])
    assert g == h and hash(g) == hash(h)
    assert g.masks == h.masks == (0b1010, 0b0101, 0b1010, 0b0101)
    assert repr(g) == f"Graph(n=4, edges={g.edges!r})"
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.masks == g.masks


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


def test_closed_connected_labelings_have_clique_intervals():
    # the lemma fedder_check rests on: under a closed labeling of a connected
    # graph the vertices i..j of every edge {i, j} are pairwise adjacent
    closed = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for perm in itertools.permutations(range(1, n + 1)):
                h = relabel(g, perm)
                if is_closed_with_labeling(h):
                    closed += 1
                    for i, j in h.edges:
                        assert all(has_edge(h, a, b) for a, b in
                                   itertools.combinations(range(i, j + 1), 2)), (h, i, j)
    # relabelings, not distinct labeled graphs: the single vertex and 1,222 more
    assert closed == 1223
    # connectivity is needed: 1..3 is the interval of the edge {1, 3}, and
    # the isolated vertex 2 in it leaves the labeling closed
    gap = Graph(3, [(1, 3)])
    assert is_closed_with_labeling(gap) and not has_edge(gap, 1, 2)


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
    adj = adjacency_sets(g)
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
            if all(has_edge(g, a, c) for a, c in zip(seq, seq[1:])):
                return False
    return True


def test_path_graph_pairs():
    g = path_graph(3)
    assert admissible_paths(g, 1, 2) == [(1, 2)]
    assert admissible_paths(g, 1, 3) == []
    scrambled = Graph(3, [(1, 3), (2, 3)])
    assert admissible_paths(scrambled, 1, 2) == [(1, 3, 2)]


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
                got = admissible_paths(g, i, j)
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
            assert relabel(h, canonical_form(h)[1]) == relabel(g, sigma)


def canonical_code_by_scan(g):
    """The minimum adjacency code over all n! orders of the vertices."""
    adjacent = g.edges | {(j, i) for i, j in g.edges}
    pairs = list(itertools.combinations(range(g.n), 2))[::-1]  # least significant first
    return min(
        sum(1 << k for k, (a, b) in enumerate(pairs) if (order[a], order[b]) in adjacent)
        for order in itertools.permutations(range(1, g.n + 1))
    )


def shuffled(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return relabel(g, tuple(perm))


def test_canonical_form_against_scan_oracle():
    rng = random.Random(11)
    count = 0
    for n in range(1, 7):
        for g in _all_graphs_up_to_iso(n):  # disconnected graphs included
            h = shuffled(g, rng)
            code, sigma = canonical_form(h)
            assert code == canonical_code_by_scan(h) == adjacency_code(g), g
            assert adjacency_code(relabel(h, sigma)) == code, g
            count += 1
    assert count == 208


def test_canonical_form_on_symmetric_graphs():
    # twins everywhere (empty, complete, complete bipartite) or none
    # (cycles, Petersen): the cases where pruning has to do the work
    def family(n):
        return [Graph(n, []), complete_graph(n), cycle_graph(n)] + [
            complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)
        ]

    for n in range(3, 8):
        for g in family(n):
            assert canonical_form(g)[0] == canonical_code_by_scan(g), g
    assert canonical_form(Graph(10, []))[0] == 0
    assert canonical_form(complete_graph(10))[0] == (1 << 45) - 1
    # and regular graphs with large automorphism groups, on which the former
    # bound-driven search was slowest
    rng = random.Random(5)
    regular = [cycle_graph(n) for n in range(11, 17)] + [PETERSEN, hypercube(4), paley_graph(13)]
    for g in family(10) + regular:
        code, sigma = canonical_form(g)
        assert adjacency_code(relabel(g, sigma)) == code
        for _ in range(3):
            h = shuffled(g, rng)
            start = time.perf_counter()
            got, tau = canonical_form(h)
            assert time.perf_counter() - start < 1.0, g
            assert got == code, g
            assert adjacency_code(relabel(h, tau)) == code, g


def hypercube(d):
    """Q_d: the d-bit words, adjacent when they differ in one bit."""
    return Graph(1 << d, [(a + 1, b + 1) for a, b in itertools.combinations(range(1 << d), 2)
                          if (a ^ b).bit_count() == 1])


def paley_graph(q):
    """Paley graph on Z_q, q a prime with q = 1 mod 4: a ~ b when a - b is a
    nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(a + 1, b + 1) for a, b in itertools.combinations(range(q), 2)
                     if (b - a) % q in squares])


# the pentagonal prism C_5 x K_2: 3-regular on 10 vertices, like Petersen
PRISM = Graph(10, [(i, i % 5 + 1) for i in range(1, 6)]
              + [(i + 5, i % 5 + 6) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)])


def networkx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges)
    return h


def test_canonical_form_separates_same_degree_pairs():
    # regular pairs with equal vertex and edge counts that are not isomorphic
    rng = random.Random(31)
    pairs = [(cycle_graph(12), disjoint_union(cycle_graph(6), cycle_graph(6))),
             (PETERSEN, PRISM)]
    for g, h in pairs:
        assert g.degree_sequence() == h.degree_sequence()
        assert not nx.is_isomorphic(networkx_graph(g), networkx_graph(h))
        assert canonical_form(shuffled(g, rng))[0] != canonical_form(shuffled(h, rng))[0]


def canonical_form_by_bound(g):
    """The former canonical form: positions filled in order, each partial
    labeling bounded below (bits between placed positions fixed, a placed
    row's c open ones in its last c columns, unplaced rows 0), candidates
    tried in order of that bound, a branch cut once its bound reaches the
    best code, and one vertex tried per twin class."""
    n, adj = g.n, g.masks
    twin = [next(u for u in range(n) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
            for v in range(n)]
    # 2**low[k] is the weight of the last bit of row k (0-indexed positions)
    low = [(n - 1 - k) * (n - 2 - k) // 2 for k in range(n)]
    best = [1 << (n * (n - 1) // 2), ()]  # above every code

    def place(order, unused, bound):
        k = len(order)
        if k == n:
            best[:] = bound, order
            return
        options = []
        tried = set()
        for v in range(n):
            if unused >> v & 1 and twin[v] not in tried:
                tried.add(twin[v])
                b = bound + (((1 << (adj[v] & unused).bit_count()) - 1) << low[k])
                for i, u in enumerate(order):
                    if adj[u] >> v & 1:  # row i's highest open one moves to column k
                        c = (adj[u] & unused).bit_count()
                        b += (1 << (low[i] + n - 1 - k)) - (1 << (low[i] + c - 1))
                options.append((b, v))
        for b, v in sorted(options):
            if b >= best[0]:
                break
            place(order + (v,), unused & ~(1 << v), b)

    place((), (1 << n) - 1, 0)
    code, order = best
    return code, tuple(order.index(v) + 1 for v in range(n))


def test_canonical_form_against_bound_oracle():
    # every graph with n = 7, disconnected ones included, under two seeded
    # relabelings, and every 25th class with n = 8 relabeled: equal codes,
    # and each sigma gives its code
    rng = random.Random(37)
    graphs = [shuffled(rep, rng) for rep in _all_graphs_up_to_iso(7) for _ in range(2)]
    graphs += [shuffled(rep, rng) for rep in _all_graphs_up_to_iso(8)[::25]]
    assert len(graphs) == 2 * 1044 + 494
    for g in graphs:
        code, sigma = canonical_form(g)
        want, tau = canonical_form_by_bound(g)
        assert code == want, g
        assert adjacency_code(relabel(g, sigma)) == code, g
        assert adjacency_code(relabel(g, tau)) == want, g


def test_complete_graph_code_is_all_ones():
    for n in (2, 3, 4):
        pairs = n * (n - 1) // 2
        assert adjacency_code(complete_graph(n)) == (1 << pairs) - 1


def test_enumeration_counts():
    # OEIS A000088 (all graphs) and A001349 (connected graphs)
    assert [len(_all_graphs_up_to_iso(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    counts = [len(enumerate_connected_graphs(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


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


@functools.lru_cache(maxsize=None)
def graphs_by_extend_and_dedupe(n):
    """The former generator: canonicalise every one-vertex extension of
    every class on n - 1 vertices and keep one graph per code."""
    if n == 1:
        return (Graph(1, []),)
    reps = {}
    for smaller in graphs_by_extend_and_dedupe(n - 1):
        base = list(smaller.edges)
        for mask in range(1 << (n - 1)):
            extra = [(v, n) for v in range(1, n) if mask >> (v - 1) & 1]
            h = Graph(n, base + extra)
            code, sigma = canonical_form(h)
            if code not in reps:
                reps[code] = relabel(h, sigma)
    return tuple(reps[c] for c in sorted(reps))


def test_augmentation_matches_extend_and_dedupe_oracle():
    for n in range(1, 8):
        assert _all_graphs_up_to_iso(n) == graphs_by_extend_and_dedupe(n), n


def test_enumeration_against_networkx_atlas():
    # the atlas lists every graph with at most 7 vertices, one per class
    codes = {n: set() for n in range(1, 8)}
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if n:
            g = Graph(n, [(u + 1, v + 1) for u, v in a.edges()])
            codes[n].add(canonical_form(g)[0])
    assert sum(map(len, codes.values())) == 1252
    for n, expected in codes.items():
        reps = _all_graphs_up_to_iso(n)
        assert len(reps) == len(expected)
        assert {adjacency_code(g) for g in reps} == expected, n


def test_enumeration_counts_at_eight():
    # OEIS A000088 and A001349 at n = 8, past ENUMERATION_LIMIT
    reps = _all_graphs_up_to_iso(8)
    assert len(reps) == 12346
    assert sum(map(is_connected, reps)) == 11117
    codes = [adjacency_code(g) for g in reps]
    assert all(a < b for a, b in zip(codes, codes[1:]))


def automorphisms_by_scan(g):
    return {p for p in itertools.permutations(range(1, g.n + 1)) if relabel(g, p) == g}


def automorphism_group(g):
    """The group that the generators from one canonical search of g
    generate, closed by composition, as permutation tuples."""
    gens = [tuple(w + 1 for w in image)
            for image in _generators(*_canonical_search(g.masks)[1:])]
    identity = tuple(range(1, g.n + 1))
    group, todo = {identity}, [identity]
    while todo:
        p = todo.pop()
        for s in gens:
            q = tuple(s[v - 1] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_automorphisms_against_permutation_scan():
    rng = random.Random(13)
    for n in range(1, 6):
        for rep in _all_graphs_up_to_iso(n):
            g = shuffled(rep, rng)
            assert automorphism_group(g) == automorphisms_by_scan(g), g


def test_automorphism_group_orders_against_networkx():
    rng = random.Random(17)
    for n in (6, 7):
        for rep in _all_graphs_up_to_iso(n):
            g = shuffled(rep, rng)
            h = networkx_graph(g)
            expected = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert len(automorphism_group(g)) == expected, g


def test_automorphisms_of_symmetric_graphs_stay_cheap():
    # the edgeless graph and K_7 are one twin class, so twin swaps alone
    # generate their groups of order 7! = 5040; the shuffled cycle and
    # Petersen graph have no twins, one degree throughout and small groups
    # among 10! permutations, so their generators come from tied leaves
    rng = random.Random(19)
    cases = [(Graph(7, []), 5040), (complete_graph(7), 5040),
             (shuffled(cycle_graph(10), rng), 20), (shuffled(PETERSEN, rng), 120)]
    for g, order in cases:
        start = time.perf_counter()
        group = automorphism_group(g)
        assert time.perf_counter() - start < 1.0, g
        assert len(group) == order, g
        assert all(relabel(g, p) == g for p in group), g


def automorphisms_by_backtracking(g):
    """The former automorphism engine: every automorphism of g as a
    permutation tuple, by backtracking over the vertices in breadth-first
    order.  A vertex may go to an unused vertex of the same degree whose
    adjacency to the images so far matches its own adjacency to the
    vertices mapped so far."""
    n, adj = g.n, g.masks
    deg = [a.bit_count() for a in adj]
    order = []
    for root in range(n):
        if root in order:
            continue
        k = len(order)
        order.append(root)
        while k < len(order):
            v = order[k]
            order.extend(w for w in range(n) if adj[v] >> w & 1 and w not in order)
            k += 1
    image = [0] * n

    def extend(k, used):
        if k == n:
            yield tuple(w + 1 for w in image)
            return
        v = order[k]
        want = 0  # the images of v's neighbours among the mapped vertices
        for u in order[:k]:
            if adj[v] >> u & 1:
                want |= 1 << image[u]
        for w in range(n):
            if not used >> w & 1 and deg[w] == deg[v] and adj[w] & used == want:
                image[v] = w
                yield from extend(k + 1, used | 1 << w)

    yield from extend(0, 0)


def neighbourhoods_by_full_group(g):
    """The former orbit reduction: of the masks S that give a new vertex
    joined to S the largest degree of the child, the smallest of each
    orbit, found by mapping S through every element of the whole group."""
    deg = [a.bit_count() for a in g.masks]
    group = list(automorphisms_by_backtracking(g))
    kept, seen = [], set()
    for s in range(1 << g.n):
        if s.bit_count() >= max(d + (s >> v & 1) for v, d in enumerate(deg)) and s not in seen:
            kept.append(s)
            seen.update(sum(1 << (p[v] - 1) for v in range(g.n) if s >> v & 1) for p in group)
    return kept


def test_new_neighbourhoods_match_full_group_orbits():
    # every graph with n <= 7, disconnected ones included, as enumerated
    # and under a seeded relabeling: the closure under the generators of
    # one search keeps the same masks as the reduction by the whole group
    rng = random.Random(41)
    count = 0
    for n in range(1, 8):
        for rep in _all_graphs_up_to_iso(n):
            for g in (rep, shuffled(rep, rng)):
                assert _new_neighbourhoods(g) == neighbourhoods_by_full_group(g), g
                count += 1
    assert count == 2 * 1252


def test_enumeration_limit():
    with pytest.raises(LimitExceededError):
        enumerate_connected_graphs(ENUMERATION_LIMIT + 1)


def test_augmentation_rejects_children_before_canonical_form(monkeypatch):
    # children whose new vertex would lack the largest degree are never
    # built, since _new_neighbourhoods does not offer them; every child
    # built gets one canonical search, and every parent one more, for the
    # generators of its automorphism group
    calls = collections.Counter()

    def counting(masks):
        calls[len(masks)] += 1
        return search(masks)

    search = beideals.graphs._canonical_search
    monkeypatch.setattr(beideals.graphs, "_canonical_search", counting)
    _all_graphs_up_to_iso.cache_clear()
    assert len(_all_graphs_up_to_iso(7)) == 1044
    # 238 children and the 208 parents on at most 6 vertices
    assert sum(calls[n] for n in range(1, 7)) == 446
    assert calls[7] == 1401


# the set- and dict-based graph layer, kept as oracles ---------------------

def adjacency_sets(g):
    """Vertex -> set of neighbours, built from the edge set alone."""
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def admissible_paths_by_sets(adj, i, j):
    """The former depth-first search on neighbour sets, as vertex tuples."""
    found = []

    def extend(seq, blocked):
        v = seq[-1]
        for w in sorted(adj[v] - blocked):
            if w == j:
                found.append(seq + (j,))
            elif w < i or w > j:
                extend(seq + (w,), blocked | adj[v])

    extend((i,), {i})
    return found


def closed_by_edge_pairs(g):
    """The pairwise definition: two edges with a shared minimum, or with a
    shared maximum, force the edge between their other endpoints."""
    edges = g.sorted_edges()
    for a, (i, j) in enumerate(edges):
        for k, l in edges[a + 1:]:
            if i == k and not has_edge(g, j, l):
                return False
            if j == l and not has_edge(g, i, k):
                return False
    return True


def lexbfs_by_dict(adj, rank):
    """LexBFS on neighbour sets; among equal labels the highest rank goes first."""
    n = len(adj)
    label = {v: 0 for v in adj}
    order = []
    for step in range(n):
        v = max(label, key=lambda u: (label[u], rank[u]))
        del label[v]
        order.append(v)
        for w in adj[v]:
            if w in label:
                label[w] |= 1 << (n - 1 - step)
    return order


def closed_labeling_by_dict_lexbfs(g):
    """The former find_closed_labeling: three sweeps, then the pairwise test."""
    adj = adjacency_sets(g)
    order = lexbfs_by_dict(adj, {v: -v for v in adj})
    for _ in range(2):
        order = lexbfs_by_dict(adj, {v: k for k, v in enumerate(order)})
    position = {v: k for k, v in enumerate(order, 1)}
    sigma = tuple(position[v] for v in range(1, g.n + 1))
    return sigma if closed_by_edge_pairs(relabel(g, sigma)) else None


def test_mask_graph_layer_matches_set_oracles():
    # every graph with n <= 7, disconnected ones included, as given and
    # under two seeded relabelings: equal paths in equal order, equal
    # closedness and the same sigma
    rng = random.Random(23)
    count = 0
    for n in range(1, 8):
        for rep in _all_graphs_up_to_iso(n):
            for g in (rep, shuffled(rep, rng), shuffled(rep, rng)):
                adj = adjacency_sets(g)
                assert g.masks == tuple(sum(1 << (u - 1) for u in adj[v])
                                        for v in range(1, n + 1)), g
                assert g.degree_sequence() == tuple(sorted(map(len, adj.values()))), g
                assert is_closed_with_labeling(g) == closed_by_edge_pairs(g), g
                assert is_connected(g) == nx.is_connected(networkx_graph(g)), g
                assert find_closed_labeling(g) == closed_labeling_by_dict_lexbfs(g), g
                for i, j in itertools.combinations(range(1, n + 1), 2):
                    got = admissible_paths(g, i, j)
                    assert got == admissible_paths_by_sets(adj, i, j), (g, i, j)
                count += 1
    assert count == 3 * 1252  # OEIS A000088 summed over n <= 7
