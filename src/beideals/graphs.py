"""Finite simple graphs on vertex set {1, ..., n} and their path data.

Provides the closedness predicates, a LexBFS search for closed labelings,
admissible-path enumeration, and isomorphism-free generation of connected
graphs via a canonical labeling (minimum upper-triangular adjacency
bit-string over all vertex permutations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Largest n that enumerate_connected_graphs accepts.
ENUMERATION_LIMIT = 7


class LimitExceededError(ValueError):
    """A size-guarded search was asked to exceed its configured limit."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 1..n, edges normalized (i, j) with i < j."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        norm = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> dict:
        adj: dict = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def degree_sequence(self) -> tuple:
        adj = self.adjacency()
        return tuple(sorted(len(adj[v]) for v in adj))

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}


def _is_int(v) -> bool:
    """True for JSON integers; JSON true and false load as bools, which
    are ints to Python, and are refused."""
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_json_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('graph JSON must be {"n": int, "edges": [[i, j], ...]}')
    n = data["n"]
    edges = data["edges"]
    if not _is_int(n) or not isinstance(edges, list):
        raise ValueError("graph JSON has wrong field types")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e)):
            raise ValueError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return Graph(n, pairs)


def is_connected(g: Graph) -> bool:
    adj = g.adjacency()
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_path_graph(g: Graph) -> bool:
    """True when the graph is a path: connected, acyclic, max degree 2.

    The single vertex counts as a path.  This is a property of the
    isomorphism class; it says nothing about whether the labeling is the
    monotone one.
    """
    if g.n == 1:
        return not g.edges
    if len(g.edges) != g.n - 1 or not is_connected(g):
        return False
    degs = g.degree_sequence()
    return degs[-1] <= 2


def is_closed_with_labeling(g: Graph) -> bool:
    """Closedness of the given labeling.

    For every pair of distinct edges {i, j} and {k, l}, written with i < j
    and k < l: a shared minimum (i == k) forces {j, l} to be an edge, and a
    shared maximum (j == l) forces {i, k} to be an edge.
    """
    edges = g.sorted_edges()
    for a in range(len(edges)):
        i, j = edges[a]
        for b in range(a + 1, len(edges)):
            k, l = edges[b]
            if i == k and not g.has_edge(j, l):
                return False
            if j == l and not g.has_edge(i, k):
                return False
    return True


def relabel(g: Graph, sigma) -> Graph:
    """Apply a permutation: vertex v becomes sigma[v - 1] (1-indexed labels)."""
    if sorted(sigma) != list(range(1, g.n + 1)):
        raise ValueError("not a permutation of 1..n")
    return Graph(g.n, [(sigma[i - 1], sigma[j - 1]) for i, j in g.edges])


def _lexbfs(adj: dict, rank: dict) -> list:
    """Vertices in LexBFS order; among equal labels the highest ``rank`` goes first."""
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


def find_closed_labeling(g: Graph):
    """A closed labeling of g, or None when g has none.

    Closed graphs are the proper interval graphs (Herzog, Hibi,
    Hreinsdottir, Kahle & Rauh 2010), and the third of three LexBFS sweeps
    is a proper interval ordering whenever one exists (Corneil 2004).  The
    first sweep breaks ties by the smallest vertex, each later one by the
    vertex that came last in the previous sweep.  Components are swept one
    after another, so disconnected graphs are handled too.  Returns sigma
    with vertex v mapped to sigma[v - 1], its position in the third sweep.
    """
    adj = g.adjacency()
    order = _lexbfs(adj, {v: -v for v in adj})
    for _ in range(2):
        order = _lexbfs(adj, {v: k for k, v in enumerate(order)})
    position = {v: k for k, v in enumerate(order, 1)}
    sigma = tuple(position[v] for v in range(1, g.n + 1))
    return sigma if is_closed_with_labeling(relabel(g, sigma)) else None


# ----------------------------------------------------------------------
# admissible paths
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissiblePath:
    """A path i = v_0, v_1, ..., v_r = j with i < j satisfying:

    (i)   the vertices are pairwise distinct;
    (ii)  every interior vertex is either < i or > j;
    (iii) dropping any proper subset of the interior vertices (keeping
          their order) never leaves a path from i to j; equivalently, no
          two non-consecutive vertices of the path are adjacent.
    """

    vertices: tuple

    @property
    def i(self) -> int:
        return self.vertices[0]

    @property
    def j(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple:
        return self.vertices[1:-1]


def admissible_paths(g: Graph, i: int, j: int) -> list:
    """All admissible paths from i to j (requires i < j), in lexicographic order.

    Condition (iii) says the path has no chord, so a depth-first search
    extends a path by w only when w is adjacent to no vertex of the path
    except its last one.
    """
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise ValueError(f"endpoints ({i}, {j}) out of range")
    if i >= j:
        raise ValueError(f"need i < j, got ({i}, {j})")
    adj = g.adjacency()
    found = []

    def extend(seq, blocked):
        # blocked: the path's vertices and every neighbour of its non-last vertices
        v = seq[-1]
        for w in sorted(adj[v] - blocked):
            if w == j:
                found.append(AdmissiblePath(seq + (j,)))
            elif w < i or w > j:
                extend(seq + (w,), blocked | adj[v])

    extend((i,), {i})
    return found


# ----------------------------------------------------------------------
# canonical labeling and enumeration up to isomorphism
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_arrays(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _pair_weights(n: int) -> np.ndarray:
    m = n * (n - 1) // 2
    return 1 << np.arange(m - 1, -1, -1, dtype=np.int64)


def adjacency_code(g: Graph) -> int:
    """Upper-triangular adjacency bits of the labeling as one integer.

    Bit order runs (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n) from the
    most significant bit down.
    """
    m = g.n * (g.n - 1) // 2
    code = 0
    t = 0
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            t += 1
            if (i, j) in g.edges:
                code |= 1 << (m - t)
    return code


def canonical_form(g: Graph):
    """Minimum adjacency code over all n! relabelings.

    Returns (code, sigma) where sigma is a permutation tuple (vertex v
    maps to sigma[v - 1]) achieving the minimum.
    """
    n = g.n
    if n == 1:
        return 0, (1,)
    a = np.zeros((n, n), dtype=bool)
    for i, j in g.edges:
        a[i - 1, j - 1] = True
        a[j - 1, i - 1] = True
    perms = _perm_arrays(n)
    b = a[perms[:, :, None], perms[:, None, :]]
    iu, ju = np.triu_indices(n, 1)
    codes = b[:, iu, ju].astype(np.int64) @ _pair_weights(n)
    k = int(np.argmin(codes))
    p = perms[k]
    sigma = [0] * n
    for new, old in enumerate(p):
        sigma[old] = new + 1
    return int(codes[k]), tuple(sigma)


def canonical_graph(g: Graph) -> Graph:
    _, sigma = canonical_form(g)
    return relabel(g, sigma)


@lru_cache(maxsize=None)
def _all_graphs_up_to_iso(n: int) -> tuple:
    """Canonical representatives of every graph on n vertices, sorted by code."""
    if n == 1:
        return (Graph(1, []),)
    reps = {}
    for smaller in _all_graphs_up_to_iso(n - 1):
        base = list(smaller.edges)
        for mask in range(1 << (n - 1)):
            extra = [(v, n) for v in range(1, n) if mask >> (v - 1) & 1]
            h = Graph(n, base + extra)
            code, sigma = canonical_form(h)
            if code not in reps:
                reps[code] = relabel(h, sigma)
    return tuple(reps[c] for c in sorted(reps))


def enumerate_connected_graphs(n: int) -> tuple:
    """Connected graphs on n vertices up to isomorphism, canonically labeled.

    Output is sorted by canonical adjacency code.  The underlying
    generation extends each (n-1)-vertex representative by one new vertex
    with every possible neighborhood, so it is exhaustive; n is capped at
    ``ENUMERATION_LIMIT`` because canonicalization enumerates all n!
    permutations.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"graph enumeration capped at n <= {ENUMERATION_LIMIT}, got n={n}"
        )
    return tuple(g for g in _all_graphs_up_to_iso(n) if is_connected(g))
