"""Finite simple graphs on vertex set {1, ..., n} and their path data.

A ``Graph`` carries one adjacency, built once when it is constructed: the
tuple ``masks`` of neighbour bitmasks, where bit u - 1 of entry v - 1 is set
for each neighbour u of v.  Every algorithm below reads these masks.

Provides the closedness predicates, a LexBFS search for closed labelings,
admissible-path enumeration (a path is its vertex tuple), a canonical
labeling (minimum upper-triangular adjacency bit-string over all vertex
permutations, found by refining an ordered partition of the unplaced
vertices into cells, one placed vertex at a time), and isomorphism-free
generation of graphs by canonical augmentation: each class on n vertices
is built once from one class on n - 1 vertices, the one left when the last
vertex of largest degree in canonical order is deleted, with no table of
the codes seen.  The canonical search is the only isomorphism engine: its
leaves that tie the minimum code, with the twin swaps it skips, generate
the automorphism group, and orbits are closures under those generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


# Largest n that enumerate_connected_graphs accepts.
ENUMERATION_LIMIT = 7


class LimitExceededError(ValueError):
    """A size-guarded computation was asked to exceed one of its fixed limits."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 1..n, edges normalized (i, j) with i < j.

    ``masks[v - 1]`` has bit u - 1 set for each neighbour u of v.  It is
    not a field, so equality, hashing and repr see only n and the edges.
    """

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        norm = set()
        masks = [0] * n
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
            masks[i - 1] |= 1 << (j - 1)
            masks[j - 1] |= 1 << (i - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "masks", tuple(masks))

    def degree_sequence(self) -> tuple:
        return tuple(sorted(m.bit_count() for m in self.masks))

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    masks = g.masks
    seen = frontier = 1  # vertex 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= masks[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


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

    The definition: for every pair of distinct edges {i, j} and {k, l},
    written with i < j and k < l, a shared minimum (i == k) forces {j, l}
    to be an edge, and a shared maximum (j == l) forces {i, k} to be an
    edge.  Grouped by the shared vertex v, that says the neighbours of v
    above v form a clique, and so do the neighbours below v; this is
    checked with one mask test per neighbour, O(n * deg) in all.
    """
    masks = g.masks
    for v, nb in enumerate(masks):
        below = nb & ((1 << v) - 1)
        for side in (below, nb ^ below):
            for u in _bits(side):
                if side & ~masks[u] != 1 << u:
                    return False
    return True


def relabel(g: Graph, sigma) -> Graph:
    """Apply a permutation: vertex v becomes sigma[v - 1] (1-indexed labels)."""
    if sorted(sigma) != list(range(1, g.n + 1)):
        raise ValueError("not a permutation of 1..n")
    return Graph(g.n, [(sigma[i - 1], sigma[j - 1]) for i, j in g.edges])


def _lexbfs(masks: tuple, prefer) -> list:
    """Vertices, 0-indexed, in LexBFS order on the neighbour masks; among
    equal labels the vertex that comes first in ``prefer`` goes first."""
    n = len(masks)
    left = list(prefer)
    label = [0] * n
    order = []
    for step in range(n):
        v = max(left, key=label.__getitem__)  # the first of the largest labels
        left.remove(v)
        order.append(v)
        bit, nb = 1 << (n - 1 - step), masks[v]
        for w in left:
            if nb >> w & 1:
                label[w] |= bit
    return order


def find_closed_labeling(g: Graph):
    """A closed labeling of g, or None when g has none.

    Closed graphs are the proper interval graphs (Herzog, Hibi,
    Hreinsdottir, Kahle & Rauh 2010), and the third of three LexBFS sweeps
    is a proper interval ordering whenever one exists (Corneil 2004).  The
    first sweep breaks ties by the smallest vertex, each later one by the
    vertex that came last in the previous sweep.  Components are swept one
    after another, so disconnected graphs are handled too.  The sweeps read
    the neighbour masks and keep the tie order in a vertex list.  Returns
    sigma with vertex v mapped to sigma[v - 1], its position in the third
    sweep, once ``is_closed_with_labeling`` accepts the relabeled graph.
    """
    order = _lexbfs(g.masks, range(g.n))
    for _ in range(2):
        order = _lexbfs(g.masks, reversed(order))
    sigma = tuple(order.index(v) + 1 for v in range(g.n))
    return sigma if is_closed_with_labeling(relabel(g, sigma)) else None


# ----------------------------------------------------------------------
# admissible paths
# ----------------------------------------------------------------------

def admissible_paths(g: Graph, i: int, j: int) -> list:
    """All admissible paths from i to j (requires i < j), as vertex tuples
    (i, v_1, ..., v_{r-1}, j) in lexicographic order.

    A path i = v_0, v_1, ..., v_r = j is admissible when:

    (i)   the vertices are pairwise distinct;
    (ii)  every interior vertex is either < i or > j;
    (iii) dropping any proper subset of the interior vertices (keeping
          their order) never leaves a path from i to j; equivalently, no
          two non-consecutive vertices of the path are adjacent.

    Condition (iii) says the path has no chord, so a depth-first search
    extends a path by w only when w is adjacent to no vertex of the path
    except its last one.  The search runs on the graph's neighbour masks
    and takes the free neighbours lowest bit first, which gives the paths
    in lexicographic order.  A path whose last vertex is adjacent to j ends
    there, since every longer extension would have a chord to j.
    """
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise ValueError(f"endpoints ({i}, {j}) out of range")
    if i >= j:
        raise ValueError(f"need i < j, got ({i}, {j})")
    return _admissible_paths(g.masks, i, j)


def _admissible_paths(masks: tuple, i: int, j: int) -> list:
    """``admissible_paths`` on a graph's ``masks``, for callers that loop
    over many pairs (i, j) of one graph; the endpoints are not checked."""
    found = []
    target = 1 << (j - 1)

    def extend(seq, blocked):
        # blocked: the path's vertices, every neighbour of its non-last
        # vertices, and the vertices strictly between i and j
        nb = masks[seq[-1] - 1]
        if nb & target:
            found.append(seq + (j,))
            return
        free = nb & ~blocked
        blocked |= nb
        while free:
            low = free & -free
            free ^= low
            extend(seq + (low.bit_length(),), blocked)

    between = (1 << (j - 1)) - (1 << i)  # bits i .. j - 2: vertices i + 1 .. j - 1
    extend((i,), between | 1 << (i - 1))
    return found


# ----------------------------------------------------------------------
# canonical labeling and enumeration up to isomorphism
# ----------------------------------------------------------------------

def adjacency_code(g: Graph) -> int:
    """Upper-triangular adjacency bits of the labeling as one integer.

    Bit order runs (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n) from the
    most significant bit down.
    """
    code = 0
    for v, nb in enumerate(g.masks):
        for w in range(v + 1, g.n):
            code = code << 1 | nb >> w & 1
    return code


def canonical_form(g: Graph):
    """(code, sigma): the minimum adjacency code over all n! relabelings,
    by ``_canonical_search``, and a permutation tuple achieving it (vertex
    v maps to sigma[v - 1])."""
    code, order, _, _ = _canonical_search(g.masks)
    return code, tuple(order.index(v) + 1 for v in range(g.n))


def _canonical_search(adj):
    """The canonical search on neighbour masks: (code, order, ties, twin).

    The code is read row by row, so row k is smallest when its ones sit in
    the latest open positions.  Positions 1..n are filled in order, and the
    unplaced vertices are kept as an ordered list of cells (bitmasks).
    Placing v splits every cell into its non-neighbours of v, then its
    neighbours of v, which fixes row k: per cell, zeros then ones.  Every
    minimal completion orders the unplaced vertices by these cells, so the
    next vertex comes from the first cell.  Of its vertices only those with
    the smallest row go on (McKay & Piperno, J. Symbolic Comput. 60, 2014,
    individualization and refinement, restricted to keep this code), and
    of each twin class (vertices with the same neighbours apart from each
    other) only one, since swapping twins is an automorphism that fixes
    every placed vertex.  A branch is cut once its code so far exceeds the
    same rows of the best code found.

    ``order`` is the first leaf with the minimum code (0-indexed vertices),
    ``ties`` the later ones, and ``twin[v]`` the first vertex of v's twin
    class: the input of ``_generators``.
    """
    n = len(adj)
    opened, closed = {}, {}  # the first vertex of each open and closed neighbourhood
    twin = [min(opened.setdefault(a, v), closed.setdefault(a | 1 << v, v))
            for v, a in enumerate(adj)]
    best = [1 << (n * (n - 1) // 2), ()]  # above every code
    ties = []

    def place(order, cells, code):
        k = len(order)
        if len(cells) == n - k:  # all cells are single vertices: the rest is forced
            rest = [c.bit_length() - 1 for c in cells]
            for i, v in enumerate(rest):
                for u in rest[i + 1:]:
                    code = code << 1 | adj[v] >> u & 1
            if code < best[0]:
                best[:] = code, order + tuple(rest)
                ties.clear()
            elif code == best[0]:
                ties.append(order + tuple(rest))
            return
        width = n - k - 1
        top, picks, tried = None, [], set()
        for v in _bits(cells[0]):
            if twin[v] in tried:
                continue
            tried.add(twin[v])
            nb, row = adj[v], 0
            for c in cells:  # v only adds a leading zero, so cells[0] may keep it
                row = row << c.bit_count() | (1 << (c & nb).bit_count()) - 1
            if top is None or row < top:
                top, picks = row, [v]
            elif row == top:
                picks.append(v)
        code = code << width | top
        if code > best[0] >> width * (width - 1) // 2:  # the rows still open
            return
        for v in picks:
            nb, split = adj[v], []
            for c in cells:
                c &= ~(1 << v)
                if c & ~nb:
                    split.append(c & ~nb)
                if c & nb:
                    split.append(c & nb)
            place(order + (v,), split, code)

    place((), [(1 << n) - 1], 0)
    return best[0], best[1], ties, twin


def _generators(order, ties, twin) -> list:
    """Generators of the automorphism group, as vertex image lists: the
    map order[i] -> leaf[i] for each leaf in ties, and the swap of each
    vertex with the first of its twin class.

    They generate the whole group.  The cut drops only codes above the
    minimum, and cells, rows and the cut are kept by every automorphism
    that fixes the placed vertices, so an automorphism's image of the first
    leaf is a leaf with the minimum code, which twin swaps, level by level,
    take to a leaf that the twin rule did not skip.
    """
    gens = [[w for _, w in sorted(zip(order, leaf))] for leaf in ties]
    for v, t in enumerate(twin):
        if t != v:
            image = list(range(len(twin)))
            image[v], image[t] = t, v
            gens.append(image)
    return gens


def _orbit(s: int, gens) -> set:
    """The orbit of the vertex set s (a bitmask) under the generators."""
    orbit, todo = {s}, [s]
    while todo:
        x = todo.pop()
        for image in gens:
            y = sum(1 << image[v] for v in _bits(x))
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _new_neighbourhoods(parent: Graph) -> list:
    """Neighbourhood masks for a new vertex, one per orbit of Aut(parent),
    among those that give the new vertex the maximum degree of the child.

    Bit v - 1 stands for vertex v.  Joined to S, the new vertex has degree
    |S|, and a vertex of S gains one.  An automorphism keeps that
    condition, so masks are filtered first and then reduced: masks go in
    increasing order, and each one not yet seen is kept and its orbit
    under the parent's generators marked seen, so the smallest stays.
    """
    m = parent.n
    deg = [a.bit_count() for a in parent.masks]
    at_degree = [0] * (m + 1)
    for v, d in enumerate(deg):
        at_degree[d] |= 1 << v
    top = max(deg)
    masks = [s for s in range(1 << m)
             if s.bit_count() >= top and not s & at_degree[s.bit_count()]]
    gens = _generators(*_canonical_search(parent.masks)[1:])
    kept, seen = [], set()
    for s in masks:
        if s not in seen:
            kept.append(s)
            seen |= _orbit(s, gens)
    return kept


@lru_cache(maxsize=None)
def _all_graphs_up_to_iso(n: int) -> tuple:
    """Canonical representatives of every graph on n vertices, sorted by code.

    Canonical augmentation (McKay, J. Algorithms 26, 1998).  Each
    representative on n - 1 vertices, disconnected ones included, gets a
    new vertex n joined to one neighbourhood per orbit of its automorphism
    group.  A child is accepted when n could be the vertex its canonical
    deletion removes: among the vertices of largest degree, the one that
    comes last in the canonical labeling, taken up to automorphisms of the
    child.  Degree is an isomorphism invariant, so that vertex's orbit is
    determined by the class alone.  So n must have the largest degree,
    which ``_new_neighbourhoods`` already ensures, and a canonical vertex u
    other than n must lie in the orbit of n under the generators of the
    child's canonical search.  Every class is then accepted exactly once:
    deleting its canonical vertex gives one parent class, and children of
    one parent that are isomorphic by a map fixing n come from one orbit.
    """
    if n == 1:
        return (Graph(1, []),)
    m = n - 1
    found = []
    for parent in _all_graphs_up_to_iso(m):
        for s in _new_neighbourhoods(parent):
            masks = [a | (s >> v & 1) << m for v, a in enumerate(parent.masks)] + [s]
            top = s.bit_count()
            code, order, ties, twin = _canonical_search(masks)
            u = next(v for v in reversed(order) if masks[v].bit_count() == top)
            if u == m or 1 << u in _orbit(1 << m, _generators(order, ties, twin)):
                sigma = [order.index(v) + 1 for v in range(n)]
                edges = [(sigma[v], sigma[w])
                         for v, a in enumerate(masks) for w in _bits(a) if w > v]
                found.append((code, Graph(n, edges)))
    found.sort(key=lambda pair: pair[0])
    return tuple(g for _, g in found)


def enumerate_connected_graphs(n: int) -> tuple:
    """Connected graphs on n vertices up to isomorphism, canonically labeled.

    Output is sorted by canonical adjacency code.  The classes come from
    ``_all_graphs_up_to_iso``, which generates every graph on n vertices by
    canonical augmentation, one representative per class, and keeps the
    connected ones.  n is capped at ``ENUMERATION_LIMIT`` to bound the run
    time, since the class count grows faster than exponentially (853
    connected classes at n = 7, 11,117 at n = 8).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > ENUMERATION_LIMIT:
        raise LimitExceededError(
            f"graph enumeration capped at n <= {ENUMERATION_LIMIT}, got n={n}"
        )
    return tuple(g for g in _all_graphs_up_to_iso(n) if is_connected(g))
