"""Brute-force graph invariants that closed formulas for the report
columns are stated in.

Vertex subsets are bitmasks, bit v - 1 for vertex v, and every function
scans all 2^n of them; nothing is done for speed.

- ``longest_induced_path``: ell, the most edges of an induced path.
  ell <= reg S/J_G <= n - 1 (Matsuda & Murai, J. Commut. Algebra 2013),
  with reg = ell for closed G (Ene & Zarojanu, Math. Nachr. 2015) and, for
  connected G on n >= 2 vertices, reg = n - 1 exactly when G is a path
  (Kiani & Saeedi Madani, J. Combin. Theory Ser. A 2016).
- ``maximal_cliques`` and ``is_clique_chain``: a connected closed graph,
  under a closed labeling, is Cohen-Macaulay exactly when its maximal
  cliques, ordered by their least vertex, meet in one vertex when
  consecutive and not at all otherwise (Ene, Herzog & Hibi, Nagoya Math.
  J. 2011).  For every G, reg S/J_G is at most the number of maximal
  cliques (Rouzbahani Malayeri, Saeedi Madani & Kiani, J. Combin. Theory
  Ser. A 2021).
"""


def _neighbours(g) -> list:
    """Neighbour bitmasks, index v - 1 for vertex v."""
    nb = [0] * g.n
    for i, j in g.edges:
        nb[i - 1] |= 1 << (j - 1)
        nb[j - 1] |= 1 << (i - 1)
    return nb


def _is_induced_path(nb, subset: int) -> bool:
    """Whether the induced subgraph on ``subset`` is a path: a tree (connected
    with one edge fewer than vertices) with no degree above 2."""
    vertices = [v for v in range(len(nb)) if subset >> v & 1]
    degrees = [(nb[v] & subset).bit_count() for v in vertices]
    if max(degrees) > 2 or sum(degrees) != 2 * (len(vertices) - 1):
        return False
    reached = frontier = 1 << vertices[0]
    while frontier:
        step = 0
        for v in range(len(nb)):
            if frontier >> v & 1:
                step |= nb[v] & subset
        frontier = step & ~reached
        reached |= frontier
    return reached == subset


def longest_induced_path(g) -> int:
    """The most edges of an induced path of ``g``; 0 on one vertex."""
    nb = _neighbours(g)
    return max(s.bit_count() - 1 for s in range(1, 1 << g.n) if _is_induced_path(nb, s))


def maximal_cliques(g) -> list:
    """Every maximal clique as a vertex bitmask, in increasing least vertex."""
    nb = _neighbours(g)
    cliques = [s for s in range(1, 1 << g.n)
               if all(s & ~(1 << v) & ~nb[v] == 0 for v in range(g.n) if s >> v & 1)]
    maximal = [c for c in cliques if not any(c != d and c & d == c for d in cliques)]
    return sorted(maximal, key=lambda c: c & -c)


def is_clique_chain(cliques) -> bool:
    """Whether consecutive cliques share exactly one vertex and the others
    none."""
    return all(
        (cliques[a] & cliques[b]).bit_count() == (1 if b == a + 1 else 0)
        for a in range(len(cliques)) for b in range(a + 1, len(cliques))
    )
