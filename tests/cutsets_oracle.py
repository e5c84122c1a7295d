"""Brute-force cut sets of a graph: an oracle for the minimal primes of J_G.

Subsets T of the vertices are bitmasks, bit v - 1 for vertex v.  Every
function scans all 2^n subsets, with components counted by a plain
depth-first search over the edge list.  The counts and the cut sets are
memoised per graph; nothing else is done for speed.

For a graph G the minimal primes of J_G are the P_T with T a cut set: a T
in which every vertex t has c(G - T) > c(G - (T - t)), c counting connected
components.  The empty set is one vacuously.  P_T has height
n - c(G - T) + |T| in a ring of 2n variables (Herzog, Hibi, Hreinsdottir,
Kahle & Rauh, Adv. Appl. Math. 2010), so dim S/J_G is the largest
n - |T| + c(G - T), and J_G is unmixed exactly when every cut set T has
c(G - T) = c(G) + |T|.  G is accessible when J_G is unmixed and every
nonempty cut set T has a t with T - t a cut set (Bolognini, Macchia &
Strazzanti, J. Algebraic Combin. 2022).
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def component_counts(g) -> tuple:
    """c(G - T) for every subset T, indexed by T's bitmask."""
    adjacent = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    counts = []
    for removed in range(1 << g.n):
        seen = {v for v in adjacent if removed >> (v - 1) & 1}
        components = 0
        for start in adjacent:
            if start in seen:
                continue
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                for u in adjacent[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        counts.append(components)
    return tuple(counts)


@lru_cache(maxsize=None)
def cut_sets(g) -> tuple:
    """Every cut set of G as a bitmask, the empty set first, in int order."""
    counts = component_counts(g)
    return tuple(
        t_set for t_set in range(1 << g.n)
        if all(counts[t_set] > counts[t_set & ~(1 << k)] for k in range(g.n) if t_set >> k & 1)
    )


def is_unmixed(g) -> bool:
    counts = component_counts(g)
    return all(counts[t_set] == counts[0] + t_set.bit_count() for t_set in cut_sets(g))


def is_accessible(g) -> bool:
    if not is_unmixed(g):
        return False
    cuts = set(cut_sets(g))
    return all(
        any(t_set >> k & 1 and t_set & ~(1 << k) in cuts for k in range(g.n))
        for t_set in cuts if t_set
    )


def krull_dim_formula(g) -> int:
    """dim S/J_G, the largest n - |T| + c(G - T) over the cut sets T."""
    counts = component_counts(g)
    return max(g.n - t_set.bit_count() + counts[t_set] for t_set in cut_sets(g))
