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

from beideals.betti import MAX_APPEARING, _ranks_over, _renumbered, _spread, _subset_sets
from beideals.classify import graph_id
from beideals.graphs import (
    LimitExceededError,
    enumerate_connected_graphs,
    find_closed_labeling,
    relabel,
)
from beideals.simplicial import (
    _diagonal,
    _restriction,
    by_size,
    integral_homology,
    root_homology,
    subset_lattice,
    support_masks,
)
from helpers import (
    classify_labeled,
    first_open_relabeling,
    nonzero,
    over_fields,
    path_graph,
    projective_plane_generators,
    star_quotient_levels,
)
from hochster_oracle import betti_by_restriction
import rank_oracle
from scan_engine import scan_betti_table, scan_facets


K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])


def test_single_generator_is_koszul():
    ctx = PolyContext(2, QQ)
    t = betti_table([ctx.exponents(ctx.monomial(x1=1, y2=1))], 4, QQ)
    assert t.as_dict() == {(0, 0): 1, (1, 2): 1}
    assert regularity(t) == 1
    assert homological_summary(t) == {"regularity": 1, "pd": 1, "type": 1}


def test_zero_ideal_table():
    t = betti_table([], 6, QQ)
    assert t.as_dict() == {(0, 0): 1}
    assert regularity(t) == 0
    assert projective_dimension(t) == 0


def test_path_initial_ideals_follow_the_koszul_pattern():
    # under the monotone labeling the generators x_i*y_{i+1} have pairwise
    # disjoint supports, so S/in(J_{P_n}) is resolved by a Koszul complex;
    # P_11 has k = 20 appearing variables, the cap
    for n in range(1, 12):
        tables = betti_tables(initial_ideal_generators(path_graph(n)), 2 * n, [QQ, GF(2)])
        expected = {(i, 2 * i): math.comb(n - 1, i) for i in range(n)}
        for t in tables:
            assert t.as_dict() == expected, n
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


def test_betti_tables_match_scan_engine():
    fields = [QQ, GF(2), GF(3)]
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            gens = initial_ideal_generators(classify_labeled(g))
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


def test_random_ideals_with_singletons_and_repeats_match_scan_engine():
    # every case has a singleton support {v}, whose v is no vertex of any
    # restriction, and a repeated generator, which witnesses nothing
    rng = random.Random(11)
    fields = [QQ, GF(2), GF(3)]
    for _ in range(200):
        nvars = rng.randint(2, 8)
        supports = [[rng.randrange(nvars)]]
        for _ in range(rng.randint(1, 5)):
            supports.append(rng.sample(range(nvars), rng.randint(2, min(4, nvars))))
        supports.append(rng.choice(supports))
        rng.shuffle(supports)
        gens = [tuple(int(v in s) for v in range(nvars)) for s in supports]
        tables = betti_tables(gens, nvars, fields)
        want = [scan_betti_table(gens, nvars, fld) for fld in fields]
        assert [t.as_dict() for t in tables] == want, gens
        assert betti_tables_per_union(gens, nvars, fields) == want, gens


def test_projective_plane_needs_the_exact_fallback():
    gens = projective_plane_generators()
    tables = betti_tables(gens, 6, [QQ, GF(2)])
    tq, t2 = tables
    assert tq.as_dict() != t2.as_dict()
    assert set(t2.entries) - set(tq.entries) == {((3, 6), 1), ((4, 6), 1)}
    assert tables.torsion_primes == (2,)
    assert tq.as_dict() == betti_by_restriction(gens, 6, QQ)
    assert t2.as_dict() == betti_by_restriction(gens, 6, GF(2))


# dominated vertices ------------------------------------------------------

def unions_of_supports(masks):
    unions = {0}
    for m in masks:
        unions |= {u | m for u in unions}
    return unions


def restriction_pattern(masks, sigma) -> tuple:
    """The supports inside ``sigma`` renumbered onto the vertices 0..|sigma|-1
    in order, sorted, after |sigma|: restrictions with equal patterns are
    isomorphic complexes, so they have the same homology."""
    bit, size = {}, 0
    rest = sigma
    while rest:
        low = rest & -rest
        bit[low] = 1 << size
        size += 1
        rest ^= low
    local = []
    for m in masks:
        if not m & ~sigma:
            c = 0
            while m:
                low = m & -m
                c |= bit[low]
                m ^= low
            local.append(c)
    local.sort()
    return (size, *local)


def betti_tables_per_union(mingens, nvars, fields, memo=None):
    """Hochster's sum with the homology of every union of supports computed,
    as betti_tables did before it took the ranks of sigma - v for a
    dominated vertex v; one dict (i, j) -> beta per field.

    With a ``memo`` dict the homology is computed once per
    ``restriction_pattern``, on the renumbered supports, and kept there for
    later unions and later calls."""
    masks = support_masks(mingens, nvars)
    tables = [dict() for _ in fields]
    for sigma in unions_of_supports(masks):
        size = sigma.bit_count()
        if memo is None:
            ranks = rank_oracle.homology_by_field(star_quotient_levels(masks, sigma), fields)
        else:
            pattern = restriction_pattern(masks, sigma)
            ranks = memo.get(pattern)
            if ranks is None:
                levels = star_quotient_levels(pattern[1:], (1 << size) - 1)
                ranks = memo[pattern] = rank_oracle.homology_by_field(levels, fields)
        for table, by_degree in zip(tables, ranks):
            for d, h in by_degree.items():
                if h:
                    key = (size - 1 - d, size)
                    table[key] = table.get(key, 0) + h
    return tables


def witnessed_by_vertex(masks) -> list:
    """Pairs (u, through): for each vertex u, the distinct supports m
    through u, each with the mask of the vertices v that have a witness for
    m, a support m2 with m2 - m = {v}."""
    distinct = sorted(set(masks))
    through: dict = {}
    for m in distinct:
        witnessed = 0
        for m2 in distinct:
            extra = m2 & ~m
            if extra & (extra - 1) == 0:
                witnessed |= extra
        rest = m
        while rest:
            u = rest & -rest
            rest ^= u
            through.setdefault(u, []).append((m, witnessed))
    return sorted(through.items())


def dominated_vertex(witnessed, sigma: int) -> int:
    """The lowest vertex v of the union ``sigma`` whose link is a cone with
    apex u, for the first vertex u of sigma that is such an apex, or 0:
    the domination rule decided for one union at a time."""
    for u, through in witnessed:
        if sigma & u:
            dominated = sigma ^ u
            for m, vs in through:
                if m & sigma == m:
                    dominated &= vs
                    if not dominated:
                        break
            if dominated:
                return dominated & -dominated
    return 0


def lattice_domination(masks) -> tuple:
    """The supports renumbered onto the appearing variables, the unions of
    supports as a bitset over subsets, and for each vertex v the unions in
    which betti_tables finds v dominated."""
    local, k = _renumbered(masks)
    unions, _, dominated = _subset_sets(local, k)
    return local, unions, dominated


def test_domination_sets_match_per_union_oracle():
    unions_seen = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for h in filter(None, [classify_labeled(g), first_open_relabeling(g)]):
                masks = support_masks(initial_ideal_generators(h), 2 * n)
                local, unions, dominated = lattice_domination(masks)
                witnessed = witnessed_by_vertex(local)
                want = unions_of_supports(local)
                assert unions == sum(1 << sigma for sigma in want), h.edges
                for sigma in want:
                    found = [v for v, d in enumerate(dominated) if d >> sigma & 1]
                    v = dominated_vertex(witnessed, sigma)
                    assert bool(found) == bool(v), (h.edges, sigma)
                    assert not v or v.bit_length() - 1 in found, (h.edges, sigma)
                unions_seen += len(want)
    # 76,149 under classify's labelings (K_1 included), 84,449 under the open ones
    assert unions_seen == 160598


def test_dominated_vertices_match_per_union_loop():
    fields = [QQ, GF(2), GF(3)]
    memo = {}  # restriction pattern -> ranks, shared by all the graphs below
    cases = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for h in filter(None, [classify_labeled(g), first_open_relabeling(g)]):
                gens = initial_ideal_generators(h)
                tables = betti_tables(gens, 2 * n, fields)
                want = betti_tables_per_union(gens, 2 * n, fields, memo)
                assert [t.as_dict() for t in tables] == want, h.edges
                cases += 1
    # 143 classes under classify's labeling; all but K_1, ..., K_6 also open
    assert cases == 143 + 137


# the n = 7 classes with the most unions under classify's labeling, from
# 8,235 down to 7,893 (a tie with 7-039df8)
N7_MOST_UNIONS = ("7-07bfcb", "7-07deec", "7-07bfcd", "7-07dede", "7-03bfda")


def test_dominated_vertices_match_per_union_loop_at_n7():
    fields = [QQ, GF(2), GF(3)]
    graphs = [g for g in enumerate_connected_graphs(7) if graph_id(g) in N7_MOST_UNIONS]
    graphs.append(Graph(7, itertools.combinations(range(1, 8), 2)))
    assert len(graphs) == 6
    memo = {}
    for g in graphs:
        gens = initial_ideal_generators(classify_labeled(g))
        tables = betti_tables(gens, 14, fields)
        want = betti_tables_per_union(gens, 14, fields, memo)
        assert [t.as_dict() for t in tables] == want, g.edges


def test_dominated_vertices_match_per_union_loop_at_n8():
    # K_8, K_8 without a perfect matching (it has an induced C_4) and K_8
    # without a 5-cycle (an induced C_5); the last two are not chordal, so
    # not closed.  Built directly, with no n = 8 enumeration
    fields = [QQ, GF(2), GF(3)]
    pairs = list(itertools.combinations(range(1, 9), 2))
    matching = {(1, 2), (3, 4), (5, 6), (7, 8)}
    pentagon = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    memo = {}
    for drop in (set(), matching, pentagon):
        g = Graph(8, [e for e in pairs if e not in drop])
        assert (find_closed_labeling(g) is None) == bool(drop)
        gens = initial_ideal_generators(classify_labeled(g))
        tables = betti_tables(gens, 16, fields)
        want = betti_tables_per_union(gens, 16, fields, memo)
        assert [t.as_dict() for t in tables] == want, g.edges


def counted(monkeypatch, name, real):
    """Replace the function ``real``, bound at ``name``, by one that records
    each call's arguments in the returned list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(name, counting)
    return calls


def test_homology_is_computed_only_without_a_dominated_vertex(monkeypatch):
    roots = counted(monkeypatch, "beideals.betti.root_homology", root_homology)
    eliminated = counted(
        monkeypatch, "beideals.simplicial.integral_homology", integral_homology
    )
    built = counted(monkeypatch, "beideals.simplicial._restriction", _restriction)
    unions = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            gens = initial_ideal_generators(classify_labeled(g))
            betti_tables(gens, 2 * n, [QQ, GF(2)])
            unions += len(unions_of_supports(support_masks(gens, 2 * n)))
    # the 142 classes of classify --n-max 6: one union in 20 has no dominated
    # vertex, and the matching in vertex order 0..s-1 leaves 36 of those
    # roots with critical cells of two or more sizes
    assert (len(roots), len(eliminated), unions) == (3770, 36, 76148)
    # each root's faces are built once, for the fallback's star quotient too
    assert [args[1] for args in built] == [args[1] for args in roots]


def test_path_initial_ideals_need_no_elimination(monkeypatch):
    # the supports x_i*y_{i+1} are pairwise disjoint, so no vertex is ever
    # dominated; the matching still decides every root
    eliminated = counted(
        monkeypatch, "beideals.simplicial.integral_homology", integral_homology
    )
    for n in range(1, 11):
        tables = betti_tables(initial_ideal_generators(path_graph(n)), 2 * n, [QQ, GF(2)])
        expected = {(i, 2 * i): math.comb(n - 1, i) for i in range(n)}
        assert [t.as_dict() for t in tables] == [expected, expected], n
    assert eliminated == []


def test_open_roots_are_diagonalized_once_for_every_field(monkeypatch):
    # one fallback root each, under the given labelings: F_2 homology in two
    # degrees (fb5) and in one (fb6).  Each boundary map of the root is
    # diagonalized once over Z, whatever the number of fields; the tables
    # match one elimination per field, and QQ and F_2 agree
    for n, edges in ((5, [(1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]),
                     (6, [(1, 6), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)])):
        gens = initial_ideal_generators(Graph(n, edges))
        eliminated = counted(monkeypatch, "beideals.simplicial.integral_homology", integral_homology)
        diagonalized = counted(monkeypatch, "beideals.simplicial._diagonal", _diagonal)
        for fields in ([QQ], [QQ, GF(2)], [QQ, GF(2), GF(3), GF(5)]):
            del eliminated[:], diagonalized[:]
            tables = betti_tables(gens, 2 * n, fields)
            # one open root, and one diagonalization per map of its complex
            assert len(eliminated) == 1 and len(diagonalized) == len(eliminated[0][0]), (edges, fields)
        assert [t.as_dict() for t in tables[:2]] == betti_tables_per_union(gens, 2 * n, [QQ, GF(2)])
        assert tables[0].as_dict() == tables[1].as_dict(), edges


def test_no_open_root_with_n7_or_less_has_torsion(monkeypatch):
    # every root the matching leaves open, under classify's labelings, has
    # only +-1 on its diagonals, so every table holds over every field
    found = []

    def recording(levels):
        found.append(integral_homology(levels))
        return found[-1]

    monkeypatch.setattr("beideals.simplicial.integral_homology", recording)
    classes = 0
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            tables = betti_tables(initial_ideal_generators(classify_labeled(g)), 2 * n, [QQ])
            assert tables.torsion_primes == (), g.edges
            classes += 1
    # 36 open roots for n <= 6 and 1,535 at n = 7
    assert (classes, len(found)) == (996, 36 + 1535)
    assert all(not torsion for homology in found for _, _, torsion in homology)


def test_universal_coefficients_on_integral_homology():
    # H_1 = Z + Z/2 + Z/4 and H_2 = Z/3 + Z/6, written by hand.  Over F_p a
    # torsion order that p divides adds one in its degree (H tensor F_p) and
    # one in the degree above (Tor(H, F_p)); over QQ only free ranks count
    homology = ((1, 1, (2, 4)), (2, 0, (3, 6)))
    assert _ranks_over(homology, 0) == {1: 1}
    # F_2: H_1 1 + 2; H_2 0 + 1, plus 2 from H_1; H_3 1 from H_2
    assert _ranks_over(homology, 2) == {1: 3, 2: 3, 3: 1}
    # F_3: H_1 1; H_2 2; H_3 2 from H_2
    assert _ranks_over(homology, 3) == {1: 1, 2: 2, 3: 2}
    assert _ranks_over(homology, 5) == {1: 1}
    # a degree with torsion only, and the degree below left alone
    assert _ranks_over(((0, 0, (2,)),), 2) == {0: 1, 1: 1}
    assert _ranks_over(((-1, 1, ()), (0, 0, (4,))), 2) == {-1: 1, 0: 1, 1: 1}


def test_torsion_primes_are_the_prime_factors_of_the_orders(monkeypatch):
    # hand-written integral homology at every root: orders 4 and 6 give 2, 3
    monkeypatch.setattr("beideals.betti.root_homology",
                        lambda masks, sigma: ((1, 1, (2, 4)), (2, 0, (6,))))
    assert betti_tables([(1, 1)], 2, [QQ]).torsion_primes == (2, 3)
    monkeypatch.setattr("beideals.betti.root_homology", lambda masks, sigma: ((0, 0, (9,)),))
    assert betti_tables([(1, 1)], 2, [QQ]).torsion_primes == (3,)
    # one large order: a high power of 2 times a prime past a million
    monkeypatch.setattr("beideals.betti.root_homology",
                        lambda masks, sigma: ((0, 0, (2 ** 60 * 1_000_003,)),))
    assert betti_tables([(1, 1)], 2, [QQ]).torsion_primes == (2, 1_000_003)


# root homology by iterated element matchings ------------------------------

def oracle_ranks(masks, sigma, fields):
    """The nonzero ranks of the restriction to ``sigma`` per field, from the
    star quotient and one elimination per field."""
    return nonzero(rank_oracle.homology_by_field(star_quotient_levels(masks, sigma), fields))


def roots_of(mingens, nvars):
    """The renumbered supports and the unions with no dominated vertex."""
    local, unions, dominated = lattice_domination(support_masks(mingens, nvars))
    for d in dominated:
        unions &= ~d
    return local, [f for level in by_size(unions) for f in level]


def seeded_relabeling(g, rng):
    sigma = list(range(1, g.n + 1))
    rng.shuffle(sigma)
    return relabel(g, sigma)


def test_root_ranks_match_star_quotient_homology():
    fields = [QQ, GF(2), GF(3), GF(5)]
    rng = random.Random(24)
    roots = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for h in (classify_labeled(g), seeded_relabeling(g, rng)):
                local, sigmas = roots_of(initial_ideal_generators(h), 2 * n)
                for sigma in sigmas:
                    want = oracle_ranks(local, sigma, fields)
                    assert over_fields(root_homology(local, sigma), fields) == want, (h.edges, sigma)
                roots += len(sigmas)
    # 3,771 roots under classify's labelings (K_1's empty union included),
    # 3,635 under the seeded ones
    assert roots == 3771 + 3635


def test_root_ranks_match_star_quotient_homology_at_n7():
    # every root of every n = 7 class under classify's labeling; the
    # elimination runs once per restriction_pattern, as in the per-union loop
    fields = [QQ, GF(2), GF(3), GF(5)]
    memo = {}
    roots = 0
    for g in enumerate_connected_graphs(7):
        local, sigmas = roots_of(initial_ideal_generators(classify_labeled(g)), 14)
        for sigma in sigmas:
            pattern = restriction_pattern(local, sigma)
            want = memo.get(pattern)
            if want is None:
                want = memo[pattern] = oracle_ranks(pattern[1:], (1 << pattern[0]) - 1, fields)
            assert over_fields(root_homology(local, sigma), fields) == want, (g.edges, sigma)
        roots += len(sigmas)
    assert roots == 52263


# spreading groups along domination ---------------------------------------

def spread_by_frontiers(group, dominated, has):
    """``group`` closed under adding a vertex v in which v is dominated,
    grown frontier by frontier: each round shifts only the subsets the
    previous round added, once per vertex."""
    frontier = group
    while frontier:
        grown = 0
        for v, d in enumerate(dominated):
            if d:
                grown |= (frontier & ~has[v]) << (1 << v) & d
        frontier = grown & ~group
        group |= frontier
    return group


def root_groups(mingens, nvars):
    """The groups of roots that betti_tables spreads, one per nonzero
    integral homology, with the domination sets and the lattice's ``HAS``."""
    local, k = _renumbered(support_masks(mingens, nvars))
    unions, _, dominated = _subset_sets(local, k)
    for d in dominated:
        unions &= ~d
    groups: dict = {}
    for level in by_size(unions):
        for sigma in level:
            key = root_homology(local, sigma)
            if key:
                groups[key] = groups.get(key, 0) | 1 << sigma
    return list(groups.values()), dominated, subset_lattice(k)[1]


def sweeps_match_frontiers(h) -> tuple:
    """Check every group spread for ``h``'s initial ideal against the
    frontier spread; the number of groups and of unions they reach."""
    groups, dominated, has = root_groups(initial_ideal_generators(h), 2 * h.n)
    steps = [(1 << v, d) for v, d in enumerate(dominated) if d]
    reached = 0
    for group in groups:
        spread = _spread(group, steps)
        assert spread == spread_by_frontiers(group, dominated, has), h.edges
        reached += spread.bit_count()
    return len(groups), reached


def test_spread_sweeps_match_frontier_spread():
    rng = random.Random(25)
    labeled = [classify_labeled(g) for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    # the 635 spreads of classify --n-max 6 and K_1's one group reach the
    # 31,792 unions with nonzero homology, 28,067 of them not roots
    counts = [sweeps_match_frontiers(h) for h in labeled]
    assert tuple(map(sum, zip(*counts))) == (636, 31792)
    for h in labeled:
        sweeps_match_frontiers(seeded_relabeling(h, rng))
    for g in enumerate_connected_graphs(7):
        if graph_id(g) in N7_MOST_UNIONS:
            sweeps_match_frontiers(classify_labeled(g))


def test_projective_plane_root_takes_the_elimination(monkeypatch):
    # the whole six-vertex RP^2: its torsion shows only through elimination
    masks = support_masks(projective_plane_generators(), 6)
    eliminated = counted(
        monkeypatch, "beideals.simplicial.integral_homology", integral_homology
    )
    homology = root_homology(masks, (1 << 6) - 1)
    assert homology == ((1, 0, (2,)),)
    assert over_fields(homology, [QQ, GF(2), GF(3)]) == [{}, {1: 1, 2: 1}, {}]
    assert len(eliminated) == 1


def test_pendant_dominates_on_a_bipartite_edge_ideal():
    # C_6 on 0..5 with a pendant 6 at vertex 1.  N(6) = {1} lies in
    # N(0) = {1, 5} and in N(2) = {1, 3}, so the links of 0 and 2 are cones
    # with apex 6; on C_6 alone no neighbourhood lies in another
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 6)]
    gens = [tuple(int(v in e) for v in range(7)) for e in edges]
    masks = support_masks(gens, 7)
    fields = [QQ, GF(2), GF(3)]

    def reduced_homology(sigma):
        ranks = rank_oracle.homology_by_field(star_quotient_levels(masks, sigma), fields)
        return [{d: h for d, h in by_degree.items() if h} for by_degree in ranks]

    full = (1 << 7) - 1
    cycle = full ^ 1 << 6
    _, unions, dominated = lattice_domination(masks)
    assert unions >> full & 1 and unions >> cycle & 1
    assert [v for v, d in enumerate(dominated) if d >> full & 1] == [0, 2]
    assert not any(d >> cycle & 1 for d in dominated)
    # deleting 0 leaves the path 6-1-2-3-4-5, whose independence complex is
    # a circle; that of C_6 is a wedge of two circles
    for v in (0, 2):
        assert reduced_homology(full) == reduced_homology(full ^ 1 << v) == [{1: 1}] * 3
    assert reduced_homology(cycle) == [{1: 2}] * 3
    tables = betti_tables(gens, 7, fields)
    assert [t.as_dict() for t in tables] == betti_tables_per_union(gens, 7, fields)


def test_appearing_variables_are_capped():
    # absent variables cost nothing; the 2^k-bit lattice stops at k = 20
    tables = betti_tables([(1,) * MAX_APPEARING + (0,)], MAX_APPEARING + 1, [QQ])
    assert tables[0].as_dict() == {(0, 0): 1, (1, MAX_APPEARING): 1}
    assert tables.krull_dim == MAX_APPEARING
    with pytest.raises(LimitExceededError, match="capped at 20 appearing variables, got 21"):
        betti_tables([(1,) * 21], 21, [QQ])


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
    gens = [ctx.exponents(ctx.monomial(x1=1, y1=1)), ctx.exponents(ctx.monomial(x2=1, y2=1))]
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
    gens = [ctx.exponents(ctx.monomial(x1=1)), ctx.exponents(ctx.monomial(x1=1, y2=1))]
    for order in (gens, gens[::-1]):  # the divisor listed first, then last
        with pytest.raises(ValueError, match="not minimal"):
            fpt_squarefree(order, 4)
    with pytest.raises(ValueError, match="not minimal"):
        fpt_squarefree([gens[1], gens[1]], 4)  # a repeat divides its copy
    # an input that is neither square-free nor minimal is refused as the former
    with pytest.raises(ValueError, match="not square-free"):
        fpt_squarefree([(2, 0, 0, 0), (2, 0, 0, 1)], 4)


@pytest.mark.parametrize("gen", [(1, -1, 0), (0, 0, -2), (1, 2, 0)])
def test_exponents_other_than_zero_and_one_are_refused(gen):
    with pytest.raises(ValueError, match="not square-free"):
        betti_table([gen], 3, QQ)
    with pytest.raises(ValueError, match="not square-free"):
        fpt_squarefree([gen], 3)


def test_fpt_report_serialization():
    ctx = PolyContext(3, QQ)
    rep = fpt_squarefree(initial_ideal_generators(path_graph(3)), 6)
    assert rep.to_json_dict(ctx.var_name) == {"fpt": 2, "absent": ["x3", "y1"]}
