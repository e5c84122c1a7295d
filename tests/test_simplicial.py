"""Stanley-Reisner complexes and simplicial homology over exact fields."""

import itertools
import random

import pytest

from beideals import GF, QQ, Graph, PolyContext, initial_ideal_generators, krull_dim, stanley_reisner
from beideals.graphs import enumerate_connected_graphs
from beideals.simplicial import (
    face_levels,
    homology_by_field,
    homology_ranks,
    matrix_rank,
    restriction_faces,
    star_quotient_levels,
    support_masks,
)
from scan_engine import scan_facets, scan_restriction_faces


def mask(*bits):
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def faces_of(facets):
    """Downward closure of facet bitmasks, empty face included."""
    out = set()
    for f in facets:
        s = f
        while True:
            out.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    return sorted(out)


# Stanley-Reisner ---------------------------------------------------------

def test_single_edge_complex():
    ctx = PolyContext(2, QQ)
    gens = [ctx.monomial(x1=1, y2=1)]
    sc = stanley_reisner(gens, 4)
    # variable indexing: x1 x2 y1 y2 -> 0 1 2 3
    assert set(sc.facets) == {(0, 1, 2), (1, 2, 3)}


def test_zero_ideal_gives_full_simplex():
    sc = stanley_reisner([], 6)
    assert sc.facets == ((0, 1, 2, 3, 4, 5),)
    assert krull_dim(sc) == 6


def test_facets_against_subset_filter():
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    gens = initial_ideal_generators(k3)
    sc = stanley_reisner(gens, 6)
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    is_face = lambda s: not any(sup <= s for sup in supports)
    faces = [frozenset(s) for r in range(7) for s in itertools.combinations(range(6), r) if is_face(frozenset(s))]
    facets = {s for s in faces if not any(s < t for t in faces)}
    assert {frozenset(f) for f in sc.facets} == facets


def test_no_facet_contains_another():
    rng = random.Random(77)
    ctx = PolyContext(3, QQ)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 4)):
            vars_ = rng.sample(range(6), rng.randint(1, 3))
            exps = [0] * 6
            for v in vars_:
                exps[v] = 1
            gens.append(tuple(exps))
        gens = [m for m in gens if not any(c != m and all(a <= b for a, b in zip(c, m)) for c in gens)]
        sc = stanley_reisner(gens, 6)
        for a in sc.facets:
            for c in sc.facets:
                if a != c:
                    assert not set(a) <= set(c)


def test_rejects_non_squarefree():
    with pytest.raises(ValueError):
        stanley_reisner([(2, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        support_masks([(0, 0)], 4)
    with pytest.raises(ValueError):
        support_masks([(0, 0, 0, 0)], 4)  # constant generator


def test_krull_dim_examples():
    p3 = Graph(3, [(1, 2), (2, 3)])
    assert krull_dim(stanley_reisner(initial_ideal_generators(p3), 6)) == 4
    for n in (3, 4):
        kn = Graph(n, list(itertools.combinations(range(1, n + 1), 2)))
        assert krull_dim(stanley_reisner(initial_ideal_generators(kn), 2 * n)) == n + 1


# restrictions -------------------------------------------------------------

def test_restriction_faces_lists_submasks():
    masks = support_masks([(1, 1, 0, 0), (0, 0, 1, 1)], 4)
    sigma = mask(0, 1, 2)
    got = sorted(restriction_faces(masks, sigma))
    # every subset of sigma except those containing {0,1}
    want = sorted(s for s in faces_of([sigma]) if (s & mask(0, 1)) != mask(0, 1))
    assert got == want


SAMPLE_GRAPHS = [
    Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # 4-cycle
    Graph(4, [(1, 4), (2, 4), (3, 4)]),  # claw, center labeled last
    Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
    Graph(5, list(itertools.combinations(range(1, 6), 2))),  # K5
]


def every_sigma(masks):
    """Every subset of the appearing variables, as a bitmask."""
    appearing = 0
    for m in masks:
        appearing |= m
    sigma = appearing
    while True:
        yield sigma
        if sigma == 0:
            return
        sigma = (sigma - 1) & appearing


def test_restriction_faces_against_subset_scan():
    for g in SAMPLE_GRAPHS:
        masks = support_masks(initial_ideal_generators(g), 2 * g.n)
        for sigma in every_sigma(masks):
            got = restriction_faces(masks, sigma)
            assert len(got) == len(set(got))
            assert sorted(got) == sorted(scan_restriction_faces(masks, sigma)), (g.edges, sigma)
            levels = face_levels(masks, sigma)
            assert all(f.bit_count() == k for k, level in enumerate(levels) for f in level)


def test_star_quotient_keeps_the_homology():
    fields = [QQ, GF(2), GF(3)]
    for g in SAMPLE_GRAPHS:
        masks = support_masks(initial_ideal_generators(g), 2 * g.n)
        for sigma in every_sigma(masks):
            full = face_levels(masks, sigma)
            quotient = star_quotient_levels(masks, sigma)
            faces = {f for level in full for f in level}
            cut = {f for level in quotient for f in level}
            # the faces outside the closed star of some vertex, or all of a
            # complex without vertices
            assert cut == faces if full == [[0]] else any(
                cut == {f for f in faces if not f & v and f | v not in faces}
                for v in full[1]
            ), (g.edges, sigma)
            got = [{d: h for d, h in r.items() if h} for r in homology_by_field(quotient, fields)]
            want = [{d: h for d, h in r.items() if h} for r in homology_by_field(full, fields)]
            assert got == want, (g.edges, sigma)


def test_facets_against_subset_sweep():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            gens = initial_ideal_generators(g)
            assert list(stanley_reisner(gens, 2 * n).facets) == scan_facets(gens, 2 * n)


# homology ------------------------------------------------------------------

def test_empty_face_only():
    assert homology_ranks([0], QQ) == {-1: 1}


def test_two_points():
    ranks = homology_ranks([0, mask(0), mask(1)], QQ)
    assert ranks == {-1: 0, 0: 1}


def test_triangle_boundary_is_a_circle():
    full = mask(0, 1, 2)
    faces = [s for s in faces_of([full]) if s != full]
    for fld in (QQ, GF(2), GF(3)):
        ranks = homology_ranks(faces, fld)
        assert ranks == {-1: 0, 0: 0, 1: 1}


def test_solid_triangle_is_contractible():
    faces = faces_of([mask(0, 1, 2)])
    ranks = homology_ranks(faces, QQ)
    assert all(v == 0 for v in ranks.values())


def test_projective_plane_depends_on_the_field():
    # minimal six-vertex triangulation of the real projective plane
    triangles = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    faces = faces_of([mask(*t) for t in triangles])
    assert homology_ranks(faces, QQ) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert homology_ranks(faces, GF(3)) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert homology_ranks(faces, GF(2)) == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_euler_characteristic_consistency():
    # alternating face counts equal alternating homology ranks
    rng = random.Random(41)
    for _ in range(15):
        facets = [mask(*rng.sample(range(6), rng.randint(1, 4))) for _ in range(rng.randint(1, 4))]
        faces = faces_of(facets)
        by_count = sum((-1) ** (bin(f).count("1") - 1) for f in faces)
        ranks = homology_ranks(faces, QQ)
        by_rank = sum((-1) ** d * h for d, h in ranks.items())
        assert by_count == by_rank


# rank routines ---------------------------------------------------------------

def naive_rank(rows, ncols, fld):
    grid = [[fld.coerce(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(grid)) if grid[r][col] != fld.zero), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        inv = fld.inv(grid[rank][col])
        grid[rank] = [fld.mul(inv, v) for v in grid[rank]]
        for r in range(len(grid)):
            if r != rank and grid[r][col] != fld.zero:
                c0 = grid[r][col]
                grid[r] = [fld.sub(a, fld.mul(c0, b)) for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def test_matrix_rank_against_naive_elimination():
    rng = random.Random(19)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {c: rng.randint(-4, 4) for c in rng.sample(range(ncols), rng.randint(0, ncols))}
            rows.append({c: v for c, v in row.items() if v})
        for fld in (QQ, GF(2), GF(5)):
            assert matrix_rank(rows, fld) == naive_rank(rows, ncols, fld)


def test_rank_where_fields_disagree():
    rows = [{0: 2}]
    assert matrix_rank(rows, QQ) == 1
    assert matrix_rank(rows, GF(2)) == 0
    assert matrix_rank(rows, GF(3)) == 1
