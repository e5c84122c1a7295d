"""Stanley-Reisner complexes and simplicial homology over exact fields."""

import itertools
import random

import pytest

from beideals import GF, QQ, Graph, PolyContext, initial_ideal_generators
from beideals.graphs import LimitExceededError, enumerate_connected_graphs
from beideals.simplicial import (
    MAX_APPEARING,
    _boundary_rows,
    _diagonal,
    by_size,
    integral_homology,
    restriction_faces,
    root_homology,
    support_masks,
)
from helpers import face_levels, nonzero, over_fields, star_quotient_levels
import rank_oracle
from rank_oracle import matrix_rank
from scan_engine import boundary_rows, scan_facets, scan_restriction_faces


def mask(*bits):
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def stanley_reisner(mingens, nvars):
    """Facets of the complex whose faces are the subsets of the nvars
    vertices containing no generator support, as sorted vertex tuples.

    A variable absent from every generator is a cone point and lies in
    every facet.  A face is a facet when it is no codimension-one face of a
    larger one.
    """
    masks = support_masks(mingens, nvars)
    appearing = 0
    for m in masks:
        appearing |= m
    cone = ((1 << nvars) - 1) & ~appearing
    levels = face_levels(masks, appearing)
    below = {f & ~(1 << v) for level in levels[1:] for f in level for v in range(nvars) if f >> v & 1}
    facets = [
        tuple(v for v in range(nvars) if (f | cone) >> v & 1)
        for level in levels
        for f in level
        if f not in below
    ]
    facets.sort(key=lambda f: (len(f), f))
    return tuple(facets)


def krull_dim(facets):
    """Krull dimension of the Stanley-Reisner ring: the largest facet size."""
    return max(map(len, facets))


def homology_ranks(faces, fld):
    """Reduced homology ranks {d: rank}, d = -1 .. dim, zeros included, of a
    downward closed list of face bitmasks (the empty face 0 among them),
    from the elimination over ``fld``, checked against the homology over Z
    projected to ``fld``."""
    levels = []
    for f in faces:
        k = f.bit_count()
        while len(levels) <= k:
            levels.append([])
        levels[k].append(f)
    ranks = rank_oracle.homology_by_field(levels, [fld])
    assert over_fields(integral_homology(levels), [fld]) == nonzero(ranks), (faces, fld)
    return ranks[0]


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
    gens = [ctx.exponents(ctx.monomial(x1=1, y2=1))]
    facets = stanley_reisner(gens, 4)
    # variable indexing: x1 x2 y1 y2 -> 0 1 2 3
    assert set(facets) == {(0, 1, 2), (1, 2, 3)}


def test_zero_ideal_gives_full_simplex():
    facets = stanley_reisner([], 6)
    assert facets == ((0, 1, 2, 3, 4, 5),)
    assert krull_dim(facets) == 6


def test_facets_against_subset_filter():
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    gens = initial_ideal_generators(k3)
    got = stanley_reisner(gens, 6)
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    is_face = lambda s: not any(sup <= s for sup in supports)
    faces = [frozenset(s) for r in range(7) for s in itertools.combinations(range(6), r) if is_face(frozenset(s))]
    facets = {s for s in faces if not any(s < t for t in faces)}
    assert {frozenset(f) for f in got} == facets


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
        facets = stanley_reisner(gens, 6)
        for a in facets:
            for c in facets:
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


def test_restriction_faces_with_singletons_and_repeats_against_subset_scan():
    # singleton supports take their vertex out of every face, and a
    # repeated support must not clear its subsets twice
    rng = random.Random(53)
    for _ in range(60):
        masks = []
        for _ in range(rng.randint(1, 6)):
            m = mask(*rng.sample(range(8), rng.randint(1, 3)))
            masks += [m] * rng.randint(1, 2)
        rng.shuffle(masks)
        for sigma in every_sigma(masks):
            got = restriction_faces(masks, sigma)
            assert got == sorted(got, key=lambda f: (f.bit_count(), f))
            assert sorted(got) == sorted(scan_restriction_faces(masks, sigma)), (masks, sigma)


def test_by_size_against_a_direct_scan():
    rng = random.Random(29)
    members = [0, 1, 2, 3, (1 << 64) - 1, 1 << 100]
    members += [rng.getrandbits(rng.randint(1, 1 << rng.randint(1, 12))) for _ in range(60)]
    for x in members:
        want = []
        for f in range(x.bit_length()):
            if x >> f & 1:
                while len(want) <= f.bit_count():
                    want.append([])
                want[f.bit_count()].append(f)
        assert by_size(x) == want, x


def test_restrictions_past_the_cap_build_no_lattice(monkeypatch):
    def no_lattice(k):
        raise AssertionError(f"lattice of {k} vertices built")

    monkeypatch.setattr("beideals.simplicial.subset_lattice", no_lattice)
    sigma = (1 << MAX_APPEARING + 1) - 1
    masks = [mask(0, 1), mask(1, 2)]
    for run in (lambda: restriction_faces(masks, sigma), lambda: root_homology(masks, sigma)):
        with pytest.raises(LimitExceededError, match="capped at 20 vertices, got 21"):
            run()


def onto(sigma, f):
    """The face f, given on sigma's vertices renumbered 0..|sigma|-1 in
    order, back on sigma's own bits."""
    vertices = [1 << v for v in range(sigma.bit_length()) if sigma >> v & 1]
    return sum(u for i, u in enumerate(vertices) if f >> i & 1)


def test_star_quotient_keeps_the_homology():
    fields = [QQ, GF(2), GF(3)]
    for g in SAMPLE_GRAPHS:
        masks = support_masks(initial_ideal_generators(g), 2 * g.n)
        for sigma in every_sigma(masks):
            full = face_levels(masks, sigma)
            quotient = star_quotient_levels(masks, sigma)
            faces = {f for level in full for f in level}
            cut = {onto(sigma, f) for level in quotient for f in level}
            # the faces outside the closed star of the vertex in the most
            # faces, which leaves the fewest; all of a complex without vertices
            outside = {
                1 << v: {f for f in faces if not f >> v & 1 and f | 1 << v not in faces}
                for v in range(sigma.bit_length())
                if sigma >> v & 1
            }
            through = {v: sum(1 for f in faces if f & v) for v in outside}
            most = max(through.values(), default=0)
            assert len(cut) == min((len(q) for q in outside.values()), default=len(faces))
            assert cut == faces if not outside else any(
                cut == outside[v] for v in outside if through[v] == most
            ), (g.edges, sigma)
            # the quotient over Z against the whole restriction field by field
            got = over_fields(integral_homology(quotient), fields)
            assert got == nonzero(rank_oracle.homology_by_field(full, fields)), (g.edges, sigma)


def test_facets_against_subset_sweep():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            gens = initial_ideal_generators(g)
            assert list(stanley_reisner(gens, 2 * n)) == scan_facets(gens, 2 * n)


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
    # over Z: H_1 = Z/2 and nothing free; over F_2 the Tor term adds H_2
    assert integral_homology(by_size(sum(1 << f for f in faces))) == ((1, 0, (2,)),)


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
    coerce = fld.coerce
    grid = [[coerce(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(grid)) if grid[r][col] != 0), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        inv = fld.inv(grid[rank][col])
        grid[rank] = [coerce(inv * v) if v else 0 for v in grid[rank]]
        for r in range(len(grid)):
            if r != rank and grid[r][col] != 0:
                c0 = grid[r][col]
                grid[r] = [coerce(a - coerce(c0 * b)) if b else a for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def test_matrix_rank_against_naive_elimination():
    rng = random.Random(19)
    primes = (2, 3, 5, 7)
    multiples = dict.fromkeys(primes, 0)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in rng.sample(range(ncols), rng.randint(0, ncols)):
                # small entries, and nonzero multiples of a prime, which the
                # elimination over that prime must read as zero
                v = rng.randint(-4, 4) or rng.choice((-1, 1)) * rng.choice(primes) * rng.randint(1, 3)
                row[c] = v
                multiples.update((p, multiples[p] + 1) for p in primes if v % p == 0)
            rows.append(row)
        for fld in (QQ, GF(2), GF(3), GF(5), GF(7)):
            assert matrix_rank(rows, fld) == naive_rank(rows, ncols, fld), (rows, fld)
    assert min(multiples.values()) > 50, multiples


def test_rank_where_fields_disagree():
    rows = [{0: 2}]
    assert matrix_rank(rows, QQ) == 1
    assert matrix_rank(rows, GF(2)) == 0
    assert matrix_rank(rows, GF(3)) == 1
    assert _diagonal(rows) == [2]


def test_diagonal_is_a_smith_form():
    # Z/2 + Z/3 is Z/6, and Z/4 + Z/6 is Z/2 + Z/12: isomorphic cokernels
    # give the same entries other than +-1, each dividing the next
    def orders(rows):
        return [abs(d) for d in _diagonal(rows) if abs(d) != 1]

    assert orders([{0: 2}, {1: 3}]) == orders([{0: 6}]) == [6]
    assert orders([{0: 3}, {1: -2}]) == [6]
    assert orders([{0: 4}, {1: 6}]) == orders([{0: 6}, {1: 4}]) == [2, 12]
    assert orders([{0: 2}, {1: 4}, {2: 3}]) == [2, 12]
    assert sorted(map(abs, _diagonal([{0: 2}, {1: 3}, {2: -1}]))) == [1, 1, 6]


def diagonal_ranks(rows, fields):
    """The rank over each field counted off one Smith form over Z: over QQ
    every diagonal entry, over F_p those that p does not divide."""
    diagonal = _diagonal(rows)
    return [sum(1 for d in diagonal if not fld.char or d % fld.char) for fld in fields]


def test_diagonal_ranks_match_matrix_rank_over_every_field():
    # entries with the small primes as factors, so that many diagonal forms
    # have an entry other than +-1 and the F_p ranks drop below the QQ rank
    rng = random.Random(43)
    fields = (QQ, GF(2), GF(3), GF(5), GF(7))
    entries = (0, 1, -1, 2, -2, 3, 4, 6, -9)
    non_units = 0
    for _ in range(2000):
        ncols = rng.randint(1, 6)
        rows = [{c: v for c in range(ncols) if (v := rng.choice(entries))}
                for _ in range(rng.randint(1, 6))]
        assert diagonal_ranks(rows, fields) == [matrix_rank(rows, fld) for fld in fields], rows
        orders = [abs(d) for d in _diagonal(rows) if abs(d) != 1]
        assert all(b % a == 0 for a, b in zip(orders, orders[1:])), rows
        non_units += bool(orders)
    assert non_units > 500, non_units


def test_signed_rows_against_scan_engine_rows():
    # the signed boundary rows are the scan engine's signed dict rows, on
    # whole complexes and on star quotients
    rng = random.Random(61)
    for _ in range(40):
        facets = [mask(*rng.sample(range(7), rng.randint(1, 5))) for _ in range(rng.randint(1, 5))]
        supports = [mask(*rng.sample(range(7), rng.randint(1, 3))) for _ in range(rng.randint(1, 5))]
        whole = [sorted(f for f in faces_of(facets) if f.bit_count() == k) for k in range(6)]
        while not whole[-1]:
            whole.pop()
        for levels in (whole, star_quotient_levels(supports, (1 << 7) - 1)):
            rows = _boundary_rows(levels)
            lower = {}
            for k, faces in enumerate(levels):
                want = boundary_rows(lower, faces)
                assert rows[k] == want, (levels, k)
                ranks = [naive_rank(want, len(lower), fld) for fld in (QQ, GF(3))]
                assert [matrix_rank(rows[k], fld) for fld in (QQ, GF(3))] == ranks
                assert diagonal_ranks(rows[k], (QQ, GF(3))) == ranks
                lower = {f: t for t, f in enumerate(faces)}
