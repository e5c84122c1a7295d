"""Edge binomials, admissible-path bases, Frobenius certificates, weights."""

import itertools
import random
import re

import pytest

from beideals import (
    GF,
    QQ,
    Graph,
    IdealBasis,
    NotClosedError,
    PolyContext,
    Polynomial,
    admissible_groebner_basis,
    admissible_paths,
    buchberger,
    edge_binomial,
    edge_ideal_generators,
    enumerate_connected_graphs,
    fedder_check,
    find_closed_labeling,
    find_weight_vector,
    format_poly,
    frobenius_power,
    initial_ideal_generators,
    normal_form,
    not_in_bracket_m,
    plucker_relation,
    relabel,
)
from beideals import edgeideals, groebner
from beideals.edgeideals import _bracket_rows, _fedder_record, _initial_masks
from beideals.graphs import LimitExceededError, _all_graphs_up_to_iso
from beideals.polys import EXP_MASK
from beideals.simplicial import support_masks
from helpers import bracket_basis, bracket_table, classify_labeled, complete_graph, \
    first_open_relabeling, has_edge, pair_power_product, path_graph
from test_groebner import is_groebner_basis
from tuple_polys import mono_divides, mono_is_squarefree


# generators -------------------------------------------------------------

def test_edge_binomial_signs():
    ctx = PolyContext(3, QQ)
    f = edge_binomial(ctx, 1, 2)
    assert format_poly(f) == "x1*y2 - x2*y1"
    assert edge_binomial(ctx, 2, 1) == -f


def test_edge_ideal_generators_one_per_edge():
    g = Graph(4, [(1, 2), (2, 4), (3, 4)])
    ctx = PolyContext(4, QQ)
    basis = edge_ideal_generators(ctx, g)
    assert len(basis.polys) == 3
    assert set(basis.polys) == {edge_binomial(ctx, i, j) for i, j in g.sorted_edges()}


# admissible-path bases ----------------------------------------------------

def test_path_graph_basis_is_quadratic():
    elems = admissible_groebner_basis(path_graph(3))
    assert len(elems) == 2
    assert all(e.poly.degree() == 2 for e in elems)


def test_scrambled_path_needs_a_cubic():
    g = Graph(3, [(1, 3), (2, 3)])  # the path 1-3-2
    elems = admissible_groebner_basis(g)
    assert len(elems) == 3
    ctx = elems[0].poly.ctx
    cubic = [e for e in elems if e.poly.degree() == 3]
    assert len(cubic) == 1
    assert cubic[0].path == (1, 3, 2)
    assert cubic[0].poly == ctx.x(3) * edge_binomial(ctx, 1, 2)


def interior_monomial(ctx, path):
    """u for the admissible path (i, ..., j), as a product of variables:
    x_k for each interior vertex k > j, y_k for each interior k < i."""
    i, j = path[0], path[-1]
    u = ctx.one()
    for k in path[1:-1]:
        assert k > j or k < i, path  # admissibility leaves no other interior
        u = u * (ctx.x(k) if k > j else ctx.y(k))
    return u


def test_elements_factor_as_monomial_times_binomial():
    for g in enumerate_connected_graphs(4):
        for e in admissible_groebner_basis(g):
            ctx = e.poly.ctx
            u = interior_monomial(ctx, e.path)
            assert e.poly == u * edge_binomial(ctx, e.path[0], e.path[-1])


def basis_per_pair(g, fld):
    """The basis from the public per-pair calls: admissible_paths(g, i, j)
    for each pair, then u * f_ij as a product of polynomials."""
    ctx = PolyContext(g.n, fld)
    elems = []
    for i, j in itertools.combinations(range(1, g.n + 1), 2):
        f_ij = edge_binomial(ctx, i, j)
        for path in admissible_paths(g, i, j):
            elems.append((path, interior_monomial(ctx, path) * f_ij))
    elems.sort(key=lambda e: (e[1].degree(), e[1].lm()))
    return elems


def test_basis_and_initial_ideal_match_per_pair_construction():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            sigma = find_closed_labeling(g)
            for h in {g, relabel(g, sigma) if sigma else g}:
                for fld in (QQ, GF(2), GF(3)):
                    got = [(e.path, e.poly) for e in admissible_groebner_basis(h, fld)]
                    want = basis_per_pair(h, fld)
                    assert got == want, (h, fld)
                    assert [[type(c) for c in e[1].terms.values()] for e in got] == \
                        [[type(c) for c in e[1].terms.values()] for e in want]
                heads = [e[1].ctx.exponents(e[1].lm()) for e in want]
                assert initial_ideal_generators(h) == heads


def test_basis_is_reduced():
    for g in enumerate_connected_graphs(4):
        polys = [e.poly for e in admissible_groebner_basis(g)]
        for f in polys:
            assert f.lc() == 1
            for m in f.terms:
                assert not any(f.ctx.divides(h.lm(), m) for h in polys if h is not f)


def test_matches_buchberger_small():
    for n in (2, 3, 4):
        for g in enumerate_connected_graphs(n):
            for fld in (QQ, GF(2)):
                ours = IdealBasis(e.poly for e in admissible_groebner_basis(g, fld))
                oracle = buchberger(edge_ideal_generators(PolyContext(n, fld), g))
                assert ours.polys == oracle.polys, g
                assert is_groebner_basis(ours)


def test_initial_generators_minimal_and_squarefree():
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n):
            gens = initial_ideal_generators(g)
            assert all(mono_is_squarefree(m) for m in gens)
            for a in gens:
                assert not any(mono_divides(c, a) for c in gens if c is not a)
            heads = {e.poly.ctx.exponents(e.poly.lm()) for e in admissible_groebner_basis(g)}
            minimal = {m for m in heads if not any(h != m and mono_divides(h, m) for h in heads)}
            assert set(gens) == minimal


def initial_generators_per_path(g):
    """The initial ideal's generators from the public per-pair path search
    as exponent tuples: x_i * y_j, times x_k for each interior k > j and
    y_k for each interior k < i, sorted by (degree, exponents)."""
    n = g.n
    gens = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for path in admissible_paths(g, i, j):
            exps = [0] * (2 * n)
            exps[i - 1] = exps[n + j - 1] = 1
            for k in path[1:-1]:
                exps[k - 1 if k > j else n + k - 1] = 1
            gens.append(tuple(exps))
    gens.sort(key=lambda m: (sum(m), m))
    return gens


def test_initial_masks_match_per_path_generators():
    # every graph with n <= 7, disconnected ones included, as enumerated and
    # under one seeded relabeling
    rng = random.Random(25)
    graphs = 0
    for n in range(1, 8):
        for g in _all_graphs_up_to_iso(n):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for h in (g, relabel(g, order)):
                want = initial_generators_per_path(h)
                assert initial_ideal_generators(h) == want, h.edges
                assert sorted(_initial_masks(h)) == sorted(support_masks(want, 2 * n)), h.edges
            graphs += 1
    assert graphs == 1252


# Pluecker relation --------------------------------------------------------

def test_plucker_vanishes():
    ctx = PolyContext(5, QQ)
    for quad in itertools.combinations(range(1, 6), 4):
        assert plucker_relation(ctx, *quad).is_zero()


def test_plucker_validates_indices():
    ctx = PolyContext(4, QQ)
    with pytest.raises(ValueError):
        plucker_relation(ctx, 1, 2, 2, 4)
    with pytest.raises(ValueError):
        plucker_relation(ctx, 2, 1, 3, 4)
    with pytest.raises(ValueError):
        plucker_relation(ctx, 1, 2, 3, 5)


# Frobenius certificates ----------------------------------------------------

def test_pair_power_product_signs():
    ctx = PolyContext(3, QQ)
    f12 = edge_binomial(ctx, 1, 2)
    f13 = edge_binomial(ctx, 1, 3)
    f23 = edge_binomial(ctx, 2, 3)
    assert pair_power_product(ctx, (1, 2, 3), 1) == f12 * f23
    assert pair_power_product(ctx, (2, 1, 3), 1) == -(f12 * f13)
    assert pair_power_product(ctx, (1, 2), 2) == f12 ** 2


def fedder_witness(n, p):
    """The witness on n vertices at the prime p, from the closed form."""
    return _fedder_record(n, p)[2]


def test_witness_degree_and_lead():
    for n, p in [(2, 3), (3, 2), (4, 2), (3, 5)]:
        w = fedder_witness(n, p)
        assert w.degree() == 2 * (n - 1) * (p - 1)
        ctx = w.ctx
        lead = {}
        for i in range(1, n):
            lead[f"x{i}"] = p - 1
        for j in range(2, n + 1):
            lead[f"y{j}"] = p - 1
        assert w.lm() == ctx.monomial(**lead)


def test_p2_witness_at_three():
    w = fedder_witness(2, 3)
    assert format_poly(w) == "x1^2*y2^2 + x1*x2*y1*y2 + x2^2*y1^2"


def test_closed_form_witness_matches_product():
    # the closed form of f^(p-1) over F_p against polynomial multiplication
    cases = 0
    for p, n_max in ((2, 7), (3, 7), (5, 6), (7, 5)):
        for n in range(2, n_max + 1):
            ctx = PolyContext(n, GF(p))
            ring, factors, witness, degree, outside = _fedder_record(n, p)
            assert ring == ctx and degree == 2 * (n - 1) * (p - 1)
            for k, keys in enumerate(factors, start=1):
                assert dict.fromkeys(keys, 1) == (edge_binomial(ctx, k, k + 1) ** (p - 1)).terms
            assert witness == pair_power_product(ctx, range(1, n + 1), p - 1), (n, p)
            assert len(witness.terms) == p ** (n - 1)
            assert set(witness.terms.values()) == {1}
            assert not_in_bracket_m(witness, p) and outside is True
            cases += 1
    assert cases == 6 + 6 + 5 + 4


def test_witness_refuses_exponents_past_the_field_width():
    # 32771 is the smallest prime with p - 1 >= 2^15: refused before any term
    with pytest.raises(ValueError, match="2\\^15"):
        fedder_witness(2, 32771)
    # 32749, the largest prime below it, still fits when n = 2
    assert len(fedder_witness(2, 32749).terms) == 32749
    # from n = 3 on an inner exponent reaches 2(p - 1); 16411 is the smallest
    # prime with 2(p - 1) >= 2^15
    with pytest.raises(ValueError, match="2\\^15"):
        fedder_witness(3, 16411)


def test_witness_is_capped_before_the_basis_is_built(monkeypatch):
    # p^(n-1) terms: P_17 at p = 2 sits on the cap of 2^16 and certifies
    assert edgeideals.WITNESS_LIMIT == 2 ** 16
    assert fedder_check(path_graph(17), 2).valid

    def no_rows(*args):
        raise AssertionError("a row was written before the witness was sized")

    monkeypatch.setattr(edgeideals, "_bracket_rows", no_rows)
    monkeypatch.setattr(edgeideals, "_pair_paths", no_rows)
    with pytest.raises(LimitExceededError, match="capped at 65536 terms, got 2\\^17"):
        fedder_check(path_graph(18), 2)
    with pytest.raises(LimitExceededError, match="got 3\\^11"):
        fedder_check(path_graph(12), 3)


def test_stepwise_products_check_their_exponents(monkeypatch):
    # each step's product r * F_k is written straight into the division, so
    # _membership checks its keys itself: a factor key x_1^(2^15 - 1) times
    # a term of f_1j with x_1 in it would carry into the guard bit
    real = edgeideals._fedder_factors

    def swapped(n, p):
        # a copy: the cached record shares its factors with every later certificate
        ctx, factors = real(n, p)
        first = (EXP_MASK << ctx.shift(0), *factors[0][1:])
        return ctx, (first, *factors[1:])

    # with (2, 3) cached, forced C_4 takes the clique path for its three
    # interval edges and G's own path for the edge (1, 4) alone
    assert edgeideals._clique_membership(2, 3)
    # _fedder_factors is the one source of factor keys, for K_m and for G;
    # G's record is built uncached, so no swapped key outlives the test
    monkeypatch.setattr(edgeideals, "_fedder_factors", swapped)
    monkeypatch.setattr(edgeideals, "_fedder_record", _fedder_record.__wrapped__)
    with pytest.raises(ValueError, match="2\\^15"):
        edgeideals._clique_membership.__wrapped__(3, 3)
    with pytest.raises(ValueError, match="2\\^15"):
        fedder_check(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 3, force=True)


def test_fedder_certificates_on_paths():
    for n, p in itertools.product(range(2, 6), (2, 3, 5)):
        cert = fedder_check(path_graph(n), p)
        assert cert.valid
        assert cert.not_in_m_bracket
        assert all(cert.edge_memberships.values())
        # taken from the leading monomial: the witness is homogeneous
        assert cert.witness_degree == 2 * (n - 1) * (p - 1) == cert.witness.degree()


def test_frobenius_of_admissible_basis_is_the_bracket_basis():
    # fedder_check takes the basis of I^[p] as the termwise p-th power of the
    # admissible-path basis; Buchberger on the bracket power must agree
    cases = 0
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            sigma = find_closed_labeling(g)
            labelings = [relabel(g, sigma) if sigma else g, first_open_relabeling(g)]
            for h in filter(None, labelings):
                for p in (2, 3, 5):
                    ctx, bracket = bracket_basis(h, p)
                    want = buchberger(frobenius_power(edge_ideal_generators(ctx, h), p))
                    assert bracket.polys == want.polys, (h.edges, p)
                    cases += 1
    # 30 classes under classify's labeling; all but K_2, K_3, K_4 and K_5 also open
    assert cases == 3 * (30 + 26)


def full_product_memberships(h, p):
    """Oracle: the witness multiplied out by ``pair_power_product``, and
    for each edge whether dividing witness * f_ij by the bracket basis in
    one pass leaves zero."""
    ctx, bracket_gb = bracket_basis(h, p)
    witness = pair_power_product(ctx, range(1, h.n + 1), p - 1)
    return witness, {
        (i, j): normal_form(witness * edge_binomial(ctx, i, j), bracket_gb).is_zero()
        for i, j in h.sorted_edges()
    }


def closed_labelings(orders):
    """find_closed_labeling's labeling of every closed connected class of each order."""
    for n in orders:
        for g in enumerate_connected_graphs(n):
            sigma = find_closed_labeling(g)
            if sigma is not None:
                yield relabel(g, sigma)


def test_bracket_rows_match_the_composed_table():
    # _bracket_rows writes the rows that the basis, its Frobenius power and
    # _division_table give, in their order; the oracle's tail coefficient is
    # 1 - p, the written one 1, equal mod p
    cases = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            for h in filter(None, (classify_labeled(g), first_open_relabeling(g))):
                for p in (2, 3, 5):
                    ctx = PolyContext(n, GF(p))
                    rows, want = _bracket_rows(ctx, h), bracket_table(h, p)
                    assert [lm for lm, _ in rows] == [lm for lm, _ in want], (h.edges, p)
                    for (_, tail), (_, old) in zip(rows, want):
                        assert [m for m, _ in tail] == [m for m, _ in old], (h.edges, p)
                        assert all((c - d) % p == 0 for (_, c), (_, d) in zip(tail, old))
                    cases += 1
    # 142 classes with n <= 6, all but the complete graphs also relabeled open
    assert cases == 3 * (142 + 142 - 5)


def test_fedder_check_builds_no_basis(monkeypatch):
    def fail(*args):
        raise AssertionError("fedder_check built a basis")

    names = ("admissible_groebner_basis", "IdealBasis", "frobenius_power", "_division_table")
    for module in (edgeideals, groebner):
        for name in names:
            monkeypatch.setattr(module, name, fail, raising=False)
    assert fedder_check(path_graph(4), 3).valid


def test_certificates_with_the_same_n_and_p_share_the_witness():
    assert fedder_check(path_graph(4), 3).witness is fedder_check(complete_graph(4), 3).witness
    assert fedder_check(path_graph(4), 3).witness is not fedder_check(path_graph(4), 2).witness


def test_witness_cache_holds_a_sweep_without_evicting():
    # the bound is one constant, and the docstring states it
    maxsize = _fedder_record.cache_info().maxsize
    assert maxsize == edgeideals.FEDDER_CACHE_SIZE
    assert re.search(r"the last (\d+) pairs", _fedder_record.__doc__).group(1) == str(maxsize)
    _fedder_record.cache_clear()
    pairs = [(n, p) for n in range(2, 8) for p in (2, 3, 5)]
    first = [_fedder_record(n, p) for n, p in pairs]
    again = [_fedder_record(n, p) for n, p in pairs]
    assert all(a is b for a, b in zip(first, again))
    info = _fedder_record.cache_info()
    assert (info.hits, info.misses, info.currsize) == (18, 18, 18)


def test_clique_memberships_build_no_record():
    # K_m's ring and factor keys come from the plain _fedder_factors, so a
    # cold K_16 fills one record, its own, and not one per m = 2..16
    _fedder_record.cache_clear()
    edgeideals._clique_membership.cache_clear()
    assert fedder_check(complete_graph(16), 2).valid
    assert _fedder_record.cache_info().currsize == 1
    assert edgeideals._clique_membership.cache_info().currsize == 15


def test_a_warm_record_refuses_a_prime_that_is_not_an_int():
    # the record is keyed with types apart: (3, 2.0) equals (3, 2) as a key
    # of a plain lru_cache, and would hand back the certificate of p = 2
    assert fedder_check(path_graph(3), 2).valid
    with pytest.raises(ValueError, match="characteristic must be prime, got 2.0"):
        fedder_check(path_graph(3), 2.0)


def test_the_shared_witness_cannot_be_changed_in_place():
    # every certificate with this n and p holds the same witness
    w = fedder_check(path_graph(3), 2).witness
    with pytest.raises(AttributeError):
        w.terms.clear()
    with pytest.raises(TypeError):
        w.terms[0] = 1
    assert len(fedder_check(complete_graph(3), 2).witness.terms) == 4
    assert fedder_check(path_graph(3), 2).valid
    # read-only terms still take part in arithmetic and comparison
    assert w == Polynomial(w.ctx, dict(w.terms)) and not w - w


def test_stepwise_memberships_match_full_product():
    closed = list(closed_labelings(range(2, 7)))
    forced = [first_open_relabeling(g) for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    forced = [h for h in forced if h is not None]
    # 43 closed classes with n <= 6, complete graphs included; 26 open relabelings with n <= 5
    assert (len(closed), len(forced)) == (43, 26)
    outcomes = set()
    for hs, force in ((closed, False), (forced, True)):
        for h in hs:
            for p in (2, 3, 5):
                cert = fedder_check(h, p, force=force)
                witness, memberships = full_product_memberships(h, p)
                assert cert.witness == witness
                assert cert.edge_memberships == memberships, (h.edges, p)
                outcomes.update(cert.edge_memberships.values())
    assert outcomes == {True, False}


def test_clique_memberships_match_full_product():
    # the edge {1, m} of K_m, which fedder_check translates to every edge
    # whose vertex interval is a clique of m vertices
    cases = [(m, p) for m in range(2, 7) for p in (2, 3, 5)] + [(7, 2), (7, 3)]
    for m, p in cases:
        want = full_product_memberships(complete_graph(m), p)[1][(1, m)]
        assert edgeideals._clique_membership(m, p) is want, (m, p)


def test_a_false_clique_membership_falls_back_to_the_graph(monkeypatch):
    # a False on K_m proves nothing about G, so G's own rows decide
    monkeypatch.setattr(edgeideals, "_clique_membership", lambda m, p: False)
    for h in closed_labelings(range(2, 7)):
        for p in (2, 3, 5):
            cert = fedder_check(h, p)
            assert cert.edge_memberships == full_product_memberships(h, p)[1], (h.edges, p)


def test_only_non_clique_intervals_take_the_graphs_own_path(monkeypatch):
    primes = {n: (2, 3) if n == 7 else (2, 3, 5) for n in range(2, 8)}
    for m, ps in primes.items():
        for p in ps:
            edgeideals._clique_membership(m, p)  # cached, so K_m's own calls are not counted
    calls, rows = [], []
    membership, bracket_rows = edgeideals._membership, edgeideals._bracket_rows

    def counted_membership(ctx, factors, table, i, j):
        calls.append((i, j))
        return membership(ctx, factors, table, i, j)

    def counted_rows(ctx, g):
        rows.append(g)
        return bracket_rows(ctx, g)

    monkeypatch.setattr(edgeideals, "_membership", counted_membership)
    monkeypatch.setattr(edgeideals, "_bracket_rows", counted_rows)
    certificates = 0
    for h in closed_labelings(range(2, 8)):
        for p in primes[h.n]:
            assert fedder_check(h, p).valid, (h.edges, p)
            certificates += 1
    # 43 closed classes with n <= 6 at three primes, 76 with n = 7 at two
    assert (certificates, calls, rows) == (43 * 3 + 76 * 2, [], [])
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    for p in (2, 3, 5):
        assert not fedder_check(c4, p, force=True).edge_memberships[(1, 4)]
    # the edge (1, 4) alone, with G's rows written once per certificate
    assert (calls, rows) == ([(1, 4)] * 3, [c4] * 3)


def test_interval_factors_reach_zero():
    # why fedder_check takes the factors f_{k,k+1}^(p-1) with i <= k < j first
    edges = 0
    for h in closed_labelings(range(2, 7)):
        for p in (2, 3, 5):
            ctx, bracket_gb = bracket_basis(h, p)
            for i, j in h.sorted_edges():
                f = edge_binomial(ctx, i, j)
                full = f * pair_power_product(ctx, range(i, j + 1), p - 1)
                assert normal_form(full, bracket_gb).is_zero(), (h.edges, p, i, j)
                if j - i >= 2:
                    short = f * pair_power_product(ctx, range(i, j), p - 1)
                    assert not normal_form(short, bracket_gb).is_zero(), (h.edges, p, i, j)
                edges += 1
    assert edges == 3 * 333


def test_fedder_certificates_at_n7():
    checked = 0
    for h in closed_labelings([7]):
        if len(h.edges) == 21:  # K_7
            continue
        for p in (2, 3):
            cert = fedder_check(h, p)
            assert cert.valid, (h.edges, p)
            assert cert.witness_degree == 2 * (h.n - 1) * (p - 1)
            checked += 1
    # 75 closed connected non-complete classes with n = 7, two primes each
    assert checked == 2 * 75


def test_fedder_on_complete_graphs():
    # outside the sufficient hypotheses, recorded as observed behavior
    assert fedder_check(complete_graph(3), 2).valid
    assert fedder_check(complete_graph(4), 2).valid


def test_fedder_refuses_open_labelings():
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(NotClosedError):
        fedder_check(c4, 2)
    cert = fedder_check(c4, 2, force=True)
    assert cert.not_in_m_bracket
    assert not cert.valid  # an edge membership fails; kept as a regression value


def test_fedder_input_validation():
    with pytest.raises(ValueError):
        fedder_check(Graph(1, []), 2)
    with pytest.raises(ValueError):
        fedder_check(Graph(4, [(1, 2), (3, 4)]), 2)  # disconnected
    assert issubclass(NotClosedError, ValueError)


def test_certificate_serialization():
    cert = fedder_check(path_graph(3), 2)
    d = cert.to_json_dict()
    assert d["p"] == 2 and d["valid"] is True
    assert {tuple(e["edge"]) for e in d["edge_memberships"]} == {(1, 2), (2, 3)}
    assert isinstance(d["witness"], str)


def swap_congruence_holds(g, vertices, pos, p):
    """Transposing an adjacent edge pair inside a vertex chain preserves the
    chain product modulo the bracket power.

    ``vertices`` is a chain (v_1, ..., v_s); ``pos`` is the 0-based index of
    the left element of the swapped pair, which must be an edge of g and
    must have a predecessor and a successor in the chain.  Checks that the
    two chain products, each a product of f-powers with exponent p - 1,
    agree modulo ideal^[p].
    """
    seq = tuple(vertices)
    if len(seq) < 4:
        raise ValueError("chain too short: the swap needs a neighbor on each side")
    if not 1 <= pos <= len(seq) - 3:
        raise ValueError(f"swap position {pos} has no neighbor on each side")
    a, b = seq[pos], seq[pos + 1]
    if not has_edge(g, a, b):
        raise ValueError(f"swapped pair ({a}, {b}) is not an edge")
    swapped = seq[:pos] + (b, a) + seq[pos + 2:]
    ctx = PolyContext(g.n, GF(p))
    lhs = pair_power_product(ctx, seq, p - 1)
    rhs = pair_power_product(ctx, swapped, p - 1)
    if lhs == rhs:
        return True
    gens = edge_ideal_generators(ctx, g)
    bracket_gb = buchberger(frobenius_power(gens, p))
    return normal_form(lhs - rhs, bracket_gb).is_zero()


def test_swap_congruence_instances():
    p4 = path_graph(4)
    p5 = path_graph(5)
    k4 = complete_graph(4)
    for p in (2, 3):
        assert swap_congruence_holds(p4, (1, 2, 3, 4), 1, p)
        assert swap_congruence_holds(p5, (1, 2, 3, 4, 5), 2, p)
        assert swap_congruence_holds(k4, (4, 1, 3, 2), 1, p)


def test_swap_congruence_validates():
    p4 = path_graph(4)
    with pytest.raises(ValueError):
        swap_congruence_holds(p4, (1, 2, 4, 3), 1, 2)  # swapped pair not an edge
    with pytest.raises(ValueError):
        swap_congruence_holds(p4, (1, 2, 3, 4), 2, 2)  # no room right of the pair
    with pytest.raises(ValueError):
        swap_congruence_holds(p4, (1, 2, 3), 1, 2)


# weight vectors -------------------------------------------------------------

def initial_by_weight(f, w):
    """Monomial of f maximizing (weighted degree, lex) in that order."""
    return max(f.terms, key=lambda m: (w.degree(m), m))


def test_weight_vector_for_natural_path():
    elems = admissible_groebner_basis(path_graph(3))
    w = find_weight_vector(elems)
    assert w.weights == (2, 1, 0, 0, 0, 0)


def test_weights_reproduce_lex_leads():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            elems = admissible_groebner_basis(g)
            if not elems:
                continue
            w = find_weight_vector(elems)
            for e in elems:
                lead = e.poly.lm()
                assert initial_by_weight(e.poly, w) == lead
                # the lex lead must win on weight alone, not by tie-break
                assert all(w.degree(m) < w.degree(lead) for m in e.poly.terms if m != lead)
