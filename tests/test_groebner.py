"""Division, Buchberger, reduced bases, Frobenius powers."""

import itertools
import random
from fractions import Fraction

import pytest

from beideals import (
    GF,
    QQ,
    Graph,
    IdealBasis,
    PolyContext,
    admissible_groebner_basis,
    buchberger,
    edge_ideal_generators,
    enumerate_connected_graphs,
    find_closed_labeling,
    frobenius_power,
    is_closed_with_labeling,
    normal_form,
    not_in_bracket_m,
    parse_poly,
    relabel,
    s_polynomial,
)
from beideals import groebner
import tuple_polys
from helpers import classify_labeled, first_open_relabeling
from test_polys import random_poly
from tuple_polys import from_packed, pack, to_packed


def edge_basis(g, fld=QQ):
    return edge_ideal_generators(PolyContext(g.n, fld), g)


def divmod_basis(f, divisors) -> tuple:
    """(quotients, remainder) of f on division by the divisors in order: the
    quotients from the tuple reference, the remainder from ``normal_form``.
    f == sum(q_i * b_i) + r holds only when the two divisions agree."""
    divisors = list(divisors)
    qs, _ = tuple_polys.divmod_basis(from_packed(f), map(from_packed, divisors))
    return [to_packed(q) for q in qs], normal_form(f, divisors)


def colon_contains(f, gens: IdealBasis, groebner_of_target: IdealBasis) -> bool:
    """Does f lie in (target : ideal(gens))?

    ``groebner_of_target`` must be a Groebner basis; membership of each
    product f * g is decided by normal form against it.
    """
    if not is_groebner_basis(groebner_of_target):
        raise ValueError("colon test needs a verified Groebner basis of the target")
    return all(normal_form(f * g, groebner_of_target).is_zero() for g in gens.polys)


def is_groebner_basis(basis) -> bool:
    """Literal Buchberger criterion: every S-polynomial reduces to zero."""
    polys = basis.polys
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if not normal_form(s_polynomial(polys[a], polys[b]), polys).is_zero():
                return False
    return True


CLAW = Graph(4, [(1, 2), (1, 3), (1, 4)])
DIAMOND = Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_division_reexpansion():
    rng = random.Random(31)
    for fld in (QQ, GF(2), GF(5)):
        ctx = PolyContext(2, fld)
        for _ in range(40):
            f = random_poly(ctx, rng, nterms=6, maxdeg=3)
            divisors = [random_poly(ctx, rng, nterms=3, maxdeg=2) for _ in range(3)]
            divisors = [d for d in divisors if not d.is_zero()]
            qs, r = divmod_basis(f, divisors)
            assert sum((q * d for q, d in zip(qs, divisors)), r) == f
            for m in r.terms:
                assert not any(ctx.divides(d.lm(), m) for d in divisors)


def test_division_depends_on_divisor_order():
    ctx = PolyContext(1, QQ)
    x, y = ctx.x(1), ctx.y(1)
    f = x ** 2 * y + x * y ** 2 + y ** 2
    a = x * y - ctx.one()
    c = y ** 2 - ctx.one()
    _, r1 = divmod_basis(f, [a, c])
    _, r2 = divmod_basis(f, [c, a])
    assert r1 == x + y + ctx.one()
    assert r2 == 2 * x + ctx.one()
    # against a Groebner basis the remainder is order-independent
    gb = buchberger(IdealBasis([a, c]))
    flipped = IdealBasis(list(gb.polys)[::-1])
    assert normal_form(f, gb) == normal_form(f, flipped)


def test_normal_form_empty_basis():
    ctx = PolyContext(2, QQ)
    f = ctx.x(1) + ctx.y(2)
    assert normal_form(f, []) == f
    assert normal_form(f, IdealBasis([])) == f


def test_normal_form_leaves_the_basis_unchanged():
    # a division only reads its divisors, so repeated normal forms agree
    # with fresh bases and lists, and the basis is the same afterwards
    rng = random.Random(41)
    for fld in (QQ, GF(3)):
        gb = buchberger(IdealBasis(edge_basis(DIAMOND, fld)))
        before = [dict(b.terms) for b in gb.polys]
        ctx = gb.ctx
        fs = [random_poly(ctx, rng, nterms=6, maxdeg=4) for _ in range(40)]
        fs += [f * b for f, b in zip(fs, itertools.cycle(gb.polys))]  # members
        first = [normal_form(f, gb) for f in fs]
        second = [normal_form(f, gb) for f in fs]
        fresh = [normal_form(f, IdealBasis(gb.polys)) for f in fs]
        listed = [normal_form(f, list(gb.polys)) for f in fs]
        assert first == second == fresh == listed
        assert any(not r.is_zero() for r in first) and any(r.is_zero() for r in first)
        assert [dict(b.terms) for b in gb.polys] == before
    with pytest.raises(ValueError, match="different ring"):
        normal_form(PolyContext(4, GF(5)).x(1), gb)


def test_normal_form_refuses_divisors_from_another_ring():
    # an IdealBasis and a list of divisors are checked the same way
    ctx = PolyContext(3, QQ)
    for other in (PolyContext(3, GF(3)), PolyContext(2, QQ)):
        basis = IdealBasis([other.x(1) + other.y(2), other.x(2)])
        with pytest.raises(ValueError, match="different ring"):
            normal_form(ctx.x(1), basis)
        with pytest.raises(ValueError, match="different ring"):
            normal_form(ctx.x(1), [ctx.x(2), *basis.polys])
    with pytest.raises(ValueError, match="mixed rings"):
        IdealBasis([ctx.x(1), PolyContext(3, GF(3)).x(1)])
    with pytest.raises(ValueError, match="zero divisor"):
        normal_form(ctx.x(1), [ctx.x(2), ctx.x(1) - ctx.x(1)])
    with pytest.raises(ValueError, match="zero polynomial"):
        IdealBasis([ctx.x(1) - ctx.x(1)])


def test_s_polynomial_cancels_leads():
    g = edge_basis(DIAMOND)
    polys = list(g.polys)
    for a in polys:
        for c in polys:
            if a.lm() == c.lm():
                continue
            s = s_polynomial(a, c)
            if not s.is_zero():
                assert s.lm() < a.ctx.lcm(a.lm(), c.lm())


def test_buchberger_is_idempotent():
    gb = buchberger(edge_basis(CLAW))
    again = buchberger(IdealBasis(list(gb.polys)))
    assert set(gb.polys) == set(again.polys)


def test_reduced_basis_shape():
    gb = buchberger(edge_basis(CLAW))
    polys = list(gb.polys)
    for f in polys:
        assert f.lc() == 1
        for m in f.terms:
            assert not any(f.ctx.divides(h.lm(), m) for h in polys if h is not f)


def test_same_ideal_same_reduced_basis():
    base = edge_basis(DIAMOND)
    gb1 = buchberger(base)
    padded = list(base.polys)
    padded.append(padded[0] * padded[1])
    padded.append(padded[2] + padded[3])
    gb2 = buchberger(IdealBasis(padded))
    assert set(gb1.polys) == set(gb2.polys)


def test_membership_by_normal_form():
    rng = random.Random(13)
    gens = list(edge_basis(DIAMOND).polys)
    gb = buchberger(IdealBasis(gens))
    ctx = gens[0].ctx
    for _ in range(10):
        member = ctx.zero()
        for f in gens:
            member = member + random_poly(ctx, rng, nterms=2, maxdeg=1) * f
        assert normal_form(member, gb).is_zero()
    assert not normal_form(ctx.x(1), gb).is_zero()


def test_is_groebner_basis_detects_gaps():
    gens = edge_basis(CLAW)
    assert not is_groebner_basis(gens)  # the claw needs degree three elements
    assert is_groebner_basis(buchberger(gens))


def test_characteristic_does_not_change_leads():
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            leads = []
            for fld in (QQ, GF(2), GF(3)):
                gb = buchberger(edge_basis(g, fld))
                leads.append(sorted(f.lm() for f in gb.polys))
            assert leads[0] == leads[1] == leads[2]


def test_frobenius_power_validation():
    with pytest.raises(ValueError):
        frobenius_power(edge_basis(CLAW, QQ), 2)
    basis = edge_basis(CLAW, GF(2))
    with pytest.raises(ValueError):
        frobenius_power(basis, 6)
    with pytest.raises(ValueError):
        frobenius_power(basis, 1)


def test_frobenius_power_is_termwise():
    basis = edge_basis(CLAW, GF(3))
    bracket = frobenius_power(basis, 9)
    for f, fq in zip(basis.polys, bracket.polys):
        assert fq == f ** 9
        ctx = f.ctx
        assert fq.terms == {pack(ctx, [9 * e for e in ctx.exponents(m)]): c for m, c in f.terms.items()}


def test_frobenius_power_exponent_overflow():
    ctx = PolyContext(1, GF(2))
    basis = IdealBasis([ctx.x(1) ** (2**14) + ctx.y(1)])
    assert frobenius_power(IdealBasis([ctx.x(1) ** (2**13)]), 2).polys == (ctx.x(1) ** (2**14),)
    with pytest.raises(ValueError):
        frobenius_power(basis, 2)
    with pytest.raises(ValueError):
        frobenius_power(IdealBasis([ctx.y(1) ** (2**14)]), 4)  # 2^16 would carry into x1


def test_bracket_power_contains_qth_powers_of_members():
    rng = random.Random(3)
    for p in (2, 3):
        basis = edge_basis(Graph(3, [(1, 2), (2, 3)]), GF(p))
        gb_bracket = buchberger(frobenius_power(basis, p))
        ctx = basis.ctx
        for _ in range(5):
            member = ctx.zero()
            for f in basis.polys:
                member = member + random_poly(ctx, rng, nterms=2, maxdeg=1) * f
            assert normal_form(member ** p, gb_bracket).is_zero()


def test_division_exponent_overflow():
    ctx = PolyContext(1, GF(2))
    x, y = ctx.x(1), ctx.y(1)
    top = y ** (2**15 - 1)
    assert normal_form(x * y, [x + y ** (2**15 - 2)]) == top
    with pytest.raises(ValueError):
        normal_form(x * y, [x + top])  # x*y -> y * y^(2^15 - 1)
    with pytest.raises(ValueError):
        s_polynomial(x + top, y)  # y * (x + y^(2^15 - 1)) - x * y


def test_buchberger_s_pair_exponent_overflow():
    # the leads x1 * y1 and x1 are not coprime, so the pair is reduced; its
    # S-polynomial y1 * (x1 + y1^(2^15 - 1)) - x1 * y1 needs y1^(2^15)
    ctx = PolyContext(1, GF(2))
    x, y = ctx.x(1), ctx.y(1)
    with pytest.raises(ValueError, match="2\\^15"):
        buchberger(IdealBasis([x + y ** (2**15 - 1), x * y]))
    assert buchberger(IdealBasis([x + y ** (2**15 - 2), x * y])).polys == (x + y ** (2**15 - 2), y ** (2**15 - 1))


def test_divmod_matches_tuple_reference():
    rng = random.Random(43)
    for fld in (QQ, GF(2), GF(5)):
        ctx = PolyContext(2, fld)
        for _ in range(60):
            f = random_poly(ctx, rng, nterms=7, maxdeg=4) + random_poly(ctx, rng, nterms=3, maxdeg=2)
            # mixed degrees, so tails can exceed their leading monomial in some variable
            divisors = [random_poly(ctx, rng, nterms=2, maxdeg=2) + random_poly(ctx, rng, nterms=2, maxdeg=3)
                        for _ in range(rng.randint(1, 4))]
            divisors = [d for d in divisors if not d.is_zero()]
            _, want_r = tuple_polys.divmod_basis(from_packed(f), map(from_packed, divisors))
            assert from_packed(normal_form(f, divisors)) == want_r


def test_buchberger_matches_tuple_reference():
    rng = random.Random(47)

    def trinomials(ctx):  # three generators on four variables
        return [random_poly(ctx, rng, nterms=2, maxdeg=2) + random_poly(ctx, rng, nterms=1, maxdeg=1)
                for _ in range(3)]

    def binomials(ctx):
        # four to six generators on six variables, terms of degree 1 to 3 with
        # coefficients up to 5: enough shared variables for the pair criteria
        # to cut, while the bases stay small (random trinomials here can take
        # seconds on the plain loop)
        return [random_poly(ctx, rng, nterms=1, maxdeg=rng.randint(1, 3))
                + random_poly(ctx, rng, nterms=1, maxdeg=rng.randint(1, 2))
                for _ in range(rng.randint(4, 6))]

    for n, make in ((2, trinomials), (3, binomials)):
        for fld in (QQ, GF(2), GF(5)):
            ctx = PolyContext(n, fld)
            for _ in range(25):
                gens = [g for g in make(ctx) if not g.is_zero()]
                got = buchberger(IdealBasis(gens)).polys
                want = tuple_polys.buchberger(map(from_packed, gens))
                assert list(got) == [to_packed(w) for w in want]


def test_buchberger_with_non_whole_coefficients():
    ctx = PolyContext(2, QQ)
    x1, x2, y1, y2 = ctx.x(1), ctx.x(2), ctx.y(1), ctx.y(2)
    gens = [2 * x1 * y2 - 3 * x2 * y1, 3 * x1 * y1 + x2 * y2 - y1 * y1, 5 * x2 * x2 - 2 * y1 * y2]
    got = buchberger(IdealBasis(gens)).polys
    assert list(got) == [to_packed(w) for w in tuple_polys.buchberger(map(from_packed, gens))]
    assert any(c.denominator != 1 for p in got for c in p.terms.values())


def test_edge_ideal_bases_over_qq_make_no_fractions(monkeypatch):
    """Over QQ the +-1 coefficients of J_G stay ints throughout.  Every
    Fraction the arithmetic could make needs a Fraction operand, which
    coerce, inv or a literal would first have to construct."""
    made = []
    inner = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            admissible_groebner_basis(g, QQ)
            buchberger(edge_basis(g))
    assert made == []


def other_non_closed_labeling(g, h):
    """The first relabeling of g that is not closed and differs from h, or
    None when there is none (complete graphs)."""
    for sigma in itertools.permutations(range(1, g.n + 1)):
        other = relabel(g, sigma)
        if other != h and not is_closed_with_labeling(other):
            return other
    return None


def test_buchberger_matches_tuple_reference_on_edge_ideals():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            sigma = find_closed_labeling(g)
            h = relabel(g, sigma) if sigma else g  # the labeling classify uses
            labelings = [h, other_non_closed_labeling(g, h)]
            for lab in filter(None, labelings):
                for fld in (QQ, GF(2)):
                    gens = edge_basis(lab, fld)
                    want = tuple_polys.buchberger(map(from_packed, gens.polys))
                    assert list(buchberger(gens).polys) == [to_packed(w) for w in want], (lab, fld)


def count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_pair_criteria_cut_s_polynomials(monkeypatch):
    ours = count_calls(monkeypatch, groebner, "_s_pair")  # one call per reduced pair
    plain = count_calls(monkeypatch, tuple_polys, "s_polynomial")
    counts = {}
    for name, g in (("K5", Graph(5, itertools.combinations(range(1, 6), 2))),
                    ("C5", Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))):
        ours.clear()
        plain.clear()
        gens = edge_basis(g)
        got = buchberger(gens).polys
        want = tuple_polys.buchberger(map(from_packed, gens.polys))  # reduces every non-coprime pair
        assert list(got) == [to_packed(w) for w in want]
        counts[name] = len(ours), len(plain)
    assert counts["C5"] == (20, 24)  # 22 of 24 without the proper-divisor step
    # The leading monomials of K5's basis are the x_i*y_j, i < j.  A pair
    # sharing x_i has lcm x_i*y_j*y_l, which no third leading monomial
    # divides, so no criterion applies: all 20 such pairs must be reduced.
    assert counts["K5"] == (20, 20)


def test_s_pairs_reduced_over_small_classes(monkeypatch):
    # Pins how many S-pairs buchberger reduces on every connected class with
    # n <= 5 under classify's labeling; a change to the pair order or the
    # criteria shows up here before it shows up in a running time.
    calls = count_calls(monkeypatch, groebner, "_s_pair")
    counts = []
    for fld in (QQ, GF(2)):
        calls.clear()
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                sigma = find_closed_labeling(g)
                buchberger(edge_basis(relabel(g, sigma) if sigma else g, fld))
        counts.append(len(calls))
    assert counts == [408, 408]


def test_interreduce_matches_tuple_reference():
    ctx = PolyContext(2, QQ)
    x1, x2, y1, y2 = ctx.x(1), ctx.x(2), ctx.y(1), ctx.y(2)
    # minimal rows, leads x2*y1 and x1*y2, but x2*y1 divides a term of f's tail
    g = 3 * x2 * y1 + 5 * y2
    f = 2 * x1 * y2 - 3 * x2 * y1 * y2 + y1 * y1
    got = groebner._interreduce(ctx, groebner._division_table([g, f]))
    want = tuple_polys._interreduce([from_packed(p) for p in (g, f)])
    assert [from_packed(p) for p in got] == want
    assert got[1] == x1 * y2 + Fraction(1, 2) * y1 * y1 + Fraction(5, 2) * y2 * y2
    f = 2 * x1 * y2 - 3 * x2 * y1 + y1 * y1
    g = x2 * y2 + 5 * y1 - y2
    polys = [f, 3 * f, x1 * f, g]  # a duplicate lead, a scalar multiple, a redundant multiple
    gb = buchberger(IdealBasis(polys)).polys
    assert list(gb) == [to_packed(w) for w in tuple_polys.buchberger(map(from_packed, polys))]


def test_interreduce_receives_a_minimal_basis(monkeypatch):
    # every element enters buchberger as a remainder, so no row that reaches
    # _interreduce has a leading monomial dividing another's
    received = []
    inner = groebner._interreduce

    def recording(ctx, rows):
        received.append([lm for lm, _ in rows])
        return inner(ctx, rows)

    monkeypatch.setattr(groebner, "_interreduce", recording)

    def check(polys):
        received.clear()
        got = buchberger(IdealBasis(polys)).polys
        assert list(got) == [to_packed(w) for w in tuple_polys.buchberger(map(from_packed, polys))]
        (leads,) = received
        guard = polys[0].ctx.guard
        assert not [(a, b) for a in leads for b in leads if a != b and not (b - a) & guard]
        assert len(leads) == len(got)

    ctx = PolyContext(2, QQ)
    x1, x2, y1, y2 = ctx.x(1), ctx.x(2), ctx.y(1), ctx.y(2)
    f = 2 * x1 * y2 - 3 * x2 * y1 + y1 * y1
    check([f, 3 * f, x1 * f, x2 * y2 + 5 * y1 - y2])
    # inhomogeneous: an element found late has a lead dividing an earlier one
    check([parse_poly(ctx, text) for text in ("2*x1*x2^2*y1^2*y2^2 + x2*y2^2 + y1*y2",
                                              "x1^2*y1^2 + x1^2*y1*y2", "x1 + 2*y2^2")])
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for lab in filter(None, (classify_labeled(g), first_open_relabeling(g))):
                for fld in (QQ, GF(2)):
                    check(list(edge_basis(lab, fld).polys))


def test_colon_contains_requires_marked_basis():
    basis = edge_basis(CLAW, GF(2))
    with pytest.raises(ValueError):
        colon_contains(basis.polys[0], basis, IdealBasis(list(basis.polys)))


def test_colon_contains_simple_case():
    ctx = PolyContext(1, GF(2))
    x, y = ctx.x(1), ctx.y(1)
    target = buchberger(IdealBasis([x * x]))
    gens = IdealBasis([x])
    assert colon_contains(x, gens, target)          # x * x = x^2
    assert not colon_contains(y, gens, target)      # x * y is not in (x^2)


def test_not_in_bracket_m():
    ctx = PolyContext(1, GF(2))
    x, y = ctx.x(1), ctx.y(1)
    assert not_in_bracket_m(x * y, 2)
    assert not not_in_bracket_m(x ** 2, 2)
    assert not_in_bracket_m(x ** 2 + x * y, 2)  # one surviving term is enough
    with pytest.raises(ValueError):
        not_in_bracket_m(x, 3)
    with pytest.raises(ValueError):
        not_in_bracket_m(PolyContext(1, QQ).x(1), 2)


def test_ideal_basis_validates():
    ctx = PolyContext(2, QQ)
    f = ctx.x(1) * ctx.y(2) - ctx.x(2) * ctx.y(1)
    with pytest.raises(ValueError):
        IdealBasis([ctx.zero(), f])
    with pytest.raises(ValueError):
        IdealBasis([f, PolyContext(3, QQ).x(1)])
    assert IdealBasis([f]).polys == (f,)
