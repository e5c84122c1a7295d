"""Coefficient fields, monomial order, polynomial arithmetic, text format."""

import random
from fractions import Fraction

import pytest

from beideals import GF, QQ, PolyContext, Polynomial, format_poly, parse_poly
from beideals.fields import PrimeField, is_prime
from tuple_polys import from_packed, mono_degree, mono_divides, mono_lcm, pack


def random_poly(ctx, rng, nterms=4, maxdeg=2):
    f = ctx.zero()
    for _ in range(nterms):
        exps = [0] * ctx.nvars
        for _ in range(maxdeg):
            exps[rng.randrange(ctx.nvars)] += 1
        c = rng.randint(-5, 5)
        f = f + Polynomial(ctx, {pack(ctx, exps): ctx.field.coerce(c)})
    return f


# fields ---------------------------------------------------------------

def test_is_prime_small_cases():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_arithmetic_table():
    f7 = GF(7)
    for a in range(-14, 15):
        assert f7.coerce(a) == a % 7
        for c in range(7):
            assert f7.coerce(a * c) == (a % 7) * c % 7
        if a % 7:
            assert f7.coerce(a * f7.inv(a)) == 1
    for a in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            f7.inv(a)


def test_prime_field_coerces_fractions():
    f5 = GF(5)
    assert f5.coerce(Fraction(1, 2)) == 3
    assert f5.coerce(-1) == 4
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))


def test_rational_field_exactness():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.coerce(7) == Fraction(7)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_rational_field_keeps_whole_numbers_as_ints():
    for whole in (QQ.coerce(7), QQ.coerce(Fraction(4, 2)), QQ.inv(-1), QQ.inv(Fraction(1)),
                  QQ.inv(Fraction(1, 2))):
        assert type(whole) is int
    assert QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(2)) is Fraction
    assert QQ.coerce(True) == 1
    assert type(QQ.coerce(True)) is int


def test_field_equality_and_hash():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert QQ == type(QQ)()
    assert hash(GF(3)) == hash(GF(3))


def test_field_contract_is_char_coerce_inv():
    for fld in (QQ, GF(2), GF(5)):
        assert {name for name in dir(fld) if not name.startswith("_")} == {"char", "coerce", "inv"}


# monomials and order --------------------------------------------------

def test_variable_naming_round_trip():
    ctx = PolyContext(4, QQ)
    names = [ctx.var_name(k) for k in range(ctx.nvars)]
    assert names == ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"]
    for k, name in enumerate(names):
        assert ctx.var_index(name) == k


def test_lex_order_x_before_y():
    ctx = PolyContext(3, QQ)
    x1 = ctx.monomial(x1=1)
    x2 = ctx.monomial(x2=1)
    y1 = ctx.monomial(y1=1)
    y3 = ctx.monomial(y3=1)
    assert x1 > x2 > y1 > y3
    # a single x1 beats any power of later variables
    assert x1 > ctx.monomial(x2=2**15 - 1, y1=2**15 - 1, y3=2**15 - 1)


def test_tuple_comparison_matches_lex():
    # packed keys compare as ints exactly as their exponent tuples compare
    ctx = PolyContext(2, QQ)
    rng = random.Random(11)
    for _ in range(200):
        a = tuple(rng.randrange(4) for _ in range(ctx.nvars))
        c = tuple(rng.randrange(4) for _ in range(ctx.nvars))
        want = (a > c) - (a < c)
        ka, kc = pack(ctx, a), pack(ctx, c)
        assert (ka > kc) - (ka < kc) == want
        assert ctx.exponents(ka) == a


def random_exponents(rng, nvars, top):
    edge = [0, 1, 2, top // 2, top - 1]
    return tuple(rng.choice(edge) if rng.random() < 0.5 else rng.randrange(top) for _ in range(nvars))


def test_monomial_helpers():
    ctx = PolyContext(2, QQ)
    a = ctx.monomial(x1=2, y2=1)
    c = ctx.monomial(x1=1, x2=1)
    assert a + c == ctx.monomial(x1=3, x2=1, y2=1)
    assert ctx.divides(c, a + c)
    assert not ctx.divides(a, c)
    assert ctx.lcm(a, c) == ctx.monomial(x1=2, x2=1, y2=1)
    assert ctx.degree(a) == 3
    assert ctx.exponents(a) == (2, 0, 0, 1)
    # the guard-bit tricks against the tuple definitions, up to 2^15 - 1
    rng = random.Random(17)
    for n in (1, 2, 3, 7):
        ctx = PolyContext(n, QQ)
        for _ in range(300):
            ea = random_exponents(rng, ctx.nvars, 2**15)
            ec = random_exponents(rng, ctx.nvars, 2**15)
            if rng.random() < 0.3:
                ec = tuple(max(p, q) for p, q in zip(ea, ec))  # a divides c
            ka, kc = pack(ctx, ea), pack(ctx, ec)
            assert ctx.exponents(ka) == ea
            assert ctx.divides(ka, kc) == mono_divides(ea, ec)
            assert ctx.lcm(ka, kc) == pack(ctx, mono_lcm(ea, ec))
            assert ctx.degree(ka) == mono_degree(ea)


def test_context_masks_match_their_per_field_definition():
    for n in range(1, 12):
        ctx = PolyContext(n, QQ)
        fields = [16 * k for k in range(ctx.nvars)]
        assert ctx.guard == sum(2**15 << s for s in fields)
        assert ctx._pairs == sum(0xFFFF << s for s in fields[::2])
    # the closed forms make a large ring cheap to set up
    big = PolyContext(200_000, QQ)
    assert big.guard.bit_length() == 16 * 400_000
    assert big.degree(big.monomial(x1=3, y200000=2)) == 5


def test_exponent_overflow_raises():
    ctx = PolyContext(2, GF(2))
    x1, y2 = ctx.x(1), ctx.y(2)
    assert (x1 ** (2**15 - 1)).lm() == ctx.monomial(x1=2**15 - 1)
    with pytest.raises(ValueError):
        x1 ** (2**15)
    big = x1 ** (2**14) * y2 ** (2**15 - 1)
    with pytest.raises(ValueError):
        big * x1 ** (2**14)  # x1 would reach 2^15; y2's field is already full
    with pytest.raises(ValueError):
        big * y2
    with pytest.raises(ValueError):
        big * Polynomial(ctx, {ctx.monomial(x1=2**14): 1})
    for key in (1 << 64, -(1 << 16)):  # above the ring's four fields; negative
        with pytest.raises(ValueError):
            Polynomial(ctx, {key: 1})
    assert (big * x1 ** (2**14 - 1)).lm() == ctx.monomial(x1=2**15 - 1, y2=2**15 - 1)
    with pytest.raises(ValueError):
        ctx.monomial(x1=2**15)
    for text in ("x1^32768", "x1^16384*x1^16384"):  # one exponent, or a sum of two
        with pytest.raises(ValueError, match="exponent 32768 of x1 does not fit"):
            parse_poly(ctx, text)
    assert parse_poly(ctx, "x1^16383*x1^16384").lm() == ctx.monomial(x1=2**15 - 1)


def test_monomial_builder_validates():
    ctx = PolyContext(2, QQ)
    with pytest.raises(ValueError):
        ctx.monomial(x3=1)
    with pytest.raises(ValueError):
        ctx.monomial(z1=1)


# polynomial arithmetic ------------------------------------------------

def test_zero_terms_are_dropped():
    ctx = PolyContext(2, QQ)
    f = ctx.x(1) - ctx.x(1)
    assert f.is_zero()
    assert not f
    assert f.terms == {}


def test_leading_data():
    ctx = PolyContext(3, QQ)
    f = ctx.x(2) * ctx.y(3) - ctx.x(3) * ctx.y(2)
    assert f.lm() == ctx.monomial(x2=1, y3=1)
    assert f.lc() == 1
    assert f.degree() == 2
    # monic divides by the leading coefficient, so negation is undone
    assert (-f).monic() == f
    assert f.scale(Fraction(5, 3)).monic() == f


def test_ring_axioms_sampled():
    rng = random.Random(5)
    for fld in (QQ, GF(2), GF(3)):
        ctx = PolyContext(2, fld)
        for _ in range(30):
            f = random_poly(ctx, rng)
            g = random_poly(ctx, rng)
            h = random_poly(ctx, rng)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f + ctx.zero() == f
            assert f * ctx.one() == f
            assert f - f == ctx.zero()


def test_power_matches_repeated_product():
    ctx = PolyContext(2, GF(3))
    f = ctx.x(1) + ctx.y(2)
    acc = ctx.one()
    for e in range(6):
        assert f ** e == acc
        acc = acc * f
    with pytest.raises(ValueError):
        f ** -1


def test_freshman_dream_in_char_p():
    for p in (2, 3, 5):
        ctx = PolyContext(2, GF(p))
        f = ctx.x(1) + 2 * ctx.y(1) if p != 2 else ctx.x(1) + ctx.y(1)
        g = f ** p
        expect = sum(
            (Polynomial(ctx, {pack(ctx, [e * p for e in ctx.exponents(m)]): c})
             for m, c in f.terms.items()),
            ctx.zero(),
        )
        assert g == expect


def test_mul_matches_tuple_reference():
    rng = random.Random(41)
    for fld in (QQ, GF(2), GF(5)):
        ctx = PolyContext(3, fld)
        for _ in range(40):
            f = random_poly(ctx, rng, nterms=6, maxdeg=3)
            g = random_poly(ctx, rng, nterms=5, maxdeg=2)
            assert from_packed(f * g) == from_packed(f) * from_packed(g)
            assert from_packed(f + g) == from_packed(f) + from_packed(g)
            assert from_packed(f - g) == from_packed(f) - from_packed(g)


def test_variable_subscripts_out_of_range():
    ctx = PolyContext(3, QQ)
    assert ctx.x(3) == parse_poly(ctx, "x3") and ctx.y(1) == parse_poly(ctx, "y1")
    for make, i in ((ctx.x, 0), (ctx.y, 4), (ctx.x, 4), (ctx.y, 0)):
        with pytest.raises(ValueError):
            make(i)


def test_mixed_context_rejected():
    a = PolyContext(2, QQ)
    c = PolyContext(3, QQ)
    with pytest.raises(ValueError):
        a.x(1) + c.x(1)


def test_whole_fraction_coefficients_equal_int_ones():
    ctx = PolyContext(2, QQ)
    key = ctx.monomial(x1=1, y2=1)
    as_fraction = Polynomial(ctx, {key: Fraction(3), 0: Fraction(-3)})
    as_int = Polynomial(ctx, {key: 3, 0: -3})
    assert type(as_fraction.lc()) is Fraction and type(as_int.lc()) is int
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert format_poly(as_fraction) == format_poly(as_int) == "3*x1*y2 - 3"
    from_bool = Polynomial(ctx, {key: True})
    assert from_bool.lc() == 1 and type(from_bool.lc()) is int


# printing and parsing -------------------------------------------------

def test_format_descending_and_signs():
    ctx = PolyContext(3, QQ)
    f = ctx.x(1) * ctx.y(2) - ctx.x(2) * ctx.y(1)
    assert format_poly(f) == "x1*y2 - x2*y1"
    assert format_poly(ctx.zero()) == "0"
    assert format_poly(-ctx.one()) == "-1"
    assert format_poly(ctx.x(2) ** 3) == "x2^3"
    g = ctx.one().scale(Fraction(3, 2)) * ctx.x(1)
    assert format_poly(g) == "3/2*x1"


def test_parse_round_trip_fixed_strings():
    ctx = PolyContext(3, QQ)
    for text in ["x1*y2 - x2*y1", "0", "-1", "x2^3", "3/2*x1 + 1", "x1^2*y3^2 - 2*x3"]:
        assert format_poly(parse_poly(ctx, text)) == text


def test_parse_round_trip_random():
    rng = random.Random(23)
    for fld in (QQ, GF(5)):
        ctx = PolyContext(3, fld)
        for _ in range(40):
            f = random_poly(ctx, rng, nterms=5, maxdeg=3)
            assert parse_poly(ctx, format_poly(f)) == f


def test_parse_rejects_malformed():
    ctx = PolyContext(2, QQ)
    for text in ["x0", "x3", "z1", "x1 +", "x1^", "^2", "* x1", "x1*", "x1 x2", "",
                 "x1^2^3", "2^3", "x1^-1", "x1^1/2", "x 1", "1 / 2", "x1**2", "x1 -"]:
        with pytest.raises(ValueError):
            parse_poly(ctx, text)


def test_parse_and_var_index_take_ascii_digits_only():
    # str patterns' \d would also match the Arabic-Indic and fullwidth digits
    ctx = PolyContext(2, QQ)
    for text in ["\u0662*x1", "x\u0661 + y2", "y\uff12", "x1^\u0662", "1/\u0663", "\u0662*x\u0661 + y\uff12"]:
        with pytest.raises(ValueError):
            parse_poly(ctx, text)
    for name in ["x\u0661", "y\uff12", "x1\u0661"]:
        with pytest.raises(ValueError):
            ctx.var_index(name)
    assert parse_poly(ctx, "2*x1 + y2") == 2 * ctx.x(1) + ctx.y(2)


def test_parse_zero_denominator_only_in_well_formed_text():
    # the whole text is matched before any of it is evaluated
    ctx = PolyContext(2, QQ)
    for text in ["1/0 x2", "1/0*", "x1 + 2/0^2"]:
        with pytest.raises(ValueError):
            parse_poly(ctx, text)
    for text in ["1/0", "x1 - 3/0"]:
        with pytest.raises(ZeroDivisionError):
            parse_poly(ctx, text)


def generated_text(ctx, rng):
    """A random well-formed text and the polynomial it denotes, built by
    Polynomial arithmetic: whitespace and tabs around every token, repeated
    signs, coefficients anywhere among the factors, ``^0`` and repeated or
    zero-padded variables."""
    p = ctx.field.char

    def ws():
        return rng.choice(["", "", " ", "\t", " \t  "])

    def coefficient():
        num = rng.randrange(13)
        den = rng.choice([d for d in range(1, 8) if not p or d % p])
        return (str(num) if den == 1 else f"{num}/{den}"), ctx.one().scale(Fraction(num, den))

    def variable():
        letter, sub = rng.choice("xy"), rng.randrange(1, ctx.n + 1)
        name, var = letter + "0" * rng.choice([0, 0, 1, 2]) + str(sub), getattr(ctx, letter)(sub)
        if rng.random() < 0.5:
            return name, var
        e = rng.choice([0, 1, 2, 3])
        return f"{name}{ws()}^{ws()}{'0' * rng.choice([0, 1])}{e}", var ** e

    chunks, want = [], ctx.zero()
    for k in range(rng.randint(1, 4)):
        signs = [rng.choice("+-") for _ in range(rng.randint(0 if k == 0 else 1, 3))]
        factors = [rng.choice([coefficient, variable, variable])() for _ in range(rng.randint(1, 5))]
        chunks.append("".join(ws() + s for s in signs) + ws())
        chunks.append((ws() + "*" + ws()).join(text for text, _ in factors))
        term = ctx.one().scale((-1) ** signs.count("-"))
        for _, f in factors:
            term = term * f
        want = want + term
    return "".join(chunks) + ws(), want


def test_parse_matches_arithmetic_on_generated_texts():
    rng = random.Random(30)
    for fld in (QQ, GF(2), GF(5)):
        ctx = PolyContext(3, fld)
        for _ in range(300):
            text, want = generated_text(ctx, rng)
            assert parse_poly(ctx, text) == want, text


def test_parse_accepts_sign_prefixes():
    # consecutive signs act as unary prefixes, as in ordinary expressions
    ctx = PolyContext(2, QQ)
    assert parse_poly(ctx, "x1 + + x2") == ctx.x(1) + ctx.x(2)
    assert parse_poly(ctx, "--x1") == ctx.x(1)
