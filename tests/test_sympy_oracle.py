"""Independent Groebner oracle: sympy's lex Groebner bases.

For every connected class with n <= 5, the reduced lex basis of the edge
ideal from ``buchberger`` and from the admissible paths must equal
``sympy.groebner(..., order='lex')`` over QQ and over GF(2).  sympy is
imported here only; the package does not depend on it.
"""

from fractions import Fraction

import pytest

from beideals import (
    GF,
    QQ,
    PolyContext,
    Polynomial,
    admissible_groebner_basis,
    buchberger,
    edge_ideal_generators,
    enumerate_connected_graphs,
)
from tuple_polys import pack

sympy = pytest.importorskip("sympy")


def sympy_reduced_basis(gens, ctx) -> set:
    symbols = sympy.symbols([ctx.var_name(k) for k in range(ctx.nvars)])
    exprs = []
    for f in gens:
        expr = 0
        for m, c in f.terms.items():
            term = sympy.Rational(c.numerator, c.denominator) if ctx.field.char == 0 else sympy.Integer(c)
            for sym, e in zip(symbols, ctx.exponents(m)):
                term *= sym**e
            expr += term
        exprs.append(expr)
    options = {"modulus": ctx.field.char} if ctx.field.char else {}
    basis = sympy.groebner(exprs, *symbols, order="lex", **options)
    out = set()
    for poly in basis.polys:
        terms = {}
        for monom, c in poly.terms():
            c = Fraction(int(c.p), int(c.q)) if ctx.field.char == 0 else int(c)
            terms[pack(ctx, monom)] = c
        # sympy clears denominators over ZZ; the reduced basis here is monic
        out.add(Polynomial(ctx, terms).monic())
    return out


@pytest.mark.parametrize("fld", [QQ, GF(2)], ids=repr)
def test_buchberger_and_admissible_basis_match_sympy(fld):
    classes = 0
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            ctx = PolyContext(n, fld)
            gens = edge_ideal_generators(ctx, g)
            want = sympy_reduced_basis(gens.polys, ctx)
            ours = buchberger(gens).polys
            assert set(ours) == want and len(ours) == len(want), g
            paths = [e.poly for e in admissible_groebner_basis(g, fld)]
            assert set(paths) == want and len(paths) == len(want), g
            classes += 1
    assert classes == 30  # 1 + 2 + 6 + 21 connected classes with 2 <= n <= 5
