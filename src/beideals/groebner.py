"""Groebner basics over the lex order: division, Buchberger, bracket powers.

The division algorithm processes the largest pending monomial first (via a
heap), trying divisors in basis order, so normal forms are deterministic.
``buchberger`` returns the reduced basis, which is unique for a given ideal
and order; that uniqueness is what the ideal-equality checks elsewhere rely
on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .polys import (
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class IdealBasis:
    """A generating set, kept sorted by (total degree, leading monomial).

    ``marked_groebner`` records that every S-polynomial of the list reduces
    to zero under lex; only ``buchberger`` sets it.  The flag gates the
    operations whose answers are only meaningful against a Groebner basis.
    """

    polys: tuple
    marked_groebner: bool = False

    def __init__(self, polys, marked_groebner: bool = False):
        polys = tuple(polys)
        for p in polys:
            if not isinstance(p, Polynomial):
                raise ValueError("IdealBasis expects Polynomial entries")
            if p.is_zero():
                raise ValueError("zero polynomial in basis")
        if polys:
            ctx = polys[0].ctx
            if any(p.ctx != ctx for p in polys):
                raise ValueError("mixed rings in one basis")
        ordered = tuple(sorted(polys, key=lambda p: (p.degree(), p.lm())))
        object.__setattr__(self, "polys", ordered)
        object.__setattr__(self, "marked_groebner", marked_groebner)

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @property
    def ctx(self):
        if not self.polys:
            raise ValueError("empty basis has no ring context")
        return self.polys[0].ctx


def divmod_basis(f: Polynomial, divisors) -> tuple:
    """Divide f by an ordered list of polynomials.

    Returns (quotients, remainder) with f == sum(q_i * b_i) + r, no monomial
    of r divisible by any leading monomial of the divisors, and every
    product q_i * b_i having leading monomial <= lm(f).
    """
    divisors = list(divisors)
    ctx = f.ctx
    for b in divisors:
        if b.ctx != ctx:
            raise ValueError("divisor from a different ring")
        if b.is_zero():
            raise ValueError("zero divisor polynomial")
    fld = ctx.field
    lead = [(b.lm(), fld.inv(b.lc()), b) for b in divisors]

    pending = dict(f.terms)
    heap = [tuple(-e for e in m) for m in pending]
    heapq.heapify(heap)
    quotients = [dict() for _ in divisors]
    remainder = {}

    while heap:
        m = tuple(-e for e in heapq.heappop(heap))
        if m not in pending:
            continue
        c = pending.pop(m)
        for idx, (lm_b, lc_inv, b) in enumerate(lead):
            if mono_divides(lm_b, m):
                shift = mono_div(m, lm_b)
                q = fld.mul(c, lc_inv)
                qd = quotients[idx]
                qd[shift] = fld.add(qd.get(shift, fld.zero), q) if shift in qd else q
                for mb, cb in b.terms.items():
                    if mb == lm_b:
                        continue
                    key = mono_mul(shift, mb)
                    delta = fld.neg(fld.mul(q, cb))
                    if key in pending:
                        s = fld.add(pending[key], delta)
                        if s != 0:
                            pending[key] = s
                        else:
                            del pending[key]
                    else:
                        pending[key] = delta
                        heapq.heappush(heap, tuple(-e for e in key))
                break
        else:
            remainder[m] = c

    return [Polynomial(ctx, q) for q in quotients], Polynomial(ctx, remainder)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (its polynomials in order)."""
    divisors = basis.polys if isinstance(basis, IdealBasis) else list(basis)
    if not divisors:
        return f
    _, r = divmod_basis(f, divisors)
    return r


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ctx != g.ctx:
        raise ValueError("polynomials from different rings")
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    fld = f.ctx.field
    lcm = mono_lcm(f.lm(), g.lm())
    left = f.times_term(mono_div(lcm, f.lm()), fld.inv(f.lc()))
    right = g.times_term(mono_div(lcm, g.lm()), fld.inv(g.lc()))
    return left - right


def buchberger(basis: IdealBasis) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by ``basis``.

    Pairs are processed by (lcm degree, lcm, indices); pairs with coprime
    leading monomials are skipped.  The result is interreduced and monic,
    hence canonical.
    """
    gens = [p.monic() for p in basis.polys]
    work = list(gens)
    heap = []
    for a in range(len(work)):
        for b in range(a + 1, len(work)):
            lcm = mono_lcm(work[a].lm(), work[b].lm())
            heapq.heappush(heap, (mono_degree(lcm), lcm, a, b))

    while heap:
        _, lcm, a, b = heapq.heappop(heap)
        fa, fb = work[a], work[b]
        if mono_mul(fa.lm(), fb.lm()) == lcm:
            continue  # coprime leading monomials: S-polynomial reduces to zero
        r = normal_form(s_polynomial(fa, fb), work)
        if r.is_zero():
            continue
        r = r.monic()
        work.append(r)
        t = len(work) - 1
        for a2 in range(t):
            lcm2 = mono_lcm(work[a2].lm(), r.lm())
            heapq.heappush(heap, (mono_degree(lcm2), lcm2, a2, t))

    return IdealBasis(_interreduce(work), marked_groebner=True)


def _interreduce(polys) -> list:
    """Minimalize by leading-monomial divisibility, then tail-reduce."""
    if not polys:
        return []
    ordered = sorted(polys, key=lambda p: (mono_degree(p.lm()), p.lm()))
    minimal = []
    for p in ordered:
        if not any(mono_divides(q.lm(), p.lm()) for q in minimal):
            minimal.append(p)
    reduced = []
    for k, p in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        r = normal_form(p, others) if others else p
        reduced.append(r.monic())
    return reduced


def is_groebner_basis(basis: IdealBasis) -> bool:
    """Literal Buchberger criterion: every S-polynomial reduces to zero."""
    polys = basis.polys
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if not normal_form(s_polynomial(polys[a], polys[b]), polys).is_zero():
                return False
    return True


def _power_of_char(q: int, p: int) -> bool:
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def frobenius_power(basis: IdealBasis, q: int) -> IdealBasis:
    """Bracket power: the ideal generated by the q-th powers of the generators.

    Needs finite characteristic p with q a power of p; then raising to the
    q-th power is the e-fold Frobenius, so g^q is computed termwise
    (coefficients in F_p are fixed by x -> x^p).
    """
    ctx = basis.ctx if basis.polys else None
    if ctx is None:
        raise ValueError("bracket power of an empty basis")
    p = ctx.field.char
    if p == 0:
        raise ValueError("bracket powers need finite characteristic")
    if not _power_of_char(q, p):
        raise ValueError(f"q={q} is not a positive power of the characteristic {p}")
    powered = [
        Polynomial(ctx, {tuple(e * q for e in m): c for m, c in g.terms.items()})
        for g in basis.polys
    ]
    return IdealBasis(powered)


def colon_contains(f: Polynomial, gens: IdealBasis, groebner_of_target: IdealBasis) -> bool:
    """Does f lie in (target : ideal(gens))?

    ``groebner_of_target`` must be marked as a Groebner basis; membership of
    each product f * g is decided by normal form against it.
    """
    if not groebner_of_target.marked_groebner:
        raise ValueError("colon test needs a verified Groebner basis of the target")
    return all(normal_form(f * g, groebner_of_target).is_zero() for g in gens.polys)


def not_in_bracket_m(f: Polynomial, q: int) -> bool:
    """True when f lies outside m^[q], m the ideal of all 2n variables.

    m^[q] is spanned by monomials divisible by some variable power v^q, so f
    avoids it exactly when some term of f has every exponent <= q - 1.
    """
    p = f.ctx.field.char
    if p == 0:
        raise ValueError("bracket powers need finite characteristic")
    if not _power_of_char(q, p):
        raise ValueError(f"q={q} is not a positive power of the characteristic {p}")
    return any(all(e < q for e in m) for m in f.terms)
