"""Groebner basics over the lex order: division, Buchberger, bracket powers.

The division algorithm processes the largest pending monomial first (via a
heap), trying divisors in basis order, so normal forms are deterministic.
Monomials are the packed ints of ``polys``, so the heap holds negated keys
and a divisibility test is one subtraction masked with the guard bits.
``buchberger`` returns the reduced basis, which is unique for a given ideal
and order; that uniqueness is what the ideal-equality checks elsewhere rely
on.  It skips the S-pairs that the Gebauer-Moeller criteria (J. Symbolic
Comput. 6, 1988) show to reduce to zero: the chain criterion on pending
pairs, proper divisibility and equality among the new pairs' lcms, and
coprime leading monomials.  Skipping them changes which Groebner basis is
found on the way, never the reduced basis made from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .polys import EXP_LIMIT, FIELD_BITS, Polynomial, _check_exponents


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

    @cached_property
    def division_table(self) -> list:
        """``_division_table`` of the polys, built on first use and kept;
        ``_divide`` only reads a table, so every division can share it."""
        return _division_table(self.polys)


def _division_table(divisors) -> list:
    """(leading monomial, inverse leading coefficient, tail with negated
    coefficients) for each divisor, in order."""
    table = []
    for b in divisors:
        lm = b.lm()
        table.append((lm, _inverse_lc(b), [(m, -c) for m, c in b.terms.items() if m != lm]))
    return table


def _inverse_lc(f: Polynomial):
    c = f.lc()
    return c if c == 1 else f.ctx.field.inv(c)


def _monic_terms(f: Polynomial):
    """The terms of f divided by its leading coefficient; no products when
    that is 1."""
    terms = f.terms
    c = terms[f.lm()]
    if c == 1:
        return terms.items()
    c = f.ctx.field.inv(c)
    return [(m, v * c) for m, v in terms.items()]


def _divide(f: Polynomial, table: list, quotients=None) -> dict:
    """Remainder terms of f on division by the table's divisors.

    Terms are taken largest first and each goes to the first divisor whose
    leading monomial divides it.  Coefficients are summed unreduced while
    pending; a term is reduced mod p when it is taken, so a term that
    cancelled is skipped then.  Every term a step adds is below the term it
    removes, so no monomial is taken twice; a new term whose exponent would
    reach 2^15 raises ValueError.  When ``quotients`` is given,
    quotients[i] receives divisor i's quotient terms.
    """
    ctx = f.ctx
    p = ctx.field.char
    guard = ctx.guard
    pending = dict(f.terms)
    heap = [-m for m in pending]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder = {}
    while heap:
        m = -pop(heap)
        c = pending.pop(m)
        if p:
            c %= p
        if not c:
            continue
        for idx, (lm_b, lc_inv, tail) in enumerate(table):
            shift = m - lm_b
            if shift & guard:
                continue
            q = c
            if lc_inv != 1:
                q = c * lc_inv
                if p:
                    q %= p
            if quotients is not None:
                quotients[idx][shift] = q
            for mb, neg_cb in tail:
                key = shift + mb
                if key in pending:
                    pending[key] += q * neg_cb
                else:
                    if key & guard:
                        raise ValueError("an exponent would reach 2^15")
                    pending[key] = q * neg_cb
                    push(heap, -key)
            break
        else:
            remainder[m] = c
    return remainder


def _check_divisors(ctx, divisors) -> None:
    for b in divisors:
        if b.ctx != ctx:
            raise ValueError("divisor from a different ring")
        if b.is_zero():
            raise ValueError("zero divisor polynomial")


def divmod_basis(f: Polynomial, divisors) -> tuple:
    """Divide f by an ordered list of polynomials.

    Returns (quotients, remainder) with f == sum(q_i * b_i) + r, no monomial
    of r divisible by any leading monomial of the divisors, and every
    product q_i * b_i having leading monomial <= lm(f).
    """
    divisors = list(divisors)
    ctx = f.ctx
    _check_divisors(ctx, divisors)
    quotients = [dict() for _ in divisors]
    remainder = _divide(f, _division_table(divisors), quotients)
    return (
        [Polynomial._from_sums(ctx, q) for q in quotients],
        Polynomial._from_sums(ctx, remainder),
    )


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (its polynomials in order).

    An ``IdealBasis`` lends its kept division table, so repeated divisions
    by one basis set up its divisors once.
    """
    kept = isinstance(basis, IdealBasis)
    divisors = basis.polys if kept else list(basis)
    if not divisors:
        return f
    _check_divisors(f.ctx, divisors)
    table = basis.division_table if kept else _division_table(divisors)
    return Polynomial._from_sums(f.ctx, _divide(f, table))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, with lcm that of the leading monomials.

    A monic input is only shifted, without multiplying its coefficients by
    its inverse leading coefficient of 1; inside ``buchberger`` every
    element is monic.
    """
    if f.ctx != g.ctx:
        raise ValueError("polynomials from different rings")
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    ctx = f.ctx
    lm_f, lm_g = f.lm(), g.lm()
    lcm = ctx.lcm(lm_f, lm_g)
    shift_f, shift_g = lcm - lm_f, lcm - lm_g
    out = {m + shift_f: c for m, c in _monic_terms(f)}
    get = out.get
    for m, c in _monic_terms(g):
        key = m + shift_g
        out[key] = get(key, 0) - c
    _check_exponents(ctx, out)
    return Polynomial._from_sums(ctx, out)


def buchberger(basis: IdealBasis) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by ``basis``.

    The generators enter one at a time, and so does every nonzero remainder;
    each entry runs the Gebauer-Moeller update (``_update``), which keeps
    only the S-pairs the criteria cannot prove redundant.  A dropped pair's
    S-polynomial has a representation through pairs that are kept, so the
    basis found is still a Groebner basis, and the reduced basis made from
    it is the same: the reduced basis is unique for the ideal and the order.
    Pairs are processed by (lcm degree, lcm, indices).  The division table
    holds every element found, including those the update takes out of pair
    generation, so each divisor's leading data is set up once per run.
    """
    work = [p.monic() for p in basis.polys]
    if not work:
        return IdealBasis([], marked_groebner=True)
    ctx = work[0].ctx
    table = _division_table(work)
    leads = [p.lm() for p in work]
    pairs, active = [], []
    for t in range(len(work)):
        active = _update(ctx, leads, active, pairs, t)

    while pairs:
        _, _, a, b = heapq.heappop(pairs)
        r = Polynomial._from_sums(ctx, _divide(s_polynomial(work[a], work[b]), table))
        if r.is_zero():
            continue
        r = r.monic()
        work.append(r)
        leads.append(r.lm())
        table += _division_table([r])
        active = _update(ctx, leads, active, pairs, len(work) - 1)

    return IdealBasis(_interreduce([work[k] for k in active]), marked_groebner=True)


def _update(ctx, leads, active, pairs, t) -> list:
    """Gebauer-Moeller update for element t joining the basis.

    ``leads`` holds each element's leading monomial, ``active`` the elements
    that still make pairs, ``pairs`` the heap of pending (lcm degree, lcm,
    a, b).  In order:
    1. drop each pending pair whose lcm lm(t) divides, unless lm(t) forms
       the same lcm with one of its two elements (the chain criterion);
    2. drop each new pair (g, t) whose lcm another new pair's lcm properly
       divides;
    3. keep one new pair per remaining lcm, the one with the lowest g;
    4. drop an lcm altogether when any of its pairs has coprime leading
       monomials (those S-polynomials reduce to zero);
    5. take the active elements whose leading monomial lm(t) divides out of
       pair generation.
    Returns the new active list; ``pairs`` is changed in place.
    """
    guard, lcm = ctx.guard, ctx.lcm
    h = leads[t]
    kept = [pair for pair in pairs
            if (pair[1] - h) & guard
            or lcm(leads[pair[2]], h) == pair[1]
            or lcm(leads[pair[3]], h) == pair[1]]
    if len(kept) < len(pairs):
        pairs[:] = kept
        heapq.heapify(pairs)

    new = {}  # lcm -> [lowest g, coprime seen]
    for g in active:
        lm_g = leads[g]
        m = lcm(lm_g, h)
        entry = new.get(m)
        if entry is None:
            new[m] = [g, lm_g + h == m]
        elif lm_g + h == m:
            entry[1] = True
    minimal = []
    for deg, m in sorted((ctx.degree(m), m) for m in new):
        for d in minimal:
            if not (m - d) & guard:
                break
        else:
            minimal.append(m)
            g, coprime = new[m]
            if not coprime:
                heapq.heappush(pairs, (deg, m, g, t))
    return [g for g in active if (leads[g] - h) & guard] + [t]


def _interreduce(polys) -> list:
    """Minimalize by leading-monomial divisibility, then reduce each
    element's tail against one table of the minimal elements; monic output.

    An element's own leading monomial never divides a term met while its
    tail is reduced: every such term is lex-smaller than it.
    """
    if not polys:
        return []
    ctx = polys[0].ctx
    guard = ctx.guard
    minimal = []
    for p in sorted(polys, key=lambda p: (ctx.degree(p.lm()), p.lm())):
        lm = p.lm()
        if all((lm - q.lm()) & guard for q in minimal):
            minimal.append(p)
    table = _division_table(minimal)
    reduced = []
    for p in minimal:
        lm = p.lm()
        tail = Polynomial._from_sums(ctx, {m: c for m, c in p.terms.items() if m != lm})
        rest = _divide(tail, table)
        rest[lm] = p.terms[lm]
        reduced.append(Polynomial._from_sums(ctx, rest).monic())
    return reduced


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
    (coefficients in F_p are fixed by x -> x^p): a packed key times q is
    the key of the q-th power as long as no exponent reaches 2^15.
    """
    ctx = basis.ctx if basis.polys else None
    if ctx is None:
        raise ValueError("bracket power of an empty basis")
    p = ctx.field.char
    if p == 0:
        raise ValueError("bracket powers need finite characteristic")
    if not _power_of_char(q, p):
        raise ValueError(f"q={q} is not a positive power of the characteristic {p}")
    for g in basis.polys:
        if any(max(ctx.exponents(m)) * q >= EXP_LIMIT for m in g.terms):
            raise ValueError(f"the {q}-th power would give an exponent of 2^15 or more")
    return IdealBasis(Polynomial(ctx, {m * q: c for m, c in g.terms.items()}) for g in basis.polys)


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
    Adding 2^15 - q to every field of a packed key sets a guard bit exactly
    where an exponent is q or more.
    """
    ctx = f.ctx
    p = ctx.field.char
    if p == 0:
        raise ValueError("bracket powers need finite characteristic")
    if not _power_of_char(q, p):
        raise ValueError(f"q={q} is not a positive power of the characteristic {p}")
    if q >= EXP_LIMIT:
        return not f.is_zero()
    guard = ctx.guard
    lift = (guard >> (FIELD_BITS - 1)) * (EXP_LIMIT - q)
    return any(not (m + lift) & guard for m in f.terms)
