"""Groebner basics over the lex order: division, Buchberger, bracket powers.

The division algorithm processes the largest pending monomial first (via a
heap), trying divisors in basis order, so normal forms are deterministic.
Monomials are the packed ints of ``polys``, so the heap holds negated keys
and a divisibility test is one subtraction masked with the guard bits.
A divisor has one form: a monic row (leading monomial, negated tail) of a
division table built for one call and never kept, in ``buchberger`` from
the first S-pair through interreduction.  The pending terms are a plain dict.
``buchberger`` returns the reduced basis, which is unique for a given ideal
and order; that uniqueness is what the ideal-equality checks elsewhere rely
on.  It skips the S-pairs that the Gebauer-Moeller criteria (J. Symbolic
Comput. 6, 1988) show to reduce to zero among the pairs a new element
makes: proper divisibility and equality among their lcms, and coprime
leading monomials.  Pending pairs are never revisited: on the edge ideals
of the 853 connected graphs with n = 7 the chain criterion on them saved
under 1 % of the reductions and cost more time than it saved.  Skipping
pairs changes which Groebner basis is found on the way, never the reduced
basis made from it.  Most of the pairs it does reduce still reduce to zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .polys import EXP_MASK, FIELD_BITS, Polynomial, _check_exponents


@dataclass(frozen=True)
class IdealBasis:
    """A generating set, kept sorted by (total degree, leading monomial)."""

    polys: tuple

    def __init__(self, polys):
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

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @property
    def ctx(self):
        if not self.polys:
            raise ValueError("empty basis has no ring context")
        return self.polys[0].ctx


def _division_table(divisors) -> list:
    """(leading monomial, tail with negated coefficients) for each divisor
    made monic, in order.  A monic multiple of a divisor leaves the same
    remainder, and the divisors the package builds are monic already."""
    table = []
    for b in divisors:
        b = b.monic()
        lm = b.lm()
        table.append((lm, [(m, -c) for m, c in b.terms.items() if m != lm]))
    return table


def _divide(ctx, pending: dict, table: list) -> dict:
    """Remainder terms of the sum in ``pending`` on division by the table's
    divisors; ``pending`` (monomial -> coefficient) is used up.

    Terms are taken largest first and each goes to the first divisor whose
    leading monomial divides it; the rows are monic, so the term's
    coefficient is the quotient's.  Coefficients are summed unreduced while
    pending; a term is reduced mod p when it is taken, so a term that
    cancelled is skipped then.  Every term a step adds is below the term it
    removes, so no monomial is taken twice; a new term whose exponent would
    reach 2^15 raises ValueError.  The remainder's coefficients are reduced
    and nonzero.
    """
    p = ctx.field.char
    guard = ctx.guard
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
        for lm_b, tail in table:
            shift = m - lm_b
            if shift & guard:
                continue
            for mb, neg_cb in tail:
                key = shift + mb
                if key in pending:
                    pending[key] += c * neg_cb
                else:
                    if key & guard:
                        raise ValueError("an exponent would reach 2^15")
                    pending[key] = c * neg_cb
                    push(heap, -key)
            break
        else:
            remainder[m] = c
    return remainder


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (its polynomials in order).

    Any iterable of nonzero polynomials from f's ring will do, an
    ``IdealBasis`` among them; the division table is built per call.
    """
    ctx = f.ctx
    divisors = list(basis)
    for b in divisors:
        if b.ctx != ctx:
            raise ValueError("divisor from a different ring")
        if b.is_zero():
            raise ValueError("zero divisor polynomial")
    if not divisors:
        return f
    return Polynomial._from_sums(ctx, _divide(ctx, dict(f.terms), _division_table(divisors)))


def _s_pair(ctx, row_f, row_g, lcm) -> dict:
    """Terms of the S-polynomial of two polynomials made monic, given by
    their ``_division_table`` rows and the lcm of their leading monomials.

    The leading terms cancel and are left out; the negated tails are
    shifted up to the lcm, f's with its sign flipped back.  A term whose
    exponent would reach 2^15 raises ValueError.
    """
    lm_f, tail_f = row_f
    lm_g, tail_g = row_g
    shift = lcm - lm_f
    out = {m + shift: -c for m, c in tail_f}
    get = out.get
    shift = lcm - lm_g
    for m, c in tail_g:
        key = m + shift
        out[key] = get(key, 0) + c
    _check_exponents(ctx, out)
    return out


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, with lcm that of the leading monomials."""
    if f.ctx != g.ctx:
        raise ValueError("polynomials from different rings")
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    ctx = f.ctx
    row_f, row_g = _division_table([f, g])
    return Polynomial._from_sums(ctx, _s_pair(ctx, row_f, row_g, ctx.lcm(f.lm(), g.lm())))


def buchberger(basis: IdealBasis) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by ``basis``.

    The generators enter one at a time, and so does every nonzero remainder;
    each entry runs the Gebauer-Moeller update (``_update``), which keeps
    only the new S-pairs the criteria cannot prove redundant.  A dropped
    pair's S-polynomial has a representation through pairs that are kept,
    so the basis found is still a Groebner basis, and the reduced basis
    made from it is the same: the reduced basis is unique for the ideal and
    the order.
    Pairs are processed by (lcm degree, lcm, indices).  Every element is
    kept only as its ``_division_table`` row: an S-pair is written from two
    rows straight into the division's pending terms (``_s_pair``), and a
    nonzero remainder joins the table as one more row.  The table holds
    every element found, including those the update takes out of pair
    generation, so each divisor's leading data is set up once per run.
    """
    table = _division_table(basis.polys)
    if not table:
        return IdealBasis([])
    ctx = basis.ctx
    leads = [lm for lm, _ in table]
    pairs, active = [], []
    for t in range(len(table)):
        active = _update(ctx, leads, active, pairs, t)

    while pairs:
        _, lcm, a, b = heapq.heappop(pairs)
        r = _divide(ctx, _s_pair(ctx, table[a], table[b], lcm), table)
        if not r:
            continue
        table += _division_table([Polynomial._from_sums(ctx, r)])
        leads.append(table[-1][0])
        active = _update(ctx, leads, active, pairs, len(table) - 1)

    return IdealBasis(_interreduce(ctx, [table[k] for k in active]))


def _update(ctx, leads, active, pairs, t) -> list:
    """Gebauer-Moeller update for element t joining the basis.

    ``leads`` holds each element's leading monomial, ``active`` the elements
    that still make pairs, ``pairs`` the heap of pending (lcm degree, lcm,
    a, b), which the update only pushes to.  In order:
    1. drop each new pair (g, t) whose lcm another new pair's lcm properly
       divides;
    2. keep one new pair per remaining lcm, the one with the lowest g;
    3. drop an lcm altogether when any of its pairs has coprime leading
       monomials (those S-polynomials reduce to zero);
    4. take the active elements whose leading monomial lm(t) divides out of
       pair generation.
    Returns the new active list; ``pairs`` is changed in place.  The lcm
    and degree are ``PolyContext.lcm`` and ``PolyContext.degree`` written
    out on the packed ints.
    """
    guard, halves, top = ctx.guard, ctx._pairs, FIELD_BITS - 1
    h = leads[t]
    h_up = h + guard
    new = {}  # lcm -> [lowest g, coprime seen]
    for g in active:
        a = leads[g]
        ge = (h_up - a) & guard  # guard bit set where h's field >= a's
        mask = ge - (ge >> top)
        m = (h & mask) | (a & ~mask)
        entry = new.get(m)
        if entry is None:
            new[m] = [g, a + h == m]
        elif a + h == m:
            entry[1] = True
    # A divisor of a key is a smaller int, so int order lists every lcm
    # after its proper divisors; the heap order does not depend on the
    # order of pushes.
    minimal = []
    for m in sorted(new):
        for d in minimal:
            if not (m - d) & guard:
                break
        else:
            minimal.append(m)
            g, coprime = new[m]
            if not coprime:
                deg = ((m & halves) + (m >> FIELD_BITS & halves)) % 0xFFFFFFFF
                heapq.heappush(pairs, (deg, m, g, t))
    return [g for g in active if (leads[g] - h) & guard] + [t]


def _interreduce(ctx, rows) -> list:
    """The reduced basis, as Polynomials, from the monic rows of a Groebner
    basis: the rows are made minimal by leading-monomial divisibility, and
    each output is a kept row's leading monomial with coefficient 1 plus
    its tail reduced against the kept rows.  A row's own leading monomial
    never divides a term met while its tail is reduced: every such term is
    lex-smaller than it.
    """
    guard = ctx.guard
    minimal = []
    for row in sorted(rows, key=lambda row: (ctx.degree(row[0]), row[0])):
        lm = row[0]
        if all((lm - d) & guard for d, _ in minimal):
            minimal.append(row)
    reduced = []
    for lm, tail in minimal:
        rest = _divide(ctx, {m: -c for m, c in tail}, minimal)
        rest[lm] = 1
        reduced.append(Polynomial._from_sums(ctx, rest))
    return reduced


def _check_bracket_power(ctx, q: int) -> None:
    """Bracket powers need finite characteristic p and q a power of p."""
    p = ctx.field.char
    if p == 0:
        raise ValueError("bracket powers need finite characteristic")
    if isinstance(q, int) and q >= p:
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            return
    raise ValueError(f"q={q} is not a positive power of the characteristic {p}")


def _exponents_at_most(ctx, b: int):
    """Predicate on packed keys: every exponent is <= b, for 0 <= b.

    Adding 2^15 - 1 - b to every field sets its guard bit exactly where the
    exponent exceeds b; for b >= 2^15 - 1 nothing is added.
    """
    guard = ctx.guard
    lift = (guard >> (FIELD_BITS - 1)) * max(EXP_MASK - b, 0)
    return lambda m: not (m + lift) & guard


def frobenius_power(basis: IdealBasis, q: int) -> IdealBasis:
    """Bracket power: the ideal generated by the q-th powers of the generators.

    Needs finite characteristic p with q a power of p; then raising to the
    q-th power is the e-fold Frobenius, so g^q is computed termwise
    (coefficients in F_p are fixed by x -> x^p): a packed key times q is
    the key of the q-th power as long as every exponent is at most
    (2^15 - 1) // q.  Once that is checked the powers are wrapped as they
    are: their keys are in the ring and their coefficients already reduced.
    """
    if not basis.polys:
        raise ValueError("bracket power of an empty basis")
    ctx = basis.ctx
    _check_bracket_power(ctx, q)
    fits = _exponents_at_most(ctx, EXP_MASK // q)
    if not all(fits(m) for g in basis.polys for m in g.terms):
        raise ValueError(f"the {q}-th power would give an exponent of 2^15 or more")
    return IdealBasis(Polynomial._wrap(ctx, {m * q: c for m, c in g.terms.items()}) for g in basis.polys)


def not_in_bracket_m(f: Polynomial, q: int) -> bool:
    """True when f lies outside m^[q], m the ideal of all 2n variables.

    m^[q] is spanned by monomials divisible by some variable power v^q, so f
    avoids it exactly when some term of f has every exponent <= q - 1.
    """
    _check_bracket_power(f.ctx, q)
    return any(map(_exponents_at_most(f.ctx, q - 1), f.terms))
