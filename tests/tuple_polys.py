"""Reference polynomials keyed by exponent tuples: the oracle for the packed
representation in beideals.polys and beideals.groebner.

This is the tuple-keyed arithmetic, division and Buchberger algorithm the
package used before monomials were packed into ints, cut down to what the
tests compare against, plus converters between the two forms at the
bottom.  A monomial is a tuple of 2n exponents, x-block first, so tuple
comparison is the lex order.
"""

import heapq
from fractions import Fraction


def mono_mul(a, b):
    return tuple(p + q for p, q in zip(a, b))


def mono_divides(a, b):
    return all(p <= q for p, q in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    out = tuple(p - q for p, q in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial division with remainder")
    return out


def mono_lcm(a, b):
    return tuple(max(p, q) for p, q in zip(a, b))


def mono_degree(m):
    return sum(m)


def mono_is_squarefree(m):
    return all(e <= 1 for e in m)


def _is_native(field, c):
    if field.char == 0:
        return isinstance(c, Fraction)
    return isinstance(c, int) and 0 <= c < field.char


class TuplePolynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("ctx", "terms", "_lm")

    def __init__(self, ctx, terms):
        field = ctx.field
        clean = {}
        for m, c in terms.items():
            c = field.coerce(c) if not _is_native(field, c) else c
            if c != 0:
                if len(m) != ctx.nvars:
                    raise ValueError("monomial length does not match ring")
                clean[m] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lm", max(clean) if clean else None)

    def __setattr__(self, *a):
        raise AttributeError("TuplePolynomial is immutable")

    def is_zero(self):
        return not self.terms

    def lm(self):
        if self._lm is None:
            raise ValueError("zero polynomial has no leading monomial")
        return self._lm

    def lc(self):
        return self.terms[self.lm()]

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def monic(self):
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        c = self.lc()
        if c == 1:
            return self
        inv = self.ctx.field.inv(c)
        coerce = self.ctx.field.coerce
        return TuplePolynomial(self.ctx, {m: coerce(v * inv) for m, v in self.terms.items()})

    def __add__(self, other):
        coerce = self.ctx.field.coerce
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = coerce(out[m] + c) if m in out else c
            if s != 0:
                out[m] = s
            else:
                out.pop(m, None)
        return TuplePolynomial(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        coerce = self.ctx.field.coerce
        return TuplePolynomial(self.ctx, {m: coerce(-c) for m, c in self.terms.items()})

    def __mul__(self, other):
        coerce = self.ctx.field.coerce
        out = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                key = tuple(p + q for p, q in zip(m1, m2))
                if key in out:
                    s = coerce(out[key] + coerce(c1 * c2))
                    if s != 0:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = coerce(c1 * c2)
        return TuplePolynomial(self.ctx, out)

    def times_term(self, m, c):
        coerce = self.ctx.field.coerce
        c = coerce(c)
        if c == 0:
            return TuplePolynomial(self.ctx, {})
        return TuplePolynomial(
            self.ctx,
            {tuple(p + q for p, q in zip(m, key)): coerce(v * c) for key, v in self.terms.items()},
        )

    def __eq__(self, other):
        return isinstance(other, TuplePolynomial) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))


def divmod_basis(f, divisors):
    """(quotients, remainder): the largest pending monomial first, divisors
    tried in order."""
    divisors = list(divisors)
    ctx = f.ctx
    fld = ctx.field
    coerce = fld.coerce
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
                q = coerce(c * lc_inv)
                qd = quotients[idx]
                qd[shift] = coerce(qd[shift] + q) if shift in qd else q
                minus_q = coerce(-q)
                for mb, cb in b.terms.items():
                    if mb == lm_b:
                        continue
                    key = mono_mul(shift, mb)
                    delta = coerce(minus_q * cb)
                    if key in pending:
                        s = coerce(pending[key] + delta)
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

    return [TuplePolynomial(ctx, q) for q in quotients], TuplePolynomial(ctx, remainder)


def normal_form(f, divisors):
    divisors = list(divisors)
    if not divisors:
        return f
    return divmod_basis(f, divisors)[1]


def s_polynomial(f, g):
    fld = f.ctx.field
    lcm = mono_lcm(f.lm(), g.lm())
    left = f.times_term(mono_div(lcm, f.lm()), fld.inv(f.lc()))
    right = g.times_term(mono_div(lcm, g.lm()), fld.inv(g.lc()))
    return left - right


def buchberger(polys):
    """Reduced Groebner basis, sorted by (degree, leading monomial)."""
    work = [p.monic() for p in polys]
    heap = []
    for a in range(len(work)):
        for b in range(a + 1, len(work)):
            lcm = mono_lcm(work[a].lm(), work[b].lm())
            heapq.heappush(heap, (mono_degree(lcm), lcm, a, b))

    while heap:
        _, lcm, a, b = heapq.heappop(heap)
        fa, fb = work[a], work[b]
        if mono_mul(fa.lm(), fb.lm()) == lcm:
            continue
        r = normal_form(s_polynomial(fa, fb), work)
        if r.is_zero():
            continue
        r = r.monic()
        work.append(r)
        t = len(work) - 1
        for a2 in range(t):
            lcm2 = mono_lcm(work[a2].lm(), r.lm())
            heapq.heappush(heap, (mono_degree(lcm2), lcm2, a2, t))

    return sorted(_interreduce(work), key=lambda p: (p.degree(), p.lm()))


def _interreduce(polys):
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


# ----------------------------------------------------------------------
# converters between the two representations
# ----------------------------------------------------------------------

def pack(ctx, exps):
    """Packed key of an exponent tuple, through the public builder."""
    return ctx.monomial(**{ctx.var_name(k): e for k, e in enumerate(exps) if e})


def to_packed(f):
    from beideals import Polynomial

    return Polynomial(f.ctx, {pack(f.ctx, m): c for m, c in f.terms.items()})


def from_packed(f):
    return TuplePolynomial(f.ctx, {f.ctx.exponents(m): c for m, c in f.terms.items()})
