"""Exact coefficient fields.

Two implementations of one small contract: the rationals and prime fields
F_p (elements are ints in ``range(p)``).  A rational is an ``int`` when it
is a whole number and a ``fractions.Fraction`` otherwise, so the +-1
coefficients of binomial edge ideals stay in int arithmetic.  Arithmetic
on Fractions may leave a whole number as a Fraction; that is harmless,
since ``Fraction(k) == k`` and the two hash and print alike.

A field object is exactly ``char``, ``coerce`` and ``inv``, with equality,
hash and repr.  Field arithmetic is Python's own operators on ints (and
Fractions over QQ) followed by ``coerce``, which over F_p reduces mod p;
the hot loops of ``polys`` and ``groebner`` read ``char`` and reduce mod p
themselves.  ``simplicial`` computes homology over Z with no field, and
``betti`` reads ``char`` once, to project it to each field's ranks.
Groebner bases, normal forms and homology ranks are exact in any field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _prime_factors(q: int) -> set:
    """The primes dividing ``q`` >= 1, each divided out as trial division finds it."""
    primes, p = set(), 2
    while p * p <= q:
        if q % p:
            p += 1
        else:
            primes.add(p)
            q //= p
    return primes | ({q} - {1})


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == {p}


class RationalField:
    """Field of rational numbers; characteristic zero."""

    char = 0

    def coerce(self, value):
        if type(value) is int:
            return value
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.coerce(1 / Fraction(a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p; elements are the least nonnegative residues.

    Immutable: ``GF`` hands one instance per p to every caller, so an
    assignment would change the field for all of them.  Pickling goes
    through ``GF`` and gives that shared instance back.
    """

    __slots__ = ("char",)

    def __init__(self, p: int):
        if isinstance(p, int) and p > 2**31:  # first: trial division to sqrt(p) is slow
            raise ValueError(f"prime too large: {p}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        object.__setattr__(self, "char", p)

    def __setattr__(self, *a):
        raise AttributeError("PrimeField is immutable")

    def __reduce__(self):
        return GF, (self.char,)

    def coerce(self, value):
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return value.numerator * self.inv(value.denominator % self.char) % self.char
        return int(value) % self.char

    def inv(self, a):
        a %= self.char
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("field", self.char))

    def __repr__(self):
        return f"GF({self.char})"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
