"""Multivariate polynomials in K[x_1..x_n, y_1..y_n] under lex order.

The monomial order everywhere is lexicographic with
x_1 > x_2 > ... > x_n > y_1 > ... > y_n.  Inside a Polynomial a monomial is
one packed int: each of the 2n exponents owns a fixed 16-bit field, 15 bits
of exponent under one guard bit, with x_1 in the most significant field.
With that layout lex order is int order, a product of monomials is one
addition, and a | b is one subtraction masked with the guard bits: where a
field of a exceeds b's, the borrow sets that field's guard bit.  A product,
power or reduction step that would give an exponent of 2^15 or more raises
ValueError; there is no wider layout.

Exponent tuples (x-block first) stay the public form outside Polynomial:
``PolyContext.exponents`` converts a packed key, ``format_monomial`` prints
a tuple, and the square-free monomial ideals of the Betti layer are tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import reduce
from operator import or_

from .fields import QQ, GF, PrimeField, RationalField

FIELD_BITS = 16
EXP_LIMIT = 1 << (FIELD_BITS - 1)  # exponents are < 2^15; the top bit is the guard
EXP_MASK = EXP_LIMIT - 1

Monomial = int

__all__ = [
    "Monomial",
    "PolyContext",
    "Polynomial",
    "format_monomial",
    "format_poly",
    "parse_poly",
    "QQ",
    "GF",
]


@dataclass(frozen=True)
class PolyContext:
    """Ring data: number of graph vertices n and the coefficient field.

    The polynomial ring has 2n variables; index k < n is x_{k+1} and index
    n + k is y_{k+1}.  Vertices, hence variable subscripts, are 1-indexed.
    Variable k sits in the packed field ``shift(k)`` bits up; ``guard`` has
    the guard bit of every field set.
    """

    n: int
    field: RationalField | PrimeField
    guard: int = dataclass_field(init=False, repr=False, compare=False)
    _pairs: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        # closed forms: a sum of 2n shifted ints takes time quadratic in n
        ones = ((1 << FIELD_BITS * self.nvars) - 1) // 0xFFFF  # 1 in every field
        object.__setattr__(self, "guard", EXP_LIMIT * ones)
        # every other field (its low half of each 32 bits), for degree()
        pairs = 0xFFFF * ((1 << 2 * FIELD_BITS * ((self.nvars + 1) // 2)) - 1) // 0xFFFFFFFF
        object.__setattr__(self, "_pairs", pairs)

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def shift(self, idx: int) -> int:
        return FIELD_BITS * (self.nvars - 1 - idx)

    def var_name(self, idx: int) -> str:
        if not 0 <= idx < self.nvars:
            raise ValueError(f"variable index {idx} out of range")
        return f"x{idx + 1}" if idx < self.n else f"y{idx - self.n + 1}"

    def var_index(self, name: str) -> int:
        m = re.fullmatch(r"([xy])([0-9]+)", name)
        if not m:
            raise ValueError(f"bad variable name {name!r}")
        sub = int(m.group(2))
        if not 1 <= sub <= self.n:
            raise ValueError(f"variable {name!r} out of range for n={self.n}")
        return sub - 1 if m.group(1) == "x" else self.n + sub - 1

    def monomial(self, **powers: int) -> Monomial:
        """Packed key from keyword powers, e.g. x1=2, y3=1."""
        key = 0
        for name, e in powers.items():
            if e < 0:
                raise ValueError("negative exponent")
            if e >= EXP_LIMIT:
                raise ValueError(f"exponent {e} of {name} does not fit below 2^15")
            key += e << self.shift(self.var_index(name))
        return key

    def exponents(self, key: Monomial) -> tuple:
        """The exponent tuple of a packed key, x-block first."""
        return tuple(key >> s & EXP_MASK for s in range(self.shift(0), -1, -FIELD_BITS))

    def degree(self, key: Monomial) -> int:
        """Total degree of a packed key.

        Adding the odd fields onto the even ones leaves 32-bit slots that
        cannot overflow, and 2^32 = 1 mod 2^32 - 1 sums the slots exactly.
        """
        return ((key & self._pairs) + (key >> FIELD_BITS & self._pairs)) % 0xFFFFFFFF

    def divides(self, a: Monomial, b: Monomial) -> bool:
        return not (b - a) & self.guard

    def lcm(self, a: Monomial, b: Monomial) -> Monomial:
        ge = (a + self.guard - b) & self.guard  # guard bit set where a's field >= b's
        mask = ge - (ge >> (FIELD_BITS - 1))  # those fields all ones below the guard
        return (a & mask) | (b & ~mask)

    def x(self, i: int) -> "Polynomial":
        return self.variable(self._subscript(i) - 1)

    def y(self, i: int) -> "Polynomial":
        return self.variable(self.n + self._subscript(i) - 1)

    def _subscript(self, i: int) -> int:
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValueError(f"variable subscript {i} out of range for n={self.n}")
        return i

    def variable(self, idx: int) -> "Polynomial":
        return Polynomial(self, {1 << self.shift(idx): 1})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: 1})


def _check_exponents(ctx: PolyContext, keys) -> None:
    """Sums of valid keys set a guard bit exactly where an exponent reached 2^15."""
    if reduce(or_, keys, 0) & ctx.guard:
        raise ValueError("an exponent would reach 2^15")


class Polynomial:
    """Immutable sparse polynomial: dict from packed monomial to coefficient.

    Construction sends every coefficient through the context field's
    ``coerce`` and drops zeros, so a whole-number rational or a bool becomes
    an int.  Arithmetic keeps what Python's operators give: over QQ a
    whole-number coefficient may be ``Fraction(k)``, which compares, hashes
    and prints as the int k, so equal polynomials have equal term dicts.
    """

    __slots__ = ("ctx", "terms", "_lm")

    def __init__(self, ctx: PolyContext, terms: dict):
        field = ctx.field
        clean = {}
        for m, c in terms.items():
            c = field.coerce(c)
            if c != 0:
                _check_key(ctx, m)
                clean[m] = c
        self._set(ctx, clean)

    @classmethod
    def _from_sums(cls, ctx: PolyContext, sums: dict) -> "Polynomial":
        """Wrap a dict of valid keys whose coefficients are sums and products
        of field elements: reduce them mod p and drop the zeros."""
        p = ctx.field.char
        if p:
            clean = {m: r for m, c in sums.items() if (r := c % p)}
        else:
            clean = {m: c for m, c in sums.items() if c}
        return cls._wrap(ctx, clean)

    @classmethod
    def _wrap(cls, ctx: PolyContext, clean: dict) -> "Polynomial":
        """Wrap a dict of valid keys whose coefficients are already reduced
        and nonzero, as it is."""
        out = object.__new__(cls)
        out._set(ctx, clean)
        return out

    def _set(self, ctx, clean):
        # the slot descriptors' own stores, past the refusing __setattr__
        _set_ctx(self, ctx)
        _set_terms(self, clean)
        _set_lm(self, max(clean) if clean else None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def lm(self) -> Monomial:
        if self._lm is None:
            raise ValueError("zero polynomial has no leading monomial")
        return self._lm

    def lc(self):
        return self.terms[self.lm()]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(self.ctx.degree, self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        c = self.lc()
        if c == 1:
            return self
        return self.scale(self.ctx.field.inv(c))

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c
        return Polynomial._from_sums(self.ctx, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_sums(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        get = out.get
        small, big = self.terms.items(), other.terms.items()
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small:
            for m2, c2 in big:
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
        _check_exponents(self.ctx, out)
        return Polynomial._from_sums(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.ctx.field.coerce(c)
        return Polynomial._from_sums(self.ctx, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


_set_ctx, _set_terms, _set_lm = (d.__set__ for d in (Polynomial.ctx, Polynomial.terms, Polynomial._lm))


def _check_key(ctx: PolyContext, m) -> None:
    """A key of the ring is an int below 2^(16 * 2n) with no guard bit set."""
    if type(m) is not int or m < 0 or m >> FIELD_BITS * ctx.nvars or m & ctx.guard:
        raise ValueError("monomial key does not belong to the ring")


# ----------------------------------------------------------------------
# text format: a polynomial prints as a sum of terms ``c*x1^a*y2^b`` with
# terms in descending lex order; parse_poly inverts format_poly exactly.
# ----------------------------------------------------------------------

def format_monomial(ctx: PolyContext, m: tuple) -> str:
    """Print an exponent tuple, e.g. (1, 0, 0, 2) as ``x1*y2^2``."""
    parts = []
    for idx, e in enumerate(m):
        if e == 0:
            continue
        name = ctx.var_name(idx)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    chunks = []
    for m in sorted(f.terms, reverse=True):
        c = f.terms[m]
        mono = format_monomial(f.ctx, f.ctx.exponents(m))
        negative = c < 0
        mag = -c if negative else c
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|[xy][0-9]+(?:\s*\^\s*[0-9]+)?)"
_TERM = re.compile(rf"(\s*[+-][\s+-]*)({_FACTOR}(?:\s*\*\s*{_FACTOR})*)")
_PIECE = re.compile(r"[\s*]*(?:([0-9]+)(?:/([0-9]+))?|([xy][0-9]+)(?:\s*\^\s*([0-9]+))?)")
_TEXT = re.compile(rf"((?:{_TERM.pattern})+)\s*")


def parse_poly(ctx: PolyContext, text: str) -> Polynomial:
    """Parse the textual polynomial format; inverse of format_poly.

    The grammar, with digits the ASCII 0-9 only; whitespace may stand
    between tokens, but not inside a rational ``a/b`` or a variable name::

        text   := sign* term (sign+ term)*
        term   := factor ("*" factor)*
        factor := digits ("/" digits)? | ("x" | "y") digits ("^" digits)?

    Each "-" in the signs before a term negates it.  Coefficients may stand
    anywhere among the factors and multiply, a repeated variable adds its
    exponents, and like terms add.  The whole text is matched before any of
    it is evaluated: text outside the grammar raises ValueError, and so do
    a variable outside the ring and an exponent of 2^15 or more.  Only
    well-formed text raises ZeroDivisionError: for a zero denominator, or
    over F_p for a nonzero coefficient whose denominator p divides.
    """
    text = "+" + text  # the first term's sign is implied
    whole = _TEXT.fullmatch(text)
    if not whole:
        raise ValueError(f"cannot parse polynomial text {text[1:41]!r}")
    terms: dict = {}
    for signs, body in _TERM.findall(text, 0, whole.end(1)):
        coeff, exps = Fraction((-1) ** signs.count("-")), [0] * ctx.nvars
        for num, den, var, e in _PIECE.findall(body):
            if num:
                coeff *= Fraction(int(num), int(den or 1))
            else:
                exps[ctx.var_index(var)] += int(e or 1)
        key = 0
        for k, e in enumerate(exps):
            if e >= EXP_LIMIT:
                raise ValueError(f"exponent {e} of {ctx.var_name(k)} does not fit below 2^15")
            key += e << ctx.shift(k)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ctx, terms)
