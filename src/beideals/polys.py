"""Multivariate polynomials in K[x_1..x_n, y_1..y_n] under lex order.

The monomial order everywhere is lexicographic with
x_1 > x_2 > ... > x_n > y_1 > ... > y_n.  A monomial is a bare tuple of 2n
exponents, x-block first; with that layout Python's tuple comparison agrees
with the lex order, which keeps leading-term computations cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, GF, PrimeField, RationalField

Monomial = tuple

__all__ = [
    "Monomial",
    "PolyContext",
    "Polynomial",
    "lex_compare",
    "mono_mul",
    "mono_divides",
    "mono_div",
    "mono_lcm",
    "mono_degree",
    "mono_is_squarefree",
    "mono_support",
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
    """

    n: int
    field: RationalField | PrimeField

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def var_name(self, idx: int) -> str:
        if not 0 <= idx < self.nvars:
            raise ValueError(f"variable index {idx} out of range")
        return f"x{idx + 1}" if idx < self.n else f"y{idx - self.n + 1}"

    def var_index(self, name: str) -> int:
        m = re.fullmatch(r"([xy])(\d+)", name)
        if not m:
            raise ValueError(f"bad variable name {name!r}")
        sub = int(m.group(2))
        if not 1 <= sub <= self.n:
            raise ValueError(f"variable {name!r} out of range for n={self.n}")
        return sub - 1 if m.group(1) == "x" else self.n + sub - 1

    def monomial(self, **powers: int) -> Monomial:
        """Build an exponent tuple from keyword powers, e.g. x1=2, y3=1."""
        exps = [0] * self.nvars
        for name, e in powers.items():
            if e < 0:
                raise ValueError("negative exponent")
            exps[self.var_index(name)] += e
        return tuple(exps)

    def x(self, i: int) -> "Polynomial":
        return self.variable(self.var_index(f"x{i}"))

    def y(self, i: int) -> "Polynomial":
        return self.variable(self.var_index(f"y{i}"))

    def variable(self, idx: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[idx] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one})


def lex_compare(a: Monomial, b: Monomial) -> int:
    """Return -1, 0 or 1 comparing two monomials of the same ring."""
    if len(a) != len(b):
        raise ValueError("monomials from different rings")
    if a == b:
        return 0
    return 1 if a > b else -1


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(p + q for p, q in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(p <= q for p, q in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    out = tuple(p - q for p, q in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial division with remainder")
    return out


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(p, q) for p, q in zip(a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_is_squarefree(m: Monomial) -> bool:
    return all(e <= 1 for e in m)


def mono_support(m: Monomial) -> tuple:
    return tuple(i for i, e in enumerate(m) if e)


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient.

    Construction normalizes coefficients through the context field and drops
    zeros, so equal polynomials always have equal term dicts.
    """

    __slots__ = ("ctx", "terms", "_lm")

    def __init__(self, ctx: PolyContext, terms: dict):
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
        return max(sum(m) for m in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        c = self.lc()
        if c == self.ctx.field.one:
            return self
        inv = self.ctx.field.inv(c)
        mul = self.ctx.field.mul
        return Polynomial(self.ctx, {m: mul(v, inv) for m, v in self.terms.items()})

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add = self.ctx.field.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = add(out.get(m, 0), c) if m in out else c
            if s != 0:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ctx, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        neg = self.ctx.field.neg
        return Polynomial(self.ctx, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        field = self.ctx.field
        mul, add = field.mul, field.add
        out: dict = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                key = tuple(p + q for p, q in zip(m1, m2))
                if key in out:
                    s = add(out[key], mul(c1, c2))
                    if s != 0:
                        out[key] = s
                    else:
                        del out[key]
                else:
                    out[key] = mul(c1, c2)
        return Polynomial(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        field = self.ctx.field
        c = field.coerce(c)
        if c == 0:
            return Polynomial(self.ctx, {})
        mul = field.mul
        return Polynomial(self.ctx, {m: mul(v, c) for m, v in self.terms.items()})

    def times_term(self, m: Monomial, c) -> "Polynomial":
        """Multiply by the single term c * x^m."""
        field = self.ctx.field
        c = field.coerce(c)
        if c == 0:
            return Polynomial(self.ctx, {})
        mul = field.mul
        return Polynomial(
            self.ctx,
            {tuple(p + q for p, q in zip(m, key)): mul(v, c) for key, v in self.terms.items()},
        )

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


def _is_native(field, c) -> bool:
    if field.char == 0:
        return isinstance(c, Fraction)
    return isinstance(c, int) and 0 <= c < field.char


# ----------------------------------------------------------------------
# text format: a polynomial prints as a sum of terms ``c*x1^a*y2^b`` with
# terms in descending lex order; parse_poly inverts format_poly exactly.
# ----------------------------------------------------------------------

def format_monomial(ctx: PolyContext, m: Monomial) -> str:
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
        mono = format_monomial(f.ctx, m)
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


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[xy]\d+)|(?P<op>[*^]))")


def parse_poly(ctx: PolyContext, text: str) -> Polynomial:
    """Parse the textual polynomial format; inverse of format_poly.

    Accepts optional whitespace, signed terms, rational coefficients a/b,
    ``*`` between factors and ``^`` for powers.  Raises ValueError on any
    token it does not understand.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot parse polynomial near {rest[:20]!r}")
        tokens.append(m)
        pos = m.end()

    terms: dict = {}
    field = ctx.field
    i = 0

    def coeff_value(tok) -> Fraction:
        if "/" in tok:
            a, b = tok.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(tok))

    if not tokens:
        raise ValueError("empty polynomial text")
    if len(tokens) == 1 and tokens[0].group("num") == "0":
        return ctx.zero()

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i].group("sign"):
            if tokens[i].group("sign") == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign in polynomial text")
        coeff = Fraction(sign)
        exps = [0] * ctx.nvars
        expect_factor = True
        saw_factor = False
        while i < len(tokens):
            tok = tokens[i]
            if tok.group("sign"):
                break
            if tok.group("op") == "*":
                if expect_factor:
                    raise ValueError("misplaced '*' in polynomial text")
                expect_factor = True
                i += 1
                continue
            if tok.group("op") == "^":
                raise ValueError("misplaced '^' in polynomial text")
            if not expect_factor:
                raise ValueError(f"missing '*' before {tok.group(0).strip()!r}")
            if tok.group("num"):
                coeff *= coeff_value(tok.group("num"))
                i += 1
            else:
                idx = ctx.var_index(tok.group("var"))
                i += 1
                e = 1
                if i < len(tokens) and tokens[i].group("op") == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i].group("num") or "/" in tokens[i].group("num"):
                        raise ValueError("'^' must be followed by an integer")
                    e = int(tokens[i].group("num"))
                    i += 1
                exps[idx] += e
            expect_factor = False
            saw_factor = True
        if expect_factor and saw_factor:
            raise ValueError("term ends with '*'")
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        key = tuple(exps)
        prev = terms.get(key, Fraction(0))
        terms[key] = prev + coeff

    return Polynomial(ctx, {m: field.coerce(c) for m, c in terms.items() if c != 0})
