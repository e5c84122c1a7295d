"""Binomial edge ideals and their combinatorial Groebner theory.

For a graph G on vertices 1..n, the edge ideal lives in K[x_1..x_n,
y_1..y_n] and is generated by the 2x2 minors f_ij = x_i*y_j - x_j*y_i over
the edges {i, j}.  The lex Groebner basis is indexed by admissible paths,
each a vertex tuple (i, ..., j): the element for it is u * f_ij where u
collects x_k over interior vertices k > j and y_k over interior vertices
k < i.  ``_pair_paths`` walks the pairs and their paths once, with u as a
support mask, for the basis and for the initial ideal alike.

The Frobenius side: in characteristic p the product of the consecutive
edge binomials, each raised to the (p-1)-st power, witnesses F-purity via
the colon criterion (ideal^[p] : ideal) versus m^[p].  Over F_p the
binomial coefficient C(p-1, a) is (-1)^a, so f_{k,k+1}^(p-1) is the sum
of (x_k y_{k+1})^(p-1-a) (x_{k+1} y_k)^a over a = 0..p-1, every
coefficient 1; ``_fedder_factors`` writes these keys down and the witness
is their sum set, with no polynomial multiplication.  Both depend on (n, p)
alone and are built once per (n, p), so certificates share them; the
witness's terms are read-only.  The basis of I^[p] is written down too:
``_bracket_rows`` turns each admissible path into its p-th power's
division row, with no basis built first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .fields import GF, QQ
from .graphs import (
    Graph,
    LimitExceededError,
    _admissible_paths,
    _bits,
    is_closed_with_labeling,
    is_connected,
)
from .groebner import IdealBasis, _divide, not_in_bracket_m
from .polys import EXP_LIMIT, Polynomial, PolyContext, _check_exponents


class NotClosedError(ValueError):
    """The graph's labeling is not closed, so the check's hypothesis fails."""


def edge_binomial(ctx: PolyContext, i: int, j: int) -> Polynomial:
    """f_ij = x_i*y_j - x_j*y_i for i < j; f_ji = -f_ij; i == j is an error."""
    if i == j:
        raise ValueError(f"edge binomial needs distinct endpoints, got ({i}, {j})")
    if not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError(f"endpoints ({i}, {j}) out of range for n={ctx.n}")
    n, shift = ctx.n, ctx.shift
    pos = (1 << shift(i - 1)) + (1 << shift(n + j - 1))  # x_i * y_j
    neg = (1 << shift(j - 1)) + (1 << shift(n + i - 1))  # x_j * y_i
    return Polynomial._from_sums(ctx, {pos: 1, neg: -1})


def edge_ideal_generators(ctx: PolyContext, g: Graph) -> IdealBasis:
    """The generating set {f_ij : {i, j} an edge of g}."""
    if ctx.n != g.n:
        raise ValueError(f"ring has n={ctx.n} but graph has n={g.n}")
    return IdealBasis([edge_binomial(ctx, i, j) for i, j in g.sorted_edges()])


@dataclass(frozen=True)
class GroebnerElement:
    """One reduced-basis element: the admissible path (i, ..., j) as a
    vertex tuple, and u * f_ij, with u read off the path's interior."""

    path: tuple
    poly: Polynomial


def _u_support(path: tuple, n: int) -> int:
    """The support of u for the path, bit v for variable v as in
    ``support_masks`` (x_k is k - 1, y_k is n + k - 1): x_k for each
    interior k > j and y_k for each interior k < i."""
    j, u = path[-1], 0
    for k in path[1:-1]:
        u |= 1 << (k - 1 if k > j else n + k - 1)
    return u


def _pair_paths(g: Graph):
    """(i, j, [(path, u support), ...]) for each pair i < j that has an
    admissible path, pairs in increasing order and paths in search order."""
    n, masks = g.n, g.masks
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            paths = _admissible_paths(masks, i, j)
            if paths:
                yield i, j, [(path, _u_support(path, n)) for path in paths]


def _packed(ctx: PolyContext, support: int) -> int:
    """The packed key of the square-free monomial with this support."""
    return sum(1 << ctx.shift(v) for v in _bits(support))


def _basis_keys(ctx: PolyContext, g: Graph) -> list:
    """(path, lead, trail) for each admissible path (i, ..., j) of g: the
    packed keys of u * x_i * y_j and u * x_j * y_i, sorted by (degree,
    lead) as ``IdealBasis`` sorts; the degree is len(path)."""
    n, shift = ctx.n, ctx.shift
    keys = []
    for i, j, paths in _pair_paths(g):
        lead = (1 << shift(i - 1)) + (1 << shift(n + j - 1))  # x_i * y_j
        trail = (1 << shift(j - 1)) + (1 << shift(n + i - 1))  # x_j * y_i
        for path, support in paths:
            u = _packed(ctx, support)
            keys.append((path, u + lead, u + trail))
    keys.sort(key=lambda key: (len(key[0]), key[1]))
    return keys


def admissible_groebner_basis(g: Graph, fld=QQ) -> list:
    """The lex Groebner basis of the edge ideal, one element per admissible path.

    Elements come out sorted by (total degree, leading monomial); each is
    monic with leading monomial u * x_i * y_j, so it is a divisor as it
    stands.  Its two terms are ``_basis_keys``' lead and trail, u * f_ij
    written straight from the path; for the edge {i, j} itself u = 1.
    """
    ctx = PolyContext(g.n, fld)
    return [GroebnerElement(path, Polynomial._from_sums(ctx, {lead: 1, trail: -1}))
            for path, lead, trail in _basis_keys(ctx, g)]


def initial_ideal_generators(g: Graph) -> list:
    """Minimal monomial generators of the lex initial ideal, as exponent tuples.

    These are the monomials u * x_i * y_j over admissible paths.  They are
    square-free, and minimality (no generator divides another) is a theorem
    of Herzog, Hibi, Hreinsdottir, Kahle & Rauh (2010).
    """
    nvars = 2 * g.n
    gens = [tuple(m >> v & 1 for v in range(nvars)) for m in _initial_masks(g)]
    gens.sort(key=lambda m: (sum(m), m))
    return gens


def _initial_masks(g: Graph) -> list:
    """The supports of ``initial_ideal_generators(g)`` as bitmasks, bit v
    for variable v (x_k is k - 1, y_k is n + k - 1), in path-search order."""
    n = g.n
    return [u | 1 << i - 1 | 1 << n + j - 1  # u * x_i * y_j
            for i, j, paths in _pair_paths(g) for _, u in paths]


def plucker_relation(ctx: PolyContext, i: int, j: int, k: int, l: int) -> Polynomial:
    """f_ij*f_kl - f_ik*f_jl + f_il*f_jk for i < j < k < l; identically zero.

    The value is computed, not assumed: callers assert on it.
    """
    if not i < j < k < l:
        raise ValueError(f"indices must be strictly increasing, got {(i, j, k, l)}")
    if l > ctx.n:
        raise ValueError(f"index {l} out of range for n={ctx.n}")

    def f(a, b):
        return edge_binomial(ctx, a, b)

    return f(i, j) * f(k, l) - f(i, k) * f(j, l) + f(i, l) * f(j, k)


# Most terms a Fedder witness may have: p^(n-1) reaches it at P_17 for p = 2.
WITNESS_LIMIT = 1 << 16
# Most (n, p) whose witness ``_fedder_factors`` keeps: a sweep over n <= 7
# at p = 2, 3, 5 needs 18.
FEDDER_CACHE_SIZE = 20


@lru_cache(maxsize=FEDDER_CACHE_SIZE)
def _fedder_factors(ctx: PolyContext) -> tuple:
    """(factors, witness) over F_p, p the characteristic of ``ctx``.

    ``factors[k - 1]`` holds the p keys of f_{k,k+1}^(p-1), the key of
    (x_k y_{k+1})^(p-1-a) (x_{k+1} y_k)^a for a = 0..p-1, each with
    coefficient C(p-1, a) (-1)^a = 1 in F_p.  The witness is their product:
    its terms are the sums of one key from each factor, all distinct,
    since x_1's exponent p-1-a_1 fixes a_1, x_2's p-1-a_2+a_1 then fixes
    a_2, and so on.  So it has p^(n-1) terms, every coefficient 1.  An
    exponent reaches p - 1 for n = 2 and 2(p - 1) otherwise; where that is
    2^15 or more, ValueError is raised, and ``LimitExceededError`` where
    p^(n-1) exceeds ``WITNESS_LIMIT``, both before any term is built.

    Both depend on (n, p) alone, so the last 20 contexts asked for
    (``FEDDER_CACHE_SIZE``) keep theirs, and every certificate with the same
    (n, p) shares one witness and one tuple of factors.  Both are immutable,
    since every caller gets the same objects: the factors are tuples and the
    witness's terms a read-only ``MappingProxyType``.  The largest witness,
    2^16 terms at n = 17 and p = 2, holds 8.8 MiB (tracemalloc), so the
    cache holds at most about 175 MiB.
    """
    n, p, shift = ctx.n, ctx.field.char, ctx.shift
    if (p - 1 if n == 2 else 2 * (p - 1)) >= EXP_LIMIT:
        raise ValueError(f"the witness at p = {p} would give an exponent of 2^15 or more")
    if p ** (n - 1) > WITNESS_LIMIT:
        raise LimitExceededError(f"the witness is capped at {WITNESS_LIMIT} terms, got {p}^{n - 1}")
    factors = []
    for k in range(1, n):
        lead = (1 << shift(k - 1)) + (1 << shift(n + k))  # x_k * y_{k+1}
        trail = (1 << shift(k)) + (1 << shift(n + k - 1))  # x_{k+1} * y_k
        factors.append(tuple((p - 1 - a) * lead + a * trail for a in range(p)))
    keys = [0]
    for terms in factors:
        keys = [m + t for m in keys for t in terms]
    return tuple(factors), Polynomial._wrap(ctx, MappingProxyType(dict.fromkeys(keys, 1)))


def _bracket_rows(ctx: PolyContext, g: Graph) -> list:
    """The division table of the reduced lex basis of I^[p], p the
    characteristic of ``ctx``, written from the admissible paths of g.

    That basis is the termwise p-th power of ``admissible_groebner_basis``
    (see ``fedder_check``), so each of its ``_basis_keys`` gives the monic
    row (p * lead, [(p * trail, 1)]): the tail's coefficient is 1 = -(-1),
    the negated coefficient of u x_j y_i.  The keys' order is the order of
    (degree, leading monomial) that ``IdealBasis`` sorts by, since the
    degree scales by p and multiplying by p keeps lex order.  Every
    exponent is p or 0, below 2^15 whenever the witness fits.
    """
    p = ctx.field.char
    return [(p * lead, [(p * trail, 1)]) for _, lead, trail in _basis_keys(ctx, g)]


@dataclass(frozen=True)
class FedderCertificate:
    """Outcome of the F-purity check at a prime p.

    ``valid`` holds exactly when the witness avoids m^[p] and every edge
    binomial multiplies it into the bracket power of the ideal.
    """

    n: int
    p: int
    witness: Polynomial
    witness_degree: int
    not_in_m_bracket: bool
    edge_memberships: dict
    closed_labeling: bool
    forced: bool

    @property
    def valid(self) -> bool:
        return self.not_in_m_bracket and all(self.edge_memberships.values())

    def to_json_dict(self) -> dict:
        from .polys import format_poly

        return {
            "n": self.n,
            "p": self.p,
            "witness": format_poly(self.witness),
            "witness_degree": self.witness_degree,
            "not_in_m_bracket": self.not_in_m_bracket,
            "edge_memberships": [
                {"edge": list(e), "in_colon": ok}
                for e, ok in sorted(self.edge_memberships.items())
            ],
            "closed_labeling": self.closed_labeling,
            "forced": self.forced,
            "valid": self.valid,
        }


def fedder_check(g: Graph, p: int, force: bool = False) -> FedderCertificate:
    """Run the F-purity criterion for the edge ideal of g at the prime p.

    Requires g connected and its labeling closed; a non-closed labeling is
    refused unless ``force`` is set, in which case the computation runs
    anyway and the certificate records the failed hypothesis.

    The reduced lex basis of the bracket power I^[p] is the termwise p-th
    power of the admissible-path basis of I (which is the reduced basis
    under any labeling), so no Buchberger run is needed: Frobenius is an
    injective ring map that keeps lex order on monomials and fixes F_p, so
    it maps S-polynomials to S-polynomials and standard representations to
    standard representations, and a power of a reduced basis stays reduced.
    ``_bracket_rows`` writes that basis's division rows straight from the
    admissible paths, in the order ``IdealBasis`` would give them.

    The witness and its factors F_k = f_{k,k+1}^(p-1) come from the closed
    form of ``_fedder_factors``, built once per (n, p) and shared by every
    certificate with that n and p.  It raises ``LimitExceededError`` past
    ``WITNESS_LIMIT`` terms before any row is written.  Each membership is
    decided by stepwise normal forms instead of one division of
    witness * f_ij: starting from r = f_ij, the loop sets r = NF(r * F_k)
    one factor at a time and stops as soon as r is zero.  This is exact
    because a - NF(a) lies in I^[p], so NF(a * b) = NF(NF(a) * b), and once
    r is zero every later product is zero too.  Each product r * F_k is
    written as r's terms shifted by the p keys of F_k, all with
    coefficient 1, straight into the division's pending terms, with no
    Polynomial in between.  For an edge {i, j} the interval factors
    k = i, ..., j - 1 come first: on every closed labeling with n <= 6 and
    p <= 5, r reaches zero after exactly those j - i factors (observed, not
    proved).
    """
    if not is_connected(g):
        raise ValueError("the check needs a connected graph")
    if g.n < 2:
        raise ValueError("the check needs at least one edge")
    closed = is_closed_with_labeling(g)
    if not closed and not force:
        raise NotClosedError(
            "labeling is not closed; rerun with force to compute anyway"
        )
    ctx = PolyContext(g.n, GF(p))
    factors, witness = _fedder_factors(ctx)
    table = _bracket_rows(ctx, g)
    memberships = {}
    for i, j in g.sorted_edges():
        r = edge_binomial(ctx, i, j).terms
        for k in (*range(i, j), *range(1, i), *range(j, g.n)):
            pending = {}
            get = pending.get
            for t in factors[k - 1]:
                for m, c in r.items():
                    key = m + t
                    pending[key] = get(key, 0) + c
            _check_exponents(ctx, pending)
            r = _divide(ctx, pending, table)
            if not r:
                break
        memberships[(i, j)] = not r
    return FedderCertificate(
        n=g.n,
        p=p,
        witness=witness,
        witness_degree=ctx.degree(witness.lm()),  # the witness is homogeneous
        not_in_m_bracket=not_in_bracket_m(witness, p),
        edge_memberships=memberships,
        closed_labeling=closed,
        forced=force,
    )


# ----------------------------------------------------------------------
# weight vectors certifying the lex initial terms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Nonnegative integer weights, x-block then y-block, that pick out the
    lex leading monomial of every element of a basis by weighted degree."""

    weights: tuple
    ctx: PolyContext

    def degree(self, m: int) -> int:
        """Weighted degree of a packed monomial of the weights' ring."""
        return sum(w * e for w, e in zip(self.weights, self.ctx.exponents(m)))


def find_weight_vector(elements) -> WeightVector:
    """A weight vector whose weighted order isolates the lex leading term of
    each basis element of ``admissible_groebner_basis``.

    The closed form w(x_i) = n - i, w(y_i) = 0 does it for every such
    element: u * f_ij has the terms u * x_i * y_j (the lex lead, since
    i < j) and u * x_j * y_i, whose weights differ by (n - i) - (n - j) =
    j - i > 0.  So the weights are returned without a check.
    """
    if not elements:
        raise ValueError("need a nonempty basis")
    ctx = elements[0].poly.ctx
    n = ctx.n
    return WeightVector(tuple(n - i for i in range(1, n + 1)) + (0,) * n, ctx)
