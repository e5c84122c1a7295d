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
is their sum set, with no polynomial multiplication.  ``_fedder_record``
keeps the ring, the factors, the witness, its degree and its m^[p] test,
which depend on (n, p) alone, once per (n, p), so certificates share them;
the witness's terms are read-only.  The basis of I^[p] is written down too:
``_bracket_rows`` turns each admissible path into its p-th power's
division row, with no basis built first.

Most edge memberships are decided on a complete graph.  If the vertices
i..j of an edge {i, j} are pairwise adjacent, the ring map phi with
x_a -> x_{a+i-1}, y_a -> y_{a+i-1} sends f_{1m} of K_m (m = j - i + 1) to
f_ij, the factor F_k = f_{k,k+1}^(p-1) of K_m to F_{k+i-1} of G, and the
bracket power of K_m's ideal into that of the clique on i..j, hence into
I^[p].  So f_{1m} * F_1 * ... * F_{m-1} in K_m's bracket power puts f_ij *
F_i * ... * F_{j-1}, a divisor of f_ij times the witness, into I^[p].
``_clique_membership`` decides that once per (m, p).

Under a closed labeling of a connected graph every edge's interval is a
clique (closed graphs are the proper interval graphs), so ``fedder_check``
scans intervals only for forced labelings.  Proof: a shortest path is
induced, so its labels are monotone (an interior vertex below or above both
of its neighbours would make them adjacent).  For i < k < j, shared minima
along a shortest path from i up to k carry the edge {i, j} to {k, j},
shared maxima along one from k up to j carry it to {i, k}, and the edge
{i, l} gives {k, l} for i < k < l < j the same way.  ``fedder_check``
gives the proof in full.
"""

from __future__ import annotations

import itertools
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
# Most (n, p) whose record ``_fedder_record`` keeps: a sweep over n <= 7 at
# p = 2, 3, 5 needs 18.
FEDDER_CACHE_SIZE = 20


def _fedder_factors(n: int, p: int) -> tuple:
    """(ring, factors): K[x_1..x_n, y_1..y_n] over F_p, and the keys of
    the factors F_k = f_{k,k+1}^(p-1) of the witness.

    ``factors[k - 1]`` holds the p keys of F_k, the key of
    (x_k y_{k+1})^(p-1-a) (x_{k+1} y_k)^a for a = 0..p-1, each with
    coefficient C(p-1, a) (-1)^a = 1 in F_p.  ``GF`` refuses a p that is
    not a prime int first.  An exponent of the witness, their product,
    reaches p - 1 for n = 2 and 2(p - 1) otherwise; where that is 2^15 or
    more, ValueError is raised, and ``LimitExceededError`` where its p^(n-1)
    terms exceed ``WITNESS_LIMIT``, both before any key is written.  The
    one source of factor keys: ``_fedder_record`` builds G's from it and
    ``_clique_membership`` K_m's, without a witness.
    """
    ctx = PolyContext(n, GF(p))
    if (p - 1 if n == 2 else 2 * (p - 1)) >= EXP_LIMIT:
        raise ValueError(f"the witness at p = {p} would give an exponent of 2^15 or more")
    if p ** (n - 1) > WITNESS_LIMIT:
        raise LimitExceededError(f"the witness is capped at {WITNESS_LIMIT} terms, got {p}^{n - 1}")
    shift = ctx.shift
    factors = []
    for k in range(1, n):
        lead = (1 << shift(k - 1)) + (1 << shift(n + k))  # x_k * y_{k+1}
        trail = (1 << shift(k)) + (1 << shift(n + k - 1))  # x_{k+1} * y_k
        factors.append(tuple((p - 1 - a) * lead + a * trail for a in range(p)))
    return ctx, tuple(factors)


@lru_cache(maxsize=FEDDER_CACHE_SIZE, typed=True)
def _fedder_record(n: int, p: int) -> tuple:
    """(ring, factors, witness, witness degree, whether the witness avoids
    m^[p]): everything of a Fedder certificate that depends on (n, p)
    alone, all built when the entry is.

    The ring and factors come from ``_fedder_factors``, with its refusals.
    The witness is the product of the factors: its terms are the sums of
    one key from each factor, all distinct, since x_1's exponent p-1-a_1
    fixes a_1, x_2's p-1-a_2+a_1 then fixes a_2, and so on.  So it has
    p^(n-1) terms, every coefficient 1, and its degree is read off its
    leading monomial, since it is homogeneous.

    Records are keyed by (n, p) with their types kept apart, so a p of 2.0
    never finds the entry of p = 2 and is refused by ``GF`` as it is cold.
    The cache keeps the records of the last 20 pairs asked for
    (``FEDDER_CACHE_SIZE``), and every certificate with the same (n, p)
    shares one witness and one tuple of factors.  Both are immutable, since
    every caller gets the same objects: the factors are tuples and the
    witness's terms a read-only ``MappingProxyType``.  The largest witness,
    2^16 terms at n = 17 and p = 2, holds 8.8 MiB (tracemalloc), so the
    cache holds at most about 175 MiB.
    """
    ctx, factors = _fedder_factors(n, p)
    keys = [0]
    for terms in factors:
        keys = [m + t for m in keys for t in terms]
    witness = Polynomial._wrap(ctx, MappingProxyType(dict.fromkeys(keys, 1)))
    return ctx, factors, witness, ctx.degree(witness.lm()), not_in_bracket_m(witness, p)


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


def _membership(ctx: PolyContext, factors: tuple, table: list, i: int, j: int) -> bool:
    """Whether f_ij times the product of ``factors`` (``_fedder_factors``'
    keys) reduces to zero by the division rows ``table``.

    Stepwise normal forms instead of one division of the whole product:
    starting from r = f_ij, the loop sets r = NF(r * F_k) one factor at a
    time and stops as soon as r is zero.  This is exact because a - NF(a)
    lies in the ideal, so NF(a * b) = NF(NF(a) * b), and once r is zero
    every later product is zero too.  Each product r * F_k is written as
    r's terms shifted by the p keys of F_k, all with coefficient 1,
    straight into the division's pending terms, with no Polynomial in
    between; its exponents are checked before it is divided.  The interval
    factors k = i, ..., j - 1 come first, then the rest in order.
    """
    n, shift = ctx.n, ctx.shift
    r = {(1 << shift(i - 1)) + (1 << shift(n + j - 1)): 1,  # x_i * y_j
         (1 << shift(j - 1)) + (1 << shift(n + i - 1)): -1}  # x_j * y_i
    for k in (*range(i, j), *range(1, i), *range(j, n)):
        pending = {}
        get = pending.get
        for t in factors[k - 1]:
            for m, c in r.items():
                key = m + t
                pending[key] = get(key, 0) + c
        _check_exponents(ctx, pending)
        r = _divide(ctx, pending, table)
        if not r:
            return True
    return False


def _interval_is_clique(masks: tuple, i: int, j: int) -> bool:
    """Whether the vertices i..j are pairwise adjacent in the graph of
    ``masks``: each of them misses only itself in the interval."""
    interval = (1 << j) - (1 << i - 1)  # the bits of vertices i..j
    return all(interval & ~masks[v - 1] == 1 << v - 1 for v in range(i, j + 1))


@lru_cache(maxsize=None)
def _clique_membership(m: int, p: int) -> bool:
    """Whether f_{1m} * F_1 * ... * F_{m-1} lies in the bracket power of
    K_m's edge ideal at the prime p: ``_membership`` on K_m's own ring,
    rows and factors, for the edge {1, m}.  The ring and factor keys come
    from ``_fedder_factors``; no witness is built and no record is kept.

    ``fedder_check`` translates a True to every edge {i, j} with j - i + 1
    = m whose vertex interval is a clique (see the module docstring).  The
    cache is unbounded, but its values are bools and its keys are few:
    ``fedder_check`` asks only after G's witness fits, so m <= n <= 17
    (p^(n-1) <= ``WITNESS_LIMIT`` = 2^16) and 2(p - 1) < 2^15 (p - 1 < 2^15
    when m = n = 2), which leaves a few thousand pairs (m, p) at most.
    """
    ctx, factors = _fedder_factors(m, p)
    k_m = Graph(m, itertools.combinations(range(1, m + 1), 2))
    return _membership(ctx, factors, _bracket_rows(ctx, k_m), 1, m)


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

    The ring, the witness, its factors F_k = f_{k,k+1}^(p-1), its degree
    and whether it avoids m^[p] come from ``_fedder_record``, built once
    per (n, p) from the closed form and shared by every certificate with
    that n and p, so a warm certificate does only the work of its graph.
    It raises ``LimitExceededError`` past ``WITNESS_LIMIT`` terms before
    any row is written.

    An edge {i, j} whose vertices i..j are pairwise adjacent is decided on
    K_m, m = j - i + 1: the ring map phi with x_a -> x_{a+i-1},
    y_a -> y_{a+i-1} (a = 1..m) sends f_{1m} to f_ij, K_m's F_k to G's
    F_{k+i-1}, and p-th powers of K_m's generators to p-th powers of
    generators of G's ideal, since J_{K[i..j]} lies in J_G.  So if
    f_{1m} * F_1 * ... * F_{m-1} lies in K_m's bracket power,
    f_ij * F_i * ... * F_{j-1}, which divides f_ij times the witness, lies
    in I^[p].  ``_clique_membership`` decides that once per (m, p).  A True
    there proves the membership; a False proves nothing about G, so that
    edge, and every edge whose interval is not a clique, is decided by
    ``_membership`` on G's own rows, written at most once per call.

    Under a closed labeling every interval is a clique, since g is
    connected, so only a forced labeling scans them.  Proof: a shortest
    path is induced, and its labels are strictly monotone, since an
    interior vertex below or above both of its neighbours would make them
    adjacent by closedness, a chord.  For i < k < j take a shortest path
    i = u_s < ... < u_0 = k.  The edges {i, u_{s-1}} and {i, j} share their
    minimum, so {u_{s-1}, j} is an edge; then {u_{s-1}, u_{s-2}} and
    {u_{s-1}, j} give {u_{s-2}, j}, and so on up to {k, j}.  A shortest
    path k = w_0 < ... < w_t = j gives {i, w_{t-1}}, ..., {i, k} the same
    way, through shared maxima.  For i < k < l < j, the first step applied
    to the edge {i, l} gives {k, l}.  Connectivity is needed:
    ``Graph(3, [(1, 3)])`` is closed, and 2 lies in the interval of {1, 3}
    without a neighbour; a disconnected g is refused first.

    ``_membership`` takes the interval factors k = i, ..., j - 1 first: on
    every closed labeling with n <= 6 and p <= 5, G's remainder reaches
    zero after exactly those j - i factors (observed, not proved).
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
    ctx, factors, witness, degree, outside = _fedder_record(g.n, p)
    masks, table, memberships = g.masks, None, {}
    for i, j in g.sorted_edges():
        if (closed or _interval_is_clique(masks, i, j)) and _clique_membership(j - i + 1, p):
            memberships[(i, j)] = True
            continue
        if table is None:
            table = _bracket_rows(ctx, g)
        memberships[(i, j)] = _membership(ctx, factors, table, i, j)
    return FedderCertificate(
        n=g.n,
        p=p,
        witness=witness,
        witness_degree=degree,
        not_in_m_bracket=outside,
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
