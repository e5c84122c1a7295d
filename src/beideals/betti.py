"""Graded Betti numbers of square-free monomial quotients via Hochster's
formula, plus the derived invariants: regularity, projective dimension,
type, and the F-pure threshold of a square-free monomial ideal.

Hochster's formula, in quotient indexing: for i >= 1,

    beta_{i,j}(S/I) = sum over subsets sigma of size j of
                      rank H~_{j-i-1}(restriction of Delta to sigma)

and beta_{0,0} = 1 comes out of the same sum through sigma = {} (the
restriction there is the complex whose only face is the empty set).  A
vertex of sigma outside every generator support contained in sigma is a
cone point of the restriction, whose reduced homology then vanishes.  So
only the sets covered by their own supports count: the unions of
generator supports.

The sum is decided on sets of subsets held as Python ints, on the subset
lattice of ``simplicial``: with the k appearing variables renumbered
0..k-1 in order, subset sigma is bit sigma of an int with 2^k bits, and
``HAS``, ``LEVEL`` and ``SUP(m)`` are as defined there.  A subset is a
union when each of its vertices lies in a support inside it, and it is a
face when it contains no support, so both are a few dozen int operations
for all subsets at once.

Most unions are decided by a smaller one.  When the link of a vertex v in
the restriction to sigma is a cone, the restriction is the deletion of v,
which is the restriction to sigma - v, glued to the closed star of v, a
cone, along that link; by Mayer-Vietoris both restrictions have the same
reduced homology over every coefficient ring.  The link is a cone with
apex u when every support m inside sigma through u has a witness for v: a
support m2 with m2 - m = {v} (for an edge ideal, N(u) in N(v)).  The
check is only sufficient, so it stays exact for repeated and non-minimal
generators.  As sets: v is dominated in sigma when sigma is a union
containing v and, for some u != v, it contains u and none of the supports
through u without a witness for v.  Under classify's labelings with n <= 6 only
3,770 of the 76,148 unions have no dominated vertex.

Only those roots go through homology, over Z.  Roots with the same
nonzero homology form a group, and each group spreads along domination:
sigma + v joins when v is dominated in it, and then has the homology of
sigma.  The group grows in place, one shift per vertex in a sweep over the
vertices, until a sweep adds nothing.  Every union with nonzero homology is
reached: for a dominated v, sigma - v has the same homology, so it is a
union too (any other subset is a cone) and, by induction on size, in the
group already.  No union joins two groups, since its homology (torsion in
Smith form) decides its group.  A group then adds popcount(group AND
LEVEL[s]) times its ranks over each field, by universal coefficients, to
the entries with j = s: the one place a field is read.

Each root's restriction is visited once, whatever the number of fields.
``root_homology`` takes its faces on sigma's own lattice of 2^|sigma|
subsets and pairs f with f + v, for each vertex v in turn, among the faces
still unpaired.  That is an acyclic matching whose incidences are +-1, so
by algebraic Morse theory the unpaired faces span a complex over Z with
the same homology.  When they all lie in ``LEVEL[j]``, its differentials
are zero, and the homology is free of rank their count in degree j - 1.
Under classify's labelings that decides 3,734 of the 3,770 roots with
n <= 6.  The rest go to elimination: ``root_homology`` cuts from the same
faces the closed star of the vertex in the most faces, a cone, and
``integral_homology`` builds the signed boundary rows of what remains,
brings each map to a Smith form once over Z, and reads the free ranks and
torsion orders off the diagonals.  Nothing is sampled.

Every set operation costs O(2^k) bits, so the work grows with 2^k even when
the unions are few.  ``MAX_APPEARING`` caps k at 20, so the initial ideal
of every graph with n <= 10 fits (k <= 2n); larger inputs are refused
before any lattice is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import _prime_factors
from .graphs import LimitExceededError
from .simplicial import (
    MAX_APPEARING,
    root_homology,
    subset_lattice,
    support_masks,
)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero graded Betti numbers beta_{i,j} of a quotient ring S/I."""

    entries: tuple  # sorted tuple of ((i, j), value)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def beta(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"i": i, "j": j, "beta": v} for (i, j), v in self.entries
            ]
        }


class BettiTables(tuple):
    """One BettiTable per requested field, in order, plus ``krull_dim``,
    the Krull dimension of S/I, and ``torsion_primes``, the sorted primes
    with torsion in some restriction, empty when every field gives one table."""

    def __new__(cls, tables, krull_dim: int, torsion_primes: tuple):
        self = super().__new__(cls, tables)
        self.krull_dim = krull_dim
        self.torsion_primes = torsion_primes
        return self


def betti_tables(mingens, nvars: int, fields) -> BettiTables:
    """Graded Betti numbers of S/I over several coefficient fields at once.

    Tables can differ between characteristics, which is why the field list
    is explicit; the faces of each root restriction are built once, and
    roots that need elimination are eliminated once over Z for all fields.
    The work is bitset algebra on the 2^k subsets of the k appearing
    variables, plus the homology of the unions with no dominated vertex;
    raises ``LimitExceededError`` when k exceeds
    ``MAX_APPEARING``.  The Krull dimension is the largest face, the top
    level that meets the complement of every ``SUP(m)``, plus the absent
    variables, which are cone points.
    """
    return _betti_tables_of_masks(support_masks(mingens, nvars), nvars, fields)


def _betti_tables_of_masks(masks, nvars: int, fields) -> BettiTables:
    """``betti_tables`` of the generators with supports ``masks``, bit v
    for variable v, for callers that hold the masks already."""
    local, k = _renumbered(masks)
    if k > MAX_APPEARING:
        raise LimitExceededError(
            f"Betti tables are capped at {MAX_APPEARING} appearing variables, got {k}"
        )
    level = subset_lattice(k)[2]
    unions, faces, dominated = _subset_sets(local, k)
    roots = unions
    for d in dominated:
        roots &= ~d
    groups: dict = {}  # nonzero homology over Z -> roots with that homology
    while roots:
        low = roots & -roots
        roots ^= low
        key = root_homology(local, low.bit_length() - 1)
        if key:
            groups[key] = groups.get(key, 0) | low
    steps = [(1 << v, d) for v, d in enumerate(dominated) if d]
    tables: list = [dict() for _ in fields]
    for key, group in groups.items():
        group = _spread(group, steps)
        by_field = [_ranks_over(key, fld.char) for fld in fields]
        for size, subsets in enumerate(level):
            count = (group & subsets).bit_count()
            if count:
                for table, ranks in zip(tables, by_field):
                    for d, h in ranks.items():
                        entry = (size - 1 - d, size)
                        table[entry] = table.get(entry, 0) + count * h
    top = max(size for size, subsets in enumerate(level) if faces & subsets)
    orders = {q for key in groups for _, _, torsion in key for q in torsion}
    return BettiTables(
        [BettiTable(tuple(sorted(t.items()))) for t in tables],
        top + nvars - k,
        tuple(sorted(set().union(*map(_prime_factors, orders)))),
    )


def _ranks_over(homology, p: int) -> dict:
    """Nonzero ranks {degree: rank} over a field of characteristic ``p`` of
    the ``root_homology`` over Z: each torsion order that p divides adds
    one in its degree and one in the degree above, by universal coefficients."""
    ranks: dict = {}
    for d, free, torsion in homology:
        tor = sum(1 for q in torsion if p and q % p == 0)
        ranks[d] = ranks.get(d, 0) + free + tor
        ranks[d + 1] = ranks.get(d + 1, 0) + tor
    return {d: h for d, h in ranks.items() if h}


def _renumbered(masks) -> tuple:
    """The distinct supports, sorted, with the k appearing variables
    renumbered 0..k-1 in increasing order, and k."""
    appearing = 0
    for m in masks:
        appearing |= m
    # the absent variables below the top one, highest first: removing one
    # moves the bits above it down by one and leaves the lower gaps in place
    gaps = [-1 << v for v in reversed(range(appearing.bit_length())) if not appearing >> v & 1]
    local = set()
    for m in masks:
        for above in gaps:
            m = m & ~above | m >> 1 & above
        local.add(m)
    return sorted(local), appearing.bit_count()


def _subset_sets(local, k: int) -> tuple:
    """The unions of the supports ``local`` on vertices 0..k-1, the faces,
    and for each vertex v the unions in which v is dominated: its link is a
    cone with apex some u != v.

    That holds when sigma contains u and every support m inside sigma
    through u has a witness for v, a support m2 with m2 - m = {v}.  Such an
    m2 lies in m + v, so inside sigma.  It avoids u, or it would be a
    support inside sigma through u that contains v, and no support has a
    witness for its own vertex.  So if F is a face of the link and
    F + u + v contains a support m, then m passes through u and F + v
    contains m2, which is impossible.  When m2 is {v}, v is no vertex and
    the restrictions to sigma and sigma - v are equal.
    """
    full, has, _ = subset_lattice(k)
    through = [[] for _ in range(k)]  # u -> (SUP(m), witnessed vertices of m)
    for m in local:
        sup, witnessed = full, 0
        for m2 in local:
            extra = m2 & ~m
            if extra & (extra - 1) == 0:
                witnessed |= extra
        vertices = [u for u in range(k) if m >> u & 1]
        for u in vertices:
            sup &= has[u]
        for u in vertices:
            through[u].append((sup, witnessed))
    unions = faces = full
    apexes = [0] * k  # v -> the subsets with an apex u for v
    for u, pairs in enumerate(through):
        covered = candidates = 0
        for s, w in pairs:
            covered |= s
            candidates |= w
        unions &= ~has[u] | covered
        faces &= ~covered
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            blocked = 0
            for s, w in pairs:
                if not w & bit:
                    blocked |= s
            apexes[bit.bit_length() - 1] |= has[u] & ~blocked
    return unions, faces, [unions & has[v] & a for v, a in enumerate(apexes)]


def _spread(group: int, steps) -> int:
    """``group`` closed under adding a vertex v in which v is dominated.

    ``steps`` holds (2^v, the unions in which v is dominated) for each v
    with any.  Each sweep adds sigma + v for every sigma already in the
    group, newly added ones included, and the closure is reached when a
    whole sweep adds nothing.  The shift needs no mask for sigma without
    v: for sigma through v, sigma + 2^v lacks v, so it is never a union in
    which v is dominated.
    """
    while True:
        before = group
        for shift, d in steps:
            group |= group << shift & d
        if group == before:
            return group


def betti_table(mingens, nvars: int, fld) -> BettiTable:
    """Graded Betti numbers of S/I for a square-free monomial ideal I."""
    return betti_tables(mingens, nvars, [fld])[0]


def regularity(table: BettiTable) -> int:
    """Castelnuovo-Mumford regularity: max of j - i over nonzero entries."""
    return max(j - i for (i, j), _ in table.entries)


def projective_dimension(table: BettiTable) -> int:
    return max(i for (i, _), _ in table.entries)


def homological_summary(table: BettiTable) -> dict:
    """Regularity, projective dimension, and type (total Betti number at pd)."""
    pd = projective_dimension(table)
    type_ = sum(v for (i, _), v in table.entries if i == pd)
    return {"regularity": regularity(table), "pd": pd, "type": type_}


def render_betti(table: BettiTable) -> str:
    """Macaulay-style grid: row j - i, column i, dots for zeros."""
    entries = table.as_dict()
    pd = projective_dimension(table)
    reg = regularity(table)
    cols = list(range(pd + 1))
    totals = {i: sum(v for (ii, _), v in table.entries if ii == i) for i in cols}
    width = max(len(str(v)) for v in list(totals.values()) + [0]) + 2
    lines = []
    header = "      " + "".join(str(i).rjust(width) for i in cols)
    lines.append(header)
    lines.append("total:" + "".join(str(totals[i]).rjust(width) for i in cols))
    for row in range(reg + 1):
        cells = []
        for i in cols:
            v = entries.get((i, i + row), 0)
            cells.append((str(v) if v else ".").rjust(width))
        lines.append(f"{row}:".ljust(6) + "".join(cells))
    return "\n".join(lines)


@dataclass(frozen=True)
class FptReport:
    """F-pure threshold data of a square-free monomial ideal.

    For such ideals the threshold is the number of variables dividing no
    minimal generator, and it is independent of the (positive)
    characteristic.
    """

    fpt: int
    absent: tuple  # indices of variables absent from every generator

    def to_json_dict(self, names=None) -> dict:
        absent = list(self.absent) if names is None else [names(v) for v in self.absent]
        return {"fpt": self.fpt, "absent": absent}


def fpt_squarefree(mingens, nvars: int) -> FptReport:
    """F-pure threshold of a square-free monomial ideal from its minimal
    generators; the input must be minimal (no generator divides another)."""
    return _fpt_of_masks(support_masks(mingens, nvars), nvars)


def _fpt_of_masks(masks, nvars: int) -> FptReport:
    """``fpt_squarefree`` of the generators with supports ``masks``, bit v
    for variable v; the minimality check runs on the masks."""
    for a, m in enumerate(masks):
        for m2 in masks[a + 1:]:
            if m & m2 in (m, m2):
                raise ValueError(
                    "generators are not minimal: one divides another"
                )
    appearing = 0
    for m in masks:
        appearing |= m
    absent = tuple(v for v in range(nvars) if not appearing >> v & 1)
    return FptReport(fpt=len(absent), absent=absent)
