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

The sum is decided on sets of subsets held as Python ints.  With the k
appearing variables renumbered 0..k-1 in order, subset sigma is bit sigma
of an int with 2^k bits.  ``HAS[v]`` is the set of subsets containing v,
``LEVEL[s]`` the set of subsets of size s, and the subsets containing a
support m are ``SUP(m)``, the AND of ``HAS[v]`` over v in m.  A subset is a
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

Only those roots go through homology.  Roots with the same nonzero ranks
form a group, and each group spreads along domination, one vertex at a
time: sigma + v joins when v is dominated in it, and then has the ranks
of sigma.  Every union with nonzero homology is reached: for a dominated
v, sigma - v has the same nonzero ranks, so it is a union too (any other
subset is a cone) and, by induction on size, in the group already.  No
union joins two groups, since its ranks decide its group.  A group then
adds popcount(group AND LEVEL[s]) times its ranks to the entries with
j = s.

Each root's restriction is visited once, whatever the number of fields.
Its faces are built by extension (``star_quotient_levels``), leaving out
the closed star of one vertex: the star is a cone, so the faces outside it
carry the same reduced homology over every coefficient ring.  The F_2
ranks come from XOR elimination on int bitset rows.  The QQ ranks are
certified from F_2 when that is proven: dim_Q H~_i <= dim_F2 H~_i for every
i (universal coefficients) and the two Euler characteristics agree, so
when the F_2 homology is zero or sits in a single degree, the QQ homology
equals it.  Only when the F_2 homology is spread over two or more degrees
do the QQ ranks come from exact fraction-free elimination over Z.  Odd F_p
always uses exact elimination mod p.  Nothing is sampled.

Every set operation costs O(2^k) bits, so the work grows with 2^k even when
the unions are few.  ``MAX_APPEARING`` caps k at 20, so the initial ideal
of every graph with n <= 10 fits (k <= 2n); larger inputs are refused
before any lattice is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import LimitExceededError
from .simplicial import homology_by_field, star_quotient_levels, support_masks

# Most appearing variables betti_tables accepts: its sets of subsets have
# 2^MAX_APPEARING bits (128 KiB each at 20).
MAX_APPEARING = 20


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
    the Krull dimension of S/I, which does not depend on the field."""

    def __new__(cls, tables, krull_dim: int):
        self = super().__new__(cls, tables)
        self.krull_dim = krull_dim
        return self


def betti_tables(mingens, nvars: int, fields) -> BettiTables:
    """Graded Betti numbers of S/I over several coefficient fields at once.

    Tables can differ between characteristics, which is why the field list
    is explicit; the faces of each root restriction are built once and only
    the ranks are recomputed.  The work is bitset algebra on the 2^k
    subsets of the k appearing variables, plus the homology of the unions
    with no dominated vertex; raises ``LimitExceededError`` when k exceeds
    ``MAX_APPEARING``.  The Krull dimension is the largest face, the top
    level that meets the complement of every ``SUP(m)``, plus the absent
    variables, which are cone points.
    """
    local, k = _renumbered(support_masks(mingens, nvars))
    if k > MAX_APPEARING:
        raise LimitExceededError(
            f"Betti tables are capped at {MAX_APPEARING} appearing variables, got {k}"
        )
    _, has, level = _lattice(k)
    unions, faces, dominated = _subset_sets(local, k)
    roots = unions
    for d in dominated:
        roots &= ~d
    groups: dict = {}  # nonzero ranks by field -> roots with those ranks
    while roots:
        low = roots & -roots
        roots ^= low
        sigma = low.bit_length() - 1
        ranks = homology_by_field(star_quotient_levels(local, sigma), fields)
        key = tuple(tuple((d, h) for d, h in r.items() if h) for r in ranks)
        if any(key):
            groups[key] = groups.get(key, 0) | low
    tables: list = [dict() for _ in fields]
    for key, group in groups.items():
        group = _spread(group, dominated, has)
        for size, subsets in enumerate(level):
            count = (group & subsets).bit_count()
            if count:
                for table, by_degree in zip(tables, key):
                    for d, h in by_degree:
                        entry = (size - 1 - d, size)
                        table[entry] = table.get(entry, 0) + count * h
    top = max(size for size, subsets in enumerate(level) if faces & subsets)
    return BettiTables(
        [BettiTable(tuple(sorted(t.items()))) for t in tables],
        top + nvars - k,
    )


def _renumbered(masks) -> tuple:
    """The distinct supports, sorted, with the k appearing variables
    renumbered 0..k-1 in increasing order, and k."""
    appearing = 0
    for m in masks:
        appearing |= m
    kept = [v for v in range(appearing.bit_length()) if appearing >> v & 1]
    local = {sum(1 << i for i, v in enumerate(kept) if m >> v & 1) for m in masks}
    return sorted(local), len(kept)


@lru_cache(maxsize=None)
def _lattice(k: int) -> tuple:
    """The set of all 2^k subsets, ``HAS[v]`` for each vertex v, and
    ``LEVEL[s]`` for s = 0..k, as ints with bit sigma for subset sigma.
    Kept for every k seen; all k up to ``MAX_APPEARING`` take about 12 MiB."""
    size = 1 << k
    has = []
    for v in range(k):
        period = 2 << v
        pattern = ((1 << (1 << v)) - 1) << (1 << v)  # one period: v off, then on
        while period < size:
            pattern |= pattern << period
            period <<= 1
        has.append(pattern)
    level = [1]  # the subsets of no vertices: only the empty one, of size 0
    for v in range(k):
        level = [low | high << (1 << v) for low, high in zip(level + [0], [0] + level)]
    return (1 << size) - 1, tuple(has), tuple(level)


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
    full, has, _ = _lattice(k)
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
        for v in range(k):
            if candidates >> v & 1:
                blocked = 0
                for s, w in pairs:
                    if not w >> v & 1:
                        blocked |= s
                apexes[v] |= has[u] & ~blocked
    return unions, faces, [unions & has[v] & a for v, a in enumerate(apexes)]


def _spread(group: int, dominated, has) -> int:
    """``group`` closed under adding a vertex v in which v is dominated."""
    frontier = group
    while frontier:
        grown = 0
        for v, d in enumerate(dominated):
            if d:
                grown |= (frontier & ~has[v]) << (1 << v) & d
        frontier = grown & ~group
        group |= frontier
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
    masks = support_masks(mingens, nvars)
    for a, m in enumerate(masks):
        for b, m2 in enumerate(masks):
            if a != b and m & m2 == m:
                raise ValueError(
                    "generators are not minimal: one divides another"
                )
    appearing = 0
    for m in masks:
        appearing |= m
    absent = tuple(v for v in range(nvars) if not appearing >> v & 1)
    return FptReport(fpt=len(absent), absent=absent)
