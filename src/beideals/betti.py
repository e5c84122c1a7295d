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
only the sets covered by their own supports count, and those are exactly
the unions of generator supports, which are built directly.

Most unions are decided by a smaller one.  When the link of a vertex v in
the restriction to sigma is a cone, the restriction is the deletion of v,
which is the restriction to sigma - v, glued to the closed star of v, a
cone, along that link; by Mayer-Vietoris both restrictions have the same
reduced homology over every coefficient ring.  The link is a cone with
apex u when every support m inside sigma through u has a witness for v: a
support m2 with m2 - m = {v} (for an edge ideal, N(u) in N(v)).  The
check is only sufficient, so it stays exact for repeated and non-minimal
generators.  Such a union adds the ranks of sigma - v, or nothing when
sigma - v is no union, since then a vertex of sigma - v is a cone point.
Under classify's labelings with n <= 6 that leaves the homology of 3,770
of the 76,148 unions to compute.

Each of those restrictions is visited once, whatever the number of fields.
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .simplicial import (
    face_levels,
    homology_by_field,
    star_quotient_levels,
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
    the Krull dimension of S/I, which does not depend on the field."""

    def __new__(cls, tables, krull_dim: int):
        self = super().__new__(cls, tables)
        self.krull_dim = krull_dim
        return self


def betti_tables(mingens, nvars: int, fields) -> BettiTables:
    """Graded Betti numbers of S/I over several coefficient fields at once.

    Tables can differ between characteristics, which is why the field list
    is explicit; the faces of each restriction are built once and only the
    ranks are recomputed.  A union with a dominated vertex v takes the
    ranks of the union sigma - v, visited before it because it is a smaller
    int, or none when sigma - v is no union.  The Krull dimension is the
    largest face of the complex: the largest face on the appearing
    variables, from one full ``face_levels`` pass, plus the absent
    variables, which are cone points.
    """
    masks = support_masks(mingens, nvars)
    # the restrictions with no cone point are exactly the unions of supports
    unions = {0}
    for m in masks:
        unions |= {u | m for u in unions}
    appearing = max(unions)  # the union of all supports
    witnessed = _witnessed_by_vertex(masks)
    homology: dict = {}  # union -> ranks by field, () when all vanish
    tables: list = [dict() for _ in fields]
    for sigma in sorted(unions):
        v = _dominated_vertex(witnessed, sigma)
        if v:
            ranks = homology.get(sigma ^ v, ())
        else:
            ranks = homology_by_field(star_quotient_levels(masks, sigma), fields)
        homology[sigma] = ranks
        size = sigma.bit_count()
        for table, by_degree in zip(tables, ranks):
            for d, h in by_degree.items():
                if h:
                    key = (size - 1 - d, size)
                    table[key] = table.get(key, 0) + h
    return BettiTables(
        [BettiTable(tuple(sorted(t.items()))) for t in tables],
        len(face_levels(masks, appearing)) - 1 + nvars - appearing.bit_count(),
    )


def _witnessed_by_vertex(masks) -> list:
    """Pairs (u, through): for each vertex u, the distinct supports m
    through u, each with the mask of the vertices v that have a witness for
    m, a support m2 with m2 - m = {v}."""
    distinct = sorted(set(masks))
    through: dict = {}
    for m in distinct:
        witnessed = 0
        for m2 in distinct:
            extra = m2 & ~m
            if extra & (extra - 1) == 0:
                witnessed |= extra
        rest = m
        while rest:
            u = rest & -rest
            rest ^= u
            through.setdefault(u, []).append((m, witnessed))
    return sorted(through.items())


def _dominated_vertex(witnessed, sigma: int) -> int:
    """A vertex v of the union ``sigma`` whose link is a cone, or 0.

    The link of v is a cone with apex u when every support m inside sigma
    through u has a witness m2 for v.  Such an m2 lies in m + v, so inside
    sigma.  It avoids u, or it would be a support inside sigma through u
    that contains v, and no support has a witness for its own vertex.  So
    if F is a face of the link and F + u + v contains a support m, then m
    passes through u and F + v contains m2, which is impossible.  When m2
    is {v}, v is no vertex and the restrictions to sigma and sigma - v are
    equal.
    """
    for u, through in witnessed:
        if sigma & u:
            dominated = sigma ^ u
            for m, vs in through:
                if m & sigma == m:
                    dominated &= vs
                    if not dominated:
                        break
            if dominated:
                return dominated & -dominated
    return 0


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
