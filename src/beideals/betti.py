"""Graded Betti numbers of square-free monomial quotients via Hochster's
formula, plus the derived invariants: regularity, projective dimension,
type, and the F-pure threshold of a square-free monomial ideal.

Hochster's formula, in quotient indexing: for i >= 1,

    beta_{i,j}(S/I) = sum over subsets sigma of size j of
                      rank H~_{j-i-1}(restriction of Delta to sigma)

and beta_{0,0} = 1 comes out of the same sum through sigma = {} (the
restriction there is the complex whose only face is the empty set).  Two
economies: a variable missing from every generator is a cone point of any
restriction containing it, so only subsets of the appearing variables
matter; inside a restriction, any vertex not covered by a generator
support is again a cone point, and those restrictions are dropped.

Each remaining restriction is visited once, whatever the number of fields.
Its faces are built by extension (``star_quotient_levels``), leaving out
the closed star of one vertex: the star is a cone, so the faces outside it
carry the same reduced homology over every coefficient ring.  The F_2
ranks come from XOR elimination on int bitset rows.  The QQ ranks are
certified from F_2 when that is proven: dim_Q H~_i <= dim_F2 H~_i for every
i (universal coefficients) and the two Euler characteristics agree, so
when the F_2 homology is zero or sits in a single degree, the QQ homology
equals it.  Only when the F_2 homology is spread over two or more degrees
do the QQ ranks come from exact fraction-free elimination over Z.  Odd F_p
always uses exact elimination mod p.  Nothing is sampled or skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polys import mono_degree, mono_divides
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
    ranks are recomputed.  The Krull dimension is the largest face of the
    complex: the largest face on the appearing variables, from one full
    ``face_levels`` pass, plus the absent variables, which are cone points.
    """
    masks = support_masks(mingens, nvars)
    appearing = 0
    for m in masks:
        appearing |= m
    tables: list = [dict() for _ in fields]
    sigma = appearing
    while True:
        covered = 0
        for m in masks:
            if m & sigma == m:
                covered |= m
        if covered == sigma:  # else a vertex of sigma is a cone point
            levels = star_quotient_levels(masks, sigma)
            size = sigma.bit_count()
            for table, ranks in zip(tables, homology_by_field(levels, fields)):
                for d, h in ranks.items():
                    if h:
                        key = (size - 1 - d, size)
                        table[key] = table.get(key, 0) + h
        if sigma == 0:
            break
        sigma = (sigma - 1) & appearing
    return BettiTables(
        [BettiTable(tuple(sorted(t.items()))) for t in tables],
        len(face_levels(masks, appearing)) - 1 + nvars - appearing.bit_count(),
    )


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
    gens = sorted(mingens, key=lambda m: (mono_degree(m), m))
    for a, m in enumerate(gens):
        for b, m2 in enumerate(gens):
            if a != b and mono_divides(m, m2):
                raise ValueError(
                    "generators are not minimal: one divides another"
                )
    masks = support_masks(gens, nvars)
    appearing = 0
    for m in masks:
        appearing |= m
    absent = tuple(v for v in range(nvars) if not appearing >> v & 1)
    return FptReport(fpt=len(absent), absent=absent)
