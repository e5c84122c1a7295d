"""Homology ranks by one elimination per field: the oracle that the
library's single elimination over Z is checked against.

``matrix_rank`` is the fraction-free elimination that ``simplicial`` used
before it diagonalized over Z, and ``homology_by_field`` runs it on the
library's signed boundary rows once per field, so every field's ranks come
from a computation of their own, with no use of the library's homology.
"""

from beideals.simplicial import _boundary_rows


def matrix_rank(rows, fld) -> int:
    """Rank over QQ or F_p of rows given as dicts column -> nonzero int.

    Fraction-free: a row r whose leading column c holds a pivot row becomes
    piv[c] * r - r[c] * piv, a row operation over every field that needs no
    inverse.  Over F_p entries are reduced mod p; over QQ they stay ints.
    """
    p = fld.char
    pivots = {}
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p} if p else dict(row)
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                break
            a, b = r.pop(c), piv[c]
            new = {}
            for k in r.keys() | piv.keys() - {c}:
                s = b * r.get(k, 0) - a * piv.get(k, 0)
                if p:
                    s %= p
                if s:
                    new[k] = s
            r = new
    return len(pivots)


def homology_by_field(levels, fields) -> list:
    """Reduced homology ranks {d: rank}, d = -1 .. dim, zeros included, one
    dict per field, with the boundary rows ranked by ``matrix_rank`` over
    each field in turn: degree k - 1 has the ``len(levels[k])`` faces of
    size k less the ranks of the maps out of sizes k and k + 1."""
    rows, out = _boundary_rows(levels), []
    for fld in fields:
        ranks = [matrix_rank(r, fld) for r in rows] + [0]
        out.append({k - 1: len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))})
    return out
