"""Brute-force graded Betti numbers, used as a test oracle.

Everything here follows the definitions with no shortcuts: every subset of
the full variable set is restricted, the whole chain complex of each
restriction is assembled as dense matrices, and ranks come from a plain
Gaussian elimination that does its own arithmetic with Python's operators
and reduces every result through the field's ``coerce``.  Deliberately
slow; keep inputs at eight variables or fewer.
"""

import itertools


def dense_rank(matrix, fld):
    """Rank of a list-of-lists matrix over fld by Gaussian elimination: each
    pivot row is scaled to 1 and cleared from the rows below it."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    coerce = fld.coerce
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = [coerce(inv * v) if v else 0 for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [coerce(v - coerce(c * w)) if w else v for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def restricted_faces(supports, sigma):
    """Subsets of sigma containing no generator support, as frozensets."""
    members = sorted(sigma)
    faces = set()
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            face = frozenset(combo)
            if not any(s <= face for s in supports):
                faces.add(face)
    return faces


def reduced_homology_ranks(faces, fld):
    """Ranks of reduced homology keyed by dimension, starting at -1.

    faces must be downward closed and contain the empty face.  The reduced
    complex has the empty face as its sole basis element in dimension -1,
    so a complex consisting of only the empty face has rank one there.
    """
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    ordered = {d: sorted(by_dim.get(d, []), key=sorted) for d in range(-1, top + 1)}

    boundary_rank = {}
    for d in range(0, top + 1):
        below = {f: k for k, f in enumerate(ordered[d - 1])}
        rows = []
        for face in ordered[d]:
            row = [0] * len(below)
            for s, v in enumerate(sorted(face)):
                row[below[frozenset(face - {v})]] = fld.coerce((-1) ** s)
            rows.append(row)
        boundary_rank[d] = dense_rank(rows, fld)

    ranks = {}
    for d in range(-1, top + 1):
        h = len(ordered[d]) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        if h:
            ranks[d] = h
    return ranks


def betti_by_restriction(mingens, nvars, fld):
    """Graded Betti numbers of the quotient as a dict (i, j) -> beta.

    beta_{i,j} collects rank H~_{|sigma|-i-1} of the restriction to sigma
    over all sigma of size j; sigma ranges over every subset of all nvars
    variables, including the empty one (which contributes beta_{0,0} = 1).
    """
    supports = [frozenset(k for k, e in enumerate(m) if e) for m in mingens]
    if any(not s for s in supports):
        raise ValueError("constant generator")
    table = {}
    for size in range(nvars + 1):
        for sigma in itertools.combinations(range(nvars), size):
            faces = restricted_faces(supports, sigma)
            for d, h in reduced_homology_ranks(faces, fld).items():
                key = (size - d - 1, size)
                table[key] = table.get(key, 0) + h
    return table
