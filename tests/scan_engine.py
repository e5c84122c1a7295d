"""The subset-scan Betti engine that the library used before it built faces
by extension and ranked over F_2 by XOR; kept as a test oracle.

It scans all 2^|sigma| subsets of each restriction, assembles signed dict
boundary rows for the whole complex, and ranks them exactly over every
requested field by the dense row reduction ``dense_rank`` of the
brute-force oracle, not by the library's ``_diagonal`` nor by
``rank_oracle.matrix_rank``.  The Stanley-Reisner facets come from a sweep
over all 2^nvars subsets.
"""

from beideals.simplicial import support_masks
from hochster_oracle import dense_rank


def boundary_rows(lower_index, faces):
    """Signed dict rows of the boundary matrix, one per face; subfaces
    missing from ``lower_index`` are left out."""
    rows = []
    for f in faces:
        row = {}
        sign = 1
        m = f
        while m:
            v = m & -m
            t = lower_index.get(f ^ v)
            if t is not None:
                row[t] = sign
            sign = -sign
            m ^= v
        rows.append(row)
    return rows


def scan_restriction_faces(masks, sigma):
    """Faces of the restriction to ``sigma``: every submask without a support."""
    local = [m for m in masks if m & sigma == m]
    faces = []
    s = sigma
    while True:
        if all(s & m != m for m in local):
            faces.append(s)
        if s == 0:
            break
        s = (s - 1) & sigma
    return faces


def scan_homology_ranks(faces, fld):
    """Reduced homology ranks {d: rank}, d = -1 .. dim, from the full complex."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    top = max(by_dim)
    ranks = {}
    for d in range(0, top + 1):
        index = {f: t for t, f in enumerate(by_dim.get(d - 1, []))}
        dense = []
        for row in boundary_rows(index, by_dim.get(d, [])):
            entries = [0] * len(index)
            for t, sign in row.items():
                entries[t] = fld.coerce(sign)
            dense.append(entries)
        ranks[d] = dense_rank(dense, fld)
    return {
        d: len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(-1, top + 1)
    }


def scan_betti_table(mingens, nvars, fld):
    """Graded Betti numbers (i, j) -> beta of S/I by Hochster's formula over
    the subsets of the appearing variables that no cone point spoils."""
    masks = support_masks(mingens, nvars)
    appearing = 0
    for m in masks:
        appearing |= m
    table = {}
    sigma = appearing
    while True:
        covered = 0
        for m in masks:
            if m & sigma == m:
                covered |= m
        if covered == sigma:
            size = bin(sigma).count("1")
            faces = scan_restriction_faces(masks, sigma)
            for d, h in scan_homology_ranks(faces, fld).items():
                if h:
                    key = (size - 1 - d, size)
                    table[key] = table.get(key, 0) + h
        if sigma == 0:
            return table
        sigma = (sigma - 1) & appearing


def scan_facets(mingens, nvars):
    """Stanley-Reisner facets as sorted vertex tuples, by a sweep over all
    subsets of the nvars vertices."""
    masks = support_masks(mingens, nvars)

    def is_face(s):
        return all(s & m != m for m in masks)

    facets = []
    for s in range(1 << nvars):
        if is_face(s) and not any(
            not s >> v & 1 and is_face(s | 1 << v) for v in range(nvars)
        ):
            facets.append(tuple(v for v in range(nvars) if s >> v & 1))
    facets.sort(key=lambda f: (len(f), f))
    return facets
