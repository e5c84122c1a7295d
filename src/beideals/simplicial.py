"""Stanley-Reisner complexes of square-free monomial ideals, with exact
simplicial homology over a chosen coefficient field.

Vertices are variable indices 0..nvars-1 and faces are bitmasks over them.
A subset is a face exactly when it contains no generator's support.  The
reduced chain complex includes the empty face, so the homology of the
complex whose only face is the empty set has rank 1 in dimension -1.

Faces are built by extension, never by scanning subsets, and come grouped
by size.  Boundary ranks over F_2 use int bitset rows and XOR elimination;
over QQ and odd F_p they use signed dict rows and exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import GF
from .polys import mono_is_squarefree, mono_support


def support_masks(mingens, nvars: int) -> list:
    """Supports of square-free generators as bitmasks; validates inputs."""
    masks = []
    for m in mingens:
        if len(m) != nvars:
            raise ValueError("generator does not match the variable count")
        if not mono_is_squarefree(m):
            raise ValueError(f"generator {m} is not square-free")
        mask = 0
        for v in mono_support(m):
            mask |= 1 << v
        if mask == 0:
            raise ValueError("constant generator: the ideal is the unit ideal")
        masks.append(mask)
    return masks


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet description of a complex on vertices 0..nvars-1."""

    nvars: int
    facets: tuple  # sorted tuples of vertex indices, pairwise incomparable

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def max_facet_size(self) -> int:
        return max(len(f) for f in self.facets)


def stanley_reisner(mingens, nvars: int) -> SimplicialComplex:
    """Complex whose faces are the subsets containing no generator support.

    Works on all nvars vertices: a variable absent from every generator is
    a cone point and appears in every facet.  The faces on the appearing
    variables come from ``face_levels``; a face is a facet when it is no
    codimension-one face of a larger one.
    """
    masks = support_masks(mingens, nvars)
    appearing = 0
    for m in masks:
        appearing |= m
    cone = ((1 << nvars) - 1) & ~appearing
    levels = face_levels(masks, appearing)
    below = {f ^ v for level in levels[1:] for f in level for v in _bits(f)}
    facets = [
        tuple(v for v in range(nvars) if (f | cone) >> v & 1)
        for level in levels
        for f in level
        if f not in below
    ]
    facets.sort(key=lambda f: (len(f), f))
    return SimplicialComplex(nvars, tuple(facets))


def krull_dim(complex_: SimplicialComplex) -> int:
    """Krull dimension of the quotient by the ideal: the largest facet size."""
    return complex_.max_facet_size()


# ----------------------------------------------------------------------
# faces and homology of restrictions, used by Hochster's formula
# ----------------------------------------------------------------------

def face_levels(masks, sigma: int) -> list:
    """Faces of the restriction to the vertex set ``sigma``, by size.

    ``levels[k]`` lists the faces with k vertices as bitmasks, so
    ``levels[0] == [0]`` and ``len(levels) - 1`` is the largest face size.
    """
    return _grow([0], *_supports_in(masks, sigma), sigma)


def star_quotient_levels(masks, sigma: int) -> list:
    """Faces of the restriction to ``sigma`` outside the closed star of a
    vertex v, by size: the basis of the quotient chain complex by the star.

    The star is a cone with apex v, so it is acyclic, and the quotient has
    the reduced homology of the restriction over any coefficients.  A face
    lies outside the star exactly when it avoids v and contains m - v for
    a support m through v, so only those faces are built.  v is a vertex
    in the fewest supports, which keeps the quotient small.  When no
    vertex of ``sigma`` is a face the complex is {empty face}, returned
    whole.
    """
    local, containing = _supports_in(masks, sigma)
    free = sigma
    for m in local:
        if m & (m - 1) == 0:
            free &= ~m
    if not free:
        return [[0]]
    v = min(_bits(free), key=lambda u: len(containing.get(u, ())))
    roots = [m ^ v for m in containing.get(v, ())]
    return _grow(roots, local, containing, sigma ^ v)


def _supports_in(masks, sigma: int) -> tuple:
    """The supports inside ``sigma``, and a map from each vertex to those
    of them that contain it."""
    local = [m for m in masks if m & sigma == m]
    containing: dict = {}
    for m in local:
        for u in _bits(m):
            containing.setdefault(u, []).append(m)
    return local, containing


def _grow(roots, local, containing, sigma: int) -> list:
    """Faces of the restriction to ``sigma`` that contain one of ``roots``,
    by size.  ``local`` holds every support inside ``sigma`` (it may hold
    more), and ``containing`` maps a vertex to the supports through it.

    A face is grown only from the first root it contains, adding vertices
    in increasing order, and each face g keeps the larger vertices w with
    g | w a face.  When g = f | u was made from f, both f | u and f | w
    are faces, so g | w is one unless a support containing u lies inside
    g | w; those supports are the only ones checked, and no subset that is
    not a face is ever built.
    """
    levels: list = [[]]
    for i, root in enumerate(roots):
        earlier = roots[:i]
        stop = 0  # vertices w with root | w no face
        for m in local:
            rest = m & ~root
            if rest == 0:
                break  # the root itself is no face
            if rest & (rest - 1) == 0:
                stop |= rest
        else:
            frontier = [(root, sigma & ~root & ~stop)]
            k = root.bit_count()
            while frontier:
                while len(levels) <= k:
                    levels.append([])
                level = levels[k]
                grown = []
                for f, ext in frontier:
                    if any(e & ~f == 0 for e in earlier):
                        continue  # grown from an earlier root
                    level.append(f)
                    while ext:
                        u = ext & -ext
                        ext ^= u
                        g = f | u
                        stop = 0
                        for m in containing.get(u, ()):
                            rest = m & ~g
                            if rest & (rest - 1) == 0:
                                stop |= rest
                        grown.append((g, ext & ~stop))
                frontier = grown
                k += 1
    return levels


def _bits(mask: int) -> list:
    """The single-bit masks of ``mask``, lowest first."""
    out = []
    while mask:
        v = mask & -mask
        out.append(v)
        mask ^= v
    return out


def restriction_faces(masks, sigma: int) -> list:
    """All faces of the restriction to the vertex set ``sigma`` (a bitmask).

    Returns face bitmasks including 0 (the empty face), smallest first.
    """
    return [f for level in face_levels(masks, sigma) for f in level]


def matrix_rank(rows, fld) -> int:
    """Rank of a sparse integer matrix over the field.

    ``rows`` is a list of dicts column -> nonzero int entry.  Over the
    rationals the elimination is fraction-free (integer cross
    multiplication), since the rank of an integer matrix over QQ needs no
    division; over F_p it is plain modular elimination.
    """
    if fld.char == 0:
        return _rank_over_z(rows)
    return _rank_mod_p(rows, fld.char)


def _rank_over_z(rows) -> int:
    pivots = {}
    rank = 0
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = r
                rank += 1
                break
            a = r.pop(c)
            pc = piv[c]
            new = {k: pc * v for k, v in r.items()}
            for k, v in piv.items():
                if k == c:
                    continue
                s = new.get(k, 0) - a * v
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
            r = new
    return rank


def _rank_mod_p(rows, p: int) -> int:
    pivots = {}
    rank = 0
    for row in rows:
        r = {}
        for c, v in row.items():
            v %= p
            if v:
                r[c] = v
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                rank += 1
                break
            a = r.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                s = (r.get(k, 0) - a * v) % p
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
    return rank


def boundary_rows(lower_index: dict, faces: list) -> list:
    """Rows of the boundary matrix, one row per face of the upper dimension.

    The row for a face lists, with alternating signs, the positions of its
    codimension-one subfaces in ``lower_index``; subfaces missing from it
    are zero in the quotient complex and are left out.  Transposing rows
    and columns leaves rank unchanged, so rows-per-face is fine.
    """
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


def _rank_f2(rows) -> int:
    """Rank over F_2 of rows given as int bitsets, by XOR elimination."""
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return len(pivots)


def _boundary_ranks(levels, fld) -> list:
    """ranks[k]: rank of the boundary map from k-vertex to (k-1)-vertex faces.

    Over F_2 rows are bitsets over the lower faces, ranked by XOR
    elimination; over any other field they are the signed dict rows of
    ``boundary_rows``, ranked by exact elimination.
    """
    ranks = [0]
    index = {f: t for t, f in enumerate(levels[0])}
    for faces in levels[1:]:
        if fld.char == 2:
            rows = []
            for f in faces:
                row = 0
                m = f
                while m:
                    v = m & -m
                    t = index.get(f ^ v)
                    if t is not None:
                        row |= 1 << t
                    m ^= v
                rows.append(row)
            ranks.append(_rank_f2(rows))
        else:
            ranks.append(matrix_rank(boundary_rows(index, faces), fld))
        index = {f: t for t, f in enumerate(faces)}
    return ranks


def _homology(levels, fld) -> dict:
    ranks = _boundary_ranks(levels, fld) + [0]
    return {k - 1: len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))}


def homology_by_field(levels, fields) -> list:
    """Reduced homology ranks {d: rank}, d = -1 .. dim, one dict per field.

    ``levels`` lists by size the faces that form a basis of a simplicial
    chain complex, possibly modulo a subcomplex whose faces are left out;
    degree k - 1 comes from ``levels[k]``.  Over QQ the ranks are read off
    F_2 when the F_2 homology is zero or sits in one degree: by the
    universal coefficient theorem dim_Q H~_i <= dim_F2 H~_i for every i,
    and the Euler characteristics agree, so the two are then equal.
    Otherwise, and in odd characteristic, exact elimination decides.
    """
    f2 = None
    out = []
    for fld in fields:
        if fld.char in (0, 2):
            if f2 is None:
                f2 = _homology(levels, GF(2))
            if fld.char == 2 or sum(1 for h in f2.values() if h) <= 1:
                out.append(f2)
                continue
        out.append(_homology(levels, fld))
    return out


def homology_ranks(faces, fld) -> dict:
    """Reduced homology ranks by dimension for a face list (bitmasks).

    Expects a downward closed list with the empty face 0 in it when the
    complex is nonempty.  Returns {d: rank} for d = -1 .. dim, zeros
    included.
    """
    if not faces:
        return {}
    levels: list = []
    for f in faces:
        k = f.bit_count()
        while len(levels) <= k:
            levels.append([])
        levels[k].append(f)
    return homology_by_field(levels, [fld])[0]
