"""Restrictions of the Stanley-Reisner complex of a square-free monomial
ideal to vertex sets, and their exact reduced homology over Z, for
Hochster's formula in ``betti``.

Vertices are variable indices 0..nvars-1 and faces are bitmasks over them.
A subset is a face exactly when it contains no generator's support.  The
reduced chain complex includes the empty face, so the homology of the
complex whose only face is the empty set has rank 1 in dimension -1.

Sets of subsets are Python ints on the subset lattice: with s vertices
numbered 0..s-1, subset f is bit f of an int with 2^s bits.
``subset_lattice(s)`` gives the full set, ``HAS[v]``, the set of subsets
containing v, and ``LEVEL[j]``, the set of subsets of size j, built
together once per s.  The subsets containing a support m are ``SUP(m)``,
the AND of ``HAS[v]`` over v in m.  The faces of a restriction are then
the full set minus every ``SUP(m)``, a few int operations for all subsets
at once.

``root_homology`` gives the homology of a restriction from an acyclic
matching on its faces: faces f and f + v are paired for one vertex v after
another, and one test decides the unmatched set R.  When R is empty the
homology is zero; when R lies in ``LEVEL[j]``, j the size of its top cell,
it is free of rank |R| in degree j - 1.  Otherwise ``integral_homology``
eliminates on the star quotient, cut from the same faces.  There the
boundary rows are built once per level, as dicts from the faces one size
down to the boundary's signs, and ``_diagonal`` brings each map to a Smith
form over Z once.  Free ranks and torsion orders are read off the
diagonals; no coefficient field enters this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .graphs import LimitExceededError

# Most vertices a subset lattice is built for: its sets of subsets have
# 2^MAX_APPEARING bits (128 KiB each at 20).
MAX_APPEARING = 20


def support_masks(mingens, nvars: int) -> list:
    """Supports of square-free generators as bitmasks; validates inputs."""
    masks = []
    for m in mingens:
        if len(m) != nvars:
            raise ValueError("generator does not match the variable count")
        if any(e not in (0, 1) for e in m):
            raise ValueError(f"generator {m} is not square-free")
        mask = 0
        for v, e in enumerate(m):
            if e:
                mask |= 1 << v
        if mask == 0:
            raise ValueError("constant generator: the ideal is the unit ideal")
        masks.append(mask)
    return masks


@lru_cache(maxsize=None)
def subset_lattice(k: int) -> tuple:
    """The set of all 2^k subsets, ``HAS[v]`` for each vertex v and
    ``LEVEL[j]`` for j = 0..k, the subsets of size j, as ints with bit
    sigma for subset sigma.  Kept for every k seen; all k up to
    ``MAX_APPEARING`` take about 10 MiB."""
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


def by_size(members: int) -> list:
    """The subsets in the set ``members`` grouped by size, each group in
    increasing order, with no empty groups after the last nonempty one.

    The set bits are read off ``bin(members)`` from the right: one string
    of the bits, then one ``rfind`` per member, where stepping by
    ``x & -x`` would cost O(2^k) bits per member."""
    levels: list = []
    digits = bin(members)
    top = len(digits) - 1
    i = digits.rfind("1", 2)
    while i >= 0:
        f = top - i
        size = f.bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(f)
        i = digits.rfind("1", 2, i)
    return levels


# ----------------------------------------------------------------------
# faces and homology of restrictions, used by Hochster's formula
# ----------------------------------------------------------------------

def root_homology(masks, sigma: int) -> tuple:
    """The nonzero reduced homology over Z of the restriction to ``sigma``:
    one (degree, free rank, torsion orders) per degree, read off an acyclic
    matching where it can be.

    For each vertex v of sigma in turn, the faces f and f + v that are both
    still unmatched are paired off: on the remaining set R that is
    ``low = R & ~HAS[v] & (R >> 2^v)``, then ``R &= ~(low | low << 2^v)``.
    Element matchings iterated this way form an acyclic matching (Jonsson,
    Simplicial Complexes of Graphs, LNM 1928, section 4.1), and each matched
    incidence is +-1, so by algebraic Morse theory (Skoldberg, Trans. AMS
    2006) the reduced chain complex over Z is homotopy equivalent to a free
    complex on the critical cells R.  When R is empty the homology is zero.
    When R lies in ``LEVEL[j]``, j the size of its top cell, every Morse
    differential is zero, and the homology is free of rank |R| in degree
    j - 1.

    Otherwise the Morse differentials are not the boundary restricted to R,
    and ``integral_homology`` takes the star quotient of the vertex v in
    the most faces: the faces that avoid v and give no face with v,
    ``faces & ~(HAS[v] | faces >> 2^v)``.  The closed star of v is a cone,
    so it is acyclic, and the quotient has the reduced homology of the
    restriction over Z.  The star holds the T faces through v and the T
    faces they give without v, so this v leaves the fewest faces to
    eliminate.  The faces stay on sigma's own lattice: homology depends
    only on the face poset, which the renumbering keeps.
    """
    faces, has, level = _restriction(masks, sigma)
    critical = faces
    for v, h in enumerate(has):
        low = critical & ~h & critical >> (1 << v)
        critical &= ~(low | low << (1 << v))
    if not critical:
        return ()
    j = (critical.bit_length() - 1).bit_count()
    if not critical & ~level[j]:
        return ((j - 1, critical.bit_count(), ()),)
    v = max(range(len(has)), key=lambda v: (faces & has[v]).bit_count())
    quotient = faces & ~(has[v] | faces >> (1 << v))
    return integral_homology(by_size(quotient))


def _restriction(masks, sigma: int) -> tuple:
    """The faces of the restriction to ``sigma`` as a set over sigma's own
    subset lattice, its vertices renumbered 0..s-1 in increasing order, and
    that lattice's ``HAS`` and ``LEVEL``.  Raises ``LimitExceededError``
    past ``MAX_APPEARING`` vertices, before any lattice is built."""
    s = sigma.bit_count()
    if s > MAX_APPEARING:
        raise LimitExceededError(
            f"restrictions are capped at {MAX_APPEARING} vertices, got {s}"
        )
    full, has, level = subset_lattice(s)
    faces = full
    for m in masks:
        if m & sigma == m:
            sup = full
            while m:
                low = m & -m
                sup &= has[(sigma & low - 1).bit_count()]
                m ^= low
            faces &= ~sup
    return faces, has, level


def restriction_faces(masks, sigma: int) -> list:
    """All faces of the restriction to the vertex set ``sigma`` (a bitmask),
    as bitmasks on sigma's own bits: the empty face 0 first, then by size,
    increasing within a size."""
    faces = _restriction(masks, sigma)[0]
    vertices = [1 << v for v in range(sigma.bit_length()) if sigma >> v & 1]
    return [
        sum(u for i, u in enumerate(vertices) if f >> i & 1)
        for level in by_size(faces)
        for f in level
    ]


def _boundary_rows(levels) -> list:
    """rows[k]: the boundary map from k-vertex to (k-1)-vertex faces, one
    dict per face: column t, the face f - v one size down, holds -1 to the
    number of vertices of f below v.  Subfaces missing from the lower level
    are zero in the quotient complex and are left out."""
    out, index = [], {}
    for faces in levels:
        rows = []
        for f in faces:
            row = {}
            m = f
            while m:
                v = m & -m
                t = index.get(f ^ v)
                if t is not None:
                    row[t] = -1 if (f & v - 1).bit_count() & 1 else 1
                m ^= v
            rows.append(row)
        out.append(rows)
        index = {f: t for t, f in enumerate(faces)}
    return out


def _diagonal(rows) -> list:
    """Diagonal entries of a Smith form over Z of ``rows``, dicts column ->
    nonzero int, by unimodular row and column operations, up to sign.

    Rows enter one at a time against pivots keyed by leading column; of two
    rows leading in column c, the one with the smaller entry there is the
    pivot, and the other loses r[c] // piv[c] times it (Euclid, in ints).
    A pivot that is +-1 or alone in its row is a diagonal entry; while some
    pivot is neither, the echelon rows are transposed and eliminated again,
    as column operations.  The first pivot shrinks until its row and column
    are clear, then the next, so the passes end.  Last, each pair a, b
    other than +-1 becomes gcd, lcm, since Z/a + Z/b = Z/gcd + Z/lcm.
    """
    while True:
        pivots = {}
        for row in rows:
            r = dict(row)
            while r:
                c = min(r)
                piv = pivots.get(c)
                if piv is None:
                    pivots[c] = r
                    break
                if abs(r[c]) < abs(piv[c]):
                    pivots[c], r, piv = r, piv, r
                q = r[c] // piv[c]
                for k, v in piv.items():
                    s = r.get(k, 0) - q * v
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        if all(abs(piv[c]) == 1 or len(piv) == 1 for c, piv in pivots.items()):
            diagonal = [piv[c] for c, piv in pivots.items()]
            rest = [i for i, d in enumerate(diagonal) if abs(d) != 1]
            for n, i in enumerate(rest):
                for t in rest[n + 1:]:
                    a, b = diagonal[i], diagonal[t]
                    diagonal[i], diagonal[t] = gcd(a, b), lcm(a, b)
            return diagonal
        columns: dict = {}
        for c in sorted(pivots):
            for k, v in pivots[c].items():
                columns.setdefault(k, {})[c] = v
        rows = [columns[k] for k in sorted(columns)]


def integral_homology(levels) -> tuple:
    """Reduced homology over Z of the chain complex on the faces ``levels``
    by size, possibly modulo a subcomplex whose faces are left out: one
    (degree, free rank, torsion orders) for each degree k - 1 where it is
    nonzero, read off the Smith forms of the maps out of ``levels[k]`` and
    ``levels[k + 1]``, each diagonalized once."""
    diagonals = [_diagonal(rows) for rows in _boundary_rows(levels)] + [[]]
    homology = ((k - 1, len(faces) - len(diagonals[k]) - len(diagonals[k + 1]),
                 tuple(abs(d) for d in diagonals[k + 1] if abs(d) != 1))
                for k, faces in enumerate(levels))
    return tuple((d, free, torsion) for d, free, torsion in homology if free or torsion)
