"""Graph builders, the edge test and labelings shared by the test files,
the by-size face listings of restrictions that the homology tests compare
against, the projection of integral homology to each field's ranks, the product
of edge-binomial powers that the Fedder tests multiply out, and the basis
of the bracket power I^[p] built from the public Groebner steps."""

import itertools

from beideals import GF, Graph, IdealBasis, PolyContext, Polynomial, admissible_groebner_basis, \
    canonical_form, edge_binomial, find_closed_labeling, frobenius_power, \
    is_closed_with_labeling, relabel
from beideals.betti import _ranks_over
from beideals.groebner import _division_table
from beideals.simplicial import _restriction, by_size


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(1, n + 1), 2)))


def disjoint_union(g, h):
    return Graph(g.n + h.n, list(g.edges) + [(i + g.n, j + g.n) for i, j in h.edges])


def has_edge(g, i, j):
    return (min(i, j), max(i, j)) in g.edges


def classify_labeled(g):
    """``g`` under the labeling classify_graph uses: its canonical form,
    relabeled by the closed labeling found on it when one exists."""
    g = relabel(g, canonical_form(g)[1])
    sigma = find_closed_labeling(g)
    return relabel(g, sigma) if sigma else g


def first_open_relabeling(g):
    """The first relabeling, in permutation order, that is not closed; None
    for a complete graph, whose every labeling is closed."""
    for sigma in itertools.permutations(range(1, g.n + 1)):
        h = relabel(g, sigma)
        if not is_closed_with_labeling(h):
            return h
    return None


def face_levels(masks, sigma: int) -> list:
    """Faces of the restriction to the vertex set ``sigma``, by size.

    ``levels[k]`` lists the faces with k vertices as bitmasks on sigma's
    own bits, increasing, so ``levels[0] == [0]`` and ``len(levels) - 1``
    is the largest face size.
    """
    faces = _restriction(masks, sigma)[0]
    vertices = [1 << v for v in range(sigma.bit_length()) if sigma >> v & 1]
    return [
        [sum(u for i, u in enumerate(vertices) if f >> i & 1) for f in level]
        for level in by_size(faces)
    ]


def star_quotient_levels(masks, sigma: int) -> list:
    """Faces of the restriction to ``sigma`` outside the closed star of the
    vertex v in the most faces, by size: the basis of the quotient chain
    complex by the star, which is a cone, so the quotient has the reduced
    homology of the restriction.  A face f lies outside the star exactly
    when it avoids v and f + v is no face.  When no vertex of ``sigma`` is
    a face, nothing is left out and the whole complex comes back.

    The faces are renumbered onto sigma's vertices 0..|sigma|-1 in
    increasing order, not given on sigma's own bits.
    """
    faces, has, _ = _restriction(masks, sigma)
    if has:
        v = max(range(len(has)), key=lambda v: (faces & has[v]).bit_count())
        faces &= ~(has[v] | faces >> (1 << v))
    return by_size(faces)


def projective_plane_generators():
    """Stanley-Reisner ideal of the six-vertex real projective plane: its
    minimal non-faces are the ten triangles that are not among its faces."""
    faces = {
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    }
    return [
        tuple(int(v in t) for v in range(6))
        for t in itertools.combinations(range(6), 3)
        if t not in faces
    ]


def over_fields(homology, fields) -> list:
    """Integral homology, as ``root_homology`` gives it, projected to the
    nonzero ranks {degree: rank} over each field, as the tables take it."""
    return [_ranks_over(homology, fld.char) for fld in fields]


def nonzero(ranks) -> list:
    """Per-field rank dicts, zeros included, without their zero entries."""
    return [{d: h for d, h in r.items() if h} for r in ranks]


def pair_power_product(ctx: PolyContext, vertices, exponent: int) -> Polynomial:
    """Product of f_{v_t, v_{t+1}} ** exponent over consecutive entries.

    Uses the signed convention f_ba = -f_ab, so the sequence may run in
    either direction through each pair.
    """
    seq = tuple(vertices)
    if len(seq) < 2:
        raise ValueError("need at least two vertices")
    out = ctx.one()
    for t in range(len(seq) - 1):
        a, b = seq[t], seq[t + 1]
        if a == b:
            raise ValueError(f"repeated consecutive vertex {a}")
        f = edge_binomial(ctx, a, b) if a < b else -edge_binomial(ctx, b, a)
        out = out * f**exponent
    return out


def bracket_basis(g, p):
    """(ring over F_p, reduced lex basis of I^[p]): the termwise p-th power
    of the admissible-path basis, which ``fedder_check`` divides by."""
    ctx = PolyContext(g.n, GF(p))
    basis = IdealBasis(e.poly for e in admissible_groebner_basis(g, ctx.field))
    return ctx, frobenius_power(basis, p)


def bracket_table(g, p):
    """Oracle for ``edgeideals._bracket_rows``: the division table of
    ``bracket_basis``, composed from the basis, its Frobenius power, a
    second ``IdealBasis`` and ``_division_table``."""
    return _division_table(bracket_basis(g, p)[1].polys)
