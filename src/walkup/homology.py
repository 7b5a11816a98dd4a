"""Mod-2 simplicial homology and combinatorial orientability.

A chain is a bitset (one Python int) over a face order, so additions are
word-parallel and ranks are exact.  boundary_columns() builds the
boundary of every j-face as one int over the (j-1)-faces, and every rank,
kernel and injectivity test in the package runs on those columns through
the one pivot structure, PivotSpace, with two exceptions that need no
elimination: rank ∂_1 is f_0 minus the number of components of the edge
graph, and when every ridge lies in exactly two facets rank ∂_d is f_d
minus the number of components of the dual graph.  Both counts come from
complex.spanning_forest.  Face order is the lexicographic order on sorted
label tuples, fixed per complex, which makes every column reproducible
bit for bit.

Orientability is decided over the integers by sign propagation along a
spanning forest of the dual graph, independently of the mod-2 machinery.
"""

from __future__ import annotations

from typing import NamedTuple

from .complex import Face, SimplicialComplex, spanning_forest
from .errors import NotClosedPseudomanifold


class PivotSpace:
    """Append-only GF(2) span with undo: insert returns the pivot key or None."""

    __slots__ = ("pivots", "rank")

    def __init__(self):
        self.pivots: dict[int, int] = {}
        self.rank = 0

    def insert(self, v: int) -> int | None:
        piv = self.pivots
        while v:
            b = v.bit_length() - 1
            p = piv.get(b)
            if p is None:
                piv[b] = v
                self.rank += 1
                return b
            v ^= p
        return None

    def remove(self, b: int) -> None:
        del self.pivots[b]
        self.rank -= 1


def rank_gf2(rows: list[int]) -> int:
    """Rank of a list of bitset row vectors over GF(2)."""
    space = PivotSpace()
    for v in rows:
        space.insert(v)
    return space.rank


def nullspace_gf2(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row}, vectors as ncols-bit ints."""
    space = PivotSpace()
    for v in rows:
        space.insert(v)
    # back-substitute into reduced row echelon form: pivot bit -> row
    pivots = space.pivots
    for b in sorted(pivots, reverse=True):
        pb = pivots[b]
        for b2, r in pivots.items():
            if b2 != b and (r >> b) & 1:
                pivots[b2] = r ^ pb
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        u = 1 << j
        for b, row in pivots.items():
            if (row >> j) & 1:
                u |= 1 << b
        basis.append(u)
    return basis


def transpose_gf2(rows: list[int], ncols: int) -> list[int]:
    """Transpose of a GF(2) matrix given as bitset rows over ncols columns."""
    out = [0] * ncols
    for r, v in enumerate(rows):
        while v:
            c = v.bit_length() - 1
            v ^= 1 << c
            out[c] |= 1 << r
    return out


def boundary_columns(X: SimplicialComplex, j: int) -> list[int]:
    """Boundaries of the j-faces as bitsets over the (j-1)-face order."""
    low = X.faces_of_dim(j - 1)
    index = {f: i for i, f in enumerate(low)}
    cols = []
    for face in X.faces_of_dim(j):
        v = 0
        for i in range(len(face)):
            v |= 1 << index[face[:i] + face[i + 1:]]
        cols.append(v)
    return cols


def betti_numbers(X: SimplicialComplex, top: int | None = None) -> tuple[int, ...]:
    """Mod-2 Betti numbers b_0, ..., b_top of a non-empty complex.

    top defaults to the dimension; only the boundary maps up to degree
    top + 1 are ranked.
    """
    d = X.dimension
    top = d if top is None else min(top, d)
    f = X.f_vector()
    # ranks[j] = rank of boundary_j; boundary_0 and boundary_{d+1} are zero maps
    ranks = [
        _boundary_rank(X, j) if 1 <= j <= d else 0 for j in range(top + 2)
    ]
    return tuple(f[j] - ranks[j] - ranks[j + 1] for j in range(top + 1))


def _boundary_rank(X: SimplicialComplex, j: int) -> int:
    """Rank of boundary_j over GF(2), 1 <= j <= dimension.

    The image of boundary_1 is the 0-chains of even weight on each
    component of the edge graph; when every ridge lies in two facets,
    the d-cycles are the unions of dual-graph components.
    """
    if j == 1:
        return len(X.vertices) - _components(X.vertices, X.adjacency())
    if j == X.dimension and X.is_closed_pseudomanifold():
        dg = X.dual_graph()
        return len(X.facets) - _components(dg.nodes, dg.adjacency())
    return rank_gf2(boundary_columns(X, j))


def _components(nodes, adj) -> int:
    return list(spanning_forest(nodes, adj).values()).count(None)


class HomologyProfile(NamedTuple):
    """Mod-2 Betti vector plus the cheap global invariants."""

    betti: tuple[int, ...]
    euler: int
    orientable: bool | None
    connected: bool


def homology_profile(X: SimplicialComplex) -> HomologyProfile:
    """Betti numbers over GF(2), Euler characteristic, connectivity, orientability.

    Orientability is reported only for closed weak pseudomanifolds and is
    None otherwise.
    """
    if X.is_empty:
        return HomologyProfile(betti=(), euler=0, orientable=None, connected=False)
    d = X.dimension
    f = X.f_vector()
    betti = betti_numbers(X)
    euler = sum(f[j] if j % 2 == 0 else -f[j] for j in range(d + 1))
    orientable = None
    if X.is_closed_pseudomanifold():
        orientable = is_orientable(X)
    return HomologyProfile(
        betti=betti,
        euler=euler,
        orientable=orientable,
        connected=betti[0] == 1,
    )


def is_orientable(X: SimplicialComplex) -> bool:
    """Decide whether the facets admit a coherent orientation.

    Signs are propagated down a spanning forest of the dual graph and
    then checked on every adjacency; facets inherit the reference
    orientation of their sorted vertex tuple.
    """
    if X.is_empty or not X.is_closed_pseudomanifold():
        raise NotClosedPseudomanifold("orientability needs a closed weak pseudomanifold")
    dg = X.dual_graph()
    # facets a, b whose ridge r omits index i_a of a and i_b of b need
    # sign(b) = -sign(a) * (-1)^(i_a + i_b); odd[r] is that parity
    odd = dict.fromkeys(dg.ridge_incidence, 0)
    for f in X.facets:
        for i in range(1, len(f), 2):
            odd[f[:i] + f[i + 1:]] ^= 1
    factor: dict[Face, dict[Face, int]] = {f: {} for f in X.facets}
    for r, (a, b) in dg.ridge_incidence.items():
        factor[a][b] = factor[b][a] = 1 if odd[r] else -1
    # a forest lists every facet after its parent
    sign: dict[Face, int] = {}
    for f, parent in spanning_forest(X.facets, factor).items():
        sign[f] = 1 if parent is None else sign[parent] * factor[parent][f]
    return all(sign[a] * sign[b] == factor[a][b] for a, b in dg.edges)
