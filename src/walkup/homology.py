"""Mod-2 simplicial homology and combinatorial orientability.

A chain is a bitset (one Python int) over a face order, so additions are
word-parallel and ranks are exact.  boundary_columns() builds the
boundary of every j-face as one int over the (j-1)-faces, and every rank,
kernel and injectivity test in the package runs on those columns through
the one pivot structure, PivotSpace, with two exceptions that need no
elimination: rank ∂_1 is f_0 minus the number of components of the edge
graph, and when every ridge lies in exactly two facets rank ∂_d is f_d
minus the number of trees of a spanning forest of the dual graph.  Both
counts come from complex.spanning_forest.  The ranks in between are
eliminated from the top degree down with clearing: a j-face that was a
pivot of ∂_{j+1}, and on a closed input a ridge crossed by the dual
forest, has a boundary that is a sum of the boundaries kept, so its
column is neither built nor inserted.  Bit i of a column is the face at
position i of SimplicialComplex.face_index, the order in which the faces
are first met, fixed by the facets alone, which makes every column
reproducible bit for bit.  No rank, and so no Betti number, depends on
that order, so no face list is sorted.

Orientability is decided over the integers by sign propagation along the
same spanning forest of the dual graph, independently of the mod-2
machinery.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complex import Face, SimplicialComplex, spanning_forest


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


def rank_gf2(rows: list[int], pivots: set[int] | None = None) -> int:
    """Rank of a list of bitset row vectors over GF(2).

    When pivots is given, the pivot bit of every independent row, after
    reduction against the rows before it, is added to it.
    """
    space = PivotSpace()
    for v in rows:
        space.insert(v)
    if pivots is not None:
        pivots.update(space.pivots)
    return space.rank


def nullspace_gf2(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row}, vectors as ncols-bit ints.

    The rows are brought to reduced row echelon form in ascending pivot
    order: a row's pivot is its top bit, so only the pivots below it can
    occur in it, and each is cleared by the row of that pivot, already
    reduced.  Basis vector j, for each free column j in ascending order,
    is bit j plus the pivot of every reduced row that holds bit j.
    """
    space = PivotSpace()
    for v in rows:
        space.insert(v)
    reduced: dict[int, int] = {}
    below = 0  # the pivot bits reduced so far
    for b in sorted(space.pivots):
        r = space.pivots[b]
        m = r & below
        while m:
            q = m.bit_length() - 1
            r ^= reduced[q]
            m ^= 1 << q
        reduced[b] = r
        below |= 1 << b
    free = ((1 << ncols) - 1) & ~below
    basis = {j: 1 << j for j in range(ncols) if (free >> j) & 1}
    for b, r in reduced.items():
        m = r & free
        while m:
            low = m & -m
            basis[low.bit_length() - 1] |= 1 << b
            m ^= low
    return list(basis.values())


def transpose_gf2(rows: list[int], ncols: int) -> list[int]:
    """Transpose of a GF(2) matrix given as bitset rows over ncols columns."""
    out = [0] * ncols
    for r, v in enumerate(rows):
        while v:
            c = v.bit_length() - 1
            v ^= 1 << c
            out[c] |= 1 << r
    return out


def boundary_columns(
    X: SimplicialComplex, j: int, skip: set[int] | frozenset[int] = frozenset()
) -> list[int]:
    """Boundaries of the j-faces, in face_index order, as bitsets whose
    bit i is the (j-1)-face at position i; the j-faces at the positions
    in skip are left out."""
    index = X.face_index(j - 1)
    faces = X.face_index(j)
    if skip:
        faces = [f for f, i in faces.items() if i not in skip]
    cols = []
    for face in faces:
        v = 0
        for i in map(index.__getitem__, combinations(face, j)):
            v |= 1 << i
        cols.append(v)
    return cols


def betti_numbers(X: SimplicialComplex, top: int | None = None) -> tuple[int, ...]:
    """Mod-2 Betti numbers b_0, ..., b_top of a non-empty complex.

    top defaults to the dimension; only the boundary maps up to degree
    top + 1 are ranked.
    """
    d = X.dimension
    top = d if top is None else min(top, d)
    closed = top + 1 >= d and X.is_closed_pseudomanifold()
    return _betti(X, top, _dual_forest(X) if closed else None)


def _betti(X: SimplicialComplex, top: int, forest: _Forest | None) -> tuple[int, ...]:
    """Betti numbers from the ranks of boundary_j, j = top + 1 down to 1.

    Each elimination clears the next.  A pivot b of boundary_{j+1} is the
    top bit of a boundary w, and boundary_j w = 0 makes column b of
    boundary_j a sum of columns below it, so b is left out of the next
    rank.  On a closed input (forest given) rank boundary_d is f_d minus
    the number of trees, and the tree ridges are left out of
    boundary_{d-1}: the ridge a facet shares with its parent has the
    same boundary as the sum of the facet's other ridges, each of which
    is kept or is shared with a child, so from the leaves up every tree
    ridge is a sum of kept columns.
    """
    d = X.dimension
    f = X.f_vector()
    # ranks[j] = rank of boundary_j; boundary_0 and boundary_{d+1} are zero maps
    ranks = [0] * (top + 2)
    j = min(top + 1, d)
    skip: set[int] = set()  # positions of the j-faces cleared
    if forest is not None and j == d > 0:
        ranks[d] = f[d] - forest.trees
        skip = set(map(X.face_index(d - 1).__getitem__, forest.tree_ridges))
        j -= 1
    while j >= 2:
        # a pivot of boundary_j is the position of a (j-1)-face
        pivots: set[int] = set()
        ranks[j] = rank_gf2(boundary_columns(X, j, skip), pivots)
        skip = pivots
        j -= 1
    if j == 1:
        # boundary_1 maps onto the even 0-chains of each edge-graph component
        parents = spanning_forest(X.vertices, X.adjacency()).values()
        ranks[1] = len(X.vertices) - list(parents).count(None)
    return tuple(f[j] - ranks[j] - ranks[j + 1] for j in range(top + 1))


class _Forest(NamedTuple):
    """One spanning forest of the dual graph of a closed complex."""

    trees: int
    tree_ridges: frozenset[Face]
    orientable: bool


def _dual_forest(X: SimplicialComplex) -> _Forest:
    """Spanning forest of the dual graph of a closed complex: its number
    of trees, the ridges its edges cross, and whether the facets orient
    coherently.

    The forest and each facet's ridge to its parent are read off
    DualGraph.adjacency().  Signs are propagated down the forest and
    checked on every adjacency; facets inherit the reference
    orientation of their sorted vertex tuple.
    """
    dg = X.dual_graph()
    # facets a, b whose ridge r omits index i_a of a and i_b of b need
    # sign(b) = -sign(a) * (-1)^(i_a + i_b); odd[r] is that parity
    odd = dict.fromkeys(dg.ridge_incidence, False)
    for f in X.facets:
        for i in range(1, len(f), 2):
            odd[f[:i] + f[i + 1:]] ^= True
    adj = dg.adjacency()
    # a forest lists every facet after its parent
    sign: dict[Face, bool] = {}
    tree_ridges = []
    for f, parent in spanning_forest(X.facets, adj).items():
        if parent is None:
            sign[f] = True
        else:
            r = adj[f][parent]
            tree_ridges.append(r)
            sign[f] = sign[parent] == odd[r]
    orientable = all(
        (sign[a] == sign[b]) == odd[r] for r, (a, b) in dg.ridge_incidence.items()
    )
    return _Forest(len(X.facets) - len(tree_ridges), frozenset(tree_ridges), orientable)


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
    forest = _dual_forest(X) if X.is_closed_pseudomanifold() else None
    betti = _betti(X, X.dimension, forest)
    return HomologyProfile(
        betti=betti,
        euler=X.euler_characteristic(),
        orientable=None if forest is None else forest.orientable,
        connected=betti[0] == 1,
    )
