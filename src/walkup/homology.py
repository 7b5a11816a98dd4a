"""Mod-2 simplicial homology and combinatorial orientability.

Boundary operators are bit matrices (one Python int per row), so row
operations are word-parallel and ranks are exact.  Face order is the
lexicographic order on sorted label tuples, fixed per complex, which
makes every matrix reproducible bit for bit.

Orientability is decided over the integers by sign propagation along a
spanning tree of the dual graph, independently of the mod-2 machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import Face, SimplicialComplex
from .errors import NotClosedPseudomanifold


def rank_gf2(rows: list[int]) -> int:
    """Rank of a list of bitset row vectors over GF(2)."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = v
                rank += 1
                break
            v ^= p
    return rank


def rref_gf2(rows: list[int]) -> dict[int, int]:
    """Reduced row echelon form; maps pivot bit -> fully reduced row."""
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = v
                break
            v ^= p
    for b in sorted(pivots, reverse=True):
        pb = pivots[b]
        for b2, r in pivots.items():
            if b2 != b and (r >> b) & 1:
                pivots[b2] = r ^ pb
    return pivots


def nullspace_gf2(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row}, vectors as ncols-bit ints."""
    pivots = rref_gf2(rows)
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


@dataclass
class BitMatrix:
    """Dense GF(2) matrix, rows packed into ints (bit c of data[r] = entry r,c)."""

    rows: int
    cols: int
    data: list[int]

    def rank(self) -> int:
        return rank_gf2(list(self.data))

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for r, row in enumerate(self.data):
            while row:
                c = row.bit_length() - 1
                row ^= 1 << c
                out[c] |= 1 << r
        return BitMatrix(self.cols, self.rows, out)

    def mul_vec(self, v: int) -> int:
        out = 0
        for r, row in enumerate(self.data):
            if bin(row & v).count("1") & 1:
                out |= 1 << r
        return out

    def column(self, c: int) -> int:
        out = 0
        for r, row in enumerate(self.data):
            if (row >> c) & 1:
                out |= 1 << r
        return out


def boundary_matrix(X: SimplicialComplex, j: int) -> BitMatrix:
    """Mod-2 boundary operator from j-chains to (j-1)-chains.

    Rows are indexed by the canonical order of (j-1)-faces, columns by
    the canonical order of j-faces.
    """
    if not 1 <= j <= X.dimension:
        raise ValueError(f"boundary degree {j} outside 1..{X.dimension}")
    low = X.faces_of_dim(j - 1)
    high = X.faces_of_dim(j)
    index = {f: i for i, f in enumerate(low)}
    data = [0] * len(low)
    for c, face in enumerate(high):
        for i in range(len(face)):
            r = index[face[:i] + face[i + 1:]]
            data[r] |= 1 << c
    return BitMatrix(len(low), len(high), data)


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
        rank_gf2(boundary_columns(X, j)) if 1 <= j <= d else 0
        for j in range(top + 2)
    ]
    return tuple(f[j] - ranks[j] - ranks[j + 1] for j in range(top + 1))


@dataclass(frozen=True)
class HomologyProfile:
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


def is_orientable(X: SimplicialComplex, traversal: str = "bfs") -> bool:
    """Decide whether the facets admit a coherent orientation.

    Signs are propagated over a spanning structure of the dual graph and
    checked on every remaining adjacency; facets inherit the reference
    orientation of their sorted vertex tuple.  The traversal argument
    ("bfs" or "dfs") only changes the spanning structure, never the
    answer.
    """
    if X.is_empty or not X.is_closed_pseudomanifold():
        raise NotClosedPseudomanifold("orientability needs a closed weak pseudomanifold")
    dg = X.dual_graph()
    adj = dg.adjacency()
    position = {
        f: {v: i for i, v in enumerate(f)} for f in X.facets
    }

    def relative_sign(a: Face, b: Face) -> int:
        # sign relation forced on neighbors sharing the ridge a ∩ b:
        # sign(b) = -sign(a) * (-1)^(i_a + i_b) with i the omitted index
        shared = set(a) & set(b)
        va = next(v for v in a if v not in shared)
        vb = next(v for v in b if v not in shared)
        return -1 if (position[a][va] + position[b][vb]) % 2 == 0 else 1

    sign: dict[Face, int] = {}
    for root in X.facets:
        if root in sign:
            continue
        sign[root] = 1
        frontier = [root]
        while frontier:
            cur = frontier.pop(0 if traversal == "bfs" else -1)
            for nxt in sorted(adj[cur]):
                if nxt not in sign:
                    sign[nxt] = sign[cur] * relative_sign(cur, nxt)
                    frontier.append(nxt)
                elif sign[nxt] != sign[cur] * relative_sign(cur, nxt):
                    return False
    # re-check every adjacency (non-tree edges may have been consumed above,
    # but a full pass keeps the check independent of traversal order)
    for a, b in dg.edges:
        if sign[b] != sign[a] * relative_sign(a, b):
            return False
    return True
