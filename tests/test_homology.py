"""Mod-2 homology ranks, profiles, and orientability."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkup import (
    SimplicialComplex,
    from_facets,
    homology_profile,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.complex import spanning_forest
from walkup.homology import (
    PivotSpace,
    betti_numbers,
    boundary_columns,
    nullspace_gf2,
    rank_gf2,
    transpose_gf2,
)

from corpus import face_layer_inputs, get, select, tags_of


def test_rank_gf2_basics():
    assert rank_gf2([0b101, 0b011, 0b110]) == 2  # third row = sum of first two
    assert rank_gf2([]) == 0
    assert rank_gf2([0, 0]) == 0
    assert rank_gf2([1, 2, 4]) == 3


def test_nullspace_gf2():
    rows = [0b101, 0b011]
    basis = nullspace_gf2(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for r in rows:
        assert bin(r & v).count("1") % 2 == 0


def nullspace_by_full_back_substitution(rows, ncols):
    """The kernel spelled out: every pivot row cleared of every other
    pivot bit, then each free column's vector read off all pivot rows."""
    space = PivotSpace()
    for v in rows:
        space.insert(v)
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


def test_nullspace_matches_full_back_substitution():
    # every boundary-column list of the face-layer inputs, as columns and
    # as rows (the tightness engine takes the kernel of the columns, the
    # direct test that of the transpose)
    lists = 0
    for name, X in face_layer_inputs():
        f = X.f_vector()
        for j in range(1, X.dimension + 1):
            cols = boundary_columns(X, j)
            transposed = transpose_gf2(cols, f[j - 1])
            for rows, ncols in ((cols, f[j - 1]), (transposed, f[j])):
                want = nullspace_by_full_back_substitution(rows, ncols)
                assert nullspace_gf2(rows, ncols) == want, (name, j)
                assert len(want) == ncols - rank_gf2(rows)
                lists += 1
    assert lists > 50
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randrange(0, 40)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 30))]
        rows += [rng.choice(rows) ^ rng.choice(rows) for _ in range(3)] if rows else []
        assert nullspace_gf2(rows, ncols) == nullspace_by_full_back_substitution(
            rows, ncols
        )


def test_pivot_space_insert_and_remove():
    space = PivotSpace()
    assert space.insert(0b0110) == 2
    assert space.insert(0b0011) == 1
    assert space.rank == 2
    assert space.insert(0b0101) is None  # the sum of the first two
    assert space.insert(0) is None
    assert space.rank == 2
    b = space.insert(0b1000)
    assert b == 3 and space.rank == 3
    space.remove(b)
    assert space.rank == 2
    assert space.pivots == {2: 0b0110, 1: 0b0011}
    assert space.insert(0b1000) == 3  # independent again after the undo


def test_pivot_keys_do_not_depend_on_insertion_order():
    # the pivot keys are the leading bits of the span's elements, so any
    # order of one list gives the same keys and rank (the tightness walk
    # may add a vertex's faces in any order)
    rng = random.Random(7)
    lists = [boundary_columns(get("K4"), k) for k in (1, 2, 3)]
    for _ in range(40):
        width = rng.randrange(1, 48)
        basis = [rng.getrandbits(width) for _ in range(rng.randrange(1, 12))]
        # dependent rows too: sums of basis rows, repeats and zeros
        sums = [rng.choice(basis) ^ rng.choice(basis) for _ in range(8)]
        lists.append(basis + sums + basis[:3] + [0])
    for vectors in lists:
        spaces = []
        for _ in range(8):
            rng.shuffle(vectors)
            space = PivotSpace()
            for v in vectors:
                space.insert(v)
            spaces.append(space)
        assert len({(frozenset(s.pivots), s.rank) for s in spaces}) == 1
        assert spaces[0].rank == rank_gf2(vectors) == len(spaces[0].pivots)


def test_transpose_gf2():
    rows = [0b011, 0b110]  # 2 x 3: row 0 has columns 0, 1; row 1 has 1, 2
    assert transpose_gf2(rows, 3) == [0b01, 0b11, 0b10]
    assert transpose_gf2(transpose_gf2(rows, 3), 2) == rows
    assert transpose_gf2([], 2) == [0, 0]
    assert transpose_gf2([0, 0], 0) == []


def test_triangle_boundary_matrix():
    X = from_facets([["1", "2"], ["2", "3"], ["3", "1"]])
    cols = boundary_columns(X, 1)  # edges 12, 13, 23 over vertices 1, 2, 3
    assert cols == [0b011, 0b101, 0b110]
    assert rank_gf2(cols) == rank_gf2(transpose_gf2(cols, 3)) == 2


def test_boundary_squared_zero(m4_15):
    f = m4_15.f_vector()
    for j in range(2, 5):
        # rows of the boundary map from (j-1)-chains to (j-2)-chains
        low = transpose_gf2(boundary_columns(m4_15, j - 1), f[j - 2])
        for c in boundary_columns(m4_15, j):
            assert all(bin(row & c).count("1") % 2 == 0 for row in low)


def test_m4_15_vertex_boundary_rank(m4_15):
    cols = boundary_columns(m4_15, 1)  # one column per edge, over 15 vertices
    assert len(cols) == 105
    assert all(bin(c).count("1") == 2 and c < 1 << 15 for c in cols)
    rows = transpose_gf2(cols, 15)
    assert rank_gf2(cols) == rank_gf2(rows) == 14  # f0 - number of components


def test_profile_m4_15(m4_15):
    prof = homology_profile(m4_15)
    assert prof.betti == (1, 3, 0, 3, 1)
    assert prof.euler == -4
    assert prof.connected
    assert prof.orientable is False


def test_profile_standard_spheres():
    for d in (1, 2, 3, 4):
        prof = homology_profile(standard_sphere(d))
        expected = tuple([1] + [0] * (d - 1) + [1])
        assert prof.betti == expected
        assert prof.euler == 1 + (-1) ** d
        assert prof.orientable is True


def test_profile_disjoint_spheres():
    a = standard_sphere(2)
    b = SimplicialComplex(
        tuple(tuple(v + "x" for v in f) for f in standard_sphere(2).facets)
    )
    X = SimplicialComplex(set(a.facets) | set(b.facets))
    prof = homology_profile(X)
    assert prof.betti[0] == 2
    assert not prof.connected


def test_profile_rp2(rp2_6):
    prof = homology_profile(rp2_6)
    assert prof.betti == (1, 1, 1)
    assert prof.euler == 1
    assert prof.orientable is False


def test_profile_torus(torus_7):
    prof = homology_profile(torus_7)
    assert prof.betti == (1, 2, 1)
    assert prof.euler == 0
    assert prof.orientable is True


def test_profile_empty():
    prof = homology_profile(SimplicialComplex(()))
    assert prof.betti == ()
    assert prof.euler == 0
    assert prof.orientable is None
    assert not prof.connected


def test_orientable_s4_30(s4_30):
    assert homology_profile(s4_30).orientable is True


def test_orientable_stacked_sphere_boundaries():
    for seed in range(3):
        X = random_stacked_sphere(3, 9, seed=seed)
        assert homology_profile(X).orientable is True


def test_orientability_of_closed_fixtures(m4_15, s4_30, rp2_6, torus_7):
    got = [homology_profile(X).orientable for X in (m4_15, s4_30, rp2_6, torus_7)]
    assert got == [False, True, False, True]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 3]))
def test_euler_poincare(seed, d):
    X = random_stacked_sphere(d, d + 6, seed=seed)
    prof = homology_profile(X)
    f = X.f_vector()
    chi_f = sum(c if j % 2 == 0 else -c for j, c in enumerate(f))
    chi_b = sum(b if j % 2 == 0 else -b for j, b in enumerate(prof.betti))
    assert prof.euler == chi_f == chi_b


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_profile_relabel_invariant(seed):
    X = random_stacked_sphere(3, 9, seed=seed)
    relabel = {v: f"q{i}" for i, v in enumerate(reversed(X.vertices))}
    Y = SimplicialComplex(
        tuple(tuple(sorted(relabel[v] for v in f)) for f in X.facets)
    )
    assert homology_profile(X) == homology_profile(Y)


def test_top_betti_of_closed_pseudomanifolds():
    # one top class per component of the dual graph: the wedge of two
    # 2-spheres is connected and has two
    for name, X in select("closed"):
        if X.dimension >= 1:
            parents = spanning_forest(X.facets, X.dual_graph().adjacency()).values()
            assert homology_profile(X).betti[-1] == list(parents).count(None), name


# ------------------------------------------------- twins of the shortcuts

def betti_by_elimination(X, top=None):
    """Reference Betti numbers: every boundary map ranked by elimination."""
    d = X.dimension
    top = d if top is None else min(top, d)
    f = X.f_vector()
    ranks = [
        rank_gf2(boundary_columns(X, j)) if 1 <= j <= d else 0
        for j in range(top + 2)
    ]
    return tuple(f[j] - ranks[j] - ranks[j + 1] for j in range(top + 1))


def orientable_by_shared_vertices(X):
    """Reference orientability: each edge's sign from the two facets'
    omitted vertices, found through the set of shared vertices."""
    dg = X.dual_graph()
    position = {f: {v: i for i, v in enumerate(f)} for f in X.facets}

    def relative_sign(a, b):
        # sign(b) = -sign(a) * (-1)^(i_a + i_b) with i the omitted index
        shared = set(a) & set(b)
        va = next(v for v in a if v not in shared)
        vb = next(v for v in b if v not in shared)
        return -1 if (position[a][va] + position[b][vb]) % 2 == 0 else 1

    sign = {}
    for f, parent in spanning_forest(X.facets, dg.adjacency()).items():
        sign[f] = 1 if parent is None else sign[parent] * relative_sign(parent, f)
    return all(sign[b] == sign[a] * relative_sign(a, b) for a, b in dg.edges)


def test_wedge_of_spheres_is_closed_with_two_dual_components():
    X = get("wedge of two 2-spheres")
    assert X.is_connected() and X.is_closed_pseudomanifold()
    assert not X.dual_graph().is_connected()
    assert betti_numbers(X) == (1, 0, 2)


@pytest.mark.parametrize("top", [None, 0, 1, 2, 3, 4, 5, 6])
def test_betti_numbers_match_elimination(top):
    for name, X in select(max_f0=60):
        assert betti_numbers(X, top) == betti_by_elimination(X, top), name


def test_is_orientable_matches_shared_vertex_signs():
    corpus = select("closed")
    verdicts = [homology_profile(X).orientable for _, X in corpus]
    assert verdicts == [orientable_by_shared_vertices(X) for _, X in corpus]
    for (name, _), verdict in zip(corpus, verdicts):
        assert verdict == ("orientable" in tags_of(name)), name
    # handles on 3-dimensional tubes: S^2 x S^1 and the twisted bundle
    assert {True, False} == {
        v for (name, X), v in zip(corpus, verdicts)
        if X.dimension == 3 and "handle-built" in tags_of(name)
    }
