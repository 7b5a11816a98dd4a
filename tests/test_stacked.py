"""Stacked ball/sphere recognition and vertex reduction."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkup import (
    SimplicialComplex,
    from_facets,
    is_stacked_ball,
    is_stacked_sphere,
    is_stacked_sphere_by_reduction,
    random_stacked_sphere,
    reduce_to_core,
    standard_sphere,
)
from walkup.complex import is_standard_sphere
from walkup.errors import NotClosedPseudomanifold
from walkup.rng import SplitMix64
from walkup.stacked import ReductionStep
from walkup.theory import stacked_sphere_fvector

from conftest import reduce_once, replay_reductions
from corpus import get, select, tags_of, tube_sphere


def test_b5_30_is_stacked_ball(b5_30):
    assert is_stacked_ball(b5_30)


def test_single_facet_is_stacked_ball():
    assert is_stacked_ball(SimplicialComplex([("v1", "v2", "v3", "v4")]))


def test_square_disc_is_stacked_ball():
    X = from_facets([["1", "2", "3"], ["2", "3", "4"]])
    assert is_stacked_ball(X)


def test_dual_cycle_is_not_stacked_ball():
    # simplex boundary minus one facet: dual graph is a 3-cycle
    sphere = standard_sphere(2)
    X = from_facets([list(f) for f in sphere.facets[:-1]])
    dg = X.dual_graph()
    assert dg.is_weak_pseudomanifold and not dg.is_closed
    assert not is_stacked_ball(X)


def test_closed_complex_is_not_stacked_ball(s4_30):
    assert not is_stacked_ball(s4_30)


def test_no_ball_or_simplex_boundary_on_empty_or_two_points():
    # the tree test alone refuses the empty complex, and n = 0 != d + 2
    # refuses it as a simplex boundary; two points are the 0-sphere
    assert not is_stacked_ball(get("empty"))
    assert not is_standard_sphere(get("empty"))
    assert not is_stacked_ball(get("two points"))
    assert is_standard_sphere(get("two points"))


def test_s4_30_is_stacked_sphere(s4_30):
    assert is_stacked_sphere(s4_30)
    assert is_stacked_sphere_by_reduction(s4_30)


def test_standard_spheres_are_stacked():
    for d in (1, 2, 3, 4):
        X = standard_sphere(d)
        assert is_stacked_sphere(X)
        assert is_stacked_sphere_by_reduction(X)


def test_cyclic_polytope_boundary_not_stacked():
    X = get("∂C(4, 7)")
    assert X.dimension == 3
    assert X.is_closed_pseudomanifold()
    assert len(X.facets) == 14
    assert not is_stacked_sphere(X)
    assert not is_stacked_sphere_by_reduction(X)
    residue, steps = reduce_to_core(X)
    # 2-neighborly: no vertex of degree d+1 anywhere, nothing reduces
    assert steps == []
    assert len(residue.vertices) > 3 + 2


def test_torus_not_stacked(torus_7):
    assert not is_stacked_sphere(torus_7)
    assert not is_stacked_sphere_by_reduction(torus_7)


def test_m4_15_not_stacked(m4_15):
    assert not is_stacked_sphere(m4_15)
    assert not is_stacked_sphere_by_reduction(m4_15)


def test_reduce_once_keeps_stacked():
    X = random_stacked_sphere(3, 10, seed=4)
    adj = X.adjacency()
    v = next(u for u in X.vertices if len(adj[u]) == 4)
    Y = reduce_once(X, v)
    assert len(Y.vertices) == 9
    assert is_stacked_sphere(Y)


def test_reduce_twice_to_simplex_boundary():
    for d in (2, 3):
        X = random_stacked_sphere(d, d + 4, seed=8)
        residue, steps = reduce_to_core(X)
        assert len(steps) == 2
        assert is_standard_sphere(residue)


def test_reduce_to_core_s4_30(s4_30):
    residue, steps = reduce_to_core(s4_30)
    assert len(steps) == 24
    assert is_standard_sphere(residue)
    assert residue.dimension == 4 and len(residue.vertices) == 6


def test_reduce_to_core_standard_is_identity():
    X = standard_sphere(4)
    residue, steps = reduce_to_core(X)
    assert residue == X and steps == []


def test_reduction_steps_replay(s4_30):
    residue, steps = reduce_to_core(s4_30)
    assert replay_reductions(residue, steps) == s4_30


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    d=st.sampled_from([2, 3, 4]),
    extra=st.integers(min_value=0, max_value=8),
)
def test_recognizers_agree_and_lemma_counts(seed, d, extra):
    n = d + 2 + extra
    X = random_stacked_sphere(d, n, seed=seed)
    assert is_stacked_sphere(X)
    assert is_stacked_sphere_by_reduction(X)
    assert X.f_vector() == stacked_sphere_fvector(d, n)
    if n > d + 2:
        adj = X.adjacency()
        low = [v for v in X.vertices if len(adj[v]) == d + 1]
        assert len(low) >= 2  # at least two vertices of minimum degree


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 3]))
def test_clique_complex_boundary_identity(seed, d):
    X = random_stacked_sphere(d, d + 6, seed=seed)
    ball = SimplicialComplex(X.clique_complex())
    assert is_stacked_ball(ball)
    assert ball.boundary_complex() == X


def _clique_route_by_boundary_complex(X):
    """The clique route for d >= 2 spelled out: build the clique ball's
    boundary complex and compare it with X."""
    cliques = X.clique_complex()
    if any(len(c) != X.dimension + 2 for c in cliques):
        return False
    ball = SimplicialComplex(cliques)
    return is_stacked_ball(ball) and ball.boundary_complex() == X


def _clique_route_corpus():
    """Every entry of dimension >= 2; every such stacked sphere a facet
    short, with the same edge graph, so the same clique ball, but not its
    boundary; and each small stacked 2-sphere with a missing triangle
    filled, again the ball of a stacked 2-sphere."""
    yield from (X for _, X in select() if X.dimension >= 2)
    for _, X in select("stacked"):
        if X.dimension >= 2:
            yield SimplicialComplex(X.facets[1:])
        if X.dimension == 2 and len(X.vertices) <= 13:
            edges, triangles = X.face_index(1), X.face_index(2)
            for tri in combinations(X.vertices, 3):
                if tri not in triangles and all(
                    e in edges for e in combinations(tri, 2)
                ):
                    yield SimplicialComplex(X.facets + (tri,))


def test_clique_route_matches_boundary_complex_comparison():
    verdicts = {True: 0, False: 0}
    ball_but_not_boundary = 0
    for X in _clique_route_corpus():
        want = _clique_route_by_boundary_complex(X)
        # a fresh complex, so no memoized verdict answers
        assert is_stacked_sphere(SimplicialComplex(X.facets)) == want, X
        verdicts[want] += 1
        cliques = X.clique_complex()
        ball_but_not_boundary += not want and all(
            len(c) == X.dimension + 2 for c in cliques
        ) and is_stacked_ball(SimplicialComplex(cliques))
    assert verdicts[True] >= 12 and verdicts[False] >= 12
    assert ball_but_not_boundary >= 12


def test_recognizer_lets_programming_errors_through(monkeypatch):
    def broken(self):
        raise TypeError("patched")

    monkeypatch.setattr(SimplicialComplex, "dual_graph", broken)
    with pytest.raises(TypeError):
        is_stacked_sphere(standard_sphere(3))


# -- in-place stacking against the rebuild-per-step twins ---------------------


def _reduce_by_rebuild(X):
    """reduce_to_core spelled out with reduce_once and a full rebuild per step."""
    d = X.dimension
    steps = []
    cur = X
    while len(cur.vertices) > d + 2:
        adj = cur.adjacency()
        low = [v for v in cur.vertices if len(adj[v]) == d + 1]
        if not low:
            break
        x = low[0]
        steps.append(ReductionStep(x, tuple(sorted(adj[x]))))
        cur = reduce_once(cur, x)
    return cur, steps


def _random_stacked_by_rebuild(d, n, seed):
    """random_stacked_sphere building a complex for every added vertex."""
    rng = SplitMix64(seed)
    cur = standard_sphere(d)
    for step in range(n - (d + 2)):
        chosen = cur.facets[rng.next_below(len(cur.facets))]
        x = f"v{d + 3 + step}"
        star = {
            tuple(sorted(chosen[:i] + chosen[i + 1:] + (x,)))
            for i in range(len(chosen))
        }
        cur = SimplicialComplex((set(cur.facets) - {chosen}) | star)
    return cur


# The closed input whose residue is the standard sphere though it is no
# stacked sphere: the 0-sphere, the boundary of a 1-simplex, which both
# recognizers refuse below dimension 1.
RESIDUE_IS_A_SPHERE = ("two points",)


def test_reduce_to_core_matches_reduce_once_twin():
    reduced = 0
    for name, X in select(max_f0=40):
        if "closed" not in tags_of(name):
            with pytest.raises(NotClosedPseudomanifold):
                reduce_to_core(X)
            continue
        residue, steps = reduce_to_core(X)
        assert (residue, steps) == _reduce_by_rebuild(X), name
        reduced += bool(steps)
        stacked = "stacked" in tags_of(name)
        if name not in RESIDUE_IS_A_SPHERE:
            assert (
                is_standard_sphere(residue) and residue.is_closed_pseudomanifold()
            ) == stacked, name
        if stacked:
            assert replay_reductions(residue, steps) == X, name
    assert reduced >= 12


def test_random_stacked_sphere_matches_rebuild_twin():
    for d in (1, 2, 3, 4, 5):
        for seed in (0, 1, 7, 2**63 + 5):
            for n in (d + 2, d + 3, 3 * d + 17):
                assert random_stacked_sphere(d, n, seed) == _random_stacked_by_rebuild(
                    d, n, seed
                ), (d, n, seed)


def _tube_sphere_by_rebuild(d, n, seed):
    """The twin of corpus.tube_sphere: one complex per added vertex,
    drawing from the facets through the newest vertex in facet order."""
    rng = SplitMix64(seed)
    cur = standard_sphere(d)
    newest = None
    for step in range(n - (d + 2)):
        pool = (
            cur.facets
            if newest is None
            else tuple(f for f in cur.facets if newest in f)
        )
        chosen = pool[rng.next_below(len(pool))]
        newest = f"v{d + 3 + step}"
        cur = replay_reductions(cur, [ReductionStep(newest, chosen)])
    return cur


def test_tube_sphere_matches_rebuild_twin():
    # the seeds the suite draws: 26-vertex tubes up to seed 97 (the
    # 50-handle acceptance suite) and the two 16-vertex summands
    cases = [(26, seed) for seed in range(98)] + [(16, 1), (16, 2)]
    for n, seed in cases:
        assert tube_sphere(4, n, seed) == _tube_sphere_by_rebuild(4, n, seed), (
            n,
            seed,
        )
