"""Built-in generators: the named complexes and seeded random spheres."""

from __future__ import annotations

import hashlib

import pytest

from walkup import (
    build_b5_30,
    build_m4_15,
    build_n5_15,
    build_s4_30,
    homology_profile,
    in_walkup_class,
    is_admissible,
    is_stacked_ball,
    is_stacked_sphere,
    is_two_neighborly,
    random_stacked_sphere,
    standard_sphere,
    stacked_sphere_fvector,
)
from walkup.errors import InvalidParameters
from walkup.io import serialize

from conftest import (
    B5_30_DUAL_TREE_EDGES,
    M4_15_FACETS,
    N5_15_EXTRA_DUAL_EDGES,
    b5_30_facet,
    n5_15_facet,
)


def test_standard_sphere_1_is_triangle():
    X = standard_sphere(1)
    assert X.f_vector() == (3, 3)


def test_standard_sphere_4_fvector():
    assert standard_sphere(4).f_vector() == (6, 15, 20, 15, 6)


def test_b5_30_is_stacked_ball(b5_30):
    assert is_stacked_ball(b5_30)
    f = b5_30.f_vector()
    assert f[0] == 30 and f[5] == 25


def test_b5_30_dual_tree_matches_figure(b5_30):
    dg = b5_30.dual_graph()
    expected = {
        tuple(sorted((b5_30_facet(a), b5_30_facet(b))))
        for a, b in B5_30_DUAL_TREE_EDGES
    }
    assert set(dg.edges) == expected
    assert dg.is_tree()


def test_m4_15_matches_fixture(m4_15):
    fixture = {tuple(sorted(f.split())) for f in M4_15_FACETS}
    assert len(fixture) == 96
    assert set(m4_15.facets) == fixture


def test_m4_15_profile(m4_15):
    prof = homology_profile(m4_15)
    assert prof.euler == -4
    assert prof.betti[1] == 3
    assert prof.orientable is False


def test_m4_15_membership_and_equalities(m4_15):
    from walkup import check_bounds_4manifold

    assert is_two_neighborly(m4_15)
    assert in_walkup_class(m4_15)
    rep = check_bounds_4manifold(m4_15)
    assert rep.edge_bound.tight and rep.vertex_bound.tight


def test_identifications_admissible_stepwise(s4_30):
    from walkup import handle_addition
    from walkup.constructions import _identification_bijections

    bijections = _identification_bijections()
    # each identification admissible on the original sphere
    for psi in bijections:
        assert is_admissible(s4_30, psi)
    # and still admissible after the other two are already made
    for skip in range(3):
        X = s4_30
        for i, psi in enumerate(bijections):
            if i != skip:
                X = handle_addition(X, psi)
        assert is_admissible(X, bijections[skip])


def test_n5_15_dual_graph(n5_15):
    dg = n5_15.dual_graph()
    assert len(dg.nodes) == 25
    assert len(dg.edges) == 27
    tree = {
        tuple(sorted((n5_15_facet(a), n5_15_facet(b))))
        for a, b in B5_30_DUAL_TREE_EDGES
    }
    extra = {
        tuple(sorted((n5_15_facet(a), n5_15_facet(b))))
        for a, b in N5_15_EXTRA_DUAL_EDGES
    }
    assert set(dg.edges) == tree | extra


def test_n5_15_boundary_is_m4_15(n5_15, m4_15):
    assert len(n5_15.vertices) == 15
    assert n5_15.boundary_complex() == m4_15


def test_random_sphere_always_stacked():
    for seed in (0, 1, 2):
        for d in (2, 3, 4):
            X = random_stacked_sphere(d, d + 6, seed=seed)
            assert is_stacked_sphere(X)


def test_random_sphere_fvector_formula():
    for seed in (0, 7, 99):
        X = random_stacked_sphere(4, 14, seed=seed)
        assert X.f_vector() == stacked_sphere_fvector(4, 14)


def test_random_sphere_minimal_case():
    assert random_stacked_sphere(3, 5, seed=42) == standard_sphere(3)


def test_random_sphere_determinism():
    a = random_stacked_sphere(3, 12, seed=77)
    b = random_stacked_sphere(3, 12, seed=77)
    assert serialize(a) == serialize(b)
    c = random_stacked_sphere(3, 12, seed=78)
    assert serialize(a) != serialize(c)


def test_random_sphere_min_degree_pair():
    for seed in (0, 5):
        X = random_stacked_sphere(3, 10, seed=seed)
        adj = X.adjacency()
        assert sum(1 for v in X.vertices if len(adj[v]) == 4) >= 2


def test_random_sphere_domain():
    with pytest.raises(InvalidParameters):
        random_stacked_sphere(0, 5, seed=0)
    with pytest.raises(InvalidParameters):
        random_stacked_sphere(3, 4, seed=0)


def test_generators_rebuild_identically():
    assert serialize(build_b5_30()) == serialize(build_b5_30())
    assert serialize(build_m4_15()) == serialize(build_m4_15())
    assert serialize(build_n5_15()) == serialize(build_n5_15())
    assert serialize(build_s4_30()) == serialize(build_s4_30())


@pytest.mark.parametrize(
    "d, digest",
    [
        (4, "bb5373f0c3dd1d7d1e5629f8326e5a86fd5f3deddb5fe3e1d7fc78a1f0173720"),
        (3, "f79b64ac7e6f1c1bae53654b1e8e2702d99fa8a236ec25de0a8501e5f9b24305"),
    ],
)
def test_random_stacked_sphere_output_pinned(d, digest):
    # sha256 of the canonical text; rewrites of the generator (or of the
    # reduction it shares conventions with) must keep it byte for byte
    text = serialize(random_stacked_sphere(d, 500, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
