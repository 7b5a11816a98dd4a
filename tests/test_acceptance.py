"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a PASS line with its runtime (visible under pytest -s).
Stated budgets are asserted; all pass with wide margins on commodity
hardware.
"""

from __future__ import annotations

import time

import pytest

from walkup import (
    SimplicialComplex,
    build_m4_15,
    check_bounds_4manifold,
    dehn_sommerville_4,
    handle_addition,
    handle_deletion,
    homology_profile,
    in_walkup_class,
    is_isomorphic,
    is_stacked_ball,
    is_stacked_sphere,
    is_stacked_sphere_by_reduction,
    is_tight_z2,
    kalai_decompose,
    random_stacked_sphere,
    stacked_sphere_fvector,
    walkup_fvector_even,
)
from walkup.rng import SplitMix64
from walkup.symmetry import automorphism_group

from conftest import (
    B5_30_DUAL_TREE_EDGES,
    M4_15_FACETS,
    N5_15_EXTRA_DUAL_EDGES,
    b5_30_facet,
    link,
    n5_15_facet,
)
from corpus import find_handle_pair, select, tube_sphere


def _report(num: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {detail}")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


# expected edge degrees; the within-a table is symmetric
WITHIN_A = {
    ("a1", "a2"): 10, ("a1", "a3"): 6, ("a1", "a4"): 7, ("a1", "a5"): 5,
    ("a2", "a3"): 8, ("a2", "a4"): 9, ("a2", "a5"): 7,
    ("a3", "a4"): 11, ("a3", "a5"): 11, ("a4", "a5"): 11,
}
A_B = [  # rows b1..b5, columns a1..a5
    [7, 9, 7, 8, 6],
    [7, 8, 4, 5, 4],
    [4, 5, 6, 7, 8],
    [4, 4, 4, 5, 6],
    [5, 4, 5, 6, 7],
]


def test_criterion_1_m4_15_reproduction():
    t0 = time.perf_counter()
    generated = build_m4_15()
    fixture = {tuple(sorted(f.split())) for f in M4_15_FACETS}
    assert len(fixture) == 96
    assert set(generated.facets) == fixture
    _report(1, t0, 1.0, "generated facet set equals the 96-facet fixture")


def test_criterion_2_face_vector(m4_15):
    t0 = time.perf_counter()
    f = m4_15.f_vector()
    assert f == (15, 105, 230, 240, 96)
    assert f == walkup_fvector_even(4, 15, -4)
    assert f == dehn_sommerville_4(15, 105, -4)
    _report(2, t0, 1.0, "f = (15, 105, 230, 240, 96), matching both formulas")


def test_criterion_3_kuhnel_equality(m4_15):
    t0 = time.perf_counter()
    rep = check_bounds_4manifold(m4_15)
    assert rep.euler == -4
    assert rep.vertex_bound.lhs == 15 * (15 - 11) == 60
    assert rep.vertex_bound.rhs == -15 * rep.euler == 60
    assert rep.vertex_bound.tight and rep.edge_bound.tight
    _report(3, t0, 1.0, "15(15-11) = 60 = -15chi; both bounds tight")


def test_criterion_4_walkup_membership(m4_15):
    t0 = time.perf_counter()
    for v in m4_15.vertices:
        link = m4_15.vertex_link(v)
        assert is_stacked_sphere(link)
        assert is_stacked_sphere_by_reduction(link)
    _report(4, t0, 5.0, "all 15 links stacked 3-spheres by both recognizers")


def test_criterion_5_homology(m4_15, s4_30):
    t0 = time.perf_counter()
    prof = homology_profile(m4_15)
    assert prof.betti == (1, 3, 0, 3, 1)
    assert prof.orientable is False
    assert prof.connected
    assert homology_profile(s4_30).orientable
    _report(5, t0, 5.0, "betti (1,3,0,3,1), non-orientable, connected; S4_30 orientable")


def test_criterion_6_automorphisms(m4_15):
    t0 = time.perf_counter()
    group = automorphism_group(m4_15)
    assert len(group) == 3
    rho = {}
    for i in range(1, 6):
        rho[f"a{i}"] = f"b{i}"
        rho[f"b{i}"] = f"c{i}"
        rho[f"c{i}"] = f"a{i}"
    assert tuple(sorted(rho.items())) in {
        tuple(sorted(g.items())) for g in group
    }
    _report(6, t0, 30.0, "Aut order 3 containing (a_i b_i c_i)")


def test_criterion_7_edge_degree_tables(m4_15):
    t0 = time.perf_counter()

    def deg(u, v):
        return len(link(m4_15, (u, v)).vertices)

    for (u, v), expected in WITHIN_A.items():
        assert deg(u, v) == expected and deg(v, u) == expected
    for i in range(5):
        for j in range(5):
            assert deg(f"b{i+1}", f"a{j+1}") == A_B[i][j]
    # the order-3 symmetry transports the tables to the other blocks
    for (u, v), expected in WITHIN_A.items():
        for x in "bc":
            assert deg(u.replace("a", x), v.replace("a", x)) == expected
    for i in range(5):
        for j in range(5):
            assert deg(f"c{i+1}", f"b{j+1}") == A_B[i][j]
            assert deg(f"a{i+1}", f"c{j+1}") == A_B[i][j]
    _report(7, t0, 1.0, "both 25-entry edge-degree tables and their transports")


def test_criterion_8_dual_graphs(b5_30, n5_15):
    t0 = time.perf_counter()
    dg = b5_30.dual_graph()
    tree = {
        tuple(sorted((b5_30_facet(a), b5_30_facet(b))))
        for a, b in B5_30_DUAL_TREE_EDGES
    }
    assert dg.is_tree() and len(dg.nodes) == 25
    assert set(dg.edges) == tree
    dgn = n5_15.dual_graph()
    tree_n = {
        tuple(sorted((n5_15_facet(a), n5_15_facet(b))))
        for a, b in B5_30_DUAL_TREE_EDGES
    }
    extra = {
        tuple(sorted((n5_15_facet(a), n5_15_facet(b))))
        for a, b in N5_15_EXTRA_DUAL_EDGES
    }
    assert set(dgn.edges) == tree_n | extra
    assert len(dgn.edges) == 27
    _report(8, t0, 1.0, "dual tree of the 5-ball; quotient adds exactly 3 edges")


def test_criterion_9_kalai_decomposition(m4_15):
    t0 = time.perf_counter()
    ledger = kalai_decompose(m4_15)
    assert len(ledger.handles) == 3
    assert len(ledger.base.vertices) == 30
    assert is_stacked_sphere(ledger.base)
    assert ledger.replay() == m4_15
    _report(9, t0, 60.0, "3 handles over a 30-vertex stacked base; exact replay")


def test_criterion_10_tightness(m4_15):
    t0 = time.perf_counter()
    rep = is_tight_z2(m4_15, mode="exhaustive", jobs=1)
    assert rep.checked == 2**15 - 2
    assert rep.violations == ()
    assert rep.verdict == "tight"
    single = time.perf_counter() - t0
    assert single < 600.0
    t1 = time.perf_counter()
    rep8 = is_tight_z2(m4_15, mode="exhaustive", jobs=8)
    assert rep8.checked == 2**15 - 2 and rep8.violations == ()
    parallel = time.perf_counter() - t1
    assert parallel < 120.0
    print(
        f"ACCEPTANCE 10 PASS ({single:.2f}s single, {parallel:.2f}s x8): "
        "32766 subsets, zero violations"
    )


@pytest.fixture(scope="module")
def sphere_corpus():
    """(d, n, X): 200 seeded random stacked spheres across d in {2,3,4},
    n <= 40, then the stacked entries of the corpus."""
    rng = SplitMix64(2024)
    corpus = []
    for _ in range(200):
        d = (2, 3, 4)[rng.next_below(3)]
        n = d + 2 + rng.next_below(40 - (d + 2) + 1)
        corpus.append((d, n, random_stacked_sphere(d, n, seed=rng.next_u64())))
    return corpus + [(X.dimension, len(X.vertices), X) for _, X in select("stacked")]


def test_criterion_11a_random_sphere_suite(sphere_corpus):
    t0 = time.perf_counter()
    assert len(sphere_corpus) == 266  # 200 drawn, 66 stacked entries of the corpus
    for d, n, X in sphere_corpus:
        assert X.f_vector() == stacked_sphere_fvector(d, n)
        assert is_stacked_sphere(X)
        assert is_stacked_sphere_by_reduction(X)
        if n > d + 2:
            adj = X.adjacency()
            assert sum(1 for v in X.vertices if len(adj[v]) == d + 1) >= 2
    _report(11, t0, 240.0, "(a) 200 random stacked spheres: formulas + recognizers")


def test_criterion_11b_random_handle_suite():
    t0 = time.perf_counter()
    done = 0
    seed = 0
    while done < 50:
        X = tube_sphere(4, 26, seed=seed)
        seed += 1
        psi = find_handle_pair(X)
        if psi is None:
            continue
        chi_before = homology_profile(X).euler
        Y = handle_addition(X, psi)
        assert homology_profile(Y).euler == chi_before - 2
        assert in_walkup_class(Y)
        cut, back = handle_deletion(Y, psi.target_facet)
        assert handle_addition(cut, back) == Y
        assert is_isomorphic(cut, X) is not None
        done += 1
    _report(11, t0, 240.0, "(b) 50 admissible handle additions: chi, round trip, class")


def test_criterion_11c_clique_boundary_identity(sphere_corpus):
    t0 = time.perf_counter()
    for _, _, X in sphere_corpus:
        if X.dimension < 2:
            continue
        ball = SimplicialComplex(X.clique_complex())
        assert is_stacked_ball(ball)
        assert ball.boundary_complex() == X
    _report(11, t0, 240.0, "(c) boundary of clique complex recovers every sphere")
