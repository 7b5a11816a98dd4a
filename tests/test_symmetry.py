"""Automorphism groups and isomorphism testing."""

from __future__ import annotations

import gc
from itertools import permutations
from math import factorial

from walkup import (
    SimplicialComplex,
    automorphism_group,
    find_admissible_bijection,
    handle_deletion,
    homology_profile,
    in_walkup_class,
    is_isomorphic,
    is_tight_z2,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.symmetry import compose, cycle_notation, generating_set

from conftest import find_handle_pair, tube_sphere


def inverse(p):
    return {w: v for v, w in p.items()}


def is_group(perms):
    """Closure and inverse check for a list of permutations."""
    keyed = {tuple(sorted(p.items())) for p in perms}
    for p in perms:
        if tuple(sorted(inverse(p).items())) not in keyed:
            return False
        for q in perms:
            if tuple(sorted(compose(p, q).items())) not in keyed:
                return False
    return True


def _order3(m4_15):
    perm = {}
    for i in range(1, 6):
        perm[f"a{i}"] = f"b{i}"
        perm[f"b{i}"] = f"c{i}"
        perm[f"c{i}"] = f"a{i}"
    return perm


def test_m4_15_automorphisms(m4_15):
    group = automorphism_group(m4_15)
    assert len(group) == 3
    rho = _order3(m4_15)
    keys = {tuple(sorted(g.items())) for g in group}
    assert tuple(sorted(rho.items())) in keys
    assert tuple(sorted(compose(rho, rho).items())) in keys
    assert is_group(group)


def test_standard_sphere_full_symmetric_group():
    for d in (1, 2, 3):
        group = automorphism_group(standard_sphere(d))
        assert len(group) == factorial(d + 2)
        assert is_group(group)


def test_b5_30_has_order3_symmetry(b5_30):
    group = automorphism_group(b5_30)
    rho = {}
    for i in range(1, 6):
        for x, y in (("a", "b"), ("b", "c"), ("c", "a")):
            rho[f"{x}{i}"] = f"{y}{i}"
            rho[f"{x}{i}p"] = f"{y}{i}p"
    keys = {tuple(sorted(g.items())) for g in group}
    assert tuple(sorted(rho.items())) in keys
    assert len(group) % 3 == 0


def test_is_isomorphic_identity(m4_15):
    found = is_isomorphic(m4_15, m4_15)
    assert found is not None


def test_is_isomorphic_relabeled():
    X = random_stacked_sphere(3, 9, seed=3)
    relabel = {v: f"w{i}" for i, v in enumerate(X.vertices)}
    Y = SimplicialComplex(
        tuple(tuple(sorted(relabel[v] for v in f)) for f in X.facets)
    )
    mapping = is_isomorphic(X, Y)
    assert mapping is not None
    assert {tuple(sorted(mapping[v] for v in f)) for f in X.facets} == set(Y.facets)


def test_is_isomorphic_fvector_shortcut(m4_15):
    Y = random_stacked_sphere(4, 15, seed=2)
    assert Y.f_vector() != m4_15.f_vector()
    assert is_isomorphic(m4_15, Y) is None


def test_automorphisms_preserve_invariants(m4_15):
    prof = homology_profile(m4_15)
    for g in automorphism_group(m4_15):
        Y = SimplicialComplex(
            tuple(tuple(sorted(g[v] for v in f)) for f in m4_15.facets)
        )
        assert Y == m4_15
        assert homology_profile(Y) == prof


def test_group_order_divides_factorial():
    for seed in (0, 1):
        X = random_stacked_sphere(2, 6, seed=seed)
        group = automorphism_group(X)
        assert factorial(len(X.vertices)) % len(group) == 0
        assert is_group(group)


def test_backtracker_matches_brute_force_small():
    # exhaustive ground truth on complexes with <= 7 vertices
    for seed in (0, 1, 2):
        X = random_stacked_sphere(2, 6, seed=seed)
        vs = X.vertices
        brute = []
        for perm in permutations(vs):
            mp = dict(zip(vs, perm))
            image = {tuple(sorted(mp[v] for v in f)) for f in X.facets}
            if image == set(X.facets):
                brute.append(tuple(sorted(mp.items())))
        found = {tuple(sorted(g.items())) for g in automorphism_group(X)}
        assert found == set(brute)


def test_generating_set_and_cycles(m4_15):
    group = automorphism_group(m4_15)
    gens = generating_set(group)
    assert len(gens) == 1
    note = cycle_notation(gens[0])
    assert note in (
        "(a1 b1 c1)(a2 b2 c2)(a3 b3 c3)(a4 b4 c4)(a5 b5 c5)",
        "(a1 c1 b1)(a2 c2 b2)(a3 c3 b3)(a4 c4 b4)(a5 c5 b5)",
    )
    identity = {v: v for v in m4_15.vertices}
    assert cycle_notation(identity) == "()"
    assert compose(gens[0], inverse(gens[0])) == identity


def test_clique_and_automorphism_searches_leave_no_cycles(m4_15):
    # Recursive closures are reference cycles: their garbage waits for the
    # cyclic GC, so peak memory would depend on when it happens to run.
    # A fresh copy: the clique complex is memoized on the shared fixture.
    X = SimplicialComplex(m4_15.facets)
    gc.collect()
    gc.disable()
    try:
        cliques = X.clique_complex()
        group = automorphism_group(m4_15)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert cliques == (m4_15.vertices,)  # 2-neighborly
    assert len(group) == 3


def test_scans_and_cuts_leave_no_cycles(m4_15):
    # the same check on the clique search and the membership test of a
    # fresh complex, the tightness scan's depth-first search (whole,
    # stopped at a first violation, sampled), the matching search and the cut
    tube = tube_sphere(4, 26, seed=1)
    psi = find_handle_pair(tube)
    not_tight = random_stacked_sphere(4, 8, seed=1)
    fresh = SimplicialComplex(tube.facets)
    gc.collect()
    gc.disable()
    try:
        cliques = fresh.clique_complex()
        member = in_walkup_class(fresh)
        whole = is_tight_z2(m4_15)
        first = is_tight_z2(not_tight)
        sampled = is_tight_z2(m4_15, mode="sampled", sample_count=300)
        found = find_admissible_bijection(tube, psi.source_facet, psi.target_facet)
        cut, _ = handle_deletion(m4_15, ("c1", "c2", "c3", "c4", "c5"))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert (whole.verdict, first.verdict, sampled.verdict) == (
        "tight", "not-tight", "tight-on-sample")
    assert found == psi
    assert cut.is_connected()
    assert member and len(cliques) == len(fresh.vertices) - 5  # a stacked 4-sphere
