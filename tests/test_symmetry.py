"""Automorphism groups and isomorphism testing."""

from __future__ import annotations

import gc
from itertools import combinations, islice, permutations
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
from walkup.complex import injective_maps
from walkup.symmetry import (
    _edge_degrees,
    _refine_colours,
    compose,
    cycle_notation,
    generating_set,
)

from corpus import find_handle_pair, get, reversed_labels, select, tube_with_handle


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
    tube = get("tube(4, 26, 1)")
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


# ------------------------------------------------- colour refinement twin

def _twin_edge_degree_lookup(X):
    deg = dict.fromkeys(X.faces_of_dim(1), 0)
    for tri in X.faces_of_dim(2):
        for e in combinations(tri, 2):
            deg[e] += 1
    return lambda u, v: deg.get((u, v) if u < v else (v, u), -1)


def _twin_refine(X, edeg):
    """The slow twin: each colour a nested tuple of every earlier round."""
    adj = X.adjacency()
    colors = {
        v: (len(adj[v]), tuple(sorted(edeg(v, u) for u in adj[v])))
        for v in X.vertices
    }
    while True:
        new = {
            v: (colors[v], tuple(sorted((colors[u], edeg(v, u)) for u in adj[v])))
            for v in X.vertices
        }
        if len(set(new.values())) == len(set(colors.values())):
            return colors
        colors = new


def _twin_search(X, Y, find_all):
    """The isomorphism search driven by the twin refinement."""
    if X.f_vector() != Y.f_vector():
        return []
    edeg_x, edeg_y = _twin_edge_degree_lookup(X), _twin_edge_degree_lookup(Y)
    colors_x, colors_y = _twin_refine(X, edeg_x), _twin_refine(Y, edeg_y)
    cells_x, cells_y = {}, {}
    for v, c in colors_x.items():
        cells_x.setdefault(c, []).append(v)
    for v, c in colors_y.items():
        cells_y.setdefault(c, []).append(v)
    if set(cells_x) != set(cells_y):
        return []
    if any(len(cells_x[c]) != len(cells_y[c]) for c in cells_x):
        return []
    adj_x, adj_y = X.adjacency(), Y.adjacency()

    def fits(v, w, mapping):
        for u, m in mapping.items():
            adjacent = u in adj_x[v]
            if adjacent != (m in adj_y[w]):
                return False
            if adjacent and edeg_x(v, u) != edeg_y(w, m):
                return False
        return True

    order = sorted(X.vertices, key=lambda v: (len(cells_x[colors_x[v]]), v))
    slots = [(v, cells_y[colors_x[v]]) for v in order]
    found = (
        m for m in injective_maps(slots, fits)
        if {tuple(sorted(m[v] for v in f)) for f in X.facets} == Y.facet_set
    )
    return list(found if find_all else islice(found, 1))


def test_cross_polytope_group_has_order_384():
    X = get("cross-polytope 3-sphere")
    assert X.f_vector() == (8, 24, 32, 16)
    group = automorphism_group(X)
    assert len(group) == 2 ** 4 * factorial(4) == 384 and is_group(group)


def _search_corpus():
    """(X, Y) pairs: connected entries against themselves and relabelled
    copies, the tubes against their cuts, and non-isomorphic pairs of
    equal f-vector.  The cross-polytope is symmetric and not 2-neighborly,
    where the prune on mapped neighbours leaves the most to the facet check."""
    named = [X for _, X in select(without=("disconnected",), max_f0=6)] + [get(name) for name in (
        "m4-15", "b5-30", "torus_7", "K4", "K5", "K6", "K7", "stacked(4, 40, 5)",
        "cross-polytope 3-sphere", "∂C(4, 8)", "∂C(4, 9)", "∂C(4, 12)", "∂C(5, 10)")]
    tubes = [t for seed in range(12) if (t := tube_with_handle(4, 26, seed))]
    assert len(tubes) >= 3
    pairs = [(X, X) for X in named]
    pairs += [(X, reversed_labels(X)) for X in named]
    for X, Y, cut in tubes:
        pairs += [(X, X), (Y, Y), (cut, X), (reversed_labels(cut), X), (Y, reversed_labels(Y))]
    # equal f-vectors, not isomorphic: stacked spheres and tubes of one
    # size, and one-handle complexes of different tubes
    pairs += [(get(f"stacked(4, 14, {s})"), get(f"stacked(4, 14, {s + 1})")) for s in (1, 3)]
    pairs += [(tubes[0][0], tubes[1][0]), (tubes[0][1], tubes[1][1]),
              (tubes[1][2], tubes[2][0]), (get("rp2_6"), reversed_labels(get("rp2_6"))),
              (get("K4"), reversed_labels(get("K4")))]
    return pairs


def test_integer_colours_give_the_twin_joint_partition():
    # u ~ w iff equal colour, over the disjoint union of X and Y
    for X, Y in _search_corpus():
        ids: dict = {}
        fast = [(0, v, c) for v, c in _refine_colours(X, _edge_degrees(X), ids).items()]
        fast += [(1, v, c) for v, c in _refine_colours(Y, _edge_degrees(Y), ids).items()]
        slow = dict(((0, v), c) for v, c in _twin_refine(X, _twin_edge_degree_lookup(X)).items())
        slow.update(((1, v), c) for v, c in _twin_refine(Y, _twin_edge_degree_lookup(Y)).items())
        for (s, v, c), (t, w, e) in combinations(fast, 2):
            assert (c == e) == (slow[s, v] == slow[t, w]), (X, Y, v, w)


def test_search_returns_what_the_twin_search_returns():
    pairs = _search_corpus()
    isomorphic = 0
    for X, Y in pairs:
        first = _twin_search(X, Y, find_all=False)
        assert is_isomorphic(X, Y) == (first[0] if first else None)
        isomorphic += bool(first)
        if X is Y:
            twin = sorted(_twin_search(X, X, find_all=True),
                          key=lambda p: tuple(sorted(p.items())))
            assert automorphism_group(X) == twin
    assert isomorphic >= 40 and len(pairs) - isomorphic >= 4  # both answers
