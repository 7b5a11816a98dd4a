"""Core complex representation and combinatorial queries."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations, islice
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkup import (
    SimplicialComplex,
    from_facets,
    is_stacked_sphere,
    is_standard_sphere,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.errors import (
    DuplicateFacet,
    DuplicateVertexInFacet,
    EmptyBoundary,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    NotPseudomanifoldWithBoundary,
    UnknownVertex,
)
from walkup.complex import spanning_forest
from walkup.homology import _dual_forest

from conftest import has_face, induces_standard_sphere, link
from corpus import face_layer_inputs, get, select


# ------------------------------------------------------------- construction

def test_triangle_boundary():
    X = from_facets([["1", "2"], ["2", "3"], ["3", "1"]])
    assert X.dimension == 1
    assert X.f_vector() == (3, 3)


def test_from_facets_rejects_empty():
    with pytest.raises(EmptyInput):
        from_facets([])
    with pytest.raises(EmptyInput):
        from_facets([[]])


def test_from_facets_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertexInFacet):
        from_facets([["a", "a", "b"]])


def test_from_facets_rejects_mixed_dimensions():
    with pytest.raises(MixedDimensions):
        from_facets([["1", "2"], ["1", "2", "3"]])


def test_from_facets_rejects_duplicate_facet():
    with pytest.raises(DuplicateFacet):
        from_facets([["1", "2"], ["2", "1"]])


def test_from_facets_rejects_bad_labels():
    for bad in ["", "a b", "x#1", "c~1"]:
        with pytest.raises(InvalidLabel):
            from_facets([[bad, "z"]])


def test_b5_30_shape(b5_30):
    assert len(b5_30.vertices) == 30
    assert len(b5_30.facets) == 25
    assert b5_30.dimension == 5


# ----------------------------------------------------------------- f-vector

def test_f_vector_m4_15(m4_15):
    assert m4_15.f_vector() == (15, 105, 230, 240, 96)


def test_f_vector_standard_sphere():
    assert standard_sphere(4).f_vector() == (6, 15, 20, 15, 6)
    # binomials C(6, j+1) throughout
    assert standard_sphere(4).f_vector() == tuple(comb(6, j + 1) for j in range(5))


def test_f_vector_boundary_of_ball(b5_30):
    # oracle: direct enumeration must agree with the closed form for
    # stacked spheres at d = 4, f0 = 30
    S = b5_30.boundary_complex()
    expected = tuple(
        [30]
        + [comb(5, j) * 30 - j * comb(6, j + 1) for j in range(1, 4)]
        + [4 * 30 - 6 * 3]
    )
    assert S.f_vector() == expected == (30, 135, 260, 255, 102)


# ----------------------------------------------------------------------- link

def test_link_in_standard_sphere():
    X = standard_sphere(3)
    for v in X.vertices:
        link = X.vertex_link(v)
        assert is_standard_sphere(link)
        assert link.dimension == 2


def test_link_of_vertex_in_m4_15(m4_15):
    # 2-neighborly, so every vertex sees all 14 others
    link = m4_15.vertex_link("a1")
    assert len(link.vertices) == 14
    assert link.dimension == 3


def test_vertex_link_matches_facet_scan(b5_30, m4_15):
    # the one-pass links against link(X, (v,)), which scans every facet;
    # b5-30 has boundary, two points and a cycle sit below dimension 2
    two_points = from_facets([["p"], ["q"]])
    cycle = from_facets([[f"c{i}", f"c{(i + 1) % 5}"] for i in range(5)])
    for X in (two_points, cycle, b5_30, m4_15):
        for v in X.vertices:
            assert X.vertex_link(v) == link(X, (v,)), v
    assert two_points.vertex_link("p").is_empty
    assert cycle.vertex_link("c0").facets == (("c1",), ("c4",))
    with pytest.raises(UnknownVertex):
        cycle.vertex_link("nope")


def test_link_of_facet_is_empty():
    X = standard_sphere(2)
    assert link(X, X.facets[0]).is_empty


# ------------------------------------------------------- induced subcomplex

def test_induced_handle_scar(m4_15):
    scar = ("a1", "a2", "a3", "a4", "a5")
    # all proper subsets present, the 5-set itself absent
    assert all(has_face(m4_15, f) for f in combinations(scar, 4))
    assert not has_face(m4_15, scar)
    assert induces_standard_sphere(m4_15, scar)


def induces_standard_sphere_by_definition(X, subset) -> bool:
    """The set has at least two vertices, is not a face of X, and every
    nonempty proper subset is."""
    s = tuple(sorted(set(subset)))
    return len(s) >= 2 and not has_face(X, s) and all(
        has_face(X, t) for k in range(1, len(s)) for t in combinations(s, k)
    )


def test_induces_standard_sphere_matches_definition():
    """Twin: testing the (|S|-1)-subsets gives the answer of testing every
    proper subset, on all small and sphere-sized subsets and unknown labels."""
    for X in (get("K4"), random_stacked_sphere(4, 10, 1)):
        V = sorted(X.vertices)
        subsets = [s for k in (0, 1, 2, 5, 6) for s in combinations(V, k)]
        subsets += [("zz",), ("zz", "zy"), ("zz", V[0]), (*V[:4], "zz"), (*V[:5], "zz")]
        spheres = 0
        for s in subsets:
            want = induces_standard_sphere_by_definition(X, s)
            assert induces_standard_sphere(X, s) == want, s
            spheres += want
        assert spheres > 0
        # fewer than two vertices, known or not, are no sphere
        assert not any(induces_standard_sphere(X, s) for s in ((), ("zz",), V[:1]))


# ----------------------------------------------------------------- dual graph

def test_dual_graph_standard_sphere_complete():
    X = standard_sphere(2)
    dg = X.dual_graph()
    assert len(dg.nodes) == 4
    assert len(dg.edges) == 6  # K4
    assert dg.is_closed and dg.is_weak_pseudomanifold


def test_dual_graph_disjoint_triangles():
    X = from_facets(
        [["1", "2"], ["2", "3"], ["3", "1"], ["4", "5"], ["5", "6"], ["6", "4"]]
    )
    dg = X.dual_graph()
    assert dg.is_weak_pseudomanifold and dg.is_closed
    assert not dg.is_connected()


def test_dual_graph_tree_of_ball(b5_30):
    dg = b5_30.dual_graph()
    assert dg.is_tree()
    assert len(dg.nodes) == 25 and len(dg.edges) == 24


# ------------------------------------------- face layer against the facets

def faces_by_facet(X):
    """Reference face enumeration: every subset of every facet."""
    buckets = {j: set() for j in range(X.dimension + 1)}
    for f in X.facets:
        for k in range(1, len(f) + 1):
            buckets[k - 1].update(combinations(f, k))
    return {j: tuple(sorted(s)) for j, s in buckets.items()}


def dual_graph_by_facet(X):
    """Reference dual graph: ridge -> facet set, edges, flags, components."""
    incidence = {}
    for f in X.facets:
        for i in range(len(f)):
            incidence.setdefault(f[:i] + f[i + 1:], set()).add(f)
    edges = {tuple(sorted(fs)) for fs in incidence.values() if len(fs) == 2}
    sizes = {len(fs) for fs in incidence.values()}
    weak = sizes <= {1, 2}
    closed = bool(X.facets) and sizes == {2}
    # components by merging the facet sets of each edge until nothing changes
    parts = [{f} for f in X.facets]
    for a, b in edges:
        pa = next(p for p in parts if a in p)
        pb = next(p for p in parts if b in p)
        if pa is not pb:
            pa |= pb
            parts.remove(pb)
    connected = len(parts) == 1
    tree = connected and len(edges) == len(X.facets) - 1
    return incidence, edges, weak, closed, connected, tree


def test_face_layer_matches_per_facet_enumeration():
    for name, X in face_layer_inputs():
        assert X.faces_by_dim() == faces_by_facet(X), name
        dg = X.dual_graph()
        incidence, edges, weak, closed, connected, tree = dual_graph_by_facet(X)
        assert dg.nodes == X.facets, name
        assert len(dg.edges) == len(edges) and set(dg.edges) == edges, name
        assert all(a < b for a, b in dg.edges), name
        assert {r: set(fs) for r, fs in dg.ridge_incidence.items()} == incidence, name
        # each ridge's facets come in facet order
        assert all(list(fs) == sorted(fs) for fs in dg.ridge_incidence.values()), name
        assert (dg.is_weak_pseudomanifold, dg.is_closed) == (weak, closed), name
        assert (dg.is_connected(), dg.is_tree()) == (connected, tree), name


def test_dual_adjacency_maps_each_neighbour_to_the_shared_ridge():
    for name, X in face_layer_inputs():
        dg = X.dual_graph()
        adj = dg.adjacency()
        assert list(adj) == list(X.facets), name
        # neighbours in edge order: what the neighbour lists read off edges held
        by_edges = {f: [] for f in dg.nodes}
        for a, b in dg.edges:
            by_edges[a].append(b)
            by_edges[b].append(a)
        assert {f: list(ns) for f, ns in adj.items()} == by_edges, name
        for f, ns in adj.items():
            for g, r in ns.items():
                assert r == tuple(v for v in f if v in g), name
                assert dg.ridge_incidence[r] == tuple(sorted((f, g))), name
                assert adj[g][f] is r, name
        # a ridge in one facet, or in three or more, gives no edge
        crossed = {r for ns in adj.values() for r in ns.values()}
        lone = {r for r, fs in dg.ridge_incidence.items() if len(fs) != 2}
        assert not crossed & lone and len(crossed) == len(dg.edges), name
        if name == "stacked 3-ball":
            assert any(len(fs) == 1 for fs in dg.ridge_incidence.values())
        if name == "three triangles on an edge":
            assert list(dg.ridge_incidence.values()).count(X.facets) == 1
            assert adj == {f: {} for f in X.facets}


def test_dual_forest_crosses_the_ridges_of_the_adjacency(m4_15):
    for X in (m4_15, get("K4")):
        adj = X.dual_graph().adjacency()
        parent = spanning_forest(X.facets, adj)
        forest = _dual_forest(X)
        tree_ridges = [adj[f][p] for f, p in parent.items() if p is not None]
        assert forest.tree_ridges == frozenset(tree_ridges)
        assert len(tree_ridges) == len(X.facets) - 1 and forest.trees == 1


def test_dual_graph_ignores_facet_order():
    rng = random.Random(5)
    for name, X in face_layer_inputs():
        rows = [list(f) for f in X.facets]
        for row in rows:
            rng.shuffle(row)
        rng.shuffle(rows)
        Y = from_facets(rows, clones=True) if rows else SimplicialComplex(())
        assert Y.dual_graph() == X.dual_graph(), name
        assert Y.faces_by_dim() == X.faces_by_dim(), name


def faces_in_first_met_order(X):
    """Reference face numbering: the facets in sorted order, then the
    faces of each lower dimension in the order they are met by dropping
    one vertex, the last first, from each face of the dimension above."""
    layers = [list(X.facets)] if X.facets else []
    for _ in range(X.dimension):
        met = {}
        for f in layers[-1]:
            for i in reversed(range(len(f))):
                met.setdefault(f[:i] + f[i + 1:], len(met))
        layers.append(list(met))
    return layers[::-1]


def test_face_index_is_the_first_met_order():
    for name, X in face_layer_inputs():
        layers = faces_in_first_met_order(X)
        assert len(layers) == X.dimension + 1, name
        for j, faces in enumerate(layers):
            assert X.face_index(j) == {f: i for i, f in enumerate(faces)}, name
            assert list(X.face_index(j)) == faces, name
        if X.dimension > 0:
            # the ridges come in the order the dual graph meets them
            ridges = X.dual_graph().ridge_incidence
            assert list(X.face_index(X.dimension - 1)) == list(ridges), name
        for j in (-1, X.dimension + 1):
            assert X.face_index(j) == {}, name


def test_face_queries_agree_with_the_sorted_view():
    for name, X in face_layer_inputs():
        by_dim = X.faces_by_dim()
        assert sorted(by_dim) == list(range(X.dimension + 1)), name
        assert X.f_vector() == tuple(len(by_dim[j]) for j in sorted(by_dim)), name
        for j, faces in by_dim.items():
            index = X.face_index(j)
            assert tuple(sorted(index)) == faces, name
            # every other (j+1)-subset of the vertices, up to a few hundred
            present = set(faces)
            others = list(islice(
                (s for s in combinations(X.vertices, j + 1) if s not in present), 300
            ))
            assert not any(s in index for s in others), name


FACE_ORDER_SCRIPT = """
import hashlib, json
from walkup import build_m4_15, random_stacked_sphere
from walkup.homology import boundary_columns
out = []
for X in (build_m4_15(), random_stacked_sphere(4, 40, 3)):
    out.append([list(X.face_index(j).items()) for j in range(X.dimension + 1)])
    out.append([boundary_columns(X, j) for j in range(1, X.dimension + 1)])
print(hashlib.sha256(json.dumps(out).encode()).hexdigest())
"""


def test_face_order_does_not_depend_on_hash_order():
    digests = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", FACE_ORDER_SCRIPT], capture_output=True,
            text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


# ------------------------------------------------------------------- boundary

def test_boundary_of_single_facet():
    for d in (1, 2, 3, 4):
        ball = SimplicialComplex([tuple(f"v{i}" for i in range(1, d + 3))])
        assert ball.boundary_complex() == standard_sphere(d)


def test_boundary_of_b5_30(b5_30):
    S = b5_30.boundary_complex()
    assert len(S.facets) == 102


def test_boundary_of_closed_raises(s4_30):
    with pytest.raises(EmptyBoundary):
        s4_30.boundary_complex()


def test_boundary_of_nonpseudomanifold_raises():
    # three triangles sharing one edge
    X = from_facets([["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]])
    with pytest.raises(NotPseudomanifoldWithBoundary):
        X.boundary_complex()
    # two points: dimension 0 has no ridges
    with pytest.raises(NotPseudomanifoldWithBoundary, match="below dimension 1"):
        from_facets([["a"], ["b"]]).boundary_complex()


# -------------------------------------------------------------- clique complex

def test_clique_complex_of_simplex_boundary():
    X = standard_sphere(3)
    assert X.clique_complex() == (X.vertices,)


def test_clique_complex_of_four_cycle():
    X = from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["4", "1"]])
    assert set(X.clique_complex()) == set(X.facets)


def test_clique_complex_of_stacked_sphere_is_ball():
    X = random_stacked_sphere(3, 9, seed=11)
    cliques = X.clique_complex()
    assert all(len(c) == 5 for c in cliques)
    assert SimplicialComplex(cliques).boundary_complex() == X


# sha256 of the maximal cliques of the corpus, computed with the set-based
# Bron-Kerbosch search that the bitmask search replaced
CLIQUE_COMPLEXES = "c11e83b2a47059f30c534d9f8818ced0b0ab9c7bf96385c5ebfb09e3b5b97f0a"


def test_clique_complex_pinned():
    # stacked spheres, every vertex link of m4-15 and of K4-K6, surfaces,
    # a cycle, points and a disconnected union whose clique complex is
    # not pure
    inputs = [(f"stacked {d} {n}", random_stacked_sphere(d, n, seed=n + d))
              for d in (3, 4) for n in (40, 320, 1000)]
    inputs += [(f"{name} lk {v}", get(name).vertex_link(v))
               for name in ("m4-15", "K4", "K5", "K6") for v in get(name).vertices]
    inputs += zip(("rp2_6", "torus_7", "four-cycle", "points", "union"), map(get, (
        "rp2_6", "torus_7", "four-cycle", "three points", "S1 + four-cycle")))
    doc = [(name, X.clique_complex()) for name, X in inputs]
    assert len(doc) == 65
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == CLIQUE_COMPLEXES


def _maximal_cliques_by_subsets(X):
    """Every vertex subset that spans a clique of the edge faces and that
    no outside vertex extends, sorted (the empty set, on no vertex)."""
    edges = X.face_index(1)
    n = len(X.vertices)
    cliques = [
        s
        for k in range(n + 1)
        for s in combinations(X.vertices, k)
        if all(e in edges for e in combinations(s, 2))
    ]
    extends = lambda s, w: w not in s and all(tuple(sorted((u, w))) in edges for u in s)
    return tuple(sorted(s for s in cliques if not any(extends(s, w) for w in X.vertices)))


def test_clique_complex_matches_subset_twin():
    # every entry up to 12 vertices, and every vertex link of the dense
    # ones (2-neighborly members of K(d) up to 13 vertices)
    small = select(max_f0=12) + [
        (f"{name} lk {v}", X.vertex_link(v))
        for name, X in select("kd", "neighborly", max_f0=13)
        for v in X.vertices
    ]
    names = {name for name, _ in small}
    assert {"K4 lk k0", "K5 lk k12", "∂C(4, 12)", "∂C(5, 10)"} <= names
    impure = 0
    for name, X in small:
        want = _maximal_cliques_by_subsets(X)
        assert SimplicialComplex(X.facets).clique_complex() == want, name
        impure += len({len(c) for c in want}) > 1
    assert impure >= 1


# ---------------------------------------------------------------- 1-skeleton

def test_adjacency_matches_edge_faces(m4_15, b5_30):
    # neighbour sets read from the facets equal those of the enumerated edges
    points = SimplicialComplex([("a",), ("b",)])
    for X in (m4_15, b5_30, points, standard_sphere(1),
              random_stacked_sphere(3, 20, seed=4)):
        adj = {v: set() for v in X.vertices}
        for u, v in X.face_index(1):
            adj[u].add(v)
            adj[v].add(u)
        assert X.adjacency() == {v: frozenset(ns) for v, ns in adj.items()}


def test_graph_distance_basics(m4_15):
    assert m4_15.graph_distance("a1", "a1") == 0
    assert m4_15.graph_distance("a1", "b3") == 1  # 2-neighborly


def test_graph_distance_identified_pairs(s4_30):
    for x in "abc":
        for i in range(1, 6):
            assert s4_30.graph_distance(f"{x}{i}", f"{x}{i}p") >= 3


def test_graph_distance_disconnected():
    X = from_facets([["1", "2"], ["3", "4"]])
    assert X.graph_distance("1", "3") == inf


def test_graph_distance_unknown():
    X = standard_sphere(1)
    with pytest.raises(UnknownVertex):
        X.graph_distance("v1", "nope")


# ---------------------------------------------------------------- invariants

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 3]))
def test_double_count_identity(seed, d):
    # pairs (x, tau) with x a vertex of the j-face tau, counted both ways
    X = random_stacked_sphere(d, d + 6, seed=seed)
    f = X.f_vector()
    link_fvectors = [X.vertex_link(x).f_vector() for x in X.vertices]
    for j in range(1, d + 1):
        assert sum(lf[j - 1] for lf in link_fvectors) == (j + 1) * f[j]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_f_vector_relabel_invariant(seed):
    X = random_stacked_sphere(3, 10, seed=seed)
    relabel = {v: f"w{i}" for i, v in enumerate(reversed(X.vertices))}
    Y = SimplicialComplex(
        tuple(sorted(tuple(sorted(relabel[v] for v in f)) for f in X.facets))
    )
    assert X.f_vector() == Y.f_vector()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 3, 4]))
def test_vertex_link_of_closed_pseudomanifold_closed(seed, d):
    X = random_stacked_sphere(d, d + 5, seed=seed)
    for v in X.vertices:
        link = X.vertex_link(v)
        assert link.is_closed_pseudomanifold()
        assert link.dimension == d - 1


def test_dual_tree_edge_count_random():
    for seed in range(5):
        X = random_stacked_sphere(3, 12, seed=seed)
        K = SimplicialComplex(X.clique_complex())
        dg = K.dual_graph()
        assert len(dg.edges) == len(dg.nodes) - 1


def test_face_set_queries(m4_15):
    assert ("a1",) in m4_15.face_index(0)
    assert ("a1", "b2") in m4_15.face_index(1)
    assert ("a1", "a2", "a3", "a4", "a5") not in m4_15.face_index(4)


def test_concurrent_queries_share_one_complex():
    # memoized caches must fill safely under parallel first access
    from concurrent.futures import ThreadPoolExecutor

    from walkup.surgery import _admissibility_masks

    X = random_stacked_sphere(4, 20, seed=31)

    def probe(_):
        return (
            X.f_vector(),
            len(X.dual_graph().edges),
            X.graph_distance(X.vertices[0], X.vertices[-1]),
            len(X.clique_complex()),
            is_stacked_sphere(X),
            X.vertex_link(X.vertices[0]).facets,
            _admissibility_masks(X).ball_mask(X.vertices[-1]),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    assert len(set(results)) == 1
