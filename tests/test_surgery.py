"""Handle addition/deletion, connected sums, and the decomposition."""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
from itertools import combinations
from math import comb

import pytest

from walkup import (
    SimplicialComplex,
    VertexBijection,
    bijection_from_map,
    build_s4_30,
    connected_sum,
    disjoint_union,
    find_admissible_bijection,
    handle_addition,
    handle_deletion,
    homology_profile,
    in_walkup_class,
    is_admissible,
    is_isomorphic,
    is_stacked_sphere,
    kalai_decompose,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.errors import (
    CutValidationFailed,
    DimensionTooLow,
    DuplicateFacet,
    NotAdmissible,
    NotAFacet,
    NotClosedPseudomanifold,
    NotInducedStandardSphere,
    NotWalkup,
)
from walkup.complex import CLONE_MARKER, spanning_forest
from walkup import surgery
from walkup.surgery import HandleLedger, _admissibility_masks

from conftest import (
    filling_by_definition,
    find_induced_standard_spheres,
    induces_standard_sphere,
    separates,
)
from corpus import find_handle_pair, get, select, shuffled_labels, tags_of, tube_sphere


def _identification(x: str) -> VertexBijection:
    return bijection_from_map({f"{x}{i}p": f"{x}{i}" for i in range(1, 6)})


# -------------------------------------------------------------- admissibility

def test_identifications_admissible_on_s4_30(s4_30):
    for x in "abc":
        assert is_admissible(s4_30, _identification(x))


def test_identifications_stay_admissible_after_others(s4_30):
    X = s4_30
    for x in "abc":
        psi = _identification(x)
        assert is_admissible(X, psi)
        X = handle_addition(X, psi)


def test_neighbor_bijection_not_admissible():
    # disjoint facets exist in a small stacked sphere, but all their
    # vertex pairs sit at distance < 3, so no bijection is admissible
    X = random_stacked_sphere(4, 12, seed=0)
    pair = next(
        (f1, f2)
        for i, f1 in enumerate(X.facets)
        for f2 in X.facets[i + 1:]
        if not set(f1) & set(f2)
    )
    assert find_admissible_bijection(X, *pair) is None
    meet = next(g for g in X.facets if g != pair[0] and set(g) & set(pair[0]))
    assert find_admissible_bijection(X, pair[0], meet) is None
    psi = bijection_from_map(dict(zip(*pair)))
    assert not is_admissible(X, psi)
    with pytest.raises(NotAdmissible):
        handle_addition(X, psi)


def _bfs_distances(X):
    """graph_distance, the BFS twin, memoized per unordered pair."""
    memo = {}

    def dist(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in memo:
            memo[key] = X.graph_distance(u, v)
        return memo[key]

    return dist


def _bfs_bijection(dist, sigma1, sigma2):
    """Reference search: the same candidate order as the library, with
    every pair judged by BFS distance."""
    allowed = {u: [v for v in sigma2 if dist(u, v) >= 3] for u in sigma1}
    order = sorted(sigma1, key=lambda u: (len(allowed[u]), u))

    def extend(i, used):
        if i == len(order):
            return {}
        u = order[i]
        for v in allowed[u]:
            if v not in used:
                rest = extend(i + 1, used | {v})
                if rest is not None:
                    return {u: v, **rest}
        return None

    match = extend(0, frozenset())
    return None if match is None else bijection_from_map(match)


def _disjoint_facet_pairs(X):
    return [
        (f1, f2)
        for i, f1 in enumerate(X.facets)
        for f2 in X.facets[i + 1:]
        if not set(f1) & set(f2)
    ]


def _in_ball(X, u, v):
    """v lies in u's radius-2 ball, read off the admissibility mask table."""
    masks = _admissibility_masks(X)
    return bool(masks.ball_mask(u) & masks.bit[v])


def _admissibility_corpus():
    """The entries up to 12 vertices (a hexagon's adjacent vertices share
    no neighbour), and larger ones with far pairs, at distance inf and a
    tube's one-handle complex and its cut, whose labels carry clones."""
    return select(max_f0=12) + [(name, get(name)) for name in (
        "s4-30", "tube(4, 26, 0)", "tube(4, 26, 1)", "tube(4, 26, 2)",
        "stacked(4, 9, 1) + stacked(4, 9, 2)", "tube(4, 26, 1)+1", "tube(4, 26, 1)+1 cut")]


def test_radius_two_balls_match_bfs():
    kinds = set()
    for _, X in _admissibility_corpus():
        for u in X.vertices:
            for v in X.vertices:
                dist = X.graph_distance(u, v)
                kinds.add(min(dist, 3))
                assert _in_ball(X, u, v) == (dist <= 2), (u, v, dist)
    assert kinds == {0, 1, 2, 3}  # itself, adjacent, common neighbour, far


def test_is_admissible_matches_bfs():
    for _, X in _admissibility_corpus():
        dist = _bfs_distances(X)
        for f1, f2 in _disjoint_facet_pairs(X):
            for k in (0, 1):
                psi = bijection_from_map(dict(zip(f1, f2[k:] + f2[:k])))
                expect = all(dist(a, b) >= 3 for a, b in psi.pairs)
                assert is_admissible(X, psi) == expect


def test_find_admissible_bijection_matches_bfs_search():
    found = {}
    for name, X in _admissibility_corpus():
        dist = _bfs_distances(X)
        hits = 0
        for f1, f2 in _disjoint_facet_pairs(X):
            psi = find_admissible_bijection(X, f1, f2)
            assert psi == _bfs_bijection(dist, f1, f2), (f1, f2)
            if psi is not None:
                assert is_admissible(X, psi)
                hits += 1
        found[name] = hits
    assert found["K4"] == found["stacked(4, 12, 0)"] == 0
    assert found["s4-30"] > 0 and found["stacked(4, 9, 1) + stacked(4, 9, 2)"] > 0


ADMISSIBLE_BIJECTIONS = "de1c9b48ac84623f3f9cb6933160580c19b3375ee6b8ac28f87e4f3b14d1a454"


def test_find_admissible_bijection_pinned():
    # sha256 of the first matching found on every disjoint facet pair of
    # a 26-vertex tube; any change in the search order moves it
    X = tube_sphere(4, 26, seed=1)
    found = [find_admissible_bijection(X, f1, f2) for f1, f2 in _disjoint_facet_pairs(X)]
    assert len(found) == 1495 and sum(psi is not None for psi in found) == 109
    doc = json.dumps([None if psi is None else psi.pairs for psi in found])
    assert hashlib.sha256(doc.encode()).hexdigest() == ADMISSIBLE_BIJECTIONS


def test_find_admissible_bijection_from_racing_threads():
    # the mask table is filled without a lock: threads racing on a fresh
    # complex's first lookups must store equal masks and find the same
    # bijections as one thread
    X = tube_sphere(4, 26, seed=1)
    pairs = _disjoint_facet_pairs(X)
    want = [find_admissible_bijection(X, f1, f2) for f1, f2 in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            Y = SimplicialComplex(X.facets)
            barrier = threading.Barrier(8)
            got = []

            def search():
                barrier.wait(timeout=60)
                got.append([find_admissible_bijection(Y, f1, f2) for f1, f2 in pairs])

            threads = [threading.Thread(target=search) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(interval)


def test_admissibility_negative_cases(s4_30):
    # a1 ~ a2 share an edge, a1 and a5 a neighbour; the union is disconnected
    assert s4_30.graph_distance("a1", "a2") == 1 and _in_ball(s4_30, "a1", "a2")
    u, v = next(
        (u, v)
        for u in s4_30.vertices
        for v in s4_30.vertices
        if s4_30.graph_distance(u, v) == 2
    )
    assert _in_ball(s4_30, u, v)
    union, rename = disjoint_union(standard_sphere(4), standard_sphere(4))
    f1 = union.facets[0]
    f2 = tuple(sorted(rename[v] for v in f1))
    psi = bijection_from_map(dict(zip(f1, f2)))
    assert union.graph_distance(f1[0], f2[0]) == float("inf")
    assert is_admissible(union, psi)


def test_is_admissible_requires_facets(s4_30):
    psi = bijection_from_map({"a1": "b2", "a2": "b3", "a3": "b4", "a4": "b5", "a5": "c1"})
    for phi in (psi, bijection_from_map({b: a for a, b in psi.pairs})):
        with pytest.raises(NotAFacet):
            is_admissible(s4_30, phi)


def test_find_admissible_bijection_requires_facets(s4_30):
    # the facet checks come before any early answer of None: a non-facet
    # that meets the other endpoint, or that lies within its balls, raises
    F = s4_30.facets[0]
    G = next(g for g in s4_30.facets if not set(g) & set(F))
    meets = tuple(sorted(F[:4] + (G[0],)))
    near = tuple(
        v for v in s4_30.vertices
        if v not in F and s4_30.graph_distance(F[0], v) <= 2
    )[:5]
    for sigma in (meets, near):
        assert sigma not in s4_30.facet_set and len(sigma) == 5
    assert not set(near) & set(F)
    for sigma in (meets, near):
        with pytest.raises(NotAFacet):
            find_admissible_bijection(s4_30, F, sigma)
        with pytest.raises(NotAFacet):
            find_admissible_bijection(s4_30, sigma, F)


def test_bijection_validation():
    with pytest.raises(ValueError):
        VertexBijection(("a",), ("a",), (("a", "a"),))
    with pytest.raises(ValueError):
        VertexBijection(("a", "b"), ("c", "d"), (("a", "c"),))


# ------------------------------------------------------------ handle addition

def test_m4_15_bookkeeping(s4_30):
    X = s4_30
    expect = [(30, 102), (25, 100), (20, 98), (15, 96)]
    assert (len(X.vertices), len(X.facets)) == expect[0]
    for i, x in enumerate("abc"):
        X = handle_addition(X, _identification(x))
        assert (len(X.vertices), len(X.facets)) == expect[i + 1]
    assert X.f_vector() == (15, 105, 230, 240, 96)


def test_handle_addition_scar_is_standard_sphere(s4_30):
    X = handle_addition(s4_30, _identification("a"))
    assert induces_standard_sphere(X, tuple(f"a{i}" for i in range(1, 6)))


def test_connected_sum_of_standard_spheres():
    for d in (3, 4):
        A = standard_sphere(d)
        B = standard_sphere(d)
        psi = bijection_from_map(
            {f"v{i}'": f"v{i}" for i in range(1, d + 2)}
        )
        # psi written against the relabeled copy: construct via the helper
        union, rename = disjoint_union(A, B)
        f1 = A.facets[0]
        f2 = tuple(sorted(rename.get(v, v) for v in B.facets[0]))
        psi = find_admissible_bijection(union, f1, f2)
        assert psi is not None  # disjoint components: everything admissible
        X = handle_addition(union, psi)
        assert len(X.vertices) == 2 * (d + 2) - (d + 1) == d + 3
        assert is_stacked_sphere(X)


def test_connected_sum_api_relabels():
    A = standard_sphere(3)
    B = standard_sphere(3)  # same labels, forces the collision path
    X = connected_sum(A, B, dict(zip(A.facets[0], B.facets[-1])))
    assert is_stacked_sphere(X)
    assert len(X.vertices) == 6


def test_connected_sum_with_sphere_keeps_profile(m4_15):
    S = standard_sphere(4)
    X = connected_sum(m4_15, S, dict(zip(m4_15.facets[0], S.facets[0])))
    assert homology_profile(X).betti == homology_profile(m4_15).betti


def test_connected_sum_euler_composition(m4_15):
    X = connected_sum(m4_15, m4_15, dict(zip(m4_15.facets[0], m4_15.facets[-1])))
    assert homology_profile(X).euler == -4 + -4 - 2


def _rename_every_facet(X, psi):
    """The from-scratch twin of handle_addition: every facet renamed."""
    rename = psi.mapping
    return SimplicialComplex({
        tuple(sorted(rename.get(v, v) for v in f))
        for f in X.facets
        if f not in (psi.source_facet, psi.target_facet)
    })


def test_handle_addition_matches_renaming_every_facet(monkeypatch, m4_15, s4_30):
    # every addition made by the surgery layer: identifications, connected
    # sums, the cuts' round trips and the ledger replays of decompositions
    calls = []
    add = surgery.handle_addition

    def spy(X, psi):
        Y = add(X, psi)
        calls.append((X, psi, Y))
        return Y

    monkeypatch.setattr("walkup.surgery.handle_addition", spy)
    X = s4_30
    for x in "abc":
        X = surgery.handle_addition(X, _identification(x))
    for Z in (m4_15, get("K4"), get("K5")):
        kalai_decompose(Z)
    for seed in range(8):
        tube = tube_sphere(4, 26, seed=seed)
        psi = find_handle_pair(tube)
        if psi is not None:
            kalai_decompose(surgery.handle_addition(tube, psi))
    K = get("K4")
    connected_sum(K, K, dict(zip(K.facets[0], K.facets[-1])))
    monkeypatch.undo()
    assert len(calls) >= 20
    for X, psi, Y in calls:
        assert Y == _rename_every_facet(X, psi)


def test_handle_addition_still_refuses_duplicates_and_collapses(monkeypatch):
    # An admissible bijection can neither collapse a facet nor merge two,
    # so these refusals are reached only with the admissibility test off:
    # a merge by the constructor, a collapse by handle_addition itself.
    X = random_stacked_sphere(4, 12, seed=0)
    dup = bijection_from_map({"v10": "v1", "v2": "v9", "v3": "v12", "v6": "v8", "v7": "v5"})
    col = bijection_from_map({"v1": "v12", "v11": "v4", "v2": "v5", "v6": "v8", "v7": "v9"})
    for psi in (dup, col):
        with pytest.raises(NotAdmissible, match="closer than distance 3"):
            handle_addition(X, psi)
    with pytest.raises(NotClosedPseudomanifold):
        handle_addition(SimplicialComplex(X.facets[1:]), dup)
    monkeypatch.setattr("walkup.surgery.is_admissible", lambda X, psi: True)
    # no facet holds a vertex and its image, yet a renamed facet equals
    # one the identification leaves untouched
    assert not any(a in f and b in f for f in X.facets for a, b in dup.pairs)
    untouched, renamed = ("v1", "v12", "v4", "v5", "v9"), ("v1", "v2", "v3", "v4", "v7")
    assert untouched in X.facet_set and renamed in X.facet_set
    assert set(untouched).isdisjoint(dup.source_facet)
    assert tuple(sorted(dup.mapping.get(v, v) for v in renamed)) == untouched
    with pytest.raises(DuplicateFacet, match="repeated"):
        handle_addition(X, dup)
    collapsing = ("v1", "v11", "v2", "v4", "v6")  # holds v11 and its image v4
    with pytest.raises(NotAdmissible, match=re.escape(f"facet {collapsing} would collapse")):
        handle_addition(X, col)


# ----------------------------------------------------------- induced spheres

def test_induced_spheres_of_m4_15(m4_15):
    spheres = find_induced_standard_spheres(m4_15)
    for x in "abc":
        assert tuple(f"{x}{i}" for i in range(1, 6)) in spheres


def test_induced_spheres_verified(m4_15):
    for s in find_induced_standard_spheres(m4_15):
        assert induces_standard_sphere(m4_15, s)


def test_standard_sphere_has_none():
    assert find_induced_standard_spheres(standard_sphere(4)) == []
    assert find_induced_standard_spheres(standard_sphere(3)) == []


def test_walkup_members_have_some():
    Y = handle_addition(build_s4_30(), _identification("a"))
    assert find_induced_standard_spheres(Y)


def test_induced_spheres_match_brute_force():
    # the least-vertex search against every (d+1)-subset of the vertices,
    # on the entries of dimension >= 3 up to 15 vertices and a tube with
    # a handle; in the cone over a standard 2-sphere every vertex has
    # degree d + 1
    Y = get("tube(4, 26, 1)+1")
    assert len(Y.vertices) == 21
    assert find_induced_standard_spheres(get("cone over S2")) == [("v1", "v2", "v3", "v4")]
    for name, X in select(max_f0=15) + [("tube(4, 26, 1)+1", Y)]:
        d = X.dimension
        if d < 3:
            continue
        brute = [
            s for s in combinations(X.vertices, d + 1)
            if induces_standard_sphere(X, s)
        ]
        assert find_induced_standard_spheres(X) == brute, name
    assert find_induced_standard_spheres(Y)


def test_induced_spheres_dimension_guard():
    with pytest.raises(DimensionTooLow):
        find_induced_standard_spheres(standard_sphere(2))
    with pytest.raises(DimensionTooLow):
        handle_deletion(standard_sphere(2), ("v1", "v2", "v3"))


# ----------------------------------------------------------- handle deletion

def test_deletion_at_c_scar(m4_15):
    cut, psi = handle_deletion(m4_15, ("c1", "c2", "c3", "c4", "c5"))
    assert len(cut.vertices) == 20
    assert cut.is_connected()
    prof = homology_profile(cut)
    assert prof.betti[1] == 2
    assert homology_profile(m4_15).betti[1] == prof.betti[1] + 1
    # round trip is exact by construction
    assert handle_addition(cut, psi) == m4_15


def test_deletion_requires_induced_sphere(m4_15):
    with pytest.raises(NotInducedStandardSphere):
        handle_deletion(m4_15, ("a1", "a2", "a3", "a4", "b2"))
    with pytest.raises(NotInducedStandardSphere):
        handle_deletion(m4_15, ("a1", "a2", "a3"))
    X = random_stacked_sphere(4, 8, seed=0)
    with pytest.raises(NotClosedPseudomanifold):
        handle_deletion(SimplicialComplex(X.facets[1:]), X.facets[1])


def test_cut_refuses_a_pinched_vertex():
    # the boundary of the 4-simplex on 1-5 with facet 1234 stacked by 6,
    # wedged at 1 with a second one on 1abcd: 1234 induces a standard
    # 2-sphere, but the star of 1 has a third part beyond the cut
    stacked = {f for f in combinations("12345", 4) if f != ("1", "2", "3", "4")}
    stacked |= {tuple(sorted(r + ("6",))) for r in combinations("1234", 3)}
    Y = SimplicialComplex(stacked | set(combinations("1abcd", 4)))
    assert Y.is_closed_pseudomanifold() and induces_standard_sphere(Y, ("1", "2", "3", "4"))
    with pytest.raises(CutValidationFailed,
                       match="star of '1' separates into 3 parts, expected 2"):
        handle_deletion(Y, ("1", "2", "3", "4"))


def test_cut_refuses_exactly_the_corpus_non_spheres():
    # the cut's sphere test, read off the dual graph, against the
    # face-index twin on every (d+1)-subset of each closed entry of
    # dimension >= 3 up to 12 vertices; every subset it takes is cut,
    # and the cut's handle glues Y back
    entries = [(name, Y) for name, Y in select("closed", max_f0=12) if Y.dimension >= 3]
    subsets = cuts = 0
    for name, Y in entries:
        for S in combinations(Y.vertices, Y.dimension + 1):
            subsets += 1
            if not induces_standard_sphere(Y, S):
                with pytest.raises(NotInducedStandardSphere, match="does not induce"):
                    handle_deletion(Y, S)
                continue
            cut, psi = handle_deletion(Y, S)
            assert handle_addition(cut, psi) == Y, (name, S)
            cuts += 1
    assert (len(entries), subsets, cuts) == (32, 7997, 85)


def test_deletion_of_sum_disconnects():
    A, B, X = get("tube(4, 16, 1)"), get("tube(4, 16, 2)"), get("tube sum")
    spheres = find_induced_standard_spheres(X)
    # delete at some sum scar: at least one deletion must disconnect
    split_found = False
    for s in spheres:
        cut, _ = handle_deletion(X, s)
        comps = cut.connected_components()
        if len(comps) == 2:
            split_found = True
            assert {len(c.vertices) for c in comps} == {16, 16}
            iso_targets = [is_isomorphic(comps[0], Z) for Z in (A, B)]
            assert any(m is not None for m in iso_targets)
            break
    assert split_found


def test_deletion_round_trip_random():
    done = 0
    seed = 0
    while done < 3:
        X = tube_sphere(4, 26, seed=seed)
        seed += 1
        psi = find_handle_pair(X)
        if psi is None:
            continue
        Y = handle_addition(X, psi)
        cut, back = handle_deletion(Y, psi.target_facet)
        assert handle_addition(cut, back) == Y
        assert is_isomorphic(cut, X) is not None
        done += 1


# ------------------------------------------------------------- decomposition

def test_kalai_decompose_m4_15(m4_15):
    ledger = kalai_decompose(m4_15)
    assert len(ledger.handles) == 3
    assert len(ledger.base.vertices) == 30
    assert is_stacked_sphere(ledger.base)
    assert ledger.replay() == m4_15
    # a clone of a clone is minted from the root label: no nested markers
    labels = set(ledger.base.vertices)
    for psi in ledger.handles:
        labels.update(v for pair in psi.pairs for v in pair)
    assert any(CLONE_MARKER in v for v in labels)
    assert all(v.count(CLONE_MARKER) <= 1 for v in labels)


def test_kalai_ledger_length_equals_beta1(m4_15):
    ledger = kalai_decompose(m4_15)
    assert len(ledger.handles) == homology_profile(m4_15).betti[1]


def test_kalai_on_stacked_sphere_trivial():
    X = random_stacked_sphere(4, 12, seed=9)
    ledger = kalai_decompose(X)
    assert ledger.handles == ()
    assert ledger.base == X
    assert ledger.replay() == X


def test_kalai_single_handle():
    done = 0
    seed = 20
    while done < 2:
        X = tube_sphere(4, 26, seed=seed)
        seed += 1
        psi = find_handle_pair(X)
        if psi is None:
            continue
        Y = handle_addition(X, psi)
        ledger = kalai_decompose(Y)
        assert len(ledger.handles) == 1
        assert is_stacked_sphere(ledger.base)
        assert ledger.replay() == Y
        done += 1


def test_kalai_decompose_connected_sum_splits():
    X = get("tube sum")
    # a sum of spheres is itself a stacked sphere: no handles at all
    ledger = kalai_decompose(X)
    assert ledger.handles == ()
    assert ledger.base == X


def test_kalai_guards(m4_15, torus_7):
    with pytest.raises(DimensionTooLow):
        kalai_decompose(torus_7)
    X = SimplicialComplex(
        set(m4_15.facets)
        | {tuple(sorted(f"z{v}" for v in f)) for f in standard_sphere(4).facets}
    )
    with pytest.raises(NotWalkup):
        kalai_decompose(X)
    with pytest.raises(NotWalkup, match="some vertex link is not a stacked sphere"):
        kalai_decompose(get("∂C(5, 10)"))


def test_ledger_replay_standalone(m4_15):
    ledger = kalai_decompose(m4_15)
    clone = HandleLedger(base=ledger.base, handles=ledger.handles)
    assert clone.replay() == m4_15


def test_intermediate_states_stay_walkup(m4_15):
    # follow the decomposition's cuts (the first sphere in sorted order
    # whose cut stays connected): each cut stays connected and in the
    # class, and lowers beta_1 by exactly one
    cur = m4_15
    beta1 = homology_profile(cur).betti[1]
    cuts = 0
    while not is_stacked_sphere(cur):
        for s in find_induced_standard_spheres(cur):
            cut, _ = handle_deletion(cur, s)
            if cut.is_connected():
                break
        else:
            pytest.fail("no non-separating induced standard sphere")
        assert in_walkup_class(cut)
        assert homology_profile(cut).betti[1] == beta1 - 1
        cur, beta1, cuts = cut, beta1 - 1, cuts + 1
    assert cuts == 3 and beta1 == 0
    assert cur == kalai_decompose(m4_15).base


def _assert_decomposes(X, name):
    ledger = kalai_decompose(X)
    assert len(ledger.handles) == homology_profile(X).betti[1], name
    assert is_stacked_sphere(ledger.base), name
    assert ledger.replay() == X, name


@pytest.mark.parametrize("family", ["m4-15", "K4", "K5", "K6"])
def test_kalai_decompose_relabelled_corpus(family):
    # the label order decides which spheres come first; every order of
    # the paper's object and of Kühnel's bundles must decompose
    X = get(family)
    for seed in range(30):
        _assert_decomposes(shuffled_labels(X, seed), (family, seed))


def test_kalai_decompose_glued_corpus():
    # K4 # K4(q) at every target facet has a separating sphere beside
    # its two handles, and so does K4 # m4-15
    K4 = get("K4")
    K4q = SimplicialComplex(
        tuple(sorted("q" + v[1:] for v in f)) for f in K4.facets
    )
    assert len(K4q.facets) == 44
    for g in K4q.facets:
        X = connected_sum(K4, K4q, dict(zip(K4.facets[0], g)))
        _assert_decomposes(X, g)
    _assert_decomposes(get("K4 # m4-15"), "K4 # m4-15")


MANY_HANDLES_LEDGER = "728efeb5e661b89d255217f53d5e5acc1b4ea6cdefe235f7506e3bf8edcb4f14"


def test_kalai_decompose_many_handles_pinned(many_handles):
    # sha256 of the ledger that cut-and-test gives; any change in which
    # spheres are cut, or in how, moves it
    ledger = kalai_decompose(many_handles)
    assert len(ledger.handles) == 18
    doc = json.dumps([ledger.base.facets, [psi.pairs for psi in ledger.handles]])
    assert hashlib.sha256(doc.encode()).hexdigest() == MANY_HANDLES_LEDGER
    assert ledger.replay() == many_handles


def test_kalai_decompose_asks_the_recognizer_once(monkeypatch):
    # f0 and f1 fix the beta_1 rounds, so the recognizer is asked only
    # about the base, and a base it refuses is refused
    calls = {"is_stacked_sphere": 0, "_cycle_face": 0}

    def counted(fn):
        def wrapper(X):
            calls[fn.__name__] += 1
            return fn(X)
        return wrapper

    monkeypatch.setattr(surgery, "is_stacked_sphere", counted(surgery.is_stacked_sphere))
    monkeypatch.setattr(surgery, "_cycle_face", counted(surgery._cycle_face))
    for X, beta1 in ((get("m4-15"), 3), (get("many handles"), 18),
                     (get("K4 # m4-15"), 4), (random_stacked_sphere(4, 30, 1), 0)):
        calls.update(is_stacked_sphere=0, _cycle_face=0)
        kalai_decompose(X)
        assert calls == {"is_stacked_sphere": 1, "_cycle_face": beta1}, X
    monkeypatch.setattr(surgery, "is_stacked_sphere", lambda X: False)
    with pytest.raises(NotWalkup, match="after 3 cuts is not a stacked sphere"):
        kalai_decompose(get("m4-15"))


@pytest.fixture(scope="module")
def sphere_cuts():
    """(Y, [(S, handle_deletion(Y, S)) for each induced standard sphere S])
    over a corpus whose spheres both separate and do not."""
    corpus = [get(name) for name in ("m4-15", "K4", "K5", "K6", "tube(4, 26, 1)+1",
                                     "tube sum", "many handles")]
    return [
        (Y, [(S, handle_deletion(Y, S)) for S in find_induced_standard_spheres(Y)])
        for Y in corpus
    ]


def test_separates_matches_cut(sphere_cuts):
    # the dual-graph test against cutting and testing the cut
    seen = set()
    for Y, cuts in sphere_cuts:
        adj = Y.dual_graph().adjacency()
        for S, (cut, _) in cuts:
            split = separates(Y, adj, S)
            assert split == (not cut.is_connected()), S
            seen.add(split)
    assert seen == {True, False}


def _rounds(X):
    """Each complex the decomposition of X cuts, then its stacked base."""
    rounds = [X]
    while not is_stacked_sphere(X):
        X = handle_deletion(X, surgery._cycle_face(X))[0]
        rounds.append(X)
    return rounds


def test_filling_cycle_faces_match_sphere_twins(
        sphere_cuts, m4_15, many_handles, s4_30, n5_15, b5_30):
    # the filling's interior d-faces against the direct sphere search, and
    # its least cycle face against the first sphere the dual-graph test
    # calls non-separating, over every round of three decompositions
    corpus = [Y for Y, _ in sphere_cuts]
    for X in (m4_15, many_handles, get("K4 # m4-15")):
        corpus += _rounds(X)
    assert len(corpus) == 7 + 4 + 19 + 5
    kinds = set()
    for Y in corpus:
        spheres = find_induced_standard_spheres(Y)
        dual = surgery._filling(Y).dual_graph()
        assert dual.is_weak_pseudomanifold
        interior = [r for r, fs in dual.ridge_incidence.items() if len(fs) == 2]
        assert sorted(interior) == spheres
        adj = Y.dual_graph().adjacency()
        split = [separates(Y, adj, S) for S in spheres]
        kinds.update(split)
        first = next((S for S, s in zip(spheres, split) if not s), None)
        assert surgery._cycle_face(Y) == first, Y
    assert kinds == {True, False}
    assert surgery._filling(m4_15) == n5_15
    assert surgery._filling(s4_30) == b5_30


def test_filling_matches_its_definition():
    # the link-clique route against the (d+2)-sets all of whose triangles
    # are faces; the route needs d >= 4, and on the 2-neighborly 3-spheres
    # of K(3) the definition has no facet
    checked = 0
    for name, X in select("kd", max_f0=15):
        if X.dimension >= 4:
            assert surgery._filling(X) == filling_by_definition(X), name
            checked += 1
    assert checked >= 10
    for n in (8, 9, 12):
        assert filling_by_definition(get(f"∂C(4, {n})")).is_empty


def test_kalai_decompose_refuses_dimension_three():
    refused = 0
    for name, X in select("kd"):
        if X.dimension == 3:
            with pytest.raises(DimensionTooLow):
                kalai_decompose(X)
            refused += 1
    assert refused >= 10


def test_betti_1_agrees_four_ways():
    # homology against the closed form in f0 and f1 (d >= 4, and at d = 3
    # on handle-built entries), the cycle rank of the filling's dual graph
    # and the ledger's length (d >= 4), on closed connected members of K(d)
    ways = 0
    for name, X in select("closed", "kd", without=("disconnected",)):
        d, (f0, f1), beta1 = X.dimension, X.f_vector()[:2], homology_profile(X).betti[1]
        if d >= 4 or (d == 3 and "handle-built" in tags_of(name)):
            q, r = divmod(f1 - (d + 1) * f0, comb(d + 2, 2))
            assert (r, q + 1) == (0, beta1), name
            ways += 1
        if d >= 4:
            dual = surgery._filling(X).dual_graph()
            trees = list(spanning_forest(dual.nodes, dual.adjacency()).values()).count(None)
            assert len(dual.edges) - len(dual.nodes) + trees == beta1, name
            assert len(kalai_decompose(X).handles) == beta1, name
    assert ways >= 20
    # the closed form fails at d = 3 off the handle-built entries
    X = get("∂C(4, 9)")
    assert (X.f_vector()[1] - 4 * 9) // 10 + 1 == 1 != homology_profile(X).betti[1]


HANDLE_DELETION_CUTS = "a927cb69a559b39624c3f7aebbae426b34e21f9928561fcbd9373c05953f2116"


def test_handle_deletion_pinned(sphere_cuts):
    # sha256 of every cut complex and bijection of the corpus; any change
    # in how a star is split, a side chosen or a clone named moves it
    rows = [[cut.facets, psi] for _, cuts in sphere_cuts for _, (cut, psi) in cuts]
    assert len(rows) == 300
    doc = json.dumps(rows)
    assert hashlib.sha256(doc.encode()).hexdigest() == HANDLE_DELETION_CUTS


# ------------------------------------------------- error handling in the cut

C_SPHERE = ("c1", "c2", "c3", "c4", "c5")


def test_cut_lets_programming_errors_through(m4_15, monkeypatch):
    def broken(*args):
        raise TypeError("patched")

    monkeypatch.setattr(SimplicialComplex, "connected_components", broken)
    with pytest.raises(TypeError):
        handle_deletion(m4_15, C_SPHERE)
    monkeypatch.undo()
    monkeypatch.setattr("walkup.surgery.handle_addition", broken)
    with pytest.raises(TypeError):
        handle_deletion(m4_15, C_SPHERE)


def test_cut_reattachment_failure_is_validation_failure(m4_15, monkeypatch):
    def refuse(*args):
        raise NotAdmissible("patched")

    monkeypatch.setattr("walkup.surgery.handle_addition", refuse)
    with pytest.raises(CutValidationFailed):
        handle_deletion(m4_15, C_SPHERE)
