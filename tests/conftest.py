"""Shared fixtures: the named complexes, reference data read by the
construction checks, small test-corpus generators, and the twins of the
decomposition's sphere search and separation test."""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

import pytest

from walkup import (
    SimplicialComplex,
    build_b5_30,
    build_m4_15,
    build_n5_15,
    build_s4_30,
    find_admissible_bijection,
    from_facets,
    handle_addition,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.complex import Face, induces_standard_sphere, spanning_forest
from walkup.constructions import B5_30_NAMED_FACETS
from walkup.errors import DimensionTooLow
from walkup.rng import SplitMix64
from walkup.stacked import stack_star


# ------------------------------------------------------------ reference data

# Frozen facet list of m4-15, kept apart from the generative construction
# in constructions.build_m4_15 so that transcription and construction check
# each other: the generated facet set must equal this one exactly.
M4_15_FACETS: tuple[str, ...] = (
    "a1 a2 b1 b2 c1", "a1 b1 b2 c1 c2", "a1 a2 b1 c1 c2",
    "a1 a2 a4 b1 c2", "a2 b1 b2 b4 c1", "a1 b2 c1 c2 c4",
    "a1 a2 a4 b2 c2", "a2 b1 b2 b4 c2", "a2 b2 c1 c2 c4",
    "a1 a4 b1 b2 c2", "a2 b1 b4 c1 c2", "a1 a2 b2 c1 c4",
    "a1 a2 b2 c2 c4", "a2 a4 b1 b2 c2", "a2 b2 b4 c1 c2",
    "a1 a2 a3 a4 b2", "b1 b2 b3 b4 c2", "a2 c1 c2 c3 c4",
    "a1 a2 a3 b1 b2", "b1 b2 b3 c1 c2", "a1 a2 c1 c2 c3",
    "a1 a2 c1 c3 c4", "a1 a3 a4 b1 b2", "b1 b3 b4 c1 c2",
    "a1 a2 c2 c3 c4", "a2 a3 a4 b1 b2", "b2 b3 b4 c1 c2",
    "a1 a2 a3 a5 b1", "b1 b2 b3 b5 c1", "a1 c1 c2 c3 c5",
    "a1 a2 a4 a5 b1", "b1 b2 b4 b5 c1", "a1 c1 c2 c4 c5",
    "a1 a3 a4 a5 b1", "b1 b3 b4 b5 c1", "a1 c1 c3 c4 c5",
    "a2 a3 a4 a5 c5", "a5 b2 b3 b4 b5", "b5 c2 c3 c4 c5",
    "a2 a3 a4 b1 c5", "a5 b2 b3 b4 c1", "a1 b5 c2 c3 c4",
    "a2 a3 a5 b1 c5", "a5 b2 b3 b5 c1", "a1 b5 c2 c3 c5",
    "a2 a4 a5 b1 c5", "a5 b2 b4 b5 c1", "a1 b5 c2 c4 c5",
    "a3 a4 a5 b1 c4", "a4 b3 b4 b5 c1", "a1 b4 c3 c4 c5",
    "a3 a4 b1 c4 c5", "a4 a5 b3 b4 c1", "a1 b4 b5 c3 c4",
    "a3 a5 b1 c4 c5", "a4 a5 b3 b5 c1", "a1 b4 b5 c3 c5",
    "a4 a5 b1 c4 c5", "a4 a5 b4 b5 c1", "a1 b4 b5 c4 c5",
    "a3 a4 a5 c3 c4", "a3 a4 b3 b4 b5", "b3 b4 c3 c4 c5",
    "a3 a4 a5 c3 c5", "a3 a5 b3 b4 b5", "b3 b5 c3 c4 c5",
    "a3 a4 c3 c4 c5", "a3 a4 a5 b3 b4", "b3 b4 b5 c3 c4",
    "a4 a5 c3 c4 c5", "a3 a4 a5 b4 b5", "b3 b4 b5 c4 c5",
    "a3 a5 c2 c3 c4", "a2 a3 a4 b3 b5", "b2 b3 b4 c3 c5",
    "a3 a5 c2 c3 c5", "a2 a3 a5 b3 b5", "b2 b3 b5 c3 c5",
    "a3 a5 c2 c4 c5", "a2 a4 a5 b3 b5", "b2 b4 b5 c3 c5",
    "a2 a3 a4 a5 b5", "b2 b3 b4 b5 c5", "a5 c2 c3 c4 c5",
    "a1 a2 a3 a4 b3", "b1 b2 b3 b4 c3", "a3 c1 c2 c3 c4",
    "a1 a2 a3 a5 b3", "b1 b2 b3 b5 c3", "a3 c1 c2 c3 c5",
    "a1 a2 a4 a5 b3", "b1 b2 b4 b5 c3", "a3 c1 c2 c4 c5",
    "a1 a3 a4 a5 b3", "b1 b3 b4 b5 c3", "a3 c1 c3 c4 c5",
)

# Tree edges of the dual graph: three facet paths hanging off delta.
B5_30_DUAL_TREE_EDGES: tuple[tuple[str, str], ...] = tuple(
    [("delta", "alpha1"), ("delta", "lambda1"), ("delta", "gamma1")]
    + [(f"alpha{i}", f"alpha{i+1}") for i in range(1, 8)]
    + [(f"lambda{i}", f"lambda{i+1}") for i in range(1, 8)]
    + [(f"gamma{i}", f"gamma{i+1}") for i in range(1, 8)]
)

# Extra dual adjacencies created by identifying the primed vertices.
N5_15_EXTRA_DUAL_EDGES: tuple[tuple[str, str], ...] = (
    ("alpha8", "lambda3"),
    ("lambda8", "gamma3"),
    ("gamma8", "alpha3"),
)


@pytest.fixture(scope="session")
def b5_30():
    return build_b5_30()


@pytest.fixture(scope="session")
def s4_30():
    return build_s4_30()


@pytest.fixture(scope="session")
def m4_15():
    return build_m4_15()


@pytest.fixture(scope="session")
def n5_15():
    return build_n5_15()


@pytest.fixture(scope="session")
def rp2_6():
    """The 6-vertex real projective plane (non-orientable, chi = 1)."""
    return from_facets(
        f.split()
        for f in (
            "1 2 5", "1 2 6", "1 3 4", "1 3 6", "1 4 5",
            "2 3 5", "2 3 4", "2 4 6", "3 5 6", "4 5 6",
        )
    )


@pytest.fixture(scope="session")
def torus_7():
    """The 7-vertex torus (orientable, chi = 0, 2-neighborly)."""
    facets = []
    for i in range(7):
        facets.append([f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"])
        facets.append([f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"])
    return from_facets(facets)


def cyclic_polytope_boundary(dim: int, n: int) -> SimplicialComplex:
    """Boundary of the cyclic polytope C(dim, n) via Gale's evenness condition."""
    verts = list(range(1, n + 1))
    facets = []
    for s in combinations(verts, dim):
        sset = set(s)
        ok = True
        for i in verts:
            if i in sset:
                continue
            for j in verts:
                if j <= i or j in sset:
                    continue
                if sum(1 for k in s if i < k < j) % 2 == 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            facets.append([f"p{i}" for i in s])
    return from_facets(facets)


def kuhnel_manifold(d: int) -> SimplicialComplex:
    """Kühnel's (2d+3)-vertex S^{d-1}-bundle over S^1.

    The boundary of the (d+1)-ball whose facets are the cyclic intervals
    {i, ..., i+d+1} mod 2d+3; 2-neighborly and tight.
    """
    m = 2 * d + 3
    ball = from_facets(
        [f"k{(i + j) % m}" for j in range(d + 2)] for i in range(m)
    )
    return ball.boundary_complex()


def face_layer_corpus(m4_15, torus_7, rp2_6, b5_30):
    """(name, complex): empty, points, a singular edge, balls, a cycle,
    the named manifolds and stacked spheres of dimensions 2 to 5."""
    yield "empty", SimplicialComplex(())
    yield "single facet", from_facets([["a", "b", "c"]])
    yield "three points", from_facets([["p"], ["q"], ["r"]])
    yield "two points", from_facets([["p"], ["q"]])
    yield "three triangles on an edge", from_facets(
        [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]
    )
    yield "b5_30", b5_30
    yield "stacked 3-ball", SimplicialComplex(
        random_stacked_sphere(2, 12, seed=4).clique_complex()
    )
    yield "cycle", from_facets([["1", "2"], ["2", "3"], ["1", "3"]])
    yield "m4_15", m4_15
    yield "torus_7", torus_7
    yield "rp2_6", rp2_6
    for d in (2, 3, 4, 5):
        yield f"stacked {d}-sphere", random_stacked_sphere(d, 3 * d, seed=d)


def b5_30_facet(name: str) -> tuple[str, ...]:
    """The named facet of b5-30."""
    return tuple(sorted(B5_30_NAMED_FACETS[name].split()))


def n5_15_facet(name: str) -> tuple[str, ...]:
    """The named facet of b5-30 with each primed vertex identified with
    its unprimed one, as in n5-15."""
    return tuple(sorted(v.removesuffix("p") for v in B5_30_NAMED_FACETS[name].split()))


def tube_sphere(d: int, n: int, seed: int) -> SimplicialComplex:
    """Stacked d-sphere grown along a path: long tube, large graph diameter.

    Used where admissible handle pairs are needed; uniform growth keeps
    the skeleton too shallow for distance-3 pairs at small n.  Each new
    vertex is stacked on a facet drawn from the sorted star of the
    previous one (any facet at the first step), in place on one facet set.
    """
    rng = SplitMix64(seed)
    facets = set(standard_sphere(d).facets)
    pool = sorted(facets)
    for step in range(n - (d + 2)):
        chosen = pool[rng.next_below(len(pool))]
        pool = sorted(stack_star(chosen, f"v{d + 3 + step}"))
        facets.remove(chosen)
        facets.update(pool)
    return SimplicialComplex(facets)


@pytest.fixture(scope="session")
def many_handles():
    """tube_sphere(4, 180, 1) with 18 handles added greedily, each at the
    first admissible pair: f0 = 90, beta_1 = 18."""
    X = tube_sphere(4, 180, 1)
    for _ in range(18):
        X = handle_addition(X, find_handle_pair(X))
    return X


def find_handle_pair(X: SimplicialComplex):
    """First admissible facet-pair bijection of X, or None."""
    for f1, f2 in combinations(X.facets, 2):
        if set(f1) & set(f2):
            continue
        psi = find_admissible_bijection(X, f1, f2)
        if psi is not None:
            return psi
    return None


# ---------------------------------------------- twins of the filling's cut

# kalai_decompose reads the spheres it may cut, and whether each
# separates, off the filling's dual graph; these two are the direct
# search and test it replaced, kept as its twins.

def find_induced_standard_spheres(X: SimplicialComplex) -> list[tuple[str, ...]]:
    """All (d+1)-vertex sets inducing a standard (d-1)-sphere, sorted.

    Each set S is found once, from its least vertex x: every 3-subset of
    S is a face (d >= 3), so S - x is a d-clique in the edge graph of
    the link of x, and it is not a facet of that link since S is not a
    face.  The candidates at x are therefore the d-subsets of the link's
    maximal cliques, restricted to vertices above x, that are not link
    facets; each is then verified against the face set of X.  This is
    complete on every input, and the links and their clique complexes
    are the memoized ones in_walkup_class reads too.
    """
    d = X.dimension
    if d < 3:
        raise DimensionTooLow(f"need dimension >= 3, got {d}")
    found: list[tuple[str, ...]] = []
    for x in X.vertices:
        link = X.vertex_link(x)
        candidates: set[Face] = set()
        for clique in link.clique_complex():
            candidates.update(combinations(clique[bisect_right(clique, x):], d))
        for sigma in candidates.difference(link.facet_set):
            s = (x,) + sigma
            if induces_standard_sphere(X, s):
                found.append(s)
    return sorted(found)


def separates(
    Y: SimplicialComplex, adj: dict[Face, dict[Face, Face]], sphere: Face
) -> bool:
    """True iff the dual graph of the connected closed complex Y falls
    apart without its edges across the d+1 ridges inside the sphere.

    Those are exactly the edges handle_deletion severs, and the vertex
    stars of a member of K(d) are connected, so there this says whether
    the cut along the sphere is disconnected, without cutting.  One
    spanning_forest from the first facet decides it.  adj is
    Y.dual_graph().adjacency(), built once per complex by the caller; it
    is not modified; the edges across the sphere are dropped by ridge.
    """
    incidence = Y.dual_graph().ridge_incidence
    cut_adj = dict(adj)
    for ridge in combinations(sphere, len(sphere) - 1):
        for f in incidence[ridge]:
            cut_adj[f] = {g: r for g, r in cut_adj[f].items() if r != ridge}
    return len(spanning_forest(Y.facets[:1], cut_adj)) != len(Y.facets)
