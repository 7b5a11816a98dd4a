"""Shared fixtures: the named complexes, read from the corpus module;
reference data read by the construction checks; the twins of the
memoized vertex links and of unstacking; the twin of the cut's sphere
test; and the twins of the filling and of the decomposition's sphere
search and separation test."""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

import pytest

from walkup import SimplicialComplex, is_stacked_ball
from walkup.complex import Face, spanning_forest
from walkup.constructions import B5_30_NAMED_FACETS
from walkup.errors import DimensionTooLow
from walkup.stacked import ReductionStep, stack_star

from corpus import get


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
    return get("b5-30")


@pytest.fixture(scope="session")
def s4_30():
    return get("s4-30")


@pytest.fixture(scope="session")
def m4_15():
    return get("m4-15")


@pytest.fixture(scope="session")
def n5_15():
    return get("n5-15")


@pytest.fixture(scope="session")
def rp2_6():
    return get("rp2_6")


@pytest.fixture(scope="session")
def torus_7():
    return get("torus_7")


@pytest.fixture(scope="session")
def many_handles():
    return get("many handles")


def b5_30_facet(name: str) -> tuple[str, ...]:
    """The named facet of b5-30."""
    return tuple(sorted(B5_30_NAMED_FACETS[name].split()))


def n5_15_facet(name: str) -> tuple[str, ...]:
    """The named facet of b5-30 with each primed vertex identified with
    its unprimed one, as in n5-15."""
    return tuple(sorted(v.removesuffix("p") for v in B5_30_NAMED_FACETS[name].split()))


# ------------------------------------------ twins of links and of unstacking

def link(X: SimplicialComplex, face) -> SimplicialComplex:
    """The link of a face of X by a scan of every facet: the residues of
    the facets that contain it (the twin of the memoized vertex_link)."""
    fset = set(face)
    return SimplicialComplex({
        tuple(v for v in facet if v not in fset)
        for facet in X.facets
        if fset.issubset(facet) and len(facet) > len(fset)
    })


def reduce_once(X: SimplicialComplex, x: str) -> SimplicialComplex:
    """X with the degree-(d+1) vertex x unstacked, rebuilt from its facets:
    the star of x is replaced by the facet of its neighbours (one step of
    reduce_to_core)."""
    neighbors = X.adjacency()[x]
    assert len(neighbors) == X.dimension + 1, (x, len(neighbors))
    kept = {f for f in X.facets if x not in f}
    return SimplicialComplex(kept | {tuple(sorted(neighbors))})


def replay_reductions(
    residue: SimplicialComplex, steps: list[ReductionStep]
) -> SimplicialComplex:
    """The inverse of reduce_to_core: each removed vertex, last first,
    stacked again on the facet that replaced its star."""
    facets = set(residue.facets)
    for step in reversed(steps):
        facets.remove(step.replacing_facet)
        facets.update(stack_star(step.replacing_facet, step.removed_vertex))
    return SimplicialComplex(facets)


# ----------------------------------------------- twin of the cut's sphere test

# handle_deletion reads whether its set induces a standard sphere off the
# dual graph it cuts; these test the set against the face index instead.

def has_face(X: SimplicialComplex, face) -> bool:
    """Is the vertex set a face of X?"""
    f = tuple(sorted(face))
    return f in X.face_index(len(f) - 1)


def induces_standard_sphere(X: SimplicialComplex, subset) -> bool:
    """True iff X[subset] consists of all proper subsets of the subset.

    The subset must have d+2 vertices for a (d)-sphere check relative to
    its own size: every proper subset a face of X, the whole set not.
    Faces are closed under subsets, so the (|S|-1)-subsets decide every
    proper one.  A set of fewer than two vertices bounds no simplex of
    dimension 1 or more, so it is never a sphere.
    """
    s = tuple(sorted(set(subset)))
    if len(s) < 2 or has_face(X, s):
        return False
    return all(has_face(X, t) for t in combinations(s, len(s) - 1))


# --------------------------------------------- twins of the filling and its cut

def filling_by_definition(X: SimplicialComplex) -> SimplicialComplex:
    """The filling of X: the (d+1)-complex of the (d+2)-sets of vertices
    all of whose triangles are faces of X, by brute force over the sets
    (Bagchi and Datta, Europ. J. Combin. 36, 2014)."""
    triangles = X.face_index(2)
    return SimplicialComplex(
        s for s in combinations(X.vertices, X.dimension + 2)
        if all(t in triangles for t in combinations(s, 3))
    )


def in_class_by_filling(X: SimplicialComplex) -> bool:
    """The filling test of K(d) membership: the filling's boundary is X
    and each of its vertex links is a stacked ball."""
    filling = filling_by_definition(X)
    return (
        not filling.is_empty
        and all(is_stacked_ball(filling.vertex_link(v)) for v in filling.vertices)
        and filling.boundary_complex() == X
    )


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
