"""Recognition and reduction of stacked balls and spheres.

Two independent recognizers are provided for spheres of dimension >= 2:
the clique-complex route (the clique complex of a stacked sphere is a
stacked ball whose boundary is the sphere) and the vertex-reduction
route (repeatedly unstack minimum-degree vertices and inspect the
residue).  They must agree; tests cross-check them.  `walkup check
stacked` decides with the clique route alone.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .complex import Face, SimplicialComplex, is_standard_sphere
from .errors import NotClosedPseudomanifold


class ReductionStep(NamedTuple):
    """One unstacking move: removed vertex and the facet that replaced its star."""

    removed_vertex: str
    replacing_facet: Face


def is_stacked_ball(X: SimplicialComplex) -> bool:
    """Weak pseudomanifold with boundary whose dual graph is a tree."""
    if X.is_empty:
        return False
    dg = X.dual_graph()
    if not dg.is_weak_pseudomanifold or dg.is_closed:
        return False
    return dg.is_tree()


def is_stacked_sphere(X: SimplicialComplex) -> bool:
    """True iff X is a stacked d-sphere (boundary of a stacked (d+1)-ball).

    For d >= 2 the 1-skeleton determines the sphere: the clique complex
    must be a stacked (d+1)-ball whose boundary is exactly X.  For d = 1
    every single cycle qualifies.  Arbitrary pure complexes simply return
    False.  The verdict is memoized on X, like its vertex links, so a
    second membership test of one complex reads one cached verdict per
    link instead of rebuilding each ball.
    """
    return X._memo("stacked_sphere", lambda: _stacked_sphere(X))


def _stacked_sphere(X: SimplicialComplex) -> bool:
    if X.is_empty:
        return False
    d = X.dimension
    if d < 1:
        return False
    if d == 1:
        return (
            X.is_connected()
            and X.is_closed_pseudomanifold()
            and all(X.degree(v) == 2 for v in X.vertices)
        )
    cliques = X.clique_complex()
    if any(len(c) != d + 2 for c in cliques):
        return False
    ball = SimplicialComplex(cliques)
    if not is_stacked_ball(ball):
        return False
    # X is the ball's boundary iff its facets are the ridges in one facet
    ridges = ball.dual_graph().ridge_incidence
    boundary = [r for r, fs in ridges.items() if len(fs) == 1]
    return len(boundary) == len(X.facets) and X.facet_set.issuperset(boundary)


def reduce_to_core(
    X: SimplicialComplex,
) -> tuple[SimplicialComplex, list[ReductionStep]]:
    """Unstack minimum-degree vertices until none remain.

    At each step the lexicographically smallest vertex x of degree d+1 is
    removed and its star replaced by the facet N(x), which makes the step
    list deterministic.  X must be a closed weak pseudomanifold (a ball
    can unstack to a simplex boundary); for d >= 1 the residue is then
    the standard sphere exactly when X is a stacked sphere.

    The steps run in place: the facet set, the facets through each
    vertex and the neighbour sets are updated locally (x leaves, N(x)
    becomes a clique), and a min-heap holds the labels whose degree is
    d+1, stale entries being skipped when popped.  One complex is built
    at the end (none if nothing reduces).
    """
    if not X.is_closed_pseudomanifold():
        raise NotClosedPseudomanifold("unstacking needs a closed complex")
    d = X.dimension
    adj = {v: set(ns) for v, ns in X.adjacency().items()}
    facets = set(X.facets)
    star: dict[str, set[Face]] = {v: set() for v in X.vertices}
    for f in facets:
        for v in f:
            star[v].add(f)
    heap = [v for v in X.vertices if len(adj[v]) == d + 1]  # sorted, so a heap
    steps: list[ReductionStep] = []
    while len(adj) > d + 2 and heap:
        x = heapq.heappop(heap)
        if x not in adj or len(adj[x]) != d + 1:
            continue
        neighbors = adj.pop(x)
        sigma = tuple(sorted(neighbors))
        for f in star.pop(x):
            facets.remove(f)
            for v in f:
                if v != x:
                    star[v].discard(f)
        facets.add(sigma)  # a no-op if sigma is already a facet
        for v in sigma:
            star[v].add(sigma)
        for y in neighbors:
            ns = adj[y]
            ns.discard(x)
            ns.update(neighbors)
            ns.discard(y)
            if len(ns) == d + 1:
                heapq.heappush(heap, y)
        steps.append(ReductionStep(removed_vertex=x, replacing_facet=sigma))
    return (SimplicialComplex(facets) if steps else X), steps


def stack_star(sigma: Face, x: str) -> list[Face]:
    """The d+1 facets that replace the facet sigma when x is stacked on it."""
    return [
        tuple(sorted(sigma[:i] + sigma[i + 1:] + (x,))) for i in range(len(sigma))
    ]


def is_stacked_sphere_by_reduction(X: SimplicialComplex) -> bool:
    """Second recognizer: reduce to the core and test for a simplex
    boundary.  Like is_stacked_sphere, it calls no complex below
    dimension 1 stacked."""
    if X.dimension < 1 or not X.is_closed_pseudomanifold():
        return False
    residue, _ = reduce_to_core(X)
    return is_standard_sphere(residue) and residue.is_closed_pseudomanifold()
