"""Recognition and reduction of stacked balls and spheres.

Two independent recognizers are provided for spheres of dimension >= 2:
the clique-complex route (the clique complex of a stacked sphere is a
stacked ball whose boundary is the sphere) and the vertex-reduction
route (repeatedly unstack minimum-degree vertices and inspect the
residue).  They must agree; tests cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import Face, SimplicialComplex, is_standard_sphere
from .errors import (
    DegreeTooHigh,
    MixedDimensions,
    TooFewVertices,
    UnknownVertex,
    WalkupError,
)


@dataclass(frozen=True)
class ReductionStep:
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
    False.
    """
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
    if not cliques.is_pure or cliques.dimension != d + 1:
        return False
    try:
        ball = cliques.as_complex()
    except MixedDimensions:
        return False
    if not is_stacked_ball(ball):
        return False
    try:
        return ball.boundary_complex() == X
    except WalkupError:
        return False


def reduce_once(X: SimplicialComplex, x: str) -> SimplicialComplex:
    """Remove a degree-(d+1) vertex, replacing its star by its neighbor facet."""
    d = X.dimension
    if x not in X.vertices:
        raise UnknownVertex(f"unknown vertex {x!r}")
    if len(X.vertices) <= d + 2:
        raise TooFewVertices(f"only {len(X.vertices)} vertices, cannot reduce")
    neighbors = X.adjacency()[x]
    if len(neighbors) != d + 1:
        raise DegreeTooHigh(
            f"vertex {x!r} has degree {len(neighbors)}, need exactly {d + 1}"
        )
    sigma = tuple(sorted(neighbors))
    kept = [f for f in X.facets if x not in f]
    return SimplicialComplex(set(kept) | {sigma})


def reduce_to_core(
    X: SimplicialComplex,
) -> tuple[SimplicialComplex, list[ReductionStep]]:
    """Unstack minimum-degree vertices until none remain.

    At each step the lexicographically smallest vertex of degree d+1 is
    removed, which makes the step list deterministic.  The residue equals
    the standard sphere exactly when the input was a stacked sphere.
    """
    d = X.dimension
    steps: list[ReductionStep] = []
    cur = X
    while len(cur.vertices) > d + 2:
        adj = cur.adjacency()
        candidates = [v for v in cur.vertices if len(adj[v]) == d + 1]
        if not candidates:
            break
        x = candidates[0]
        sigma = tuple(sorted(adj[x]))
        cur = reduce_once(cur, x)
        steps.append(ReductionStep(removed_vertex=x, replacing_facet=sigma))
    return cur, steps


def replay_reductions(
    residue: SimplicialComplex, steps: list[ReductionStep]
) -> SimplicialComplex:
    """Invert reduce_to_core: re-attach each removed vertex over its facet."""
    cur = residue
    for step in reversed(steps):
        sigma = step.replacing_facet
        x = step.removed_vertex
        if sigma not in cur.facet_set:
            raise UnknownVertex(f"replacing facet {sigma} missing during replay")
        star = [
            tuple(sorted(sigma[:i] + sigma[i + 1:] + (x,)))
            for i in range(len(sigma))
        ]
        cur = SimplicialComplex((set(cur.facets) - {sigma}) | set(star))
    return cur


def is_stacked_sphere_by_reduction(X: SimplicialComplex) -> bool:
    """Second recognizer: reduce to the core and test for a simplex boundary."""
    if X.is_empty or not X.is_closed_pseudomanifold():
        return False
    residue, _ = reduce_to_core(X)
    return is_standard_sphere(residue) and residue.is_closed_pseudomanifold()
