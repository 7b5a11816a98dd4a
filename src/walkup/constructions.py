"""Built-in generators.

The 30-vertex stacked 5-ball, its boundary 4-sphere, and the 15-vertex
quotient manifolds are constructed generatively (the quotient through
three admissible handle additions); random stacked spheres grow by
seeded facet subdivision.  Primed vertex labels use a plain "p" suffix
("a1p" for a1'), matching the label grammar.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations

from .complex import SimplicialComplex, from_facets
from .errors import InvalidParameters
from .rng import SplitMix64
from .stacked import stack_star
from .surgery import VertexBijection, bijection_from_map, handle_addition

# The 25 facets of the stacked 5-ball, keyed by their conventional names.
B5_30_NAMED_FACETS: dict[str, str] = {
    "delta": "a1 a2 b1 b2 c2 c1",
    "alpha1": "a1 a2 a4 b1 b2 c2",
    "alpha2": "a1 a2 a3 a4 b1 b2",
    "alpha3": "a1 a2 a3 a4 a5 b1",
    "alpha4": "a2 a3 a4 a5 b1 c5p",
    "alpha5": "a3 a4 a5 b1 c5p c4p",
    "alpha6": "a3 a4 a5 c3p c4p c5p",
    "alpha7": "a3 a5 c2p c3p c4p c5p",
    "alpha8": "c1p c2p c3p c4p c5p a3",
    "lambda1": "a1 a2 b2 c1 c2 c4",
    "lambda2": "a1 a2 c1 c2 c3 c4",
    "lambda3": "a1 c1 c2 c3 c5 c4",
    "lambda4": "a1 c2 c3 c4 c5 b5p",
    "lambda5": "a1 c3 c4 c5 b4p b5p",
    "lambda6": "c3 c4 c5 b3p b4p b5p",
    "lambda7": "c3 c5 b2p b3p b4p b5p",
    "lambda8": "b1p b2p b3p b4p b5p c3",
    "gamma1": "a2 b1 b2 b4 c2 c1",
    "gamma2": "b1 b2 b3 b4 c1 c2",
    "gamma3": "b1 b2 b3 b4 b5 c1",
    "gamma4": "a5p b2 b3 b5 b4 c1",
    "gamma5": "a4p a5p b3 b4 b5 c1",
    "gamma6": "a3p a4p a5p b3 b5 b4",
    "gamma7": "a2p a3p a4p a5p b3 b5",
    "gamma8": "a1p a2p a3p a4p a5p b3",
}

_IDENTIFY = {f"{x}{i}p": f"{x}{i}" for x in "abc" for i in range(1, 6)}


def standard_sphere(d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-simplex: all (d+1)-subsets of d+2 vertices."""
    if d < 0:
        raise InvalidParameters(f"need d >= 0, got {d}")
    labels = [f"v{i}" for i in range(1, d + 3)]
    return SimplicialComplex(combinations(labels, d + 1))


def build_b5_30() -> SimplicialComplex:
    """The 30-vertex stacked 5-ball with 25 facets."""
    return from_facets(f.split() for f in B5_30_NAMED_FACETS.values())


def build_s4_30() -> SimplicialComplex:
    """The 30-vertex stacked 4-sphere bounding the 5-ball."""
    return build_b5_30().boundary_complex()


def _identification_bijections() -> list[VertexBijection]:
    return [
        bijection_from_map({f"{x}{i}p": f"{x}{i}" for i in range(1, 6)})
        for x in "abc"
    ]


def build_m4_15() -> SimplicialComplex:
    """The 15-vertex 4-manifold: three handle additions on the 4-sphere.

    Each identification glues the primed copy of an a/b/c block onto the
    unprimed one; admissibility is enforced by handle_addition itself at
    every step.
    """
    X = build_s4_30()
    for psi in _identification_bijections():
        X = handle_addition(X, psi)
    return X


def build_n5_15() -> SimplicialComplex:
    """The 15-vertex 5-ball quotient: the same identifications applied
    directly to the facets of the 30-vertex ball.  Its boundary is the
    15-vertex manifold."""
    facets = [
        tuple(sorted(_IDENTIFY.get(v, v) for v in f.split()))
        for f in B5_30_NAMED_FACETS.values()
    ]
    return SimplicialComplex(facets)


def random_stacked_sphere(d: int, n: int, seed: int) -> SimplicialComplex:
    """Grow a stacked d-sphere on n vertices by repeated facet subdivision.

    Starting from the standard sphere, n-(d+2) times a facet is chosen
    uniformly (SplitMix64 stream, facets in canonical order) and starred
    from a new vertex.  Equal seeds give identical complexes.  The facet
    list is kept sorted in place, so one complex is built at the end.
    """
    if d < 1 or n < d + 2:
        raise InvalidParameters(f"need d >= 1 and n >= d+2, got d={d}, n={n}")
    rng = SplitMix64(seed)
    facets = list(standard_sphere(d).facets)
    for step in range(n - (d + 2)):
        chosen = facets.pop(rng.next_below(len(facets)))
        for f in stack_star(chosen, f"v{d + 3 + step}"):
            insort(facets, f)
    return SimplicialComplex(facets)
