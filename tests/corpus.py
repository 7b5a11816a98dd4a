"""The test corpus: named complexes with tags, in one order, and the
builders they are made by.  Each builder runs once per session.  Twin
tests pick entries by tag with select(), pinned tests by name with get().

The tags: closed, boundary (dimension >= 1, every ridge in one or two
facets, some in one), disconnected (so is the empty complex), kd
(in_walkup_class), stacked (by both recognizers), neighborly
(2-neighborly), tight and not-tight (the exhaustive scan's verdict, on
exactly the entries of at most 15 vertices) and orientable, each checked
against the library in test_corpus.py; and handle-built, how the entry
was made: from a stacked sphere by handle additions.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations
from typing import Callable

from walkup import (
    SimplicialComplex,
    build_b5_30,
    build_m4_15,
    build_n5_15,
    build_s4_30,
    connected_sum,
    disjoint_union,
    find_admissible_bijection,
    from_facets,
    handle_addition,
    handle_deletion,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.rng import SplitMix64
from walkup.stacked import stack_star

TAGS = frozenset("closed boundary disconnected kd handle-built stacked neighborly tight "
                 "not-tight orientable".split())


# ------------------------------------------------------------------ builders

def rp2_6() -> SimplicialComplex:
    """The 6-vertex real projective plane (non-orientable, chi = 1)."""
    return from_facets("125 126 134 136 145 235 234 246 356 456".split())


def torus_7() -> SimplicialComplex:
    """The 7-vertex torus (orientable, chi = 0, 2-neighborly)."""
    return from_facets([f"t{i}", f"t{(i + j) % 7}", f"t{(i + 3) % 7}"]
                       for i in range(7) for j in (1, 2))


def grid_torus() -> SimplicialComplex:
    """The 9-vertex 3x3 grid torus: Betti numbers (1, 2, 1)."""
    return from_facets([f"g{(i + a) % 3}{(j + b) % 3}" for a, b in ((0, 0), step, (1, 1))]
                       for i in range(3) for j in range(3) for step in ((1, 0), (0, 1)))


def cyclic_polytope_boundary(dim: int, n: int) -> SimplicialComplex:
    """Boundary of the cyclic polytope C(dim, n) via Gale's evenness condition."""
    def even(s):
        outside = combinations([v for v in range(1, n + 1) if v not in s], 2)
        return all(sum(i < k < j for k in s) % 2 == 0 for i, j in outside)

    return from_facets([f"p{i}" for i in s]
                       for s in combinations(range(1, n + 1), dim) if even(s))


def kuhnel_manifold(d: int) -> SimplicialComplex:
    """Kühnel's (2d+3)-vertex S^{d-1}-bundle over S^1.

    The boundary of the (d+1)-ball whose facets are the cyclic intervals
    {i, ..., i+d+1} mod 2d+3; 2-neighborly and tight.
    """
    m = 2 * d + 3
    ball = from_facets([f"k{(i + j) % m}" for j in range(d + 2)] for i in range(m))
    return ball.boundary_complex()


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-dimensional cross-polytope: one of +i, -i
    for each axis i.  Antipodes are no edge, so it is not 2-neighborly,
    and its group is the hyperoctahedral one, of order 2^(d+1) (d+1)!."""
    axes = [(f"p{i}", f"m{i}") for i in range(d + 1)]
    facets = [[pair[b >> i & 1] for i, pair in enumerate(axes)] for b in range(2 ** (d + 1))]
    return SimplicialComplex(tuple(sorted(f)) for f in facets)


def tube_sphere(d: int, n: int, seed: int) -> SimplicialComplex:
    """Stacked d-sphere grown along a path, with a large graph diameter,
    so it has admissible handle pairs at small n: each new vertex is
    stacked on a facet drawn from the sorted star of the previous one."""
    rng = SplitMix64(seed)
    facets = set(standard_sphere(d).facets)
    pool = sorted(facets)
    for step in range(n - (d + 2)):
        chosen = pool[rng.next_below(len(pool))]
        pool = sorted(stack_star(chosen, f"v{d + 3 + step}"))
        facets.remove(chosen)
        facets.update(pool)
    return SimplicialComplex(facets)


def find_handle_pair(X: SimplicialComplex):
    """First admissible facet-pair bijection of X, or None."""
    for f1, f2 in combinations(X.facets, 2):
        if set(f1) & set(f2):
            continue
        psi = find_admissible_bijection(X, f1, f2)
        if psi is not None:
            return psi
    return None


@cache
def tube_with_handle(d: int, n: int, seed: int):
    """(tube, tube plus its first admissible handle, the cut that deletes
    the handle again) for tube_sphere(d, n, seed), or None without a pair."""
    X = tube_sphere(d, n, seed)
    psi = find_handle_pair(X)
    if psi is None:
        return None
    Y = handle_addition(X, psi)
    return X, Y, handle_deletion(Y, psi.target_facet)[0]


def many_handles() -> SimplicialComplex:
    """tube_sphere(4, 180, 1) with 18 handles added greedily, each at the
    first admissible pair: f0 = 90, beta_1 = 18."""
    X = tube_sphere(4, 180, 1)
    for _ in range(18):
        X = handle_addition(X, find_handle_pair(X))
    return X


def two_spheres(wedged: bool) -> SimplicialComplex:
    """Two boundaries of tetrahedra, disjoint or sharing the vertex v1."""
    S = standard_sphere(2)
    glue = {"v1x": "v1"} if wedged else {}
    other = (tuple(sorted(glue.get(v + "x", v + "x") for v in f)) for f in S.facets)
    return SimplicialComplex(S.facets + tuple(other))


def prefixed_union(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """A and B side by side, their labels prefixed with a and b."""
    return from_facets([f"{tag}{v}" for v in f] for tag, X in (("a", A), ("b", B))
                       for f in X.facets)


def sum_at_least_facets(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """a # b (disjoint labels), glued along their least facets."""
    rename = dict(zip(b.facets[0], a.facets[0]))
    glued = [tuple(sorted(rename.get(v, v) for v in f)) for f in b.facets[1:]]
    return SimplicialComplex(list(a.facets[1:]) + glued)


def suspension(X: SimplicialComplex, poles=("north", "south")) -> SimplicialComplex:
    """The join of X with two points."""
    return SimplicialComplex(tuple(sorted(f + (p,))) for f in X.facets for p in poles)


def shuffled_labels(X: SimplicialComplex, seed: int) -> SimplicialComplex:
    """X with its own labels permuted by a seeded Fisher-Yates shuffle."""
    image, rng = list(X.vertices), SplitMix64(seed)
    for i in range(len(image) - 1, 0, -1):
        j = rng.next_below(i + 1)
        image[i], image[j] = image[j], image[i]
    rename = dict(zip(X.vertices, image))
    return SimplicialComplex(tuple(sorted(rename[v] for v in f)) for f in X.facets)


def reversed_labels(X: SimplicialComplex) -> SimplicialComplex:
    """X under labels that reverse the label order."""
    n = len(X.vertices)
    rename = {v: f"r{n - i:04d}" for i, v in enumerate(X.vertices)}
    return SimplicialComplex(tuple(sorted(rename[v] for v in f)) for f in X.facets)


# ------------------------------------------------------------------- entries

# name -> (builder, tags), in corpus order
ENTRIES: dict[str, tuple[Callable[[], SimplicialComplex], frozenset[str]]] = {}


def _add(name: str, build: Callable[[], SimplicialComplex], tags: str) -> None:
    assert name not in ENTRIES and TAGS.issuperset(tags.split()), name
    ENTRIES[name] = cache(build), frozenset(tags.split())


def _glue(a: str, b: str) -> SimplicialComplex:
    """The connected sum of two entries along their least facets."""
    A, B = get(a), get(b)
    return connected_sum(A, B, dict(zip(A.facets[0], B.facets[0])))


SPHERE = "closed kd stacked orientable"
UNION = "closed disconnected kd orientable"

# small, degenerate and singular complexes
_add("empty", lambda: SimplicialComplex(()), "disconnected tight")
_add("two points", lambda: from_facets([["p"], ["q"]]), "closed disconnected tight orientable")
_add("three points", lambda: SimplicialComplex([("a",), ("b",), ("c",)]), "disconnected tight")
_add("single facet", lambda: from_facets([["a", "b", "c"]]), "boundary neighborly tight")
_add("three triangles on an edge", lambda: from_facets(["abc", "abd", "abe"]), "not-tight")
_add("2-ball", lambda: from_facets(["abc", "acd", "ade"]), "boundary not-tight")
_add("cone over S2", lambda: SimplicialComplex(f + ("y",) for f in standard_sphere(2).facets),
     "boundary neighborly not-tight")
_add("hexagon", lambda: from_facets([f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)),
     "not-tight " + SPHERE)
_add("four-cycle", lambda: from_facets(["12", "23", "34", "41"]), "not-tight " + SPHERE)
_add("two cycles", lambda: from_facets(["12", "23", "13", "45", "56", "46"]), "tight " + UNION)
_add("S1 + four-cycle", lambda: disjoint_union(get("S1"), get("four-cycle"))[0],
     "not-tight " + UNION)
_add("wedge of two 2-spheres", partial(two_spheres, wedged=True), "closed not-tight orientable")
_add("two 2-spheres", partial(two_spheres, wedged=False), "tight " + UNION)
_add("two 3-spheres", lambda: prefixed_union(get("S3"), get("S3")), "tight " + UNION)
_add("S2 + stacked(2, 5, 2)", lambda: disjoint_union(
    get("S2"), random_stacked_sphere(2, 5, 2))[0], "not-tight " + UNION)
_add("S3 + stacked(3, 14, 2)", lambda: prefixed_union(
    get("S3"), random_stacked_sphere(3, 14, 2)), UNION)
_add("stacked(4, 9, 1) + stacked(4, 9, 2)", lambda: disjoint_union(
    random_stacked_sphere(4, 9, 1), random_stacked_sphere(4, 9, 2))[0], UNION)
_add("suspension of rp2_6", lambda: suspension(get("rp2_6"), ("n", "s")), "closed not-tight")

# standard spheres, surfaces, the paper's complexes and Kühnel's bundles
for _d in range(1, 6):
    _add(f"S{_d}", partial(standard_sphere, _d), "neighborly tight " + SPHERE)
_add("rp2_6", rp2_6, "closed kd neighborly tight")
_add("torus_7", torus_7, "closed kd neighborly tight orientable")
_add("grid torus", grid_torus, "closed kd not-tight orientable")
_add("m4-15", build_m4_15, "closed kd handle-built neighborly tight")
_add("s4-30", build_s4_30, SPHERE)
_add("b5-30", build_b5_30, "boundary")
_add("n5-15", build_n5_15, "boundary neighborly tight")
for _d in range(3, 8):
    _add(f"K{_d}", partial(kuhnel_manifold, _d),
         "closed kd neighborly" + " tight" * (_d < 7) + " orientable" * (_d % 2 == 0))

# 2-neighborly spheres that are not stacked, in K(3) and in no K(d), and
# spheres with non-stacked vertex links
for _d, _n in ((4, 7), (4, 8), (4, 9), (4, 12), (5, 9), (5, 10)):
    _add(f"∂C({_d}, {_n})", partial(cyclic_polytope_boundary, _d, _n),
         "closed neighborly not-tight orientable" + " kd" * (_d == 4))
_add("suspension of ∂C(4, 7)", lambda: suspension(get("∂C(4, 7)")),
     "closed not-tight orientable")
_add("cross-polytope 3-sphere", partial(cross_polytope_boundary, 3),
     "closed not-tight orientable")

# random stacked spheres, some with a boundary or summed with cyclic spheres
for _d, _n, _seed in (
    (2, 5, 5), (2, 6, 2), (2, 7, 0), (2, 8, 3), (2, 9, 1), (2, 9, 2), (2, 9, 3),
    (2, 11, 2), (2, 13, 13), (2, 23, 0), (2, 23, 5), (2, 23, 11), (2, 60, 2),
    (3, 6, 6), (3, 7, 5), (3, 8, 1), (3, 9, 3), (3, 9, 5), (3, 12, 3), (3, 16, 16),
    (3, 20, 1), (3, 30, 0), (3, 30, 5), (3, 30, 11), (3, 60, 3),
    (4, 7, 7), (4, 8, 1), (4, 10, 2), (4, 11, 4), (4, 12, 0), (4, 12, 1), (4, 12, 2),
    (4, 12, 4), (4, 13, 4), (4, 14, 1), (4, 14, 2), (4, 14, 3), (4, 14, 4),
    (4, 19, 19), (4, 37, 0), (4, 37, 5), (4, 37, 11), (4, 40, 5), (4, 60, 4),
    (5, 8, 8), (5, 14, 5), (5, 15, 5), (5, 16, 2), (5, 22, 22), (5, 60, 5), (6, 60, 6),
):
    _add(f"stacked({_d}, {_n}, {_seed})", partial(random_stacked_sphere, _d, _n, _seed),
         SPHERE + " not-tight" * (_n <= 15))
_add("stacked 3-ball", lambda: SimplicialComplex(
    random_stacked_sphere(2, 12, 4).clique_complex()), "boundary not-tight")
_add("stacked(3, 8, 1) less a facet", lambda: SimplicialComplex(
    get("stacked(3, 8, 1)").facets[1:]), "boundary not-tight")
_add("stacked(4, 10, 3) less two facets", lambda: SimplicialComplex(
    random_stacked_sphere(4, 10, 3).facets[2:]), "boundary not-tight")
_add("stacked(4, 12, 2) less a facet", lambda: SimplicialComplex(
    get("stacked(4, 12, 2)").facets[1:]), "boundary not-tight")
_add("stacked(4, 7, 7) # ∂C(5, 9)", lambda: sum_at_least_facets(
    get("stacked(4, 7, 7)"), get("∂C(5, 9)")), "closed not-tight orientable")
_add("stacked(4, 12, 12) # ∂C(5, 9)", lambda: sum_at_least_facets(
    random_stacked_sphere(4, 12, 12), get("∂C(5, 9)")), "closed orientable")
_add("stacked(3, 9, 2) # ∂C(4, 7)", lambda: sum_at_least_facets(
    random_stacked_sphere(3, 9, 2), get("∂C(4, 7)")), "closed kd not-tight orientable")

# tubes, with and without handles
for _n, _seed in ((16, 1), (16, 2), (26, 0), (26, 1), (26, 2)):
    _add(f"tube(4, {_n}, {_seed})", partial(tube_sphere, 4, _n, _seed),
         SPHERE + " not-tight" * (_n <= 15))
_add("tube sum", lambda: _glue("tube(4, 16, 1)", "tube(4, 16, 2)"), SPHERE)
for _d, _n, _seed, _more in ((4, 26, 1, ""), (4, 26, 2, ""), (3, 30, 0, "orientable"),
                             (3, 30, 1, ""), (3, 30, 2, "orientable"), (3, 30, 3, "")):
    _add(f"tube({_d}, {_n}, {_seed})+1", lambda t=(_d, _n, _seed): tube_with_handle(*t)[1],
         "closed kd handle-built " + _more)
_add("tube(4, 26, 1)+1 cut", lambda: tube_with_handle(4, 26, 1)[2], SPHERE)
_add("many handles", many_handles, "closed kd handle-built")
_add("K4 # m4-15", lambda: _glue("K4", "m4-15"), "closed kd")


def get(name: str) -> SimplicialComplex:
    return ENTRIES[name][0]()


def tags_of(name: str) -> frozenset[str]:
    return ENTRIES[name][1]


def select(*tags: str, without=(), max_f0=None) -> list[tuple[str, SimplicialComplex]]:
    """(name, complex) of each entry with all of tags, none of without and
    at most max_f0 vertices, in corpus order."""
    assert TAGS.issuperset(tags) and TAGS.issuperset(without), (tags, without)
    picked = [(name, build()) for name, (build, has) in ENTRIES.items()
              if has.issuperset(tags) and has.isdisjoint(without)]
    return [(name, X) for name, X in picked if max_f0 is None or len(X.vertices) <= max_f0]


def face_layer_inputs() -> list[tuple[str, SimplicialComplex]]:
    """The entries up to 15 vertices, and b5-30."""
    return select(max_f0=15) + [("b5-30", get("b5-30"))]
