"""Automorphisms and isomorphisms of small complexes.

Backtracking over vertex images with complex.injective_maps, pruned by
an iterated partition refinement on (vertex degree, incident edge
degrees) and by adjacency and edge degree to the neighbours already
mapped; a complete map is kept iff it carries the facets of X onto
those of Y.  The prune reads only v's neighbours, not every mapped
vertex, so a step costs the degree of v however large the complex.
The edge degree of uv is the number of vertices in the link of uv,
which any facet-preserving map must conserve; on 2-neighborly
complexes this is the prune that matters, since adjacency alone says
nothing there.  Colours are int ids from one signature table
shared by the two complexes of a search, so a round hashes and sorts
pairs of small ints however many rounds came before (McKay and Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).
"""

from __future__ import annotations

from itertools import combinations, islice

from .complex import SimplicialComplex, injective_maps

Permutation = dict[str, str]


def _edge_degrees(X: SimplicialComplex) -> dict[str, dict[str, int]]:
    """Each vertex's neighbours, each with the degree of the edge to it."""
    deg: dict[tuple[str, str], int] = dict.fromkeys(X.face_index(1), 0)
    for tri in X.face_index(2):
        for e in combinations(tri, 2):
            deg[e] += 1
    nbrs: dict[str, dict[str, int]] = {v: {} for v in X.vertices}
    for (u, v), k in deg.items():
        nbrs[u][v] = nbrs[v][u] = k
    return nbrs


def _refine_colours(
    X: SimplicialComplex, nbrs: dict[str, dict[str, int]], ids: dict
) -> dict[str, int]:
    """The stable colour of each vertex, as an id from the table ids.

    A vertex starts with its sorted edge degrees; each round's signature
    is its colour and the sorted (neighbour colour, edge degree) pairs.
    The round-0 signatures are tuples of ints and the later ones pairs
    (int, tuple), so no two rounds share an id.  Refinement stops once a
    round adds no colour, keeping the colours from before it (the same
    partition), or once every vertex has its own.  Two complexes refined with one table get equal
    ids exactly for equal signatures, so their cells can be matched.
    """
    vs = X.vertices
    index = {v: i for i, v in enumerate(vs)}
    pairs = [[(index[u], k) for u, k in nbrs[v].items()] for v in vs]
    colours = [ids.setdefault(tuple(sorted(k for _, k in p)), len(ids)) for p in pairs]
    count = len(set(colours))
    while count < len(vs):
        new = [
            ids.setdefault((c, tuple(sorted([(colours[u], k) for u, k in p]))), len(ids))
            for c, p in zip(colours, pairs)
        ]
        grown = len(set(new))
        if grown == count:
            break
        colours, count = new, grown
    return dict(zip(vs, colours))


def _search(
    X: SimplicialComplex,
    Y: SimplicialComplex,
    find_all: bool,
) -> list[Permutation]:
    """Backtracking facet-set isomorphisms X -> Y (all of them, or first)."""
    if X.f_vector() != Y.f_vector():
        return []
    ids: dict = {}
    nbrs_x = _edge_degrees(X)
    colours_x = _refine_colours(X, nbrs_x, ids)
    if Y is X:
        nbrs_y, colours_y = nbrs_x, colours_x
    else:
        nbrs_y = _edge_degrees(Y)
        colours_y = _refine_colours(Y, nbrs_y, ids)
    cells_x: dict[int, list[str]] = {}
    cells_y: dict[int, list[str]] = {}
    for v, c in colours_x.items():
        cells_x.setdefault(c, []).append(v)
    for v, c in colours_y.items():
        cells_y.setdefault(c, []).append(v)
    if set(cells_x) != set(cells_y):
        return []
    if any(len(cells_x[c]) != len(cells_y[c]) for c in cells_x):
        return []

    def fits(v: str, w: str, mapping: Permutation) -> bool:
        """Does v -> w send each mapped neighbour of v to a neighbour of w
        across an edge of the same degree?"""
        nw = nbrs_y[w]
        return all(
            nw.get(mapping[u]) == k for u, k in nbrs_x[v].items() if u in mapping
        )

    # most constrained cells first, labels for determinism
    order = sorted(X.vertices, key=lambda v: (len(cells_x[colours_x[v]]), v))
    slots = [(v, cells_y[colours_x[v]]) for v in order]
    found = (
        m for m in injective_maps(slots, fits)
        if {tuple(sorted(m[v] for v in f)) for f in X.facets} == Y.facet_set
    )
    return list(found if find_all else islice(found, 1))


def automorphism_group(X: SimplicialComplex) -> list[Permutation]:
    """All vertex permutations preserving the facet set, identity included.

    Output is canonically ordered by the mapping as a tuple of pairs.
    """
    perms = _search(X, X, find_all=True)
    return sorted(perms, key=lambda p: tuple(sorted(p.items())))


def is_isomorphic(X: SimplicialComplex, Y: SimplicialComplex) -> Permutation | None:
    """A facet-set-preserving vertex bijection X -> Y, or None."""
    found = _search(X, Y, find_all=False)
    return found[0] if found else None


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply q after p."""
    return {v: q[p[v]] for v in p}


def generating_set(perms: list[Permutation]) -> list[Permutation]:
    """Greedy small generating set of a permutation group given by its elements."""
    identity = {v: v for v in perms[0]}
    gens: list[Permutation] = []
    span = {tuple(sorted(identity.items()))}
    for p in sorted(perms, key=lambda q: tuple(sorted(q.items()))):
        key = tuple(sorted(p.items()))
        if key in span:
            continue
        gens.append(p)
        # close the span under the new generator set
        frontier = [identity]
        span = {tuple(sorted(identity.items()))}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = compose(cur, g)
                k = tuple(sorted(nxt.items()))
                if k not in span:
                    span.add(k)
                    frontier.append(nxt)
    return gens


def cycle_notation(p: Permutation) -> str:
    """Disjoint-cycle string, fixed points omitted; identity is '()'."""
    seen: set[str] = set()
    cycles: list[list[str]] = []
    for v in sorted(p):
        if v in seen or p[v] == v:
            seen.add(v)
            continue
        cyc = [v]
        seen.add(v)
        w = p[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = p[w]
        cycles.append(cyc)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(c) + ")" for c in cycles)
