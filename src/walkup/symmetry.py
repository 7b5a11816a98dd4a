"""Automorphisms and isomorphisms of small complexes.

Backtracking over vertex images with complex.injective_maps, pruned by
an iterated partition refinement on (vertex degree, incident edge
degrees) and by adjacency and edge degree to the vertices already
mapped; a complete map is kept iff it carries the facets of X onto
those of Y.  The edge degree of uv is the number of vertices in the
link of uv, which any facet-preserving map must conserve; on
2-neighborly complexes this is the prune that matters, since adjacency
alone says nothing there.
"""

from __future__ import annotations

from itertools import combinations, islice

from .complex import SimplicialComplex, injective_maps

Permutation = dict[str, str]


def _edge_degrees(X: SimplicialComplex) -> dict[tuple[str, str], int]:
    deg: dict[tuple[str, str], int] = dict.fromkeys(X.faces_of_dim(1), 0)
    for tri in X.faces_of_dim(2):
        for e in combinations(tri, 2):
            deg[e] += 1
    return deg


def _edge_degree_lookup(X: SimplicialComplex):
    deg = _edge_degrees(X)

    def lookup(u: str, v: str) -> int:
        return deg.get((u, v) if u < v else (v, u), -1)

    return lookup


def _refine_colors(X: SimplicialComplex, edeg) -> dict[str, tuple]:
    adj = X.adjacency()
    colors: dict[str, tuple] = {
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


def _search(
    X: SimplicialComplex,
    Y: SimplicialComplex,
    find_all: bool,
) -> list[Permutation]:
    """Backtracking facet-set isomorphisms X -> Y (all of them, or first)."""
    if X.f_vector() != Y.f_vector():
        return []
    edeg_x = _edge_degree_lookup(X)
    edeg_y = _edge_degree_lookup(Y)
    colors_x = _refine_colors(X, edeg_x)
    colors_y = _refine_colors(Y, edeg_y)
    cells_x: dict[tuple, list[str]] = {}
    cells_y: dict[tuple, list[str]] = {}
    for v, c in colors_x.items():
        cells_x.setdefault(c, []).append(v)
    for v, c in colors_y.items():
        cells_y.setdefault(c, []).append(v)
    if set(cells_x) != set(cells_y):
        return []
    if any(len(cells_x[c]) != len(cells_y[c]) for c in cells_x):
        return []

    adj_x, adj_y = X.adjacency(), Y.adjacency()

    def fits(v: str, w: str, mapping: Permutation) -> bool:
        """Does v -> w keep adjacency and edge degrees to every mapped vertex?"""
        for u, m in mapping.items():
            adjacent = u in adj_x[v]
            if adjacent != (m in adj_y[w]):
                return False
            if adjacent and edeg_x(v, u) != edeg_y(w, m):
                return False
        return True

    # most constrained cells first, labels for determinism
    order = sorted(X.vertices, key=lambda v: (len(cells_x[colors_x[v]]), v))
    slots = [(v, cells_y[colors_x[v]]) for v in order]
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
    if not perms:
        return []
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
