"""Combinatorial handle surgery: addition, deletion, connected sums, and
the decomposition of Walkup-class members into a stacked sphere plus
handles.

Handle deletion is the inverse of handle addition.  Cutting along an
induced standard sphere removes the dual-graph adjacencies across ridges
inside the sphere, splits each affected vertex star into its two cut
components and gives each component one copy of the vertex.  Which copy
keeps the label is read off the two sides of the cut, the components of
the 2(d+1) copies of the sphere's ridges, so every facet is renamed
once; the two sides are then capped with fresh facets.  The
reconstruction is validated by replaying the returned bijection and
demanding the exact input back.  Admissible bijections are searched
with complex.injective_maps, the backtracking the isomorphism search
shares; most facet pairs are refused before that search, on int vertex
masks of the facets and of the radius-2 balls, the one form of the balls.

The decomposition cuts only along spheres that leave the complex
connected, so it follows one complex from the input down to its stacked
base, and each cut's bijection restores exactly the complex it was cut
from.  Each round reads its sphere off the filling of the complex: its
interior d-faces are the induced standard spheres, and those on a cycle
of its dual graph are the ones whose cut stays connected.  Clone
labels are fresh in the complex being cut, hence replaying the cuts in
reverse never has to rename a pending handle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .complex import (
    CLONE_MARKER,
    Face,
    SimplicialComplex,
    induces_standard_sphere,
    injective_maps,
    spanning_forest,
)
from .errors import (
    CutValidationFailed,
    DimensionTooLow,
    NotAFacet,
    NotAdmissible,
    NotClosedPseudomanifold,
    NotInducedStandardSphere,
    NotWalkup,
    WalkupError,
    WouldCreateDuplicateFacet,
)
from .stacked import is_stacked_sphere
from .theory import in_walkup_class


class _VertexBijectionFields(NamedTuple):
    source_facet: Face
    target_facet: Face
    pairs: tuple[tuple[str, str], ...]


class VertexBijection(_VertexBijectionFields):
    """A facet-to-facet vertex bijection (the gluing data of one handle)."""

    __slots__ = ()

    def __new__(cls, source_facet: Face, target_facet: Face,
                pairs: tuple[tuple[str, str], ...]) -> "VertexBijection":
        srcs = tuple(sorted(p[0] for p in pairs))
        tgts = tuple(sorted(p[1] for p in pairs))
        if srcs != source_facet:
            raise ValueError("pair sources do not enumerate the source facet")
        if tgts != target_facet:
            raise ValueError("pair targets do not enumerate the target facet")
        if set(source_facet) & set(target_facet):
            raise ValueError("source and target facets must be disjoint")
        return super().__new__(cls, source_facet, target_facet, pairs)

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def relabeled(self, rename: dict[str, str]) -> "VertexBijection":
        """The same gluing after a global vertex relabeling."""
        return VertexBijection(
            source_facet=tuple(sorted(rename.get(v, v) for v in self.source_facet)),
            target_facet=tuple(sorted(rename.get(v, v) for v in self.target_facet)),
            pairs=tuple(
                sorted((rename.get(a, a), rename.get(b, b)) for a, b in self.pairs)
            ),
        )


def bijection_from_map(mapping: dict[str, str]) -> VertexBijection:
    src = tuple(sorted(mapping))
    tgt = tuple(sorted(mapping.values()))
    return VertexBijection(src, tgt, tuple(sorted(mapping.items())))


def is_admissible(X: SimplicialComplex, psi: VertexBijection) -> bool:
    """True iff every pair sits at graph distance >= 3 in the 1-skeleton.

    Decided by the radius-2 ball masks of X: a pair (a, b) is far apart
    iff b is not in a's ball (no edge, no common neighbour).
    SimplicialComplex.graph_distance is the BFS twin the tests
    cross-check it against.
    """
    if psi.source_facet not in X.facet_set:
        raise NotAFacet(f"{psi.source_facet} is not a facet")
    if psi.target_facet not in X.facet_set:
        raise NotAFacet(f"{psi.target_facet} is not a facet")
    masks = _admissibility_masks(X)
    ball, bit = masks.ball, masks.bit
    return not any(bit[b] & (ball.get(a) or masks.ball_mask(a)) for a, b in psi.pairs)


def handle_addition(X: SimplicialComplex, psi: VertexBijection) -> SimplicialComplex:
    """Remove the two glued facets and identify sources with targets.

    Drops f0 by d+1 and the facet count by 2; the identified vertex set
    induces a standard (d-1)-sphere in the result.  Only the star of the
    source facet is renamed; every other facet passes through as it is.
    """
    if not X.is_closed_pseudomanifold():
        raise NotClosedPseudomanifold("handle addition needs a closed complex")
    if not is_admissible(X, psi):
        raise NotAdmissible(
            f"bijection {psi.source_facet} -> {psi.target_facet} moves a vertex "
            "closer than distance 3"
        )
    rename = psi.mapping
    source, target = psi.source_facet, psi.target_facet
    untouched = rename.keys().isdisjoint
    kept: list[Face] = []
    renamed: dict[Face, Face] = {}
    for f in X.facets:
        if untouched(f):
            if f != target:
                kept.append(f)
            continue
        if f == source:
            continue
        g = tuple(sorted(rename.get(v, v) for v in f))
        if len(set(g)) != len(g):
            raise NotAdmissible(f"facet {f} would collapse under the identification")
        twin = renamed.get(g)
        if twin is None and g != target and g in X.facet_set:
            twin = g  # an untouched facet
        if twin is not None:
            first, second = sorted((twin, f))
            raise WouldCreateDuplicateFacet(
                f"facets {first} and {second} both become {g}"
            )
        renamed[g] = f
    return SimplicialComplex(kept + list(renamed))


def disjoint_union(
    X1: SimplicialComplex, X2: SimplicialComplex
) -> tuple[SimplicialComplex, dict[str, str]]:
    """Union of two complexes, relabeling X2 on collisions (suffix "'").

    Returns the union together with the relabeling applied to X2.
    """
    taken = set(X1.vertices)
    rename: dict[str, str] = {}
    for v in X2.vertices:
        w = v
        while w in taken:
            w += "'"
        if w != v:
            rename[v] = w
        taken.add(w)
    facets2 = [tuple(sorted(rename.get(v, v) for v in f)) for f in X2.facets]
    return SimplicialComplex(set(X1.facets) | set(facets2)), rename


def connected_sum(
    X1: SimplicialComplex,
    X2: SimplicialComplex,
    psi: VertexBijection | dict[str, str],
) -> SimplicialComplex:
    """Glue X1 and X2 along psi (source facet in X1, target facet in X2).

    psi may be a plain source-to-target vertex mapping, since a
    VertexBijection cannot be formed before colliding labels of X2 are
    renamed; the target side is translated through the relabeling.
    """
    union, rename = disjoint_union(X1, X2)
    raw = psi.mapping if isinstance(psi, VertexBijection) else dict(psi)
    translated = {a: rename.get(b, b) for a, b in raw.items()}
    return handle_addition(union, bijection_from_map(translated))


_MASKS = "admissibility_masks"


class _AdmissibilityMasks:
    """Int vertex masks of one complex for the admissibility tests.

    bit maps each vertex to its bit (label order); facet and ball are
    plain dicts filled on first lookup, a facet with the mask of its
    vertices and a vertex with the mask of its radius-2 ball (its
    neighbours' neighbour sets joined with its own and itself), so one
    search on a large complex masks only the facets and balls it reads.
    Threads racing on one key store equal masks, so no lock is taken.
    """

    __slots__ = ("bit", "facet", "ball", "_facet_set", "_adj")

    def __init__(self, X: SimplicialComplex):
        self.bit = {v: 1 << i for i, v in enumerate(X.vertices)}
        self.facet: dict[Face, int] = {}
        self.ball: dict[str, int] = {}
        self._facet_set = X.facet_set
        self._adj = X.adjacency()

    def facet_mask(self, f: Face) -> int:
        if f not in self._facet_set:
            raise NotAFacet("both endpoints must be facets")
        mask = self.facet[f] = sum(map(self.bit.__getitem__, f))
        return mask

    def ball_mask(self, v: str) -> int:
        adj = self._adj
        ns = adj[v]
        ball = ns.union((v,), *map(adj.__getitem__, ns))
        mask = self.ball[v] = sum(map(self.bit.__getitem__, ball))
        return mask


def _admissibility_masks(X: SimplicialComplex) -> _AdmissibilityMasks:
    """The mask table of X, memoized on X; a cache hit builds no closure."""
    return X._cache.get(_MASKS) or X._memo(_MASKS, lambda: _AdmissibilityMasks(X))


def find_admissible_bijection(
    X: SimplicialComplex, sigma1: Face, sigma2: Face
) -> VertexBijection | None:
    """Search for an admissible bijection between two disjoint facets.

    The first of complex.injective_maps over the pairs at distance >= 3,
    decided by the radius-2 ball masks as in is_admissible, or None.
    Most facet pairs are refused before any list is built: when the
    facets meet, or when some source's ball holds all of sigma2, one
    test on int vertex masks decides.  Sources are tried fewest
    candidates first (ties by label), each against its candidates in
    sigma2's order.
    """
    masks = _admissibility_masks(X)
    facet = masks.facet
    m1 = facet.get(sigma1) or masks.facet_mask(sigma1)
    m2 = facet.get(sigma2) or masks.facet_mask(sigma2)
    if m1 & m2:
        return None
    ball = masks.ball
    for u in sigma1:
        if (ball.get(u) or masks.ball_mask(u)) & m2 == m2:  # a ball holds sigma2
            return None
    bit = masks.bit
    allowed = {u: [v for v in sigma2 if not bit[v] & ball[u]] for u in sigma1}
    order = sorted(sigma1, key=lambda u: (len(allowed[u]), u))
    slots = [(u, allowed[u]) for u in order]
    assignment = next(injective_maps(slots, lambda u, v, mapping: True), None)
    return None if assignment is None else bijection_from_map(assignment)


def _fresh_clone(label: str, taken: set[str]) -> str:
    """The first free `<root>~i`, root being the label before any clone
    marker, so a clone of a clone does not nest a second marker."""
    root = label.split(CLONE_MARKER, 1)[0]
    i = 1
    while f"{root}{CLONE_MARKER}{i}" in taken:
        i += 1
    return f"{root}{CLONE_MARKER}{i}"


def handle_deletion(
    Y: SimplicialComplex, subset: Iterable[str]
) -> tuple[SimplicialComplex, VertexBijection]:
    """Cut a closed manifold along an induced standard sphere S.

    Each S-vertex star splits, over DualGraph.adjacency(), into two parts
    across the severed ridges inside S, and each part gets one copy of
    the vertex.  The two sides of the cut are read off the small surface
    of the 2(d+1) ridge copies (each ridge inside S, once from each of
    its two facets); the side holding the least label keeps the original
    labels and the other takes the clones, so each facet is renamed
    once.  Returns the cut complex together with the bijection whose
    handle addition restores the input exactly; the round trip is
    validated before returning.
    """
    d = Y.dimension
    if d < 3:
        raise DimensionTooLow(f"need dimension >= 3, got {d}")
    if not Y.is_closed_pseudomanifold():
        raise NotClosedPseudomanifold("handle deletion needs a closed complex")
    S = tuple(sorted(set(subset)))
    if len(S) != d + 1 or not set(S) <= set(Y.vertices):
        raise NotInducedStandardSphere(f"{S} is not a (d+1)-vertex subset")
    if not induces_standard_sphere(Y, S):
        raise NotInducedStandardSphere(f"{S} does not induce a standard sphere")
    s_set = set(S)
    incidence = Y.dual_graph().ridge_incidence
    adj = Y.dual_graph().adjacency()

    # Partition each vertex star into the components of the cut dual
    # graph: f and g stay together in the star of x across a ridge that
    # holds x and is not inside S.
    part_of: dict[str, dict[Face, int]] = {}
    for x in S:
        star = {
            f: [g for g, r in adj[f].items() if x in r and not s_set.issuperset(r)]
            for f in Y.facets if x in f
        }
        # trees grow from the star in facet order, so part ids are canonical
        labels: dict[Face, int] = {}
        parts = 0
        for f, p in spanning_forest(star, star).items():
            labels[f] = parts if p is None else labels[p]
            parts += p is None
        part_of[x] = labels
        if parts != 2:
            raise CutValidationFailed(
                f"star of {x!r} separates into {parts} parts, expected 2"
            )

    # Name part 0 of each star by the vertex and part 1 by a fresh clone.
    taken = set(Y.vertices)
    copies: dict[str, tuple[str, str]] = {}
    for x in S:
        copies[x] = (x, _fresh_clone(x, taken))
        taken.add(copies[x][1])

    # The cut surface must consist of two standard spheres, one copy of
    # each S-vertex on each; the side with the least label keeps the
    # originals (components come sorted by least vertex).
    surface = SimplicialComplex({
        tuple(sorted(copies[x][part_of[x][f]] for x in ridge))
        for ridge in combinations(S, d)
        for f in incidence[ridge]
    })
    comps = surface.connected_components()
    if len(comps) != 2:
        raise CutValidationFailed(
            f"cut boundary has {len(comps)} components, expected 2"
        )
    sides = [set(c.vertices) for c in comps]
    for x in S:
        if any(len(side.intersection(copies[x])) != 1 for side in sides):
            raise CutValidationFailed(
                f"copies of {x!r} are not split across the boundary spheres"
            )
    # final[x][p] names x in part p of its star
    final = {x: c if c[0] in sides[0] else c[::-1] for x, c in copies.items()}

    new_facets = {
        tuple(sorted(final[v][part_of[v][f]] if v in s_set else v for v in f))
        for f in Y.facets
    }
    if len(new_facets) != len(Y.facets):
        raise CutValidationFailed("cut collapsed distinct facets")
    cap_keep = S
    cap_clone = tuple(sorted(c[1] for c in copies.values()))
    new_facets.add(cap_keep)
    new_facets.add(cap_clone)
    result = SimplicialComplex(new_facets)

    psi = VertexBijection(
        source_facet=cap_clone,
        target_facet=cap_keep,
        pairs=tuple(sorted((c[1], x) for x, c in copies.items())),
    )
    try:
        restored = handle_addition(result, psi)
    except WalkupError as e:
        raise CutValidationFailed(f"reattachment failed: {e}") from e
    if restored != Y:
        raise CutValidationFailed("round trip did not reproduce the input")
    return result, psi


class HandleLedger(NamedTuple):
    """A stacked-sphere base plus an ordered, replayable handle list."""

    base: SimplicialComplex
    handles: tuple[VertexBijection, ...]

    def replay(self) -> SimplicialComplex:
        """Re-add every handle in order, starting from the base.

        Each addition renames vertices globally, so the bijections still
        pending are rewritten through the applied identification; a
        pending handle whose source then meets its target is refused.
        """
        cur = self.base
        handles = list(self.handles)
        for i, psi in enumerate(handles):
            cur = handle_addition(cur, psi)
            rename = psi.mapping
            for j in range(i + 1, len(handles)):
                try:
                    handles[j] = handles[j].relabeled(rename)
                except ValueError as e:
                    raise NotAdmissible(
                        f"ledger handle {j + 1} of {len(handles)}, renamed "
                        f"by handle {i + 1}: {e}"
                    ) from e
        return cur


def _filling(Y: SimplicialComplex) -> SimplicialComplex:
    """The (d+1)-complex of the (d+2)-sets of vertices all of whose
    triangles are faces of Y, a connected member of K(d) with d >= 4.

    Its facets are the sets x + c, x below c, for the maximal cliques c
    of the memoized link of x: a stacked (d-1)-sphere, whose 3-cliques
    are faces and whose maximal cliques are its ball's (d+1)-vertex facets.
    The route needs d >= 4: at d = 3 the links are stacked 2-spheres,
    whose 3-cliques need not be faces.  On the boundaries of the cyclic
    polytopes C(4, n), n = 8, 9 and 12, members of K(3) with an empty
    filling, it returns facets.
    """
    return SimplicialComplex(
        (x,) + c
        for x in Y.vertices
        for c in Y.vertex_link(x).clique_complex()
        if x < c[0]
    )


def _cycle_face(Y: SimplicialComplex) -> Face | None:
    """The least interior d-face of the filling of Y on a cycle of its
    dual graph, or None.

    The interior d-faces (each in two facets) are exactly the spheres
    induced in Y, and a cut along one leaves Y connected iff its face is
    no bridge (Bagchi and Datta, Europ. J. Combin. 36, 2014).  Over one
    spanning forest, each cotree face is on a cycle, and so is each tree
    face on the paths from its two facets up to where they meet.
    """
    filling = _filling(Y)
    adj = filling.dual_graph().adjacency()
    parent = spanning_forest(filling.facets, adj)
    rank = {f: i for i, f in enumerate(parent)}  # parents come first
    on_cycles: list[Face] = []
    for f, nbrs in adj.items():
        for g, face in nbrs.items():
            if f < g and parent[f] != g and parent[g] != f:  # a cotree face
                on_cycles.append(face)
                a, b = f, g
                while a != b:  # the later of two is below where they meet
                    if rank[a] < rank[b]:
                        a, b = b, a
                    on_cycles.append(adj[a][parent[a]])
                    a = parent[a]
    return min(on_cycles, default=None)


def kalai_decompose(X: SimplicialComplex) -> HandleLedger:
    """Decompose a connected Walkup-class member into base + handles.

    While the complex is not a stacked sphere, cut it along the first
    induced standard sphere (in sorted order) whose cut leaves it
    connected.  Such a cut lowers beta_1 by one and stays in the class,
    and one exists whenever beta_1 > 0; at beta_1 = 0 the complex is
    stacked (Kalai).  The sphere is read off the filling before cutting
    (_cycle_face), so only it goes through handle_deletion.  The ledger
    is the last complex plus the cuts' bijections, most recent first: it
    holds exactly beta_1 handles, and replaying it reproduces the input
    exactly.
    """
    d = X.dimension
    if d < 4:
        raise DimensionTooLow(f"need dimension >= 4, got {d}")
    if not X.is_connected():
        raise NotWalkup("input complex is disconnected")
    if not in_walkup_class(X):
        raise NotWalkup("some vertex link is not a stacked sphere")

    cuts: list[VertexBijection] = []
    Y = X
    while not is_stacked_sphere(Y):
        sphere = _cycle_face(Y)
        if sphere is None:
            raise NotWalkup(
                "no non-separating induced standard sphere; not in the class"
            )
        Y, psi = handle_deletion(Y, sphere)
        cuts.append(psi)

    ledger = HandleLedger(base=Y, handles=tuple(reversed(cuts)))
    if ledger.replay() != X:
        raise CutValidationFailed("ledger replay did not reproduce the input")
    return ledger
