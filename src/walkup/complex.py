"""Pure simplicial complexes represented by their facet lists.

A complex is stored as the sorted tuple of its facets; faces of lower
dimension are enumerated once, on demand, into one memoized face index
that numbers each dimension's faces in the order they are first met.
Complexes are immutable after construction, all queries are pure
functions, and the memoized caches are filled under a lock, so instances
can be shared freely across threads.

Vertex labels are plain strings ordered lexicographically; that order is
used inside faces, between facets and for tie-breaking.
"""

from __future__ import annotations

import threading
from itertools import chain, combinations, repeat
from math import inf
from typing import Iterable, Iterator, KeysView, NamedTuple, Sequence

from .errors import (
    DuplicateFacet,
    DuplicateVertexInFacet,
    EmptyBoundary,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    NotPseudomanifoldWithBoundary,
    UnknownVertex,
)

Face = tuple[str, ...]

# Reserved for clone labels produced by handle deletion; rejected in any
# user-supplied label so cut operations can always mint fresh names.
CLONE_MARKER = "~"


def check_label(name: str, clones: bool = False) -> str:
    """Validate one vertex label; clones=True admits the clone marker."""
    if not isinstance(name, str) or not name:
        raise InvalidLabel(f"vertex label must be a non-empty string, got {name!r}")
    for ch in name:
        if ch.isspace() or ch == "#":
            raise InvalidLabel(f"label {name!r} contains whitespace or '#'")
        if ch == CLONE_MARKER and not clones:
            raise InvalidLabel(
                f"label {name!r} contains the reserved clone marker {CLONE_MARKER!r}"
            )
    return name


def make_face(vertices: Iterable[str]) -> Face:
    """Canonicalize a vertex collection into a sorted, duplicate-free face."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"vertex {a!r} repeated in facet {vs}")
    return vs


def spanning_forest(nodes: Iterable, adj) -> dict:
    """Spanning forest of a graph, by iterative stack search: node -> parent,
    roots -> None.

    Trees are grown from the nodes in the given order, so each root is
    the first node of its component.  Every node is listed after its
    parent.
    """
    parent: dict = {}
    for root in nodes:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
    return parent


def injective_maps(slots: Sequence[tuple], fits) -> Iterator[dict]:
    """Yield, depth first, each injective map of the slot vertices to
    their candidates that fits accepts, as a new dict in slot order.

    slots lists (vertex, candidates) pairs, and each vertex is tried
    against its candidates in list order.  fits(v, w, mapping) says
    whether v -> w may extend mapping, which maps the vertices of the
    slots before v.  The search keeps a stack of candidate iterators, one
    per mapped slot, so no recursion limit bounds the number of slots.
    """
    if not slots:
        yield {}
        return
    mapping: dict = {}
    used: set = set()
    stack = [iter(slots[0][1])]
    while stack:
        v = slots[len(stack) - 1][0]
        if v in mapping:
            used.remove(mapping.pop(v))
        for w in stack[-1]:
            if w not in used and fits(v, w, mapping):
                break
        else:
            stack.pop()
            continue
        mapping[v] = w
        used.add(w)
        if len(stack) == len(slots):
            yield dict(mapping)
        else:
            stack.append(iter(slots[len(stack)][1]))


class DualGraph(NamedTuple):
    """Facet-adjacency graph: facets are nodes, shared ridges are edges.

    ridge_incidence maps every co-dimension-one face to the tuple of
    facets containing it, in facet order.  edges holds one pair (a, b),
    a < b, per ridge of two facets: grouped by a in facet order, and
    within a group in the order combinations() lists the ridges of a
    (the one without a's last vertex first).  The weak-pseudomanifold
    flags summarize the ridge multiplicities (at most two / exactly two
    facets per ridge).
    """

    nodes: tuple[Face, ...]
    edges: tuple[tuple[Face, Face], ...]
    ridge_incidence: dict[Face, tuple[Face, ...]]
    is_weak_pseudomanifold: bool
    is_closed: bool

    def adjacency(self) -> dict[Face, dict[Face, Face]]:
        """Each facet's neighbours in edge order, each mapped to the ridge
        the two share; a new map on each call."""
        adj: dict[Face, dict[Face, Face]] = {f: {} for f in self.nodes}
        for r, fs in self.ridge_incidence.items():
            if len(fs) == 2:
                adj[fs[0]][fs[1]] = adj[fs[1]][fs[0]] = r
        return adj

    def is_connected(self) -> bool:
        parents = spanning_forest(self.nodes, self.adjacency()).values()
        return list(parents).count(None) == 1

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.nodes) - 1


class SimplicialComplex:
    """A finite pure simplicial complex given by its facets.

    Use from_facets() for validated construction from raw label lists;
    the constructor itself expects already-canonical faces.
    """

    __slots__ = ("facets", "facet_set", "vertices", "_lock", "_cache")

    def __init__(self, facets: Iterable[Face]):
        fs = tuple(sorted(facets))
        if fs:
            dim = len(fs[0])
            for f in fs:
                if len(f) != dim:
                    raise MixedDimensions(
                        f"facet {f} has {len(f)} vertices, expected {dim}"
                    )
        self.facets: tuple[Face, ...] = fs
        self.facet_set: frozenset[Face] = frozenset(fs)
        if len(self.facet_set) != len(fs):
            raise DuplicateFacet("facet list contains repeats")
        vs: set[str] = set()
        for f in fs:
            vs.update(f)
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        # reentrant: memoized computations may consult other memoized queries
        self._lock = threading.RLock()
        self._cache: dict[str, object] = {}

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"f0={len(self.vertices)}, facets={len(self.facets)})"
        )

    @property
    def dimension(self) -> int:
        """Dimension of the facets; -1 for the empty complex."""
        return len(self.facets[0]) - 1 if self.facets else -1

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def _memo(self, key: str, compute):
        cache = self._cache
        val = cache.get(key)
        if val is None:
            with self._lock:
                val = cache.get(key)
                if val is None:
                    val = compute()
                    cache[key] = val
        return val

    # -- face enumeration ---------------------------------------------------

    def _face_index(self) -> tuple[dict[Face, int], ...]:
        """Per dimension j = 0..d, each j-face mapped to its position.

        The facets keep their sorted order.  The ridges come in the order
        dual_graph() first meets them, and the j-faces below in the order
        combinations() first meets them in the (j+1)-faces: top down, the
        j-faces of a pure complex are the (j+1)-subsets of its
        (j+1)-faces, fewer tuples than every subset of every facet.
        Positions depend only on the facets, never on hash order, and
        nothing is sorted.
        """

        def compute():
            d = self.dimension
            index = [dict(zip(self.facets, range(len(self.facets))))] if d >= 0 else []
            faces = self.dual_graph().ridge_incidence if d > 0 else ()
            for j in range(d - 1, -1, -1):
                index.append(dict(zip(faces, range(len(faces)))))
                if j:
                    faces = dict.fromkeys(chain.from_iterable(
                        map(combinations, faces, repeat(j))))
            return tuple(reversed(index))

        return self._memo("face_index", compute)

    def face_index(self, j: int) -> dict[Face, int]:
        """The j-faces, each mapped to its position in the one face order
        shared by f_vector, has_face, faces_of_dim and every boundary
        bitset; empty outside 0..d."""
        index = self._face_index()
        return index[j] if 0 <= j < len(index) else {}

    def faces_of_dim(self, j: int) -> KeysView[Face]:
        """The j-faces in face_index order (first met, not sorted)."""
        return self.face_index(j).keys()

    def faces_by_dim(self) -> dict[int, tuple[Face, ...]]:
        """All faces grouped by dimension, each group lexicographically
        sorted.  A view for readers that want that order, built on each
        call; the library itself reads face_index."""
        return {j: tuple(sorted(ix)) for j, ix in enumerate(self._face_index())}

    def has_face(self, face: Sequence[str]) -> bool:
        f = tuple(sorted(face))
        return f in self.face_index(len(f) - 1)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f0, ..., fd); the empty complex gives ()."""
        return tuple(map(len, self._face_index()))

    def euler_characteristic(self) -> int:
        """f0 - f1 + f2 - ...; 0 for the empty complex."""
        return sum(c if j % 2 == 0 else -c for j, c in enumerate(self.f_vector()))

    # -- links ---------------------------------------------------------------

    def vertex_link(self, v: str) -> "SimplicialComplex":
        """The link of v: the residues of the facets through v, served
        from one memoized pass that builds every vertex link: each facet
        hands each of its vertices the residue."""
        links = self._memo("vertex_links", self._vertex_links)
        if v not in links:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return links[v]

    def _vertex_links(self) -> dict[str, "SimplicialComplex"]:
        """Every vertex link, each holding the neighbour masks its
        clique_complex reads, built from the link's residues."""
        d = self.dimension
        residues: dict[str, list[Face]] = {v: [] for v in self.vertices}
        if d > 0:
            for facet in self.facets:
                # combinations() drops the last vertex first
                for v, r in zip(reversed(facet), combinations(facet, d)):
                    residues[v].append(r)
        links = {v: SimplicialComplex(rs) for v, rs in residues.items()}
        for link in links.values():
            link._cache[_NEIGHBOUR_MASKS] = _residue_masks(link)
        return links

    def _vertex_set(self) -> frozenset[str]:
        return self._memo("vertex_set", lambda: frozenset(self.vertices))

    # -- dual graph / boundary ----------------------------------------------

    def dual_graph(self) -> DualGraph:
        def compute():
            d = self.dimension
            ridges: dict[Face, tuple[Face, ...]] = {}
            get = ridges.get
            for facet in self.facets:
                for ridge in combinations(facet, d):
                    ridges[ridge] = get(ridge, ()) + (facet,)
            # facets come in sorted order, and two share at most one ridge
            edges = tuple(fs for fs in ridges.values() if len(fs) == 2)
            incidences = len(self.facets) * (d + 1)
            return DualGraph(
                nodes=self.facets,
                edges=edges,
                ridge_incidence=ridges,
                # incidences = #ridges + #edges iff no ridge has three facets
                is_weak_pseudomanifold=len(ridges) + len(edges) == incidences,
                is_closed=bool(self.facets) and len(edges) == len(ridges),
            )

        return self._memo("dual_graph", compute)

    def is_closed_pseudomanifold(self) -> bool:
        """Every ridge in exactly two facets (dual graph may be disconnected)."""
        return not self.is_empty and self.dual_graph().is_closed

    def boundary_complex(self) -> "SimplicialComplex":
        """Subcomplex generated by the ridges lying in exactly one facet."""
        if self.dimension < 1:
            raise NotPseudomanifoldWithBoundary(
                "boundary undefined below dimension 1"
            )
        dg = self.dual_graph()
        if not dg.is_weak_pseudomanifold:
            raise NotPseudomanifoldWithBoundary("a ridge lies in more than two facets")
        bound = [r for r, fs in dg.ridge_incidence.items() if len(fs) == 1]
        if not bound:
            raise EmptyBoundary("complex is closed")
        return SimplicialComplex(bound)

    # -- 1-skeleton ----------------------------------------------------------

    def adjacency(self) -> dict[str, frozenset[str]]:
        """Neighbor sets in the edge graph."""

        def compute():
            adj: dict[str, set[str]] = {v: set() for v in self.vertices}
            for facet in self.facets:
                for v in facet:
                    adj[v].update(facet)
            for v, ns in adj.items():
                ns.discard(v)
            return {v: frozenset(ns) for v, ns in adj.items()}

        return self._memo("adjacency", compute)

    def degree(self, v: str) -> int:
        if v not in self._vertex_set():
            raise UnknownVertex(f"unknown vertex {v!r}")
        return len(self.adjacency()[v])

    def graph_distance(self, u: str, v: str) -> int | float:
        """Shortest-path length in the 1-skeleton; inf if disconnected."""
        vs = self._vertex_set()
        if u not in vs or v not in vs:
            raise UnknownVertex(f"unknown vertex in pair ({u!r}, {v!r})")
        if u == v:
            return 0
        adj = self.adjacency()
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for w in frontier:
                for x in adj[w]:
                    if x not in dist:
                        dist[x] = dist[w] + 1
                        if x == v:
                            return dist[x]
                        nxt.append(x)
            frontier = nxt
        return inf

    def is_connected(self) -> bool:
        parents = spanning_forest(self.vertices, self.adjacency()).values()
        return list(parents).count(None) == 1

    def connected_components(self) -> list["SimplicialComplex"]:
        """Components of the 1-skeleton as sub-complexes, sorted by min vertex."""
        # each tree is rooted at its component's minimum vertex
        root: dict[str, str] = {}
        parts: dict[str, list[Face]] = {}
        for v, p in spanning_forest(self.vertices, self.adjacency()).items():
            root[v] = v if p is None else root[p]
            if p is None:
                parts[v] = []
        for f in self.facets:
            parts[root[f[0]]].append(f)
        return [SimplicialComplex(fs) for fs in parts.values()]

    # -- clique complex -------------------------------------------------------

    def clique_complex(self) -> tuple[Face, ...]:
        """Clique complex of the 1-skeleton: its maximal cliques, sorted.

        The cliques may differ in size (the complex need not be pure).
        The search runs on int bitmasks, bit i standing for the i-th
        vertex in label order.  A vertex link comes with its masks, built
        from its residues when the links are; any other complex reads
        them off the memoized adjacency(), which the reduction recognizer
        shares on a whole sphere.
        """

        def compute():
            vs = self.vertices
            nbr = self._cache.get(_NEIGHBOUR_MASKS)
            if nbr is None:
                bit = {v: 1 << i for i, v in enumerate(vs)}
                adj = self.adjacency()
                nbr = [sum(map(bit.__getitem__, adj[v])) for v in vs]
            cliques: list[tuple[int, ...]] = []
            _expand_cliques((), (1 << len(vs)) - 1, 0, nbr, cliques)
            return tuple(sorted(
                tuple(map(vs.__getitem__, sorted(c))) for c in cliques))

        return self._memo("clique_complex", compute)


_NEIGHBOUR_MASKS = "neighbour_masks"


def _residue_masks(X: SimplicialComplex) -> list[int]:
    """The neighbour mask of each vertex of X, in label order, as the
    join of the masks of the facets through it less its own bit."""
    vs = X.vertices
    bit = {v: 1 << i for i, v in enumerate(vs)}
    nbr = dict.fromkeys(vs, 0)
    for f in X.facets:
        mask = sum(map(bit.__getitem__, f))
        for v in f:
            nbr[v] |= mask
    return [m ^ bit[v] for v, m in nbr.items()]


def _expand_cliques(
    r: tuple[int, ...], p: int, x: int, nbr: list[int], cliques: list
) -> None:
    """Bron-Kerbosch with pivoting on vertex bitmasks: append to cliques
    each maximal clique C with r <= C <= r | p, as a tuple of vertex
    indices; p and x are masks, x holding the candidates already
    explored, and nbr[i] is the neighbour mask of vertex i.

    The pivot is the vertex of p | x with the most neighbours in p (the
    lowest such bit on ties); the branches are the vertices of p outside
    its neighbourhood, lowest bit first.  A vertex of x that sees all of
    p leaves no branch, so the scan for the pivot stops there.
    Module-level rather than a recursive closure: a closure that calls
    itself is a reference cycle, left for the cyclic GC to reclaim.
    """
    if not p:
        if not x:
            cliques.append(r)
        return
    size = p.bit_count()
    most = -1
    rest = p | x
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        count = (p & nbr[u]).bit_count()
        if count > most:
            if count == size:
                return  # u is in x and extends every clique here
            most, pivot = count, u
        rest ^= low
    branches = p & ~nbr[pivot]
    while branches:
        low = branches & -branches
        v = low.bit_length() - 1
        nv = nbr[v]
        _expand_cliques(r + (v,), p & nv, x & nv, nbr, cliques)
        p ^= low
        x |= low
        branches ^= low


def from_facets(
    raw_facets: Iterable[Iterable[str]], clones: bool = False
) -> SimplicialComplex:
    """Build a complex from raw vertex-label lists, validating everything.

    Rejects empty input, invalid labels, repeated vertices inside a
    facet, mixed facet dimensions and repeated facets.  Labels carrying
    the clone marker are rejected unless clones is set (complexes written
    by handle deletion, such as ledger bases, carry them).
    """
    rows = [list(f) for f in raw_facets]
    if not rows:
        raise EmptyInput("no facets given")
    faces = []
    checked: set[str] = set()
    for row in rows:
        if not row:
            raise EmptyInput("empty facet")
        for label in row:
            # check_label rejects non-strings, unhashable ones included
            if not isinstance(label, str) or label not in checked:
                checked.add(check_label(label, clones))
        faces.append(make_face(row))
    dims = {len(f) for f in faces}
    if len(dims) > 1:
        raise MixedDimensions(f"facet sizes {sorted(dims)} are mixed")
    if len(set(faces)) != len(faces):
        seen: set[Face] = set()
        for f in faces:
            if f in seen:
                raise DuplicateFacet(f"facet {f} repeated")
            seen.add(f)
    return SimplicialComplex(faces)


def is_standard_sphere(X: SimplicialComplex) -> bool:
    """True iff X is the boundary of a simplex: all d+1-subsets of d+2 vertices."""
    if X.is_empty:
        return False
    n = len(X.vertices)
    d = X.dimension
    return n == d + 2 and len(X.facets) == n


def induces_standard_sphere(X: SimplicialComplex, subset: Iterable[str]) -> bool:
    """True iff X[subset] consists of all proper subsets of the subset.

    The subset must have d+2 vertices for a (d)-sphere check relative to
    its own size: every proper subset a face of X, the whole set not.
    Faces are closed under subsets, so the (|S|-1)-subsets decide every
    proper one.  A set of fewer than two vertices bounds no simplex of
    dimension 1 or more, so it is never a sphere.
    """
    s = tuple(sorted(set(subset)))
    if len(s) < 2 or X.has_face(s):
        return False
    return all(X.has_face(t) for t in combinations(s, len(s) - 1))
