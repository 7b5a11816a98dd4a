"""Mod-2 tightness: injectivity of induced homology maps.

For an induced subcomplex Y = X[S], the chain complex of Y is a
subcomplex of the chain complex of X, so a cycle of Y bounding in X is
the same thing as a chain of Y lying in B_k(X).  The degree-k map is
therefore injective iff

    dim(C_k(Y) ∩ B_k(X)) = dim B_k(Y).

The left side is read off one vector per k-face f: its boundary ∂f above
its column z(f) over a basis of the orthogonal complement of B_k(X).  On
C_k(Y) the map c -> (∂c, z(c)) has kernel C_k(Y) ∩ B_k(X), and in degree
k+1 the pivots among the boundary bits number dim B_k(Y).  So, with one
GF(2) pivot space per degree, degree k is injective iff f_k(Y) plus the
pivots of degree k+1 below the boundary bits equals the ranks of degrees
k and k+1 together.  Both sides grow monotonically as vertices are added
to S, which the exhaustive scan exploits: subsets are enumerated
depth-first by ascending vertex index, so each step adds a vertex v
larger than every vertex of S and with it the faces of v's lower star
(the faces whose largest vertex is v) that lie in S ∪ {v}.  Walking each
lower star as a trie, only down the branches inside S, makes a subset
cost only the faces it adds.  Backtracking pops the pivots and restores
the counts.

The order in which a walk inserts its faces changes no report: the
pivot keys of a GF(2) span are the leading bits of its nonzero
elements, so the rank and the pivots below the boundary bits are the
same for every insertion order.  The walk therefore takes each trie's
lowest child first: a vertex's first edge then reaches min S, and its
later edges reduce against that pivot in a step or two instead of
running down a chain (on the duality scan of m4-15, 313,629 XOR steps
instead of 448,207).

Duality halves the exhaustive scan.  Let X be a connected closed
Z2-homology d-manifold with vertex set V.  The complement of |X[S]|
deformation-retracts onto |X[V∖S]|, so the exact sequence of the pair
(X, X[S]) and Lefschetz duality give

    H_k(X[S]) -> H_k(X) injective  iff  H_{d-1-k}(X[V∖S]) -> H_{d-1-k}(X) injective

(W. Kühnel, Tight Polyhedral Submanifolds and Tight Triangulations,
LNM 1612).  Evaluating every S with |S| <= n/2 in all degrees therefore
decides every subset: each evaluated S also settles V∖S, and a violation
(S, k) is also the violation (V∖S, d-1-k).  duality_applies() gates the
shortcut on exactly that hypothesis: X is a closed pseudomanifold, it is
connected, and the link of every face is a Z2-homology sphere.  Vertex
links with the Betti numbers of spheres would not by themselves prove
that hypothesis; vertex links that are stacked spheres (Walkup's class
K(d)) do.  Every other input (with boundary, disconnected, a singular
link) gets the full scan.  Either way a report's `checked` counts the
subsets covered and `evaluated` the subsets actually evaluated.

Every scan goes through one walker, TightnessEngine.evaluate: fed a
stream of vertex masks, it yields each mask's bad degrees and keeps the
faces of the least vertices a mask shares with the one before.  An
exhaustive scan is an ordered list of TightnessEngine.search tasks, the
subtrees of the serial order ({v1}, then the subsets extending each
(v1, v2)); each feeds the walker its subsets in that order.  One loop
reads their results in list order, in process or over a worker pool
(scans of at least POOL_MIN_SUBSETS subsets to evaluate), so a report
depends on the input alone.  A sampled scan (search_draws) runs in
process and feeds it the distinct draws sorted by their bits from the
least vertex up, then reads the report in draw order.  When duality
applies, a draw of more than n/2 vertices is evaluated as its
complement, which has fewer faces to walk, and its violations are read
off the complement's by k -> d-1-k.

homology_map_injective is the independent, direct implementation of the
same test (kernel and image bases stacked and ranked), and the
whole-tree search(()) without duality is the full scan; the capped and
pooled scans are cross-checked against both in the tests, and the
sampled scan against both one search(draw, descend=False) per draw and
homology_map_injective.
"""

from __future__ import annotations

import os
from collections import defaultdict
from itertools import combinations
from math import comb
from typing import NamedTuple

from .complex import SimplicialComplex
from .errors import InvalidParameters, SubsetSpaceTooLarge, UnknownVertex
from .homology import (
    PivotSpace,
    betti_numbers,
    boundary_columns,
    nullspace_gf2,
    rank_gf2,
    transpose_gf2,
)
from .rng import SplitMix64
from .theory import in_walkup_class

DEFAULT_EXHAUSTIVE_CEILING = 20
# Exhaustive scans with fewer subsets to evaluate run serially, because
# starting a pool and feeding it costs tens of ms.  Measured in process
# (is_tight_z2, two sweeps of 15 alternating runs, Python 3.11, 2-vCPU
# AMD EPYC VM), medians serial vs pooled: m4-15 82 vs 63-71 ms, K6
# 126-127 vs 96-98 ms (16383 subsets each), so the pool still pays above
# the threshold.
POOL_MIN_SUBSETS = 8000
# A sampled scan that stops at its first violation walks its first
# SAMPLE_HEAD draws alone, then only the rest if those are clean: an
# input that fails often stops there.
SAMPLE_HEAD = 16


# --------------------------------------------------------------- direct test

def homology_map_injective(X: SimplicialComplex, subset, k: int) -> bool:
    """Does H_k(X[subset]) -> H_k(X) inject?

    Direct computation: a basis of Z_k(Y) is embedded into the k-chain
    space of X, stacked against a generating set of B_k(X), and the
    intersection dimension dim U + dim W - dim(U+W) is compared with
    dim B_k(Y).
    """
    s = frozenset(subset)
    unknown = s - set(X.vertices)
    if unknown:
        raise UnknownVertex(f"unknown vertices {sorted(unknown)}")
    if not 0 <= k <= X.dimension:
        return True
    index_k = X.face_index(k)
    y_k = [f for f in index_k if s.issuperset(f)]
    if not y_k:
        return True

    # Z_k(Y): kernel of Y's boundary map, written in X's k-face coordinates.
    if k == 0:
        cycles_y = [1 << index_k[f] for f in y_k]
    else:
        bd_k = boundary_columns(X, k)
        rows = [bd_k[index_k[f]] for f in y_k]
        # kernel over the y_k columns: transpose to (lower x y_k) and solve
        mat = transpose_gf2(rows, len(X.face_index(k - 1)))
        kernel = nullspace_gf2(mat, len(y_k))
        cycles_y = []
        for u in kernel:
            w = 0
            for c in range(len(y_k)):
                if (u >> c) & 1:
                    w |= 1 << index_k[y_k[c]]
            cycles_y.append(w)

    # B_k(X): boundaries of all (k+1)-faces; B_k(Y): those of Y's.
    bx = boundary_columns(X, k + 1)
    by = [v for f, v in zip(X.face_index(k + 1), bx) if s.issuperset(f)]
    dim_z = len(cycles_y)
    dim_bx = rank_gf2(bx)
    dim_sum = rank_gf2(bx + cycles_y)
    dim_meet = dim_z + dim_bx - dim_sum
    return dim_meet == rank_gf2(by)


# ------------------------------------------------------------------- reports

class TightnessReport(NamedTuple):
    mode: str  # "exhaustive" or "sampled"
    checked: int  # subsets covered
    evaluated: int  # subsets evaluated; below checked when duality applied
    violations: tuple[tuple[tuple[str, ...], int], ...]
    sample_count: int | None = None
    seed: int | None = None

    @property
    def verdict(self) -> str:
        if self.violations:
            return "not-tight"
        return "tight" if self.mode == "exhaustive" else "tight-on-sample"


# ---------------------------------------------------------------------- gate

def duality_applies(X: SimplicialComplex) -> bool:
    """Is X a connected closed Z2-homology manifold?

    That is: a closed pseudomanifold, connected, with every face link a
    Z2-homology sphere of the matching dimension.  A member of Walkup's
    class K(d) passes at once: its vertex links are stacked spheres,
    hence PL spheres, and the link of a face in a PL sphere is again a
    PL sphere (F. Effenberger, Stacked polytopes and tight
    triangulations of manifolds, JCTA 118, 2011).  Any other input gets
    _face_links_are_spheres().  The empty complex is not closed, and the
    one closed 0-complex, two points, is disconnected.
    """
    if not X.is_closed_pseudomanifold() or not X.is_connected():
        return False
    return in_walkup_class(X) or _face_links_are_spheres(X)


def _face_links_are_spheres(X: SimplicialComplex) -> bool:
    """Is the link of every face of the closed pseudomanifold X a
    Z2-homology sphere?

    Ridge links are point pairs in any closed pseudomanifold.  The
    m-dimensional link L of a smaller face is tested for b_0 = 1 and
    b_1 = ... = b_{m//2} = 0, which every sphere passes.  Once all links
    pass, the links of L's own faces (links of larger faces of X) are
    spheres, so L is a closed Z2-homology manifold and Poincaré duality
    supplies the upper half of its Betti numbers: L is a sphere.
    """
    d = X.dimension
    links: dict[tuple[str, ...], list[tuple[str, ...]]] = defaultdict(list)
    for facet in X.facets:
        for size in range(1, d):
            for face in combinations(facet, size):
                links[face].append(tuple(v for v in facet if v not in face))
    for face, residues in links.items():
        half = (d - len(face)) // 2
        if betti_numbers(SimplicialComplex(residues), half) != (1,) + (0,) * half:
            return False
    return True


# ----------------------------------------------------------- incremental scan

Violations = list[tuple[tuple[str, ...], int]]


class TightnessEngine:
    """Shared precomputation for scanning the subsets of one complex.

    star[v] is the trie of v's lower star: the root is the face (v,), and
    a child adds one smaller vertex, larger than those already added.  A
    node is [degree, vector, child bitmask, children keyed by their vertex
    bit]; a k-face's vector is its boundary shifted past its zbits[k]
    complement bits (zbits is 0 in degree 0, whose boundaries are 0, and in
    degree d, which never fails).  The engine holds no complex, so it pickles.
    """

    def __init__(self, X: SimplicialComplex):
        self.labels = X.vertices
        self.n = len(X.vertices)
        self.d = d = X.dimension
        vidx = {v: i for i, v in enumerate(X.vertices)}
        faces = [X.face_index(k) for k in range(d + 1)]
        # boundary of each k-face over (k-1)-face positions
        bd = [[0] * self.n] + [boundary_columns(X, k) for k in range(1, d + 1)]
        # bases of the orthogonal complements of the boundary spaces B_k(X)
        comp = [nullspace_gf2(bd[k + 1], len(faces[k])) for k in range(d)]
        self.zbits = [len(comp[k]) if 0 < k < d else 0 for k in range(d + 1)]

        nodes: dict[tuple[int, ...], list] = {}
        for k in range(d + 1):
            z = transpose_gf2(comp[k], len(faces[k])) if k < d else [0] * len(faces[k])
            for i, f in enumerate(faces[k]):
                ids = tuple(vidx[v] for v in f)
                node = nodes[ids] = [k, bd[k][i] << self.zbits[k] | z[i], 0, {}]
                if k:
                    # the parent drops the largest vertex below the top one
                    parent = nodes[ids[:-2] + ids[-1:]]
                    bit = 1 << ids[-2]
                    parent[2] |= bit
                    parent[3][bit] = node
        self.star: list[list] = [nodes[(v,)] for v in range(self.n)]

    def evaluate(self, masks):
        """Yield (mask, its bad degrees, ascending) for each vertex mask
        of masks, in order.

        One level per vertex of the mask walked last, least first, holds
        its bit, the counts before it and the pivots its faces added.  A
        mask keeps the levels of the least vertices it shares with the
        mask before, pops the rest and walks the tries of its other
        vertices, each down the branches inside the vertices below it.
        spaces[k] spans the k-faces' vectors, and cnt[k] counts the k-faces
        plus the pivots of degree k+1 below zbits[k+1], the (k+1)-cycles
        of Y that do not bound in X.
        """
        d, star, zbits = self.d, self.star, self.zbits
        cnt = [0] * (d + 1)
        spaces = [PivotSpace() for _ in range(d + 1)]
        levels: list[tuple[int, list, list]] = []  # (vertex bit, saved cnt, log)
        stack: list[list] = []  # trie nodes to insert
        pop, push = stack.pop, stack.append
        current, top = 0, 1 << self.n
        for m in masks:
            diff = current ^ m
            low = diff & -diff or top  # the least vertex not shared, if any
            while levels and levels[-1][0] >= low:
                _, saved, log = levels.pop()
                cnt[:] = saved
                for space, p in log:
                    space.remove(p)
            within = m & (low - 1)
            rest = m ^ within
            while rest:
                bit = rest & -rest
                log = []
                levels.append((bit, cnt[:], log))
                push(star[bit.bit_length() - 1])
                while stack:
                    k, vec, cm, kids = pop()
                    cnt[k] += 1
                    space = spaces[k]
                    p = space.insert(vec)
                    if p is not None:
                        if p < zbits[k]:
                            cnt[k - 1] += 1
                        log.append((space, p))
                    # push the highest child first, so the lowest is walked first
                    c = cm & within
                    while c:
                        hi = 1 << (c.bit_length() - 1)
                        push(kids[hi])
                        c ^= hi
                within |= bit
                rest ^= bit
            current = m
            bad = []
            for k in range(d):
                ranks = spaces[k].rank + spaces[k + 1].rank
                # B_k(Y) always sits inside C_k(Y) ∩ B_k(X)
                assert cnt[k] >= ranks
                if cnt[k] != ranks:
                    bad.append(k)
            yield m, bad

    def search(
        self,
        root: tuple[int, ...] = (),
        stop_on_first: bool = True,
        dual: bool = False,
        descend: bool = True,
    ) -> tuple[int, int, Violations]:
        """Evaluate the subset root and, with descend, every subset that
        extends it by larger vertex indices, depth-first by ascending index.

        root lists vertex indices in ascending order; the empty root is
        not itself evaluated.  Without dual every proper subset stands for
        itself.  With dual (sound only when duality_applies(X)) subsets
        larger than n // 2 are skipped: an evaluated S also covers V∖S
        unless 2|S| = n, and each violation (S, k) is reported again as
        (V∖S, d - 1 - k).

        The subsets stream from _extensions through evaluate, which keeps
        the faces of each subset's parent.  With stop_on_first the scan
        ends at the first violating subset, after listing every bad degree
        of it, each followed by its mirror under dual.

        Returns (subsets evaluated, subsets covered, violations).
        """
        d = self.d
        n = self.n
        cap = n // 2 if dual else n - 1
        full = (1 << n) - 1
        violations: Violations = []
        evaluated = covered = 0
        for mask, bad in self.evaluate(_extensions(root, n, cap, descend)):
            evaluated += 1
            mirrored = dual and 2 * mask.bit_count() != n
            covered += 2 if mirrored else 1
            for k in bad:
                violations.append((self._subset_labels(mask), k))
                if mirrored:
                    violations.append(
                        (self._subset_labels(full ^ mask), d - 1 - k)
                    )
            if violations and stop_on_first:
                break
        return evaluated, covered, violations

    def search_draws(
        self, draws: list[int], stop_on_first: bool = True, dual: bool = False
    ) -> tuple[int, int, Violations]:
        """Evaluate the vertex masks draws (repeats allowed) and report
        them in draw order, as one search(draw, descend=False) per draw
        would, without dual: evaluated and covered count every draw.

        With dual (sound only when duality_applies(X)) a draw S with
        2|S| > n is evaluated as V∖S, and each bad degree k found there is
        reported as d - 1 - k on S, in ascending order.

        Each distinct evaluated mask goes through evaluate once, in the
        order of its bits from the least vertex up, so that masks sharing
        their least vertices are adjacent.  With stop_on_first the report
        ends at the first violating draw, after every bad degree of it,
        and skips masks first drawn after a violating one already walked.
        """
        n, d = self.n, self.d
        full = (1 << n) - 1
        # each distinct draw -> the mask it is evaluated as
        evaluate_as = {
            m: full ^ m if dual and 2 * m.bit_count() > n else m for m in draws
        }
        first: dict[int, int] = {}  # evaluated mask -> index of its first draw
        for i, m in enumerate(draws):
            first.setdefault(evaluate_as[m], i)
        order = sorted(first, key=lambda m: format(m, f"0{n}b")[::-1])
        stop = len(draws)  # first index of the earliest violating draw
        bad: dict[int, list[int]] = {}
        for m, ks in self.evaluate(m for m in order if first[m] <= stop):
            bad[m] = ks
            if ks and stop_on_first:
                stop = min(stop, first[m])
        evaluated = 0
        violations: Violations = []
        for m in draws:
            evaluated += 1
            e = evaluate_as[m]
            ks = bad[e] if e == m else [d - 1 - k for k in reversed(bad[e])]
            violations.extend((self._subset_labels(m), k) for k in ks)
            if violations and stop_on_first:
                break
        return evaluated, evaluated, violations

    def _subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(
            self.labels[v] for v in range(self.n) if (mask >> v) & 1
        )


# ------------------------------------------------------------------ the scan

def _extensions(root: tuple[int, ...], n: int, cap: int, descend: bool):
    """The masks search(root, descend=descend) evaluates: root's unless
    root is empty, then with descend every extension of root by larger
    vertex indices, depth-first by ascending index, up to cap vertices."""
    size = depth = len(root)
    if size > cap:
        return
    mask = sum(1 << v for v in root)
    if root:
        yield mask
    v = (root[-1] + 1 if root else 0) if descend else n  # next to add
    while True:
        if v < n and size < cap:
            mask |= 1 << v
            size += 1
            v += 1
            yield mask
        elif size > depth:
            u = mask.bit_length() - 1
            mask ^= 1 << u
            size -= 1
            v = u + 1
        else:
            return


def _subtrees(n: int, dual: bool, stop_on_first: bool):
    """An exhaustive scan as search tasks in the serial order: {v1}, then
    the subsets extending (v1, v2) for ascending v2."""
    for v1 in range(n):
        yield (v1,), stop_on_first, dual, False
        for v2 in range(v1 + 1, n):
            yield (v1, v2), stop_on_first, dual, True


def _draws(rng: SplitMix64, n: int, count: int) -> list[int]:
    """The next count draws of a sampled scan, as vertex masks, uniform
    over the non-empty proper subsets."""
    space = (1 << n) - 2
    return [rng.next_below(space) + 1 for _ in range(count)]


_WORKER_ENGINE: TightnessEngine | None = None
_WORKER_STOP = None


def _init_worker(engine, stop):
    global _WORKER_ENGINE, _WORKER_STOP
    _WORKER_ENGINE = engine
    _WORKER_STOP = stop


def _run_task(task):
    if _WORKER_STOP.is_set():
        return 0, 0, []
    return _WORKER_ENGINE.search(*task)


def _run(
    engine: TightnessEngine, tasks, jobs: int, stop_on_first: bool
) -> tuple[int, int, Violations]:
    """Run search tasks and consume their results in task order, in
    process with one job, otherwise over a pool of jobs workers."""
    if jobs == 1:
        pool = None
        results = (engine.search(*task) for task in tasks)
    else:
        from multiprocessing import Event, Pool

        stop = Event()
        pool = Pool(processes=jobs, initializer=_init_worker, initargs=(engine, stop))
        # one task at a time, so that the large early subtrees spread over
        # the workers
        results = pool.imap(_run_task, tasks)
    evaluated = covered = 0
    violations: Violations = []
    try:
        for e, c, v in results:
            evaluated += e
            covered += c
            violations.extend(v)
            if violations and stop_on_first:
                break
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    if pool is not None:
        # Cancel the queued tasks and let the workers exit on their own.
        # Pool.terminate() may kill a worker while it holds the result queue's
        # lock; the pool's task thread then blocks on that lock for good.
        stop.set()
        pool.close()
        pool.join()
    return evaluated, covered, violations


# ------------------------------------------------------------------ front door

def is_tight_z2(
    X: SimplicialComplex,
    mode: str = "exhaustive",
    sample_count: int = 1000,
    seed: int = 0,
    ceiling: int = DEFAULT_EXHAUSTIVE_CEILING,
    jobs: int = 1,
    stop_on_first: bool = True,
) -> TightnessReport:
    """Scan vertex subsets for homology-injectivity violations.

    Exhaustive mode covers every subset except the empty and full one
    (requires f0 <= ceiling), evaluating only those up to half size when
    duality_applies(X); sampled mode draws subsets from the seeded
    generator.  jobs must be at least 1 in either mode; jobs > 1 splits
    an exhaustive scan of at least POOL_MIN_SUBSETS subsets to evaluate
    over size-2 subset prefixes without changing the report, on at most
    jobs and at most os.cpu_count() worker processes.

    With stop_on_first both modes end at the first violating subset, in
    scan or draw order, and list every bad degree k of it (an exhaustive
    scan under duality follows each with its mirror (V∖S, d - 1 - k)).
    """
    n = len(X.vertices)
    if jobs < 1:
        raise InvalidParameters(f"need at least 1 job, got {jobs}")
    if mode == "exhaustive":
        if n > ceiling:
            raise SubsetSpaceTooLarge(
                f"{n} vertices exceed the exhaustive ceiling {ceiling}"
            )
        dual = duality_applies(X)
        cap = n // 2 if dual else n - 1
        if sum(comb(n, s) for s in range(1, cap + 1)) < POOL_MIN_SUBSETS:
            jobs = 1
        # jobs is a cap: a worker beyond the cores only costs its start-up
        jobs = min(jobs, os.cpu_count() or 1)
        evaluated, checked, violations = _run(
            TightnessEngine(X), _subtrees(n, dual, stop_on_first), jobs,
            stop_on_first,
        )
    elif mode == "sampled":
        if sample_count < 1:
            raise InvalidParameters(
                f"sample count must be at least 1, got {sample_count}"
            )
        if n < 2:
            raise InvalidParameters(
                f"need at least 2 vertices to sample a proper subset, got {n}"
            )
        engine = TightnessEngine(X)
        dual = duality_applies(X)
        rng = SplitMix64(seed)
        head = min(SAMPLE_HEAD, sample_count) if stop_on_first else sample_count
        evaluated, checked, violations = engine.search_draws(
            _draws(rng, n, head), stop_on_first, dual
        )
        if not violations and head < sample_count:
            more, covered, violations = engine.search_draws(
                _draws(rng, n, sample_count - head), stop_on_first, dual
            )
            evaluated += more
            checked += covered
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sampled = mode == "sampled"
    return TightnessReport(
        mode=mode,
        checked=checked,
        evaluated=evaluated,
        violations=tuple(violations),
        sample_count=sample_count if sampled else None,
        seed=seed if sampled else None,
    )
