"""Mod-2 tightness: injectivity of induced homology maps.

For an induced subcomplex Y = X[S], the chain complex of Y is a
subcomplex of the chain complex of X, so a cycle of Y bounding in X is
the same thing as a chain of Y lying in B_k(X).  The degree-k map is
therefore injective iff

    dim(C_k(Y) ∩ B_k(X)) = dim B_k(Y).

The left side is computed through the orthogonal complement of B_k(X):
restricting the complement's basis matrix to the columns of Y's k-faces
gives dim(C_k(Y) ∩ B_k(X)) = f_k(Y) - rank(restriction).  Both sides
then grow monotonically as vertices are added to S, which the exhaustive
scan exploits: subsets are enumerated depth-first by ascending vertex
index, face insertions feed append-only GF(2) pivot structures, and
backtracking just pops the pivots again.

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
that hypothesis.  Every other input (with boundary, disconnected, a
singular link) gets the full scan.  Either way a
report's `checked` counts the subsets covered and `evaluated` the
subsets actually evaluated.

The pooled scan splits the search into the subtrees of the serial order
({v1}, then the subsets extending each (v1, v2)) and consumes their
results in that order, so a report depends on the input alone, not on
the number of workers or their scheduling.

homology_map_injective is the independent, direct implementation of the
same test (kernel and image bases stacked and ranked), and
TightnessEngine.scan() is the full scan; the capped scan is
cross-checked against both in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

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

DEFAULT_EXHAUSTIVE_CEILING = 20


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
    faces_k_all = X.faces_of_dim(k)
    index_k = {f: i for i, f in enumerate(faces_k_all)}
    y_k = [f for f in faces_k_all if set(f) <= s]
    if not y_k:
        return True

    # Z_k(Y): kernel of Y's boundary map, written in X's k-face coordinates.
    if k == 0:
        cycles_y = [1 << index_k[f] for f in y_k]
    else:
        bd_k = boundary_columns(X, k)
        rows = [bd_k[index_k[f]] for f in y_k]
        # kernel over the y_k columns: transpose to (lower x y_k) and solve
        mat = transpose_gf2(rows, len(X.faces_of_dim(k - 1)))
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
    by = [v for f, v in zip(X.faces_of_dim(k + 1), bx) if set(f) <= s]
    dim_z = len(cycles_y)
    dim_bx = rank_gf2(bx)
    dim_sum = rank_gf2(bx + cycles_y)
    dim_meet = dim_z + dim_bx - dim_sum
    return dim_meet == rank_gf2(by)


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class TightnessReport:
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
    Z2-homology sphere of the matching dimension.  Ridge links are point
    pairs in any closed pseudomanifold.  The m-dimensional link L of a
    smaller face is tested for b_0 = 1 and b_1 = ... = b_{m//2} = 0,
    which every sphere passes.  Once all links pass, the links of L's
    own faces (links of larger faces of X) are spheres, so L is a closed
    Z2-homology manifold and Poincaré duality supplies the upper half of
    its Betti numbers: L is a sphere.
    """
    d = X.dimension
    if d < 1 or not X.is_closed_pseudomanifold() or not X.is_connected():
        return False
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

class _Stop(Exception):
    pass


Violations = list[tuple[tuple[str, ...], int]]


class TightnessEngine:
    """Shared precomputation for scanning the subsets of one complex."""

    def __init__(self, X: SimplicialComplex):
        self.X = X
        self.n = len(X.vertices)
        self.d = X.dimension
        vidx = {v: i for i, v in enumerate(X.vertices)}
        d = self.d

        self.faces: list[tuple] = [X.faces_of_dim(k) for k in range(d + 1)]
        # boundary of each k-face over (k-1)-face indices
        self.bd: list[list[int]] = [[]] + [
            boundary_columns(X, k) for k in range(1, d + 1)
        ]
        # orthogonal complements of the boundary spaces B_k(X), k < d,
        # transposed into one column vector per k-face
        self.colvec: list[list[int]] = [
            transpose_gf2(
                nullspace_gf2(self.bd[k + 1], len(self.faces[k])),
                len(self.faces[k]),
            )
            for k in range(d)
        ]

        # faces grouped by their largest vertex, with the rest as a bitmask
        self.by_max: list[list[list[tuple[int, int]]]] = [
            [[] for _ in range(self.n)] for _ in range(d + 1)
        ]
        for k in range(d + 1):
            for i, f in enumerate(self.faces[k]):
                ids = [vidx[v] for v in f]
                m = max(ids)
                rest = 0
                for j in ids:
                    if j != m:
                        rest |= 1 << j
                self.by_max[k][m].append((rest, i))

    # -- one scan ------------------------------------------------------------

    def scan(self, stop_on_first: bool = True) -> tuple[int, Violations]:
        """Evaluate every proper subset, without duality.

        Returns (subsets checked, violations).
        """
        _, checked, violations = self.search(stop_on_first=stop_on_first)
        return checked, violations

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

        Returns (subsets evaluated, subsets covered, violations).
        """
        d = self.d
        n = self.n
        cap = n // 2 if dual else n - 1
        if len(root) > cap:
            return 0, 0, []
        cnt = [0] * d
        col = [PivotSpace() for _ in range(d)]
        bdr = [PivotSpace() for _ in range(d)]
        colvec = self.colvec
        bd = self.bd
        by_max = self.by_max
        violations: Violations = []
        evaluated = covered = 0
        full = (1 << n) - 1

        def add_vertex(v: int, mask: int) -> list[tuple[int, int, int]]:
            log: list[tuple[int, int, int]] = []
            for k in range(d + 1):
                for rest, i in by_max[k][v]:
                    if rest & ~mask:
                        continue
                    if k < d:
                        cnt[k] += 1
                        b = col[k].insert(colvec[k][i])
                        if b is not None:
                            log.append((0, k, b))
                    if k >= 1:
                        b = bdr[k - 1].insert(bd[k][i])
                        if b is not None:
                            log.append((1, k - 1, b))
            return log

        def undo(v: int, mask: int, log: list[tuple[int, int, int]]) -> None:
            for kind, k, b in log:
                (col if kind == 0 else bdr)[k].remove(b)
            for k in range(d + 1):
                if k < d:
                    for rest, _ in by_max[k][v]:
                        if not rest & ~mask:
                            cnt[k] -= 1

        def visit(mask: int, size: int) -> None:
            nonlocal evaluated, covered
            evaluated += 1
            mirrored = dual and 2 * size != n
            covered += 2 if mirrored else 1
            for k in range(d):
                meet = cnt[k] - col[k].rank
                # B_k(Y) always sits inside C_k(Y) ∩ B_k(X)
                assert meet >= bdr[k].rank
                if meet == bdr[k].rank:
                    continue
                violations.append((self._subset_labels(mask), k))
                if mirrored:
                    violations.append(
                        (self._subset_labels(full ^ mask), d - 1 - k)
                    )
                if stop_on_first:
                    raise _Stop

        def dfs(start: int, mask: int, size: int) -> None:
            # called with size < cap, so every child fits under the cap
            for v in range(start, n):
                log = add_vertex(v, mask)
                child = mask | (1 << v)
                visit(child, size + 1)
                if size + 1 < cap:
                    dfs(v + 1, child, size + 1)
                undo(v, mask, log)

        mask = 0
        for v in root:
            add_vertex(v, mask)
            mask |= 1 << v
        try:
            if root:
                visit(mask, len(root))
            if descend and len(root) < cap:
                dfs(root[-1] + 1 if root else 0, mask, len(root))
        except _Stop:
            pass
        return evaluated, covered, violations

    def check_subset(self, mask: int) -> tuple[int, list[int]]:
        """Evaluate one subset directly; returns (size, violating degrees)."""
        ids = [v for v in range(self.n) if (mask >> v) & 1]
        d = self.d
        cnt = [0] * d
        col = [PivotSpace() for _ in range(d)]
        bdr = [PivotSpace() for _ in range(d)]
        m = 0
        for v in ids:
            for k in range(d + 1):
                for rest, i in self.by_max[k][v]:
                    if rest & ~m:
                        continue
                    if k < d:
                        cnt[k] += 1
                        col[k].insert(self.colvec[k][i])
                    if k >= 1:
                        bdr[k - 1].insert(self.bd[k][i])
            m |= 1 << v
        bad = [k for k in range(d) if cnt[k] - col[k].rank != bdr[k].rank]
        return len(ids), bad

    def _subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(
            self.X.vertices[v] for v in range(self.n) if (mask >> v) & 1
        )


# ------------------------------------------------------------- worker plumbing

_WORKER_ENGINE: TightnessEngine | None = None
_WORKER_STOP = None


def _init_worker(facets, stop):
    global _WORKER_ENGINE, _WORKER_STOP
    _WORKER_ENGINE = TightnessEngine(SimplicialComplex(facets))
    _WORKER_STOP = stop


def _run_task(task):
    root, descend, dual, stop_on_first = task
    if _WORKER_STOP.is_set():
        return 0, 0, []
    return _WORKER_ENGINE.search(root, stop_on_first, dual, descend)


def _scan_parallel(
    X: SimplicialComplex, jobs: int, dual: bool, stop_on_first: bool
) -> tuple[int, int, Violations]:
    from multiprocessing import Event, Pool

    n = len(X.vertices)
    # the serial search's order: {v1}, then the subsets extending (v1, v2)
    # for ascending v2; results are consumed in this order
    tasks = []
    for v1 in range(n):
        tasks.append(((v1,), False, dual, stop_on_first))
        tasks.extend(
            ((v1, v2), True, dual, stop_on_first) for v2 in range(v1 + 1, n)
        )
    evaluated = covered = 0
    violations: Violations = []
    stop = Event()
    pool = Pool(processes=jobs, initializer=_init_worker, initargs=(X.facets, stop))
    try:
        for e, c, v in pool.imap(_run_task, tasks, chunksize=4):
            evaluated += e
            covered += c
            violations.extend(v)
            if violations and stop_on_first:
                break
    except BaseException:
        pool.terminate()
        raise
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
    the exhaustive scan over size-2 subset prefixes without changing the
    report.
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
        if jobs > 1 and n >= 3:
            evaluated, checked, violations = _scan_parallel(
                X, jobs, dual, stop_on_first
            )
        else:
            evaluated, checked, violations = TightnessEngine(X).search(
                stop_on_first=stop_on_first, dual=dual
            )
        return TightnessReport(
            mode="exhaustive",
            checked=checked,
            evaluated=evaluated,
            violations=tuple(violations),
        )
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if sample_count < 1:
        raise InvalidParameters(
            f"sample count must be at least 1, got {sample_count}"
        )
    engine = TightnessEngine(X)
    rng = SplitMix64(seed)
    space = (1 << n) - 2
    violations = []
    checked = 0
    for _ in range(sample_count):
        mask = rng.next_below(space) + 1  # uniform over non-empty proper subsets
        checked += 1
        _, bad = engine.check_subset(mask)
        for k in bad:
            violations.append((engine._subset_labels(mask), k))
        if violations and stop_on_first:
            break
    return TightnessReport(
        mode="sampled",
        checked=checked,
        evaluated=checked,
        violations=tuple(violations),
        sample_count=sample_count,
        seed=seed,
    )
