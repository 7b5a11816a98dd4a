"""Seeded input generators for the benchmark.

Nothing here imports walkup: the program under test only ever receives
the text these functions produce, so a change to the program cannot
change its own inputs.  Every complex is returned as canonical facet-list
text (labels sorted inside a facet, facets sorted, one per line), which
is also what `walkup` serializes, so a round trip through the program
can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations


def canonical_text(facets) -> str:
    rows = sorted(tuple(sorted(f)) for f in facets)
    return "".join(" ".join(f) + "\n" for f in rows)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def boundary(facets) -> list[tuple[str, ...]]:
    """Ridges lying in exactly one facet."""
    count: dict[tuple[str, ...], int] = {}
    for f in facets:
        f = tuple(sorted(f))
        for i in range(len(f)):
            r = f[:i] + f[i + 1:]
            count[r] = count.get(r, 0) + 1
    return [r for r, c in count.items() if c == 1]


def kuhnel(d: int) -> list[tuple[str, ...]]:
    """Kühnel's (2d+3)-vertex S^{d-1}-bundle over S^1.

    The boundary of the (d+1)-ball whose facets are {i, ..., i+d+1}
    mod 2d+3.
    """
    m = 2 * d + 3
    ball = [tuple(f"k{(i + j) % m}" for j in range(d + 2)) for i in range(m)]
    return boundary(ball)


def cyclic_polytope_boundary(dim: int, n: int) -> list[tuple[str, ...]]:
    """Boundary facets of the cyclic polytope C(dim, n), by Gale evenness."""
    facets = []
    for s in combinations(range(n), dim):
        members = set(s)
        if all(
            sum(1 for x in s if i < x < j) % 2 == 0
            for i in range(n) if i not in members
            for j in range(i + 1, n) if j not in members
        ):
            facets.append(tuple(f"c{x}" for x in s))
    return facets


def stacked_sphere(d: int, n: int, rng: random.Random, path: bool = False) -> list[tuple[str, ...]]:
    """A stacked d-sphere on n vertices by repeated facet subdivision.

    path=True subdivides only facets containing the newest vertex, which
    grows a long "tube" with a large graph diameter; uniform growth keeps
    the 1-skeleton too shallow for vertex pairs at distance 3.
    """
    labels = [f"s{i}" for i in range(d + 2)]
    facets = {tuple(sorted(f)) for f in combinations(labels, d + 1)}
    newest = None
    for i in range(d + 2, n):
        pool = sorted(facets if newest is None else (f for f in facets if newest in f))
        chosen = pool[rng.randrange(len(pool))]
        newest = f"s{i}"
        facets.remove(chosen)
        for j in range(d + 1):
            facets.add(tuple(sorted(chosen[:j] + chosen[j + 1:] + (newest,))))
    return sorted(facets)


def connected_sum(a, b) -> list[tuple[str, ...]]:
    """Glue a and b (disjoint labels) along their first facets, in order."""
    fa, fb = min(a), min(b)
    rename = dict(zip(fb, fa))
    glued = [tuple(sorted(rename.get(v, v) for v in f)) for f in b if f != fb]
    return [f for f in a if f != fa] + glued


def stacked_sum_cyclic(n_stacked: int, rng: random.Random) -> list[tuple[str, ...]]:
    """A stacked 4-sphere # the cyclic polytope boundary C(5, 9).

    Not stacked: after the stacked part is unstacked, the neighborly
    cyclic part leaves no vertex of degree 5.
    """
    return connected_sum(stacked_sphere(4, n_stacked, rng), cyclic_polytope_boundary(5, 9))


def malformed(rng: random.Random) -> str:
    """A facet list whose last facet has one vertex too few."""
    rows = [" ".join(f"m{(i + j) % 9}" for j in range(5)) for i in range(rng.randrange(3, 8))]
    rows.append(" ".join(f"m{j}" for j in range(4)))
    return "# malformed: mixed facet sizes\n" + "\n".join(rows) + "\n"


def face_counts(facets) -> tuple[int, ...]:
    """f-vector counted directly from the facets."""
    size = len(next(iter(facets)))
    faces = [set() for _ in range(size)]
    for f in facets:
        for k in range(1, size + 1):
            faces[k - 1].update(combinations(sorted(f), k))
    return tuple(len(s) for s in faces)
