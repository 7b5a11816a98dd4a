"""Tightness: the direct injectivity test and the incremental subset scan."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import threading
import random
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest
from corpus import get, select, tags_of

from walkup import (
    SimplicialComplex,
    disjoint_union,
    from_facets,
    homology_map_injective,
    in_walkup_class,
    is_tight_z2,
    is_two_neighborly,
    random_stacked_sphere,
    standard_sphere,
)
from walkup.cli import main
from walkup.errors import InvalidParameters, SubsetSpaceTooLarge, UnknownVertex
from walkup.homology import betti_numbers
from walkup.io import serialize
from walkup.rng import SplitMix64
from walkup import tightness
from walkup.tightness import (
    POOL_MIN_SUBSETS,
    SAMPLE_HEAD,
    TightnessEngine,
    _draws,
    _face_links_are_spheres,
    _run,
    _subtrees,
    duality_applies,
)


def test_full_subset_always_injective(torus_7):
    for k in range(3):
        assert homology_map_injective(torus_7, torus_7.vertices, k)


def test_single_facet_injective(m4_15):
    f = m4_15.facets[0]
    for k in range(5):
        assert homology_map_injective(m4_15, f, k)


def test_nonadjacent_pair_breaks_degree_zero():
    X = random_stacked_sphere(4, 8, seed=1)
    assert not is_two_neighborly(X)
    adj = X.adjacency()
    u, v = next(
        (u, v)
        for u, v in combinations(X.vertices, 2)
        if v not in adj[u]
    )
    assert not homology_map_injective(X, (u, v), 0)
    # degree 1 injects, and degrees outside 0..d have nothing to map
    for k in (-1, 1, 5):
        assert homology_map_injective(X, (u, v), k)


def test_unknown_vertex_rejected(m4_15):
    with pytest.raises(UnknownVertex):
        homology_map_injective(m4_15, ("zz",), 0)


def _direct_violations(X, subsets):
    return [
        (sub, k)
        for sub in subsets
        for k in range(X.dimension)
        if not homology_map_injective(X, sub, k)
    ]


def test_scan_agrees_with_direct_check_exhaustively():
    # the fast incremental scan and the direct rank computation must give
    # identical verdicts on every subset and degree of small complexes;
    # the grid torus and the union have middle homology, so cycles of Y
    # that survive in X reach the scan's test (violation count, degrees)
    complexes = [
        (get("S2"), None),
        (get("stacked(2, 7, 0)"), None),
        (get("stacked(3, 7, 5)"), None),
        (get("stacked(4, 8, 1)"), None),
        (get("grid torus"), (24, {0, 1})),
        (disjoint_union(standard_sphere(2), random_stacked_sphere(2, 6, 3))[0],
         (160, {0, 1})),
    ]
    for X, expected in complexes:
        n = len(X.vertices)
        _, _, viols = TightnessEngine(X).search(stop_on_first=False)
        subsets = [
            sub for size in range(1, n) for sub in combinations(X.vertices, size)
        ]
        assert set(viols) == set(_direct_violations(X, subsets))
        if expected is not None:
            assert (len(viols), {k for _, k in viols}) == expected


def test_sampled_scan_agrees_with_direct_check_with_middle_homology():
    # a stacked 4-sphere with one handle: Betti numbers (1, 1, 0, 1, 1),
    # so degrees 1 and 3 of the scan's test meet surviving cycles
    Y = get("tube(4, 26, 1)+1")
    assert betti_numbers(Y) == (1, 1, 0, 1, 1)
    n = len(Y.vertices)
    engine = TightnessEngine(Y)
    found = []
    for mask in _draws(SplitMix64(5), n, 200):
        root = tuple(v for v in range(n) if (mask >> v) & 1)
        _, _, bad = engine.search(root, stop_on_first=False, descend=False)
        sub = tuple(Y.vertices[v] for v in root)
        assert bad == _direct_violations(Y, [sub])
        found += bad
    assert len(found) == 30
    assert {k for _, k in found} == {0, 3}


def test_standard_spheres_tight():
    for d in (2, 3, 4):
        rep = is_tight_z2(standard_sphere(d))
        assert rep.verdict == "tight"
        assert rep.checked == 2 ** (d + 2) - 2


def test_eight_vertex_stacked_sphere_not_tight():
    X = random_stacked_sphere(4, 8, seed=1)
    rep = is_tight_z2(X, stop_on_first=True)
    assert rep.verdict == "not-tight"
    assert rep.violations
    # a 2-element witness exists among the violations when collecting all
    rep_all = is_tight_z2(X, stop_on_first=False)
    assert any(len(s) == 2 and k == 0 for s, k in rep_all.violations)


def test_tight_complexes_are_two_neighborly(m4_15):
    # degree-0 injectivity for every pair forces the edges
    assert is_two_neighborly(m4_15)
    for u, v in [("a1", "b4"), ("c2", "c3")]:
        assert homology_map_injective(m4_15, (u, v), 0)
    for name, X in select("tight", without=("disconnected",)):
        assert is_two_neighborly(X), name


def test_sampled_mode_consistent_with_exhaustive():
    verdicts = {}
    for name, X in select("not-tight", max_f0=8):
        exhaustive = is_tight_z2(X, stop_on_first=False)
        bad = {(s, k) for s, k in exhaustive.violations}
        sampled = is_tight_z2(X, mode="sampled", sample_count=200, seed=11,
                              stop_on_first=False)
        assert sampled.checked == 200
        for s, k in sampled.violations:
            assert (s, k) in bad, name
        verdicts[name] = sampled.verdict
    assert verdicts["stacked(4, 8, 1)"] == "not-tight"


def test_sampled_mode_on_tight_complex():
    X = standard_sphere(3)
    rep = is_tight_z2(X, mode="sampled", sample_count=50, seed=4)
    assert rep.verdict == "tight-on-sample"
    assert rep.seed == 4 and rep.sample_count == 50
    for name, X in select("tight"):
        if len(X.vertices) >= 2:
            rep = is_tight_z2(X, mode="sampled", sample_count=50, seed=4)
            assert rep.verdict == "tight-on-sample", name


def test_ceiling_guard():
    X = random_stacked_sphere(3, 25, seed=0)
    with pytest.raises(SubsetSpaceTooLarge):
        is_tight_z2(X, ceiling=20)
    rep = is_tight_z2(X, mode="sampled", sample_count=20, seed=0)
    assert rep.checked <= 20


def test_sampling_needs_a_proper_subset():
    # one vertex (or none) has no non-empty proper subset to draw
    for X in (from_facets([["a"]]), SimplicialComplex(())):
        with pytest.raises(InvalidParameters):
            is_tight_z2(X, mode="sampled", sample_count=3)
    rep = is_tight_z2(from_facets([["a", "b"]]), mode="sampled", sample_count=3)
    assert rep.checked == 3
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        is_tight_z2(from_facets([["a", "b"]]), mode="bogus")


def test_engine_counts_match_report(m4_15):
    engine = TightnessEngine(m4_15)
    _, checked, violations = engine.search(stop_on_first=True)
    assert checked == 2 ** 15 - 2
    assert violations == []


# ------------------------------------------------ duality-capped exhaustive scan

def _scans(max_f0, *larger):
    """The entries of 2 to max_f0 vertices, each with a non-empty proper
    subset to scan or draw, then the larger entries named."""
    small = [(name, X) for name, X in select(max_f0=max_f0) if len(X.vertices) >= 2]
    return small + [(name, get(name)) for name in larger]


# A scan's cost doubles with each vertex, so the scan twins read the
# entries of up to 7 vertices, and by name the larger ones they were
# written against: non-tight stacked spheres, what the duality gate
# refuses, the walk twin's inputs and the 2-neighborly cyclic spheres.
NON_TIGHT_STACKED = tuple(f"stacked{a}" for a in (
    (2, 8, 3), (3, 8, 1), (3, 9, 5), (4, 10, 2), (4, 11, 4), (4, 12, 1)))
FALLBACK = ("stacked(3, 8, 1) less a facet", "two 2-spheres", "suspension of rp2_6")
WALK = ("S2 + stacked(2, 5, 2)", "stacked(3, 8, 1) less a facet", "stacked(3, 8, 1)",
        "stacked(4, 10, 3) less two facets", "two 3-spheres", "stacked(4, 10, 2)")


def _scan_corpus():
    return _scans(7, *NON_TIGHT_STACKED, *FALLBACK, "K3", "K4", "K5", "m4-15",
                  "∂C(4, 8)", "∂C(4, 9)", "∂C(4, 12)", "∂C(5, 10)")


def test_dual_scan_matches_full_scan():
    seen_even = seen_odd = 0
    for name, X in _scan_corpus():
        if not duality_applies(X):
            # members of K(d) pass the gate (see the shortcut test below)
            assert "kd" not in tags_of(name) or "disconnected" in tags_of(name), name
            continue
        n = len(X.vertices)
        seen_even += n % 2 == 0
        seen_odd += n % 2 == 1
        _, full_checked, full_violations = TightnessEngine(X).search(
            stop_on_first=False
        )
        assert full_checked == 2 ** n - 2
        for jobs in (1, 2):
            rep = is_tight_z2(X, jobs=jobs, stop_on_first=False)
            assert rep.checked == full_checked
            assert rep.evaluated == sum(comb(n, s) for s in range(1, n // 2 + 1))
            # each violation is found once: evaluated or mirrored, never both
            assert sorted(rep.violations) == sorted(full_violations), name
    assert seen_even >= 10 and seen_odd >= 10


def test_dual_scan_mirrors_violations_exactly():
    # a violation (S, k) stands for (V - S, d - 1 - k), and the direct
    # test agrees with both
    X = random_stacked_sphere(3, 9, seed=5)
    d = X.dimension
    rep = is_tight_z2(X, stop_on_first=False)
    bad = set(rep.violations)
    for s, k in bad:
        rest = tuple(v for v in X.vertices if v not in s)
        assert (rest, d - 1 - k) in bad
        assert not homology_map_injective(X, s, k)


def test_dual_scan_stops_at_first_serial_violation():
    X = random_stacked_sphere(3, 8, 1)
    rep = is_tight_z2(X, stop_on_first=True)
    assert rep.evaluated == 4
    # {v1}, {v1,v2}, {v1,v2,v3} each cover their complement; {v1..v4} is
    # half of the vertex set and covers only itself
    assert rep.checked == 7
    assert rep.violations == ((("v1", "v2", "v3", "v4"), 2),)


def test_stop_on_first_reports_every_bad_degree_of_the_first_violation():
    # {v1, v2, v4, v7} fails in degrees 0 and 1: a scan that stops on its
    # first violating subset lists both degrees (with dual, each followed
    # by its mirror), exhaustive and sampled alike
    engine = TightnessEngine(random_stacked_sphere(2, 9, 2))
    root = (0, 1, 3, 6)
    s, rest = ("v1", "v2", "v4", "v7"), ("v3", "v5", "v6", "v8", "v9")
    both = (1, 1, [(s, 0), (s, 1)])
    assert engine.search(root, stop_on_first=True, descend=False) == both
    assert engine.search(root, stop_on_first=False, descend=False) == both
    assert engine.search(root, stop_on_first=True, dual=True, descend=False) == (
        1, 2, [(s, 0), (rest, 1), (s, 1), (rest, 0)]
    )
    assert engine.search(root, stop_on_first=True) == both
    mask = sum(1 << v for v in root)
    for dual in (False, True):
        assert engine.search_draws([mask, 1], stop_on_first=True, dual=dual) == both


def test_gate_falls_back_to_full_scan():
    corpus, fallen = _scan_corpus(), set()
    for name, X in corpus:
        if duality_applies(X):
            continue
        fallen.add(name)
        n = len(X.vertices)
        _, full_checked, full_violations = TightnessEngine(X).search(
            stop_on_first=False
        )
        for jobs in (1, 2):
            rep = is_tight_z2(X, jobs=jobs, stop_on_first=False)
            assert rep.evaluated == rep.checked == full_checked == 2 ** n - 2, name
            assert list(rep.violations) == full_violations, name
    # inputs with boundary, disconnected or singular ones
    assert {
        name for name, _ in corpus if tags_of(name) & {"boundary", "disconnected"}
    } <= fallen
    assert {"suspension of rp2_6", "wedge of two 2-spheres"} <= fallen


def test_pooled_early_stop_exits_cleanly():
    # many early stops over real pools: every scan must return the serial
    # report, and the pool must shut down each time.  The input's 16383
    # subsets to evaluate clear POOL_MIN_SUBSETS, so each scan starts one
    # pool wherever there are two cores to give it.
    script = (
        "import multiprocessing, os\n"
        "from math import comb\n"
        "from walkup import is_tight_z2, random_stacked_sphere\n"
        "from walkup.tightness import POOL_MIN_SUBSETS, duality_applies\n"
        "starts = []\n"
        "real_pool = multiprocessing.Pool\n"
        "def counting_pool(*args, **kwargs):\n"
        "    starts.append(kwargs['processes'])\n"
        "    return real_pool(*args, **kwargs)\n"
        "multiprocessing.Pool = counting_pool\n"
        "X = random_stacked_sphere(4, 15, 1)\n"
        "assert duality_applies(X)\n"
        "assert sum(comb(15, s) for s in range(1, 8)) == 16383 >= POOL_MIN_SUBSETS\n"
        "serial = is_tight_z2(X, jobs=1)\n"
        "assert serial.verdict == 'not-tight'\n"
        "for _ in range(25):\n"
        "    assert is_tight_z2(X, jobs=4) == serial\n"
        "workers = min(4, os.cpu_count() or 1)\n"
        "assert starts == ([workers] * 25 if workers >= 2 else []), starts\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# ------------------------------------------------------ the K(d) gate shortcut

def test_walkup_shortcut_agrees_with_face_link_gate():
    for name, X in select("kd", without=("disconnected",), max_f0=17):
        assert in_walkup_class(X), name
        assert duality_applies(X), name
        assert _face_links_are_spheres(X), name


def test_duality_gate_refuses_empty_and_two_points(monkeypatch):
    # below dimension 1 the gate needs no test of its own: the empty
    # complex is not closed and two points are disconnected
    monkeypatch.setattr(tightness, "_face_links_are_spheres", None)
    for name in ("empty", "two points"):
        assert not duality_applies(get(name)), name


def test_non_members_reach_face_link_gate(monkeypatch):
    calls = []

    def spy(X):
        calls.append(X)
        return _face_links_are_spheres(X)

    monkeypatch.setattr(tightness, "_face_links_are_spheres", spy)
    suspension = get("suspension of rp2_6")
    # the octahedral 3-sphere: a PL sphere whose vertex links (octahedra)
    # are not stacked, so the shortcut does not apply but the gate passes
    cross = get("cross-polytope 3-sphere")
    for X, verdict in ((suspension, False), (cross, True)):
        calls.clear()
        assert not in_walkup_class(X)
        assert duality_applies(X) is verdict
        assert calls == [X]
    # with boundary or disconnected: refused before either test, even when
    # every component is a member
    two_spheres, _ = disjoint_union(standard_sphere(3), random_stacked_sphere(3, 7, 2))
    assert in_walkup_class(two_spheres)
    for X in (get("stacked(3, 8, 1) less a facet"), get("two 2-spheres"), two_spheres):
        calls.clear()
        assert not duality_applies(X)
        assert calls == []


# ------------------------------------------------- lower-star walk twin tests

def test_full_scan_matches_check_subset_on_every_mask():
    # the scan's incremental walk against a from-scratch walk per subset
    # (a search of that root alone), in the scan's order (subsets as
    # ascending index tuples, sorted)
    found = 0
    for _, X in _scans(7, *WALK):
        engine = TightnessEngine(X)
        n = len(X.vertices)
        evaluated, covered, violations = engine.search(stop_on_first=False)
        assert evaluated == covered == 2 ** n - 2
        subsets = sorted(
            sub for size in range(1, n) for sub in combinations(range(n), size)
        )
        expected = []
        for sub in subsets:
            evaluated, covered, bad = engine.search(
                sub, stop_on_first=False, descend=False
            )
            assert evaluated == covered == 1
            labels = tuple(X.vertices[v] for v in sub)
            assert all(s == labels for s, _ in bad)
            expected += bad
        assert violations == expected
        found += len(violations)
        for s, k in violations:
            assert not homology_map_injective(X, s, k)
    assert found


def _per_draw_report(engine, draws, stop_on_first):
    """The sampled scan's report from one search(draw, descend=False)
    per draw, in draw order."""
    evaluated, violations = 0, []
    for mask in draws:
        root = tuple(v for v in range(engine.n) if (mask >> v) & 1)
        evaluated += 1
        violations += engine.search(root, stop_on_first=False, descend=False)[2]
        if violations and stop_on_first:
            break
    return evaluated, evaluated, violations


def _draw_twin_corpus():
    """The walk twin's inputs, the larger non-tight stacked spheres, and a
    tube with a handle, whose middle homology reaches the scan's test."""
    names = dict.fromkeys((*WALK, *NON_TIGHT_STACKED, "tube(4, 26, 1)+1"))
    return [X for _, X in _scans(7, *names)]


def test_trie_scan_matches_one_search_per_draw():
    for X in _draw_twin_corpus():
        engine = TightnessEngine(X)
        n = engine.n
        draws = _draws(SplitMix64(n), n, 300)
        draws += draws[::7]  # repeats, some far from their first draw
        for stop in (True, False):
            got = engine.search_draws(draws, stop)
            assert got == _per_draw_report(engine, draws, stop)
        # stop-on-first where the first violating draw comes late in draw
        # order, behind clean draws and ahead of other violating ones
        clean = [m for m in draws if not engine.search_draws([m])[2]]
        dirty = [m for m in draws if engine.search_draws([m])[2]]
        if clean and dirty:
            late = clean[:40] + dirty[::-1] + clean
            got = engine.search_draws(late, True)
            assert got == _per_draw_report(engine, late, True)
            assert got[0] == min(len(clean), 40) + 1


def test_sampled_scan_matches_one_search_per_draw():
    # through is_tight_z2, whose stop-on-first scan walks SAMPLE_HEAD draws
    # before drawing the rest: first violations on both sides of it
    early = late = 0
    for X in (get("stacked(4, 11, 4)"), get("tube(4, 26, 1)+1")):
        engine = TightnessEngine(X)
        n = engine.n
        for seed in range(20):
            draws = _draws(SplitMix64(seed), n, 300)
            for stop in (False, True):
                rep = is_tight_z2(X, mode="sampled", sample_count=300, seed=seed,
                                  stop_on_first=stop)
                assert (rep.evaluated, rep.checked, list(rep.violations)) == (
                    _per_draw_report(engine, draws, stop)
                )
            early += rep.evaluated <= SAMPLE_HEAD
            late += rep.evaluated > SAMPLE_HEAD
    assert early and late


def test_dual_draws_match_one_search_per_draw():
    # a draw above n/2 evaluated as its complement reports what the draw
    # itself would, on tight and non-tight inputs, n even and odd
    flipped = even = multi = 0
    # (0, 1, 3, 6) is bad in degrees 0 and 1, so its complement in
    # degrees 1 and 0, which the report must list in ascending order
    two_bad = get("stacked(2, 9, 2)")
    for _, X in _scan_corpus() + [("stacked(2, 9, 2)", two_bad)]:
        if not duality_applies(X):
            continue
        engine = TightnessEngine(X)
        n = engine.n
        draws = _draws(SplitMix64(n + 1), n, 200)
        if X is two_bad:
            draws += [0b1001011, 0b110110100]
        if n % 2 == 0:
            # draws of exactly n/2 vertices, and their complements
            half = [sum(1 << v for v in s) for s in combinations(range(n), n // 2)]
            draws += half[:20] + [((1 << n) - 1) ^ m for m in half[:20]]
            even += 1
        draws += draws[::5]  # repeats
        flipped += sum(2 * m.bit_count() > n for m in draws)
        for stop in (True, False):
            got = engine.search_draws(draws, stop, dual=True)
            assert got == _per_draw_report(engine, draws, stop)
            # a draw and its complement drawn one after the other
            pairs = [m ^ flip for m in draws[:30] for flip in (0, (1 << n) - 1)]
            got = engine.search_draws(pairs, stop, dual=True)
            assert got == _per_draw_report(engine, pairs, stop)
        degrees: dict = {}
        for s, k in engine.search_draws(draws, False, dual=True)[2]:
            degrees.setdefault(s, set()).add(k)
        multi += any(2 * len(s) > n and len(ks) > 1 for s, ks in degrees.items())
    assert flipped and even and multi


def test_walker_stream_matches_fresh_walks():
    # the walker keeps the levels a mask shares with the one before: over
    # a shuffled stream with repeats, a mask repeated at once, and
    # complements, each mask must get what a walker of its own gives
    found = 0
    for X in _draw_twin_corpus():
        engine = TightnessEngine(X)
        n = engine.n
        full = (1 << n) - 1
        draws = _draws(SplitMix64(3 * n), n, 60)
        stream = draws + draws[::4] + [full ^ m for m in draws[::3]]
        random.Random(n).shuffle(stream)
        stream[5:5] = [stream[4]] * 2  # the mask just walked, twice more
        fresh = [next(engine.evaluate([m])) for m in stream]
        assert list(engine.evaluate(stream)) == fresh
        found += sum(len(bad) for _, bad in fresh)
    assert found


def test_sampled_bad_degrees_match_direct_check():
    # an independent reference for the sampled path, now that search and
    # search_draws share the walker: every draw's bad degrees, as reported
    # in draw order, are the degrees homology_map_injective refutes
    found = halves = 0
    for _, X in _scan_corpus():
        applies = duality_applies(X)
        engine = TightnessEngine(X)
        n, d = engine.n, X.dimension
        draws = _draws(SplitMix64(n + 7), n, 40)
        if n % 2 == 0:
            half = [sum(1 << v for v in s) for s in combinations(range(n), n // 2)]
            draws += half[:3] + [((1 << n) - 1) ^ m for m in half[:3]]
            halves += 1
        draws += draws[::5]
        direct = {}
        for m in set(draws):
            sub = tuple(X.vertices[v] for v in range(n) if (m >> v) & 1)
            direct[m] = [(sub, k) for k in range(d)
                         if not homology_map_injective(X, sub, k)]
        expected = [bad for m in draws for bad in direct[m]]
        for dual in (False, True) if applies else (False,):
            assert engine.search_draws(draws, False, dual) == (
                len(draws), len(draws), expected
            )
        found += len(expected)
    assert found and halves


def test_engine_pickles():
    X = random_stacked_sphere(4, 9, seed=3)
    engine = TightnessEngine(X)
    copy = pickle.loads(pickle.dumps(engine))
    assert copy.search(stop_on_first=False) == engine.search(stop_on_first=False)
    roots = [tuple(v for v in range(9) if (m >> v) & 1)
             for m in range(1, 2 ** 9 - 1, 7)]

    def per_root(e):
        return [e.search(r, stop_on_first=False, descend=False) for r in roots]

    assert per_root(copy) == per_root(engine)


# ------------------------------------------------------------------ the pool

def test_pool_scan_matches_serial_search():
    # small inputs go serial through is_tight_z2, so drive the pool here;
    # the in-process run of the same tasks must agree too
    # each run starts a pool, so the small entries here stop at 5 vertices
    names = ("rp2_6", "torus_7", "stacked(2, 7, 0)", *NON_TIGHT_STACKED[:3], "K3", *FALLBACK)
    for _, X in _scans(5, *names):
        engine = TightnessEngine(X)
        dual = duality_applies(X)
        for stop in (True, False):
            serial = engine.search(stop_on_first=stop, dual=dual)
            for jobs in (1, 2):
                tasks = _subtrees(engine.n, dual, stop)
                assert _run(engine, tasks, jobs, stop) == serial


def test_small_scans_skip_the_pool(monkeypatch, m4_15):
    calls = []

    class PoolStarted(Exception):
        pass

    def fake_pool(processes, initializer, initargs):
        calls.append(processes)
        raise PoolStarted

    monkeypatch.setattr(multiprocessing, "Pool", fake_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool size is capped at it
    X = random_stacked_sphere(4, 12, seed=1)
    assert sum(comb(12, s) for s in range(1, 7)) < POOL_MIN_SUBSETS
    assert is_tight_z2(X, jobs=4) == is_tight_z2(X, jobs=1)
    # sampled scans stay serial, however many subsets they draw
    is_tight_z2(m4_15, mode="sampled", sample_count=50, jobs=2)
    assert calls == []
    # m4-15 evaluates 16383 subsets: worth a pool
    with pytest.raises(PoolStarted):
        is_tight_z2(m4_15, jobs=2)
    assert calls == [2]


def test_jobs_is_a_cap_at_the_cpu_count(monkeypatch, tmp_path, capsys, m4_15):
    # a pool that records its size and runs its tasks in process, so no
    # worker is ever started
    sizes = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def imap(self, func, tasks):
            return map(func, tasks)

        def close(self):
            pass

        join = terminate = close

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(multiprocessing, "Event", threading.Event)
    monkeypatch.setattr(tightness, "_WORKER_ENGINE", None)
    monkeypatch.setattr(tightness, "_WORKER_STOP", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = is_tight_z2(m4_15, jobs=1)
    assert sizes == []
    assert is_tight_z2(m4_15, jobs=100000) == serial
    assert is_tight_z2(m4_15, jobs=2) == serial
    assert sizes == [3, 2]
    # the CLI passes --jobs through, and defaults to the CPU count
    path = tmp_path / "m.txt"
    path.write_text(serialize(m4_15))
    outs = []
    for args in (["--jobs", "1"], ["--jobs", "100000"], []):
        assert main(["--porcelain", "check", "tight", *args, str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[2] == outs[0]
    assert sizes == [3, 2, 3, 3]
    # an unknown CPU count leaves one job, in process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert is_tight_z2(m4_15, jobs=100000) == serial
    assert sizes == [3, 2, 3, 3]


def test_pool_early_stop_exits_cleanly_direct():
    # many early stops through the pool itself, under fork and spawn
    script = (
        "import multiprocessing\n"
        "from walkup import random_stacked_sphere\n"
        "from walkup.tightness import TightnessEngine, _run, _subtrees\n"
        "engine = TightnessEngine(random_stacked_sphere(4, 12, 1))\n"
        "serial = engine.search(dual=True)\n"
        "assert serial[2]\n"
        "for _ in range(25):\n"
        "    assert _run(engine, _subtrees(12, True, True), 4, True) == serial\n"
        "multiprocessing.set_start_method('spawn', force=True)\n"
        "assert _run(engine, _subtrees(12, True, False), 2, False) == "
        "engine.search(dual=True, stop_on_first=False)\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# ---------------------------------------------------------------- report pin

PIN_CLI_ARGS = [["--jobs", "1"], ["--jobs", "2"]] + [
    ["--sample", str(count), "--seed", str(seed)]
    for count in (50, 3000)
    for seed in (0, 1, 7)
]

# sha256 of each input's tightness reports: `--porcelain check tight` under
# PIN_CLI_ARGS (code, stdout and stderr), then is_tight_z2 with every
# violation, exhaustive when f0 <= 20 and sampled for 3000 draws of seeds
# 0, 1 and 7.  Computed with one search per sampled draw and the lower-star
# tries walked highest child first.
TIGHTNESS_REPORTS = {
    "m4-15": "cc4b16993823d27c41671d5213a087a683c07a4d1ebbf66650d42456973b27f1",
    "K4": "736af7b7304fff0ab92dfff940c4e2f5b77572fc98970856cb3d7082967016e7",
    "K5": "778a64a69baa032a5b64ed802ddca0d0139a5f54c3cbefc354e6506e69a18f5c",
    # a tight report names no subset, so it equals m4-15's (also 15 vertices)
    "K6": "cc4b16993823d27c41671d5213a087a683c07a4d1ebbf66650d42456973b27f1",
    "rp2_6": "d72c24492a1d79596f937bed6e3d2f34bc1077aa373863b1171b09fe0aaa233d",
    "torus_7": "3125be7a1a448846c37ae74cdf9deb9fdbeb4b587c4e5d45b4e4983c52c4a88e",
    "ns12-1": "2fa60fe03d197edad8cec96ebd5e70604c827ee2756b1d5ad6b68527358cf377",
    "ns12-2": "9a2194f2bb975c5a93420e7cf395061a2fd105911d4175f0f2f2e6c598faffd6",
    "tube+1": "5454d7d08e18605d8ede55782c94c584345bed846cd5aa89cc6f9b504f192b5c",
}


def test_tightness_reports_pinned(tmp_path, capsys):
    got = {}
    # tight inputs, two non-tight stacked 4-spheres and a tube with a handle
    entries = ("m4-15", "K4", "K5", "K6", "rp2_6", "torus_7", "stacked(4, 12, 1)",
               "stacked(4, 12, 2)", "tube(4, 26, 1)+1")
    for name, X in zip(TIGHTNESS_REPORTS, map(get, entries)):
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize(X))
        doc = []
        for args in PIN_CLI_ARGS:
            code = main(["--porcelain", "check", "tight", *args, str(path)])
            doc.append([args, code, *capsys.readouterr()])
        if len(X.vertices) <= 20:
            doc.append(list(is_tight_z2(X, stop_on_first=False)))
        for seed in (0, 1, 7):
            doc.append(list(is_tight_z2(
                X, mode="sampled", sample_count=3000, seed=seed, stop_on_first=False
            )))
        got[name] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert got == TIGHTNESS_REPORTS
