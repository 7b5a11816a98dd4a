"""Closed-form face vectors, lower bounds, class membership."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkup import (
    SimplicialComplex,
    check_bounds_4manifold,
    dehn_sommerville_4,
    fvector_from_f0_f1,
    in_walkup_class,
    is_two_neighborly,
    random_stacked_sphere,
    standard_sphere,
    stacked_sphere_fvector,
    walkup_fvector_even,
)
from walkup.errors import (
    InvalidParameters,
    NonIntegralResult,
    NotClosedConnected4Manifold,
    OddDimension,
)
from walkup.complex import _residue_masks
from walkup.theory import _check_f0_f1

from conftest import find_induced_standard_spheres, in_class_by_filling, link
from corpus import get, select, suspension, tags_of


# ------------------------------------------------------------ stacked formula

def test_stacked_fvector_d4_f30():
    assert stacked_sphere_fvector(4, 30) == (30, 135, 260, 255, 102)


def test_stacked_fvector_collapses_to_simplex():
    for d in (1, 2, 3, 4, 5):
        assert stacked_sphere_fvector(d, d + 2) == tuple(
            comb(d + 2, j + 1) for j in range(d + 1)
        )


def test_stacked_fvector_d3_f10():
    assert stacked_sphere_fvector(3, 10) == (10, 30, 40, 20)
    # cross-check against a generated instance
    X = random_stacked_sphere(3, 10, seed=123)
    assert X.f_vector() == (10, 30, 40, 20)


def test_stacked_fvector_domain():
    with pytest.raises(InvalidParameters):
        stacked_sphere_fvector(0, 5)
    with pytest.raises(InvalidParameters):
        stacked_sphere_fvector(3, 4)


# ----------------------------------------------------------- even-d formula

def test_walkup_fvector_m4_15():
    assert walkup_fvector_even(4, 15, -4) == (15, 105, 230, 240, 96)


def test_walkup_fvector_chi2_is_stacked():
    for n in (6, 10, 20, 30):
        assert walkup_fvector_even(4, n, 2) == stacked_sphere_fvector(4, n)


def test_walkup_fvector_11_vertex():
    assert walkup_fvector_even(4, 11, 0) == (11, 55, 110, 110, 44)


def test_walkup_fvector_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        walkup_fvector_even(3, 10, 0)


def test_walkup_fvector_non_integral():
    with pytest.raises(NonIntegralResult):
        walkup_fvector_even(4, 10, 1)  # 15 chi / 2 not integral for odd chi


def test_walkup_fvector_refuses_impossible_counts():
    with pytest.raises(InvalidParameters):
        walkup_fvector_even(4, 3, 0)  # fewer than d + 2 vertices
    with pytest.raises(InvalidParameters):
        walkup_fvector_even(4, 10, -100)  # f1 = 800 > C(10, 2)
    with pytest.raises(InvalidParameters):
        walkup_fvector_even(4, 15, -6)  # f1 = 120 > C(15, 2), one step past m4-15
    with pytest.raises(InvalidParameters):
        walkup_fvector_even(4, 10, 4)  # chi > 2: f1 = 20 < 5 * 10 - C(6, 2)
    with pytest.raises(InvalidParameters):
        walkup_fvector_even(4, 10, 100)  # f1 = -700, negative counts
    # the 2-neighborly edge case f1 = C(f0, 2) is allowed
    assert walkup_fvector_even(2, 7, 0)[1] == comb(7, 2)
    # and so is the stacked-sphere edge case chi = 2
    assert walkup_fvector_even(4, 10, 2) == stacked_sphere_fvector(4, 10)


# ----------------------------------------------------------------- from f0,f1

def test_fvector_from_f0_f1_m4_15():
    assert fvector_from_f0_f1(4, 15, 105) == (15, 105, 230, 240, 96)


def test_fvector_from_f0_f1_d3():
    f = fvector_from_f0_f1(3, 10, 30)
    assert f == (10, 30, 2 * (30 - 10), 30 - 10)
    # Euler characteristic 0 holds identically in odd dimension 3
    assert f[0] - f[1] + f[2] - f[3] == 0


def test_fvector_from_f0_f1_matches_even_formula():
    for n, chi in ((15, -4), (11, 0), (20, 2)):
        f1 = 5 * n - 15 * chi // 2
        assert fvector_from_f0_f1(4, n, f1) == walkup_fvector_even(4, n, chi)


def test_fvector_from_f0_f1_refuses_impossible_counts():
    with pytest.raises(InvalidParameters):
        fvector_from_f0_f1(4, 5, 1000)  # fewer than d + 2 vertices
    with pytest.raises(InvalidParameters):
        fvector_from_f0_f1(4, 10, 50)  # integral, but f1 > C(10, 2)
    with pytest.raises(InvalidParameters):
        fvector_from_f0_f1(4, 10, 20)  # f1 < 5 * 10 - C(6, 2) = 35
    with pytest.raises(InvalidParameters):
        fvector_from_f0_f1(3, 10, 29)  # one below 4 * 10 - C(5, 2) = 30
    # the lower bound itself is the stacked sphere
    assert fvector_from_f0_f1(4, 6, 15) == stacked_sphere_fvector(4, 6)
    assert fvector_from_f0_f1(3, 10, 30) == stacked_sphere_fvector(3, 10)


# ------------------------------------------------ the rational twin formulas
#
# The twin of the library's one closed form in f0 and f1, evaluated by
# exact integer division: a rational formula per fvector form, each in
# Fraction arithmetic with its own checks in its own order.


def _as_int(x, what):
    if x.denominator != 1:
        raise NonIntegralResult(f"{what} = {x} is not an integer")
    return int(x)


def _stacked_by_fractions(d, f0):
    if d < 1 or f0 < d + 2:
        raise InvalidParameters(f"need d >= 1 and f0 >= d+2, got d={d}, f0={f0}")
    counts = [f0]
    for j in range(1, d):
        counts.append(comb(d + 1, j) * f0 - j * comb(d + 2, j + 1))
    counts.append(d * f0 - (d + 2) * (d - 1))
    return tuple(counts)


def _walkup_by_fractions(d, f0, chi):
    if d < 2 or d % 2 != 0:
        raise OddDimension(f"need an even dimension >= 2, got {d}")
    counts = [Fraction(f0)]
    for j in range(1, d):
        counts.append(
            comb(d + 1, j) * f0 - Fraction(j, 2) * comb(d + 2, j + 1) * chi
        )
    counts.append(d * f0 - Fraction((d + 2) * (d - 1), 2) * chi)
    f = tuple(_as_int(c, f"f_{j}") for j, c in enumerate(counts))
    _check_f0_f1(d, f0, f[1])
    return f


def _from_f0_f1_by_fractions(d, f0, f1):
    if d < 2:
        raise InvalidParameters(f"need d >= 2, got {d}")
    _check_f0_f1(d, f0, f1)
    counts = [Fraction(f0), Fraction(f1)]
    for j in range(2, d):
        counts.append(
            Fraction(2, j + 1) * comb(d, j - 1) * f1
            - Fraction(j - 1, j + 1) * comb(d + 1, j) * f0
        )
    counts.append(Fraction(2 * d - 2, d + 1) * f1 - (d - 2) * f0)
    return tuple(_as_int(c, f"f_{j}") for j, c in enumerate(counts))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as e:  # noqa: BLE001 - the type and text are compared
        return type(e), str(e)


def test_integer_closed_form_matches_rational_formulas():
    # every value, error type and error text over the CLI grid: d -1..9,
    # f0 -2..39, chi -40..7 and f1 -5..197 in steps of 3
    kinds = set()
    for d in range(-1, 10):
        for f0 in range(-2, 40):
            pairs = [((stacked_sphere_fvector, _stacked_by_fractions), (d, f0))]
            pairs += [((walkup_fvector_even, _walkup_by_fractions), (d, f0, chi))
                      for chi in range(-40, 8)]
            pairs += [((fvector_from_f0_f1, _from_f0_f1_by_fractions), (d, f0, f1))
                      for f1 in range(-5, 198, 3)]
            for (lib, twin), args in pairs:
                got = _outcome(lib, *args)
                assert got == _outcome(twin, *args), (lib.__name__, args)
                kinds.add(got[0])
    assert kinds == {"ok", InvalidParameters, NonIntegralResult, OddDimension}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 3, 4]))
def test_fvector_from_f0_f1_on_generated(seed, d):
    X = random_stacked_sphere(d, d + 5, seed=seed)
    f = X.f_vector()
    assert fvector_from_f0_f1(d, f[0], f[1]) == f


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), d=st.sampled_from([2, 4]))
def test_even_dim_members_match_closed_form(seed, d):
    # connected even-dimensional class members: f determined by f0 and chi
    from walkup import homology_profile

    X = random_stacked_sphere(d, d + 5, seed=seed)
    chi = homology_profile(X).euler
    assert X.f_vector() == walkup_fvector_even(d, len(X.vertices), chi)


def test_even_dim_closed_form_on_m4_15(m4_15):
    from walkup import homology_profile

    chi = homology_profile(m4_15).euler
    assert m4_15.f_vector() == walkup_fvector_even(4, 15, chi)


# ------------------------------------------------------------ dehn-sommerville

def test_dehn_sommerville_examples():
    assert dehn_sommerville_4(15, 105, -4) == (15, 105, 230, 240, 96)
    assert dehn_sommerville_4(6, 15, 2) == (6, 15, 20, 15, 6)


def test_dehn_sommerville_on_corpus(m4_15, s4_30):
    for X in (m4_15, s4_30, standard_sphere(4)):
        f = X.f_vector()
        chi = f[0] - f[1] + f[2] - f[3] + f[4]
        assert dehn_sommerville_4(f[0], f[1], chi) == f


# --------------------------------------------------------------- class member

def test_m4_15_in_walkup_class(m4_15):
    assert in_walkup_class(m4_15)


def test_standard_spheres_in_walkup_class():
    for d in (2, 3, 4, 5):
        assert in_walkup_class(standard_sphere(d))


def test_torus_in_walkup_class(torus_7):
    # dimension 2: the class is all closed 2-manifolds
    assert in_walkup_class(torus_7)


def _count_constructions(monkeypatch) -> list:
    built: list = []
    init = SimplicialComplex.__init__

    def counting(self, facets):
        built.append(self)
        init(self, facets)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    return built


def test_second_membership_test_builds_no_complex(monkeypatch):
    # the link verdicts are memoized with the links, so the repeat reads them
    X = SimplicialComplex(random_stacked_sphere(4, 40, seed=3).facets)
    assert in_walkup_class(X)
    built = _count_constructions(monkeypatch)
    assert in_walkup_class(X)
    assert built == []


def test_equal_complexes_do_not_share_verdicts(monkeypatch):
    # memos hang off the object: an equal copy decides everything afresh
    X = SimplicialComplex(random_stacked_sphere(4, 40, seed=3).facets)
    assert in_walkup_class(X)
    built = _count_constructions(monkeypatch)
    Y = SimplicialComplex(X.facets)
    assert Y == X and Y is not X
    assert in_walkup_class(Y)
    # Y itself, its 40 links, and a ball for each link
    assert len(built) == 1 + 2 * len(Y.vertices)
    built.clear()
    assert in_walkup_class(Y) and in_walkup_class(X)
    assert built == []


def test_suspension_of_nonstacked_sphere_not_in_class():
    X = suspension(get("∂C(4, 7)"))
    assert X.dimension == 4
    assert X.is_closed_pseudomanifold()
    assert not in_walkup_class(X)


def test_open_complex_not_in_class():
    X = SimplicialComplex((("a", "b", "c"),))
    assert not in_walkup_class(X)


def _fresh_links(monkeypatch):
    """Serve vertex_link from the facet-scan twin link(), whose complexes
    carry no residue masks: every clique search then reads its masks off
    adjacency()."""
    monkeypatch.setattr(SimplicialComplex, "vertex_link", lambda self, v: link(self, (v,)))


def test_link_masks_from_residues_match_adjacency(monkeypatch):
    # members (stacked and neighborly spheres, handle manifolds, surfaces)
    # and non-members (balls, suspensions, spheres less a facet, spheres
    # with non-stacked links, the 5-pseudomanifold n5-15), fast and slow
    corpus = select(max_f0=15) + [(name, get(name)) for name in (
        "s4-30", "b5-30", "stacked(3, 20, 1)", "stacked(5, 16, 2)", "tube(4, 26, 1)",
        "tube(4, 26, 1)+1")]
    fast = []
    for _, X in corpus:
        X = SimplicialComplex(X.facets)
        verdict = in_walkup_class(X)
        spheres = find_induced_standard_spheres(X) if X.dimension >= 3 else None
        for v in X.vertices:
            link = X.vertex_link(v)
            cliques = link.clique_complex()
            if X.dimension >= 3 and verdict:
                assert "adjacency" not in link._cache  # the clique route built none
            bit = {u: 1 << i for i, u in enumerate(link.vertices)}
            adj = link.adjacency()
            assert _residue_masks(link) == [sum(map(bit.get, adj[u])) for u in link.vertices]
            assert cliques == SimplicialComplex(link.facets).clique_complex()
        fast.append((verdict, spheres))
    _fresh_links(monkeypatch)
    slow = []
    for _, X in corpus:
        X = SimplicialComplex(X.facets)
        slow.append((in_walkup_class(X),
                     find_induced_standard_spheres(X) if X.dimension >= 3 else None))
    assert fast == slow
    assert [v for v, _ in fast] == ["kd" in tags_of(name) for name, _ in corpus]
    assert sum(bool(s) for _, s in fast) >= 5


def test_membership_agrees_with_the_filling_test():
    # at d >= 4, X is in K(d) iff its filling has boundary X and stacked
    # balls for vertex links (Bagchi and Datta, Europ. J. Combin. 36, 2014)
    verdicts = []
    for name, X in select("closed", max_f0=15):
        if X.dimension >= 4:
            verdicts.append(in_walkup_class(X))
            assert in_class_by_filling(X) == verdicts[-1], name
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 3


# -------------------------------------------------------------------- bounds

def test_bounds_m4_15(m4_15):
    rep = check_bounds_4manifold(m4_15)
    assert rep.euler == -4
    assert rep.edge_bound.lhs == 210 and rep.edge_bound.rhs == 210
    assert rep.vertex_bound.lhs == 60 and rep.vertex_bound.rhs == 60
    assert rep.edge_bound.tight and rep.vertex_bound.tight
    assert rep.overall_equality and rep.two_neighborly


def test_bounds_standard_sphere():
    rep = check_bounds_4manifold(standard_sphere(4))
    assert rep.vertex_bound.lhs == -30 and rep.vertex_bound.rhs == -30
    assert rep.vertex_bound.tight
    assert rep.edge_bound.tight  # stacked spheres sit in the class


def test_bounds_16_vertex_stacked_sphere():
    X = random_stacked_sphere(4, 16, seed=5)
    rep = check_bounds_4manifold(X)
    assert rep.edge_bound.tight
    assert rep.vertex_bound.holds and not rep.vertex_bound.tight


def test_bounds_rejects_wrong_inputs(torus_7):
    with pytest.raises(NotClosedConnected4Manifold):
        check_bounds_4manifold(torus_7)
    with pytest.raises(NotClosedConnected4Manifold):
        check_bounds_4manifold(SimplicialComplex((("a", "b", "c", "d", "e"),)))


def test_edge_bound_tight_implies_walkup_on_corpus():
    for seed in (1, 2):
        X = random_stacked_sphere(4, 12, seed=seed)
        rep = check_bounds_4manifold(X)
        if rep.edge_bound.tight:
            assert in_walkup_class(X)


# ------------------------------------------------------------- 2-neighborly

def test_two_neighborly_m4_15(m4_15):
    assert is_two_neighborly(m4_15)
    assert m4_15.f_vector()[1] == comb(15, 2)


def test_two_neighborly_standard_spheres():
    for d in (1, 2, 3, 4):
        assert is_two_neighborly(standard_sphere(d))


def test_stacked_spheres_beyond_simplex_not_neighborly():
    # f1 = 5 f0 - 15 < C(f0, 2) once f0 > 6; the f0 = 7 case reads 20 < 21
    assert stacked_sphere_fvector(4, 7)[1] == 20 < comb(7, 2)
    for seed in (0, 1):
        X = random_stacked_sphere(4, 7, seed=seed)
        assert not is_two_neighborly(X)


def test_corollary_equality_iff_two_neighborly(m4_15):
    # on even-dimensional class members: vertex bound tight <-> 2-neighborly
    rep = check_bounds_4manifold(m4_15)
    assert rep.vertex_bound.tight == is_two_neighborly(m4_15)
    for seed in (3, 4):
        X = random_stacked_sphere(4, 10, seed=seed)
        rep = check_bounds_4manifold(X)
        assert rep.vertex_bound.tight == is_two_neighborly(X)
    S = standard_sphere(4)
    assert check_bounds_4manifold(S).vertex_bound.tight == is_two_neighborly(S)
