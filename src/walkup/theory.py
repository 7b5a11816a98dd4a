"""Closed-form face-vector formulas and lower-bound checks.

All arithmetic is exact and in integers: every face vector of a member
of K(d) is the one closed form in f0 and f1, each entry an exact
division, and an entry that is not an integer raises instead of
rounding.  No floating point or rational type appears in this module.
"""

from __future__ import annotations

from math import comb, gcd
from typing import NamedTuple

from .complex import SimplicialComplex
from .errors import (
    InvalidParameters,
    NonIntegralResult,
    NotClosedConnected4Manifold,
    OddDimension,
)
from .stacked import is_stacked_sphere


def _exact(num: int, den: int, j: int) -> int:
    """f_j = num / den, which must be an integer (den > 0)."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise NonIntegralResult(f"f_{j} = {num // g}/{den // g} is not an integer")
    return q


def _check_f0_f1(d: int, f0: int, f1: int) -> None:
    """Refuse vertex and edge counts no connected closed d-manifold can have."""
    if f0 < d + 2:
        raise InvalidParameters(f"need f0 >= d+2, got d={d}, f0={f0}")
    if f1 > comb(f0, 2):
        raise InvalidParameters(
            f"f1 = {f1} exceeds C(f0, 2) = {comb(f0, 2)}, the edges {f0} vertices span"
        )
    least = (d + 1) * f0 - comb(d + 2, 2)
    if f1 < least:
        raise InvalidParameters(
            f"f1 = {f1} is below (d+1) f0 - C(d+2, 2) = {least},"
            f" the edges of a stacked {d}-sphere on {f0} vertices"
        )


def _face_vector(d: int, f0: int, f1: int) -> tuple[int, ...]:
    """The closed form: the face vector of a connected member of K(d),
    d >= 2, with f0 vertices and f1 edges,
    f_j = (2 C(d, j-1) f1 - (j-1) C(d+1, j) f0) / (j+1) for 1 < j < d and
    f_d = ((2d-2) f1 - (d+1)(d-2) f0) / (d+1).
    """
    f = [f0, f1]
    for j in range(2, d):
        num = 2 * comb(d, j - 1) * f1 - (j - 1) * comb(d + 1, j) * f0
        f.append(_exact(num, j + 1, j))
    f.append(_exact((2 * d - 2) * f1 - (d + 1) * (d - 2) * f0, d + 1, d))
    return tuple(f)


def stacked_sphere_fvector(d: int, f0: int) -> tuple[int, ...]:
    """Face vector of any stacked d-sphere on f0 vertices.

    For d >= 2 it is the closed form at f1 = (d+1) f0 - C(d+2, 2); a
    stacked 1-sphere is a cycle, f = (f0, f0).
    """
    if d < 1 or f0 < d + 2:
        raise InvalidParameters(f"need d >= 1 and f0 >= d+2, got d={d}, f0={f0}")
    if d == 1:
        return (f0, f0)
    return _face_vector(d, f0, (d + 1) * f0 - comb(d + 2, 2))


def walkup_fvector_even(d: int, f0: int, chi: int) -> tuple[int, ...]:
    """Face vector of a connected even-dimensional Walkup-class member.

    The closed form at f1 = (d+1) f0 - C(d+2, 2) chi / 2; stacked spheres
    are the chi = 2 case.  Integrality is checked first, f_1 included.
    Raises InvalidParameters when f0 < d+2 or f1 lies outside
    [(d+1) f0 - C(d+2, 2), C(f0, 2)], that is when chi > 2 or too negative.
    """
    if d < 2 or d % 2 != 0:
        raise OddDimension(f"need an even dimension >= 2, got {d}")
    f = _face_vector(d, f0, _exact(2 * (d + 1) * f0 - comb(d + 2, 2) * chi, 2, 1))
    _check_f0_f1(d, f0, f[1])
    return f


def fvector_from_f0_f1(d: int, f0: int, f1: int) -> tuple[int, ...]:
    """Face vector of a connected Walkup-class member from f0 and f1.

    The closed form, valid in every dimension d >= 2.  Raises
    InvalidParameters when f0 < d+2 or f1 lies outside
    [(d+1) f0 - C(d+2, 2), C(f0, 2)], before any integrality check.
    """
    if d < 2:
        raise InvalidParameters(f"need d >= 2, got {d}")
    _check_f0_f1(d, f0, f1)
    return _face_vector(d, f0, f1)


def dehn_sommerville_4(f0: int, f1: int, chi: int) -> tuple[int, ...]:
    """Completion of a 4-manifold face vector from f0, f1 and chi."""
    return (
        f0,
        f1,
        4 * f1 - 10 * (f0 - chi),
        5 * f1 - 15 * (f0 - chi),
        2 * f1 - 6 * (f0 - chi),
    )


def is_two_neighborly(X: SimplicialComplex) -> bool:
    """Every pair of vertices spans an edge: f1 = C(f0, 2)."""
    f = X.f_vector()
    if len(f) < 2:
        return False
    return f[1] == comb(f[0], 2)


def in_walkup_class(X: SimplicialComplex) -> bool:
    """Membership test: every vertex link is a stacked (d-1)-sphere.

    For d <= 2 the class consists of all closed triangulated d-manifolds,
    so the test degenerates to every link being a single cycle (d = 2) or
    a point pair (d = 1).  The links are memoized on X and each link's
    verdict on the link, so testing one complex again, as kalai_decompose
    does with its input, builds no complex.
    """
    d = X.dimension
    if d < 1:
        return False
    for v in X.vertices:
        link = X.vertex_link(v)
        if d == 1:
            if len(link.vertices) != 2:
                return False
        elif not is_stacked_sphere(link):
            return False
    return True


class BoundCheck(NamedTuple):
    name: str
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def tight(self) -> bool:
        return self.lhs == self.rhs


class BoundReport(NamedTuple):
    """Both 4-manifold lower bounds with tightness flags.

    edge_bound is 2 f1 >= 10 f0 - 15 chi (integer form of the edge lower
    bound); vertex_bound is f0 (f0 - 11) >= -15 chi.  Equality in the
    vertex bound characterizes 2-neighborly Walkup-class members, so the
    report also carries the 2-neighborliness of the input.
    """

    edge_bound: BoundCheck
    vertex_bound: BoundCheck
    euler: int
    two_neighborly: bool

    @property
    def overall_equality(self) -> bool:
        return self.edge_bound.tight and self.vertex_bound.tight


def check_bounds_4manifold(X: SimplicialComplex) -> BoundReport:
    """Evaluate both lower bounds on a closed connected 4-pseudomanifold.

    The Euler characteristic is read off the complex's own f-vector.  The
    operation verifies closedness and connectivity; it does not certify
    that the input is a genuine PL manifold.
    """
    if X.dimension != 4 or not X.is_closed_pseudomanifold() or not X.is_connected():
        raise NotClosedConnected4Manifold(
            "need a closed connected 4-dimensional weak pseudomanifold"
        )
    f = X.f_vector()
    chi = X.euler_characteristic()
    edge = BoundCheck(name="2f1 >= 10f0 - 15chi", lhs=2 * f[1], rhs=10 * f[0] - 15 * chi)
    vertex = BoundCheck(name="f0(f0-11) >= -15chi", lhs=f[0] * (f[0] - 11), rhs=-15 * chi)
    return BoundReport(
        edge_bound=edge,
        vertex_bound=vertex,
        euler=chi,
        two_neighborly=is_two_neighborly(X),
    )
