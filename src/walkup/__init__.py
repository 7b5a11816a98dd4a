"""Stacked spheres, Walkup-class manifolds, handle surgery, tightness."""

from .complex import (
    CLONE_MARKER,
    DualGraph,
    Face,
    SimplicialComplex,
    empty_complex,
    from_facets,
    induces_standard_sphere,
    is_standard_sphere,
)
from .constructions import (
    build_b5_30,
    build_m4_15,
    build_n5_15,
    build_s4_30,
    random_stacked_sphere,
    standard_ball,
    standard_sphere,
)
from .homology import HomologyProfile, homology_profile, is_orientable
from .stacked import (
    ReductionStep,
    is_stacked_ball,
    is_stacked_sphere,
    is_stacked_sphere_by_reduction,
    reduce_once,
    reduce_to_core,
    replay_reductions,
)
from .surgery import (
    HandleLedger,
    VertexBijection,
    bijection_from_map,
    connected_sum,
    disjoint_union,
    find_admissible_bijection,
    find_induced_standard_spheres,
    handle_addition,
    handle_deletion,
    is_admissible,
    kalai_decompose,
)
from .symmetry import automorphism_group, cycle_notation, is_isomorphic
from .theory import (
    BoundReport,
    check_bounds_4manifold,
    dehn_sommerville_4,
    fvector_from_f0_f1,
    in_walkup_class,
    is_two_neighborly,
    stacked_sphere_fvector,
    walkup_fvector_even,
)
from .tightness import TightnessReport, homology_map_injective, is_tight_z2

__version__ = "0.1.0"
