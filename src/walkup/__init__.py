"""Stacked spheres, Walkup-class manifolds, handle surgery, tightness.

`import walkup` loads no layer.  Each public name is a property of the
package's module class that reads its submodule's attribute on every
access, importing the layer on first use and caching nothing here, so a
name patched on its submodule reads the same through the package.  (A
PEP 562 __getattr__ runs after a failed lookup: ~1 us a read on 3.11.)
"""

import sys
from importlib import import_module
from types import ModuleType

_LAYERS = {
    "complex": (
        "CLONE_MARKER", "DualGraph", "Face", "SimplicialComplex",
        "from_facets", "induces_standard_sphere", "is_standard_sphere",
    ),
    "constructions": (
        "build_b5_30", "build_m4_15", "build_n5_15", "build_s4_30",
        "random_stacked_sphere", "standard_sphere",
    ),
    "homology": ("HomologyProfile", "homology_profile"),
    "stacked": (
        "ReductionStep", "is_stacked_ball", "is_stacked_sphere",
        "is_stacked_sphere_by_reduction", "reduce_to_core",
    ),
    "surgery": (
        "HandleLedger", "VertexBijection", "bijection_from_map",
        "connected_sum", "disjoint_union", "find_admissible_bijection",
        "handle_addition", "handle_deletion", "is_admissible",
        "kalai_decompose",
    ),
    "symmetry": ("automorphism_group", "cycle_notation", "is_isomorphic"),
    "theory": (
        "BoundReport", "check_bounds_4manifold", "dehn_sommerville_4",
        "fvector_from_f0_f1", "in_walkup_class", "is_two_neighborly",
        "stacked_sphere_fvector", "walkup_fvector_even",
    ),
    "tightness": ("TightnessReport", "homology_map_injective", "is_tight_z2"),
}


def _read_through(module: str, name: str) -> property:
    def read(_):
        try:
            return getattr(sys.modules[module], name)
        except (KeyError, AttributeError):  # not imported, or importing in another thread
            return getattr(import_module(module), name)
    return property(read)


_Package = type("_Package", (ModuleType,), {
    name: _read_through(f"{__name__}.{layer}", name)
    for layer, names in _LAYERS.items()
    for name in names
})
sys.modules[__name__].__class__ = _Package

__all__ = sorted(name for names in _LAYERS.values() for name in names)
__version__ = "0.1.0"


def __dir__():
    return __all__
