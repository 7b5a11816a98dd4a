"""The corpus's tags against the library, each checked once."""

from __future__ import annotations

from walkup import (
    homology_map_injective,
    homology_profile,
    in_walkup_class,
    is_stacked_sphere,
    is_stacked_sphere_by_reduction,
    is_tight_z2,
    is_two_neighborly,
)

from corpus import ENTRIES


def test_every_tag_is_what_the_library_says():
    for name, (build, tags) in ENTRIES.items():
        X = build()
        d = X.dimension
        dg = X.dual_graph() if d >= 0 else None
        recognizers = is_stacked_sphere(X), is_stacked_sphere_by_reduction(X)
        truth = {
            "closed": X.is_closed_pseudomanifold(),
            "boundary": d >= 1 and dg.is_weak_pseudomanifold and not dg.is_closed,
            "disconnected": X.is_empty or not X.is_connected(),
            "kd": in_walkup_class(X),
            "stacked": all(recognizers),
            "neighborly": is_two_neighborly(X),
            "orientable": homology_profile(X).orientable is True,
        }
        assert {tag for tag, holds in truth.items() if holds} == tags - {
            "tight", "not-tight", "handle-built"}, name
        assert len(set(recognizers)) == 1, name  # the recognizers agree
        if len(X.vertices) > 15:
            assert tags.isdisjoint({"tight", "not-tight"}), name
            continue
        rep = is_tight_z2(X, jobs=4)  # the serial report, sooner on n5-15
        assert ("tight" in tags, "not-tight" in tags) == (
            rep.verdict == "tight", rep.verdict == "not-tight"), name
        for sub, k in rep.violations:
            assert not homology_map_injective(X, sub, k), (name, sub, k)
