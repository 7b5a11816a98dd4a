"""The result records are immutable named tuples.

Each refuses attribute assignment, VertexBijection still validates its
pairs on construction, and equal records of one type compare and hash
alike, so the hashable ones stay usable as set members and dict keys.
"""

from __future__ import annotations

import pickle

import pytest

from walkup import (
    VertexBijection,
    bijection_from_map,
    build_m4_15,
    check_bounds_4manifold,
    homology_profile,
    is_tight_z2,
    kalai_decompose,
    reduce_to_core,
    standard_sphere,
)


@pytest.fixture(scope="module")
def records():
    X = build_m4_15()
    ledger = kalai_decompose(X)
    bounds = check_bounds_4manifold(X)
    _, steps = reduce_to_core(ledger.base)
    return {
        "DualGraph": X.dual_graph(),
        "HomologyProfile": homology_profile(X),
        "ReductionStep": steps[0],
        "BoundCheck": bounds.edge_bound,
        "BoundReport": bounds,
        "VertexBijection": ledger.handles[0],
        "HandleLedger": ledger,
        "TightnessReport": is_tight_z2(X, mode="sampled", sample_count=5, seed=1),
    }


RECORDS = (
    "DualGraph", "HomologyProfile", "ReductionStep", "BoundCheck",
    "BoundReport", "VertexBijection", "HandleLedger", "TightnessReport",
)


def test_every_record_type_is_present(records):
    assert sorted(type(r).__name__ for r in records.values()) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_attribute_assignment(records, name):
    rec = records[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, f) for f in rec._fields) == tuple(rec)


@pytest.mark.parametrize(
    "source, target, pairs, message",
    [
        (("1", "2"), ("3", "4"), (("1", "3"), ("5", "4")),
         "pair sources do not enumerate the source facet"),
        (("1", "2"), ("3", "4"), (("1", "3"), ("2", "5")),
         "pair targets do not enumerate the target facet"),
        (("1", "2"), ("2", "3"), (("1", "2"), ("2", "3")),
         "source and target facets must be disjoint"),
    ],
)
def test_vertex_bijection_refuses_bad_pairs(source, target, pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        VertexBijection(source, target, pairs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        VertexBijection(source_facet=source, target_facet=target, pairs=pairs)


def test_vertex_bijection_relabeled_into_overlap_is_refused():
    psi = bijection_from_map({"1": "3", "2": "4"})
    with pytest.raises(ValueError, match="must be disjoint"):
        psi.relabeled({"3": "1"})


def test_equal_records_compare_and_hash_alike():
    a = VertexBijection(("1", "2"), ("3", "4"), (("1", "4"), ("2", "3")))
    b = bijection_from_map({"2": "3", "1": "4"})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != bijection_from_map({"1": "3", "2": "4"})
    assert pickle.loads(pickle.dumps(a)) == a
    assert type(pickle.loads(pickle.dumps(a))) is VertexBijection

    X = standard_sphere(3)
    r1 = is_tight_z2(X, mode="sampled", sample_count=7, seed=2)
    r2 = is_tight_z2(X, mode="sampled", sample_count=7, seed=2)
    assert r1 is not r2
    assert r1 == r2 and hash(r1) == hash(r2) and len({r1, r2}) == 1
    assert r1 != is_tight_z2(X, mode="exhaustive")
