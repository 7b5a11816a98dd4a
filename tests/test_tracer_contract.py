"""The benchmark's tracer patches walkup by name; those names must exist.

perfbench/tracing.py wraps every public function of the layer modules and
the methods listed in tracing.METHODS.  Renaming or moving one of those
methods breaks the traced benchmark run with a KeyError at install time,
so this test installs the tracer on the current code.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

import walkup
from walkup import build_m4_15, homology

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_installs_on_every_named_method(tracing):
    original = homology.rank_gf2
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the package namespace reads through to the patched submodule
        assert walkup.homology_profile is homology.homology_profile
        profile = homology.homology_profile(build_m4_15())
    finally:
        tracer.uninstall()
    assert profile.betti == (1, 3, 0, 3, 1)
    assert homology.rank_gf2 is original
    assert walkup.homology_profile is homology.homology_profile
    assert not hasattr(walkup.homology_profile, "__wrapped__")
    assert tracer.calls["homology.homology_profile"] == 1
    assert tracer.calls["homology.rank_gf2"] >= 1
    for layer, (cls_name, methods) in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"walkup.{layer}"), cls_name)
        for name in methods:
            assert name in cls.__dict__, f"{layer}.{cls_name}.{name}"
