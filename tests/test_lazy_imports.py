"""Start-up cost: `import walkup` loads no layer, each CLI command loads
only the layers it runs and none of the costly stdlib modules it does not
need, and the lazy names are the submodules' own.

The import-set checks run in fresh interpreters, because this test
session has already imported every module.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import subprocess
import sys

import pytest

import walkup
from walkup.io import serialize

REPORT = (
    "\nimport sys\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'walkup'))\n"
)


def _loaded_by(script: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_walkup_loads_no_layer():
    assert _loaded_by("import walkup") == {"walkup"}


def test_import_cli_loads_only_io_complex_errors():
    assert _loaded_by("import walkup.cli") == {
        "walkup", "walkup.cli", "walkup.complex", "walkup.errors", "walkup.io",
    }


@pytest.mark.parametrize("command", ["info", "automorphisms"])
def test_light_commands_skip_heavy_layers(command, tmp_path, m4_15):
    path = tmp_path / "m.txt"
    path.write_text(serialize(m4_15))
    loaded = _loaded_by(
        "import contextlib, io\n"
        "from walkup.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{command!r}, {str(path)!r}]) == 0\n"
    )
    if command == "automorphisms":
        assert "walkup.symmetry" in loaded
    for layer in ("homology", "surgery", "constructions", "tightness"):
        assert f"walkup.{layer}" not in loaded


# stdlib modules that cost start-up time and that no command needs:
# dataclasses pulls in inspect, fractions pulls in decimal
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")

LEAN_COMMANDS = [
    (["info", "M"], 0),
    (["homology", "M"], 0),
    (["check", "walkup", "M"], 0),
    (["check", "stacked", "M"], 1),
    (["check", "bounds4", "M"], 0),
    (["check", "tight", "--sample", "50", "M"], 0),
    (["automorphisms", "M"], 0),
    (["decompose", "M", "--ledger", "L"], 0),
    (["replay", "L"], 0),
    (["generate", "m4-15"], 0),
    (["fvector", "walkup", "--dim", "4", "--n", "15", "--chi", "-4"], 0),
]


@pytest.fixture(scope="module")
def m4_15_files(tmp_path_factory, m4_15):
    """m4-15 as a facet file, and its decomposition ledger."""
    from walkup.cli import main

    root = tmp_path_factory.mktemp("lean")
    paths = {"M": str(root / "m.txt"), "L": str(root / "l.json")}
    with open(paths["M"], "w", encoding="utf-8") as fh:
        fh.write(serialize(m4_15))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decompose", paths["M"], "--ledger", paths["L"]]) == 0
    return paths


def _heavy_loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of `walkup argv` in a fresh interpreter, and the HEAVY
    modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from walkup.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = main({argv!r})\n"
         f"print(code, *(m for m in {HEAVY!r} if m in sys.modules))\n"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


@pytest.mark.parametrize(
    "argv, want", LEAN_COMMANDS, ids=[" ".join(a[:2]) for a, _ in LEAN_COMMANDS]
)
def test_commands_import_no_heavy_stdlib_module(argv, want, m4_15_files):
    argv = [m4_15_files.get(a, a) for a in argv]
    assert _heavy_loaded_by(argv) == (want, set())


# commands that compute no Betti number: chi is read off the f-vector
NO_HOMOLOGY = [
    ["check", "walkup", "M"],
    ["check", "bounds4", "M"],
    ["decompose", "M"],
    ["replay", "L"],
    ["generate", "m4-15"],
    ["fvector", "walkup", "--dim", "4", "--n", "15", "--chi", "-4"],
]


@pytest.mark.parametrize("argv", NO_HOMOLOGY, ids=[" ".join(a[:2]) for a in NO_HOMOLOGY])
def test_commands_without_betti_numbers_skip_homology(argv, m4_15_files):
    argv = [m4_15_files.get(a, a) for a in argv]
    loaded = _loaded_by(
        "import contextlib, io, sys\n"
        "from walkup.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "assert 'fractions' not in sys.modules\n"
    )
    assert "walkup.homology" not in loaded


def test_public_names_are_their_submodule_attributes():
    assert len(walkup.__all__) == len(set(walkup.__all__)) == 43
    assert dir(walkup) == walkup.__all__
    for layer, names in walkup._LAYERS.items():
        module = importlib.import_module(f"walkup.{layer}")
        for name in names:
            namespace: dict = {}
            exec(f"from walkup import {name}", namespace)
            assert namespace[name] is getattr(module, name), name
            assert getattr(walkup, name) is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        walkup.no_such_name
    with pytest.raises(ImportError):
        exec("from walkup import no_such_name", {})


def test_first_use_from_many_threads_sees_the_loaded_layer():
    # threads that race to a layer's first import must all wait for it to
    # finish, not read a partly initialised submodule
    out = _loaded_by(
        "import sys, threading\n"
        "import walkup\n"
        "barrier = threading.Barrier(8)\n"
        "got, errors = [], []\n"
        "def use():\n"
        "    barrier.wait(timeout=30)\n"
        "    try:\n"
        "        got.append((walkup.is_tight_z2, walkup.automorphism_group,\n"
        "                    walkup.build_m4_15, walkup.kalai_decompose))\n"
        "    except AttributeError as e:\n"
        "        errors.append(e)\n"
        "threads = [threading.Thread(target=use) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert not errors, errors\n"
        "assert len(got) == 8\n"
        "assert set(got) == {(sys.modules['walkup.tightness'].is_tight_z2,\n"
        "    sys.modules['walkup.symmetry'].automorphism_group,\n"
        "    sys.modules['walkup.constructions'].build_m4_15,\n"
        "    sys.modules['walkup.surgery'].kalai_decompose)}\n"
    )
    assert {"walkup.tightness", "walkup.surgery"} <= out
