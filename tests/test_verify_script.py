"""The paper's verification script: it prints the CLI's own reports, and
every check it makes decides its exit code."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walkup import build_s4_30
from walkup import io as cio
from walkup.cli import main as walkup_main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "verify_minimal_triangulation.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("verify_minimal_triangulation", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_prints_the_cli_reports(script, capsys, tmp_path, monkeypatch):
    cwd = os.getcwd()
    assert script.main([]) == 0
    assert os.getcwd() == cwd
    out, err = capsys.readouterr()
    assert err == ""
    blocks = out.strip("\n").split("\n\n")
    assert len(blocks) == len(script.STEPS) + 1

    # the same inputs, under the same names, for the same commands
    monkeypatch.chdir(tmp_path)
    for name in ("b5-30", "m4-15", "n5-15"):
        assert walkup_main(["generate", name]) == 0
        Path(f"{name}.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    Path("s4-30.txt").write_text(cio.serialize(build_s4_30()), encoding="utf-8")
    for block, (what, expected) in zip(blocks, [*script.STEPS, (None, script.SAMPLED)]):
        heading, *lines = block.split("\n")
        if callable(expected):
            assert (heading, lines) == (f"{what}: yes", [])
            continue
        argv = heading.removeprefix("== walkup ").split()
        assert walkup_main(argv) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n", argv


def test_script_names_each_check_that_fails(script, capsys, monkeypatch):
    auto = next(e for what, e in script.STEPS if what == ["automorphisms", "m4-15.txt"])
    monkeypatch.setitem(auto, "order", 4)
    assert script.main([]) == 1
    assert capsys.readouterr().err == (
        "FAILED: walkup automorphisms m4-15.txt: order is 3, expected 4\n"
    )


def test_script_fails_on_a_nonzero_exit(script, capsys, monkeypatch):
    stacked = (["check", "stacked", "m4-15.txt"], {"kind": "sphere"})
    monkeypatch.setattr(script, "STEPS", [stacked])
    assert script.main([]) == 1
    assert capsys.readouterr().err == "FAILED: walkup check stacked m4-15.txt: exited 1\n"


def test_every_check_decides_the_exit_code(script, capsys, monkeypatch):
    """Every expected value wrong and every library check false: each one
    is named on stderr."""
    steps = [
        (what, (lambda: False) if callable(e) else {key: "wrong" for key in e})
        for what, e in script.STEPS
    ]
    monkeypatch.setattr(script, "STEPS", steps)
    monkeypatch.setattr(script, "SAMPLED", {key: "wrong" for key in script.SAMPLED})
    assert script.main([]) == 1
    failed = capsys.readouterr().err.splitlines()
    tight = ["check", "tight", "--sample", "2000", "--seed", "0", "m4-15.txt"]
    named = []
    for what, e in [*steps, (tight, script.SAMPLED)]:
        named += [what] if callable(e) else [f"walkup {' '.join(what)}: {key} is " for key in e]
    assert len(failed) == len(named)
    for line, name in zip(failed, named):
        assert line.startswith(f"FAILED: {name}"), (line, name)


def test_script_exits_2_with_one_error_line():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--tight", "--jobs", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: need at least 1 job, got 0\n"


def test_script_refuses_jobs_without_tight(script, capsys):
    with pytest.raises(SystemExit) as exc:
        script.main(["--jobs", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: --jobs needs --tight\n")
