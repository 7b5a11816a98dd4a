"""Command-line interface: exit codes, formats, piping."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from walkup import build_m4_15, random_stacked_sphere
from walkup.cli import main
from walkup.io import loads, serialize


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        import io as _io

        monkeypatch.setattr(sys, "stdin", _io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


TORUS_TEXT = "".join(
    f"t{i} t{(i + 1) % 7} t{(i + 3) % 7}\nt{i} t{(i + 2) % 7} t{(i + 3) % 7}\n"
    for i in range(7)
)


def test_generate_m4_15_canonical(capsys, monkeypatch):
    code, out, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    assert code == 0
    assert out == serialize(build_m4_15())


def test_generate_pipes_into_info(capsys, monkeypatch):
    gen_code, gen_out, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, out, _ = run_cli(
        ["info"], stdin_text=gen_out, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "f-vector: 15 105 230 240 96" in out


def test_generate_sphere_and_stacked(capsys, monkeypatch):
    code, out, _ = run_cli(["generate", "sphere", "--dim", "2"], capsys=capsys)
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run_cli(
        ["generate", "stacked", "--dim", "3", "--n", "8", "--seed", "3"],
        capsys=capsys,
    )
    assert code == 0
    code2, out2, _ = run_cli(
        ["generate", "stacked", "--dim", "3", "--n", "8", "--seed", "3"],
        capsys=capsys,
    )
    assert out == out2


def test_check_stacked_exit_codes(capsys, monkeypatch):
    _, sphere_text, _ = run_cli(
        ["generate", "stacked", "--dim", "3", "--n", "9", "--seed", "1"],
        capsys=capsys,
    )
    code, _, _ = run_cli(
        ["check", "stacked"], stdin_text=sphere_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["check", "stacked"], stdin_text=TORUS_TEXT,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 1


def test_check_walkup_and_bounds(capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, _, _ = run_cli(
        ["check", "walkup"], stdin_text=m_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["check", "bounds4"], stdin_text=m_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "tight" in out


def test_check_tight_sampled(capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, out, _ = run_cli(
        ["check", "tight", "--sample", "25", "--seed", "9"],
        stdin_text=m_text, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "tight-on-sample" in out


def test_check_tight_violation_exit(capsys, monkeypatch):
    _, text, _ = run_cli(
        ["generate", "stacked", "--dim", "4", "--n", "8", "--seed", "1"],
        capsys=capsys,
    )
    code, out, _ = run_cli(
        ["check", "tight", "--jobs", "1"], stdin_text=text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 1
    assert "not-tight" in out
    assert "first violation" in out


def test_fvector_commands(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["fvector", "stacked", "--dim", "4", "--n", "30"], capsys=capsys
    )
    assert code == 0 and out.strip() == "30 135 260 255 102"
    code, out, _ = run_cli(
        ["fvector", "walkup", "--dim", "4", "--n", "15", "--chi", "-4"],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "15 105 230 240 96"
    code, out, _ = run_cli(
        ["fvector", "from-f1", "--dim", "4", "--n", "15", "--f1", "105"],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "15 105 230 240 96"


def test_fvector_error_exit(capsys, monkeypatch):
    code, _, err = run_cli(
        ["fvector", "walkup", "--dim", "3", "--n", "10", "--chi", "0"],
        capsys=capsys,
    )
    assert code == 2
    assert "error" in err


def test_parse_error_diagnostic(capsys, monkeypatch):
    code, _, err = run_cli(
        ["info"], stdin_text="a b\na b c\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "line 2" in err


def test_homology_output(capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, out, _ = run_cli(
        ["homology"], stdin_text=m_text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "betti (Z2): 1 3 0 3 1" in out
    assert "non-orientable" in out


def test_porcelain_json(capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, out, _ = run_cli(
        ["--porcelain", "info"], stdin_text=m_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"] == [15, 105, 230, 240, 96]
    assert doc["euler"] == -4


def test_decompose_replay_round_trip(tmp_path, capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    src = tmp_path / "m.txt"
    src.write_text(m_text)
    ledger = tmp_path / "ledger.json"
    code, out, _ = run_cli(
        ["decompose", str(src), "--ledger", str(ledger)], capsys=capsys
    )
    assert code == 0
    assert "handles: 3" in out
    code, out, _ = run_cli(["replay", str(ledger)], capsys=capsys)
    assert code == 0
    assert out == m_text


def test_decompose_replay_reversed_labels(tmp_path, capsys):
    # `walkup generate m4-15 | tr 12345 54321`: the same object under a
    # label order that puts other spheres first
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    src = tmp_path / "r.txt"
    src.write_text(m_text.translate(str.maketrans("12345", "54321")))
    ledger = tmp_path / "l.json"
    code, out, err = run_cli(
        ["--porcelain", "decompose", str(src), "--ledger", str(ledger)],
        capsys=capsys,
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["handles"] == 3
    code, out, _ = run_cli(["replay", str(ledger)], capsys=capsys)
    assert code == 0
    assert out == serialize(loads(src.read_text()))


def test_automorphisms_command(capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    code, out, _ = run_cli(
        ["automorphisms"], stdin_text=m_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert "group order: 3" in out
    assert "(a1 " in out


def test_real_pipe_subprocess():
    # a true shell pipe, exercising the installed console script path
    pipeline = (
        f"{sys.executable} -m walkup.cli generate m4-15 | "
        f"{sys.executable} -m walkup.cli info"
    )
    proc = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "15 105 230 240 96" in proc.stdout


def test_missing_file_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(["info", "/no/such/file.txt"], capsys=capsys)
    assert code == 2


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def test_check_tight_porcelain_independent_of_jobs(capsys, monkeypatch):
    # the pooled scan must report the serial scan's first violation and
    # count, whatever the scheduling of its workers
    for text in (serialize(random_stacked_sphere(3, 8, 1)), TORUS_TEXT):
        outputs = set()
        for _ in range(4):
            for jobs in ("1", "2"):
                code, out, _ = run_cli(
                    ["--porcelain", "check", "tight", "--jobs", jobs],
                    stdin_text=text, monkeypatch=monkeypatch, capsys=capsys,
                )
                outputs.add((code, out))
        assert len(outputs) == 1


def test_check_tight_reports_evaluated(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--porcelain", "check", "tight", "--jobs", "1"], stdin_text=TORUS_TEXT,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 2 ** 7 - 2
    # duality: subsets of size <= 3 stand for their complements
    assert doc["evaluated"] == 7 + 21 + 35


def test_check_tight_rejects_nonpositive_sample(capsys, monkeypatch):
    for n in ("-3", "0"):
        code, out, err = run_cli(
            ["check", "tight", "--sample", n], stdin_text=TORUS_TEXT,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert _one_error_line(err)


def test_check_tight_rejects_nonpositive_jobs(capsys, monkeypatch):
    for extra in ([], ["--sample", "25"]):
        for n in ("0", "-2"):
            code, out, err = run_cli(
                ["check", "tight", "--jobs", n, *extra], stdin_text=TORUS_TEXT,
                monkeypatch=monkeypatch, capsys=capsys,
            )
            assert code == 2
            assert out == ""
            assert _one_error_line(err)


def test_check_tight_has_no_exhaustive_flag(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            ["check", "tight", "--exhaustive"], stdin_text=TORUS_TEXT,
            monkeypatch=monkeypatch, capsys=capsys,
        )
    assert exc.value.code == 2


def test_replay_rejects_bad_ledgers(tmp_path, capsys, monkeypatch):
    bad = {
        "invalid.json": '{"base": {"facets": [["a", "b"]]',
        "no_facets.json": '{"base": {}, "handles": []}',
        "not_object.json": "[1, 2]",
    }
    for name, text in bad.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(["replay", str(path)], capsys=capsys)
        assert code == 2, name
        assert out == ""
        assert _one_error_line(err), err


TETRA_BASE = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def _write_ledger(tmp_path, name, base_facets):
    path = tmp_path / name
    path.write_text(json.dumps({"base": {"facets": base_facets}, "handles": []}))
    return str(path)


def test_replay_rejects_invalid_bases(tmp_path, capsys, monkeypatch):
    bad = {
        "unsorted": [["b", "a", "c"]] + TETRA_BASE[1:],
        "repeated_vertex": [["a", "a", "c"]] + TETRA_BASE[1:],
        "space_in_label": [["a b", "c", "d"]] + TETRA_BASE[1:],
        "hash_in_label": [["a", "b", "c#"]] + TETRA_BASE[1:],
        "mixed_dimensions": [["a", "b"]] + TETRA_BASE[1:],
        "duplicate_facet": TETRA_BASE + [["a", "b", "c"]],
        "empty": [],
        "facet_not_a_list": ["abc"] + TETRA_BASE[1:],
    }
    for name, facets in bad.items():
        path = _write_ledger(tmp_path, f"{name}.json", facets)
        code, out, err = run_cli(["replay", path], capsys=capsys)
        assert code == 2, name
        assert out == "", name
        assert _one_error_line(err), (name, err)


def test_replay_accepts_clone_labels(tmp_path, capsys, monkeypatch):
    base = [["a", "b", "c~1"], ["a", "b", "d"], ["a", "c~1", "d"], ["b", "c~1", "d"]]
    code, out, _ = run_cli(["replay", _write_ledger(tmp_path, "l.json", base)],
                           capsys=capsys)
    assert code == 0
    assert out == "a b c~1\na b d\na c~1 d\nb c~1 d\n"
