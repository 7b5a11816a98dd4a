"""Command-line interface: exit codes, formats, piping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

from walkup import CLONE_MARKER, build_m4_15, random_stacked_sphere
from walkup.cli import main
from walkup.io import loads, serialize

from corpus import select, tags_of


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


def test_check_stacked_on_every_closed_corpus_entry(capsys, monkeypatch):
    # every closed entry but the one with clone labels, which a facet file
    # may not hold: stacked spheres, and negatives such as the cyclic
    # spheres, the 0-sphere and the handle manifolds
    entries = [(name, X) for name, X in select("closed")
               if not any(CLONE_MARKER in v for v in X.vertices)]
    assert len(entries) == 103
    for name, X in entries:
        code, out, _ = run_cli(
            ["--porcelain", "check", "stacked"], stdin_text=serialize(X),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        stacked = "stacked" in tags_of(name)
        assert json.loads(out) == {
            "command": "check stacked", "kind": "sphere", "stacked": stacked}, name
        assert code == (0 if stacked else 1), name


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


@pytest.mark.parametrize("n", [65, 300])
def test_check_tight_samples_beyond_64_vertices(n, tmp_path):
    # 2^n - 2 subsets exceed one 64-bit word from n = 65 on; each draw
    # must still end, so the scan runs in its own process under a timeout
    src = tmp_path / "s.txt"
    src.write_text(serialize(random_stacked_sphere(4, n, 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "walkup.cli", "--porcelain", "check", "tight",
         "--sample", "300", "--seed", "1", str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "not-tight"


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


@pytest.mark.parametrize("argv", [
    "fvector walkup --dim 4 --n 3 --chi 0",  # f0 < d + 2
    "fvector walkup --dim 4 --n 10 --chi -100",  # f1 = 800 > C(10, 2)
    "fvector from-f1 --dim 4 --n 5 --f1 1000",  # f0 < d + 2
    "fvector from-f1 --dim 4 --n 10 --f1 50",  # f1 > C(10, 2)
    "fvector walkup --dim 4 --n 10 --chi 4",  # chi > 2: f1 = 20 < 5 * 10 - C(6, 2)
    "fvector walkup --dim 4 --n 10 --chi 100",  # f1 = -700
    "fvector from-f1 --dim 4 --n 10 --f1 20",  # f1 < 5 * 10 - C(6, 2)
])
def test_fvector_refuses_impossible_counts(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys=capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err)


def test_parse_error_diagnostic(capsys, monkeypatch):
    code, _, err = run_cli(
        ["info"], stdin_text="a b\na b c\n", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("facets, message", [
    ([["a", "b", "c"], ["a", "b"]], "facet sizes [2, 3] are mixed"),
    ([["a", "b"], ["b", "a"]], "facet ('a', 'b') repeated"),
])
def test_json_input_refusals(facets, message, capsys, monkeypatch):
    # the constructor refuses JSON input in from_facets's words
    code, out, err = run_cli(
        ["--porcelain", "info"], stdin_text=json.dumps({"facets": facets}),
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_decompose_writes_over_a_longer_ledger(tmp_path, capsys):
    # the ledger is written in place and cut to length: the old file's
    # tail must not survive
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    src = tmp_path / "m.txt"
    src.write_text(m_text)
    fresh, ledger = tmp_path / "fresh.json", tmp_path / "l.json"
    ledger.write_text("x" * 200_000)
    for path in (fresh, ledger):
        code, _, err = run_cli(
            ["decompose", str(src), "--ledger", str(path)], capsys=capsys
        )
        assert (code, err) == (0, "")
    assert ledger.read_bytes() == fresh.read_bytes()
    code, out, _ = run_cli(["replay", str(ledger)], capsys=capsys)
    assert (code, out) == (0, m_text)


def test_decompose_ledger_to_devnull(tmp_path, capsys):
    # a device is written through, never truncated
    src = tmp_path / "m.txt"
    src.write_text(serialize(build_m4_15()))
    code, _, err = run_cli(
        ["decompose", str(src), "--ledger", os.devnull], capsys=capsys
    )
    assert (code, err) == (0, "")


def test_decompose_ledger_in_missing_directory(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text(serialize(build_m4_15()))
    code, out, err = run_cli(
        ["decompose", str(src), "--ledger", str(tmp_path / "no" / "l.json")],
        capsys=capsys,
    )
    assert (code, out) == (2, "")
    assert _one_error_line(err)


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


# a facet file whose second line starts with two bytes that are not UTF-8
BAD_UTF8 = b"a b c\n\xff\xfe1 2 3\n"
BAD_UTF8_ERROR = "error: line 2: not UTF-8: byte 0xff (invalid start byte)\n"


def test_invalid_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(BAD_UTF8)
    assert run_cli(["info", str(path)], capsys=capsys) == (2, "", BAD_UTF8_ERROR)


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_invalid_utf8_stdin_exit_2(errors):
    # stdin is decoded as strict UTF-8 whatever error handler it carries:
    # surrogateescape would otherwise pass the bytes on as a label
    proc = subprocess.run(
        [sys.executable, "-m", "walkup.cli", "info"], input=BAD_UTF8,
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONIOENCODING": f"utf-8:{errors}"},
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == BAD_UTF8_ERROR


def test_replay_rejects_invalid_utf8_ledger(tmp_path, capsys):
    ledger = tmp_path / "l.json"
    ledger.write_bytes(b'{"base": {"facets": [["a", "b"]]},\n"handles": ["\xe9"]}')
    code, out, err = run_cli(["replay", str(ledger)], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 2: not UTF-8: byte 0xe9 (invalid continuation byte)\n"


def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    plain, marked = tmp_path / "m.txt", tmp_path / "bom.txt"
    plain.write_text(m_text, encoding="utf-8")
    marked.write_text("\ufeff" + m_text, encoding="utf-8")
    for command in ("info", "homology"):
        want = run_cli(["--porcelain", command, str(plain)], capsys=capsys)
        assert want[0] == 0
        assert run_cli(["--porcelain", command, str(marked)], capsys=capsys) == want
        assert run_cli(
            ["--porcelain", command], stdin_text="\ufeff" + m_text,
            monkeypatch=monkeypatch, capsys=capsys,
        ) == want
    # a marked tetrahedron boundary is closed, and a stacked sphere
    tetra = "".join(" ".join(f) + "\n" for f in combinations("1234", 3))
    code, out, _ = run_cli(
        ["check", "stacked"], stdin_text="\ufeff" + tetra,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out) == (0, "detected: closed, testing sphere\nstacked sphere: yes\n")
    # a marked JSON document is still sniffed as JSON
    code, out, _ = run_cli(
        ["--porcelain", "info"], stdin_text='\ufeff{"facets": [["1", "2", "3"]]}',
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0 and json.loads(out)["f_vector"] == [3, 3, 1]


def test_only_newline_and_carriage_return_end_lines(tmp_path, capsys, monkeypatch):
    # str.splitlines would also break a comment at a form feed, \x1c-\x1e,
    # NEL, U+2028 or U+2029 and read its tail as a facet
    tetra = "".join(" ".join(f) + "\n" for f in combinations("1234", 3))
    want = run_cli(["--porcelain", "info"], stdin_text=tetra,
                   monkeypatch=monkeypatch, capsys=capsys)
    assert want[0] == 0
    for brk in "\f\x1c\x1d\x1e\x85\u2028\u2029":
        text = f"# generated{brk}by hand\n" + tetra
        assert run_cli(["--porcelain", "info"], stdin_text=text,
                       monkeypatch=monkeypatch, capsys=capsys) == want, repr(brk)
    # CRLF and CR-only files still parse
    for end in ("\r\n", "\r"):
        text = "# c\n".replace("\n", end) + tetra.replace("\n", end)
        assert run_cli(["--porcelain", "info"], stdin_text=text,
                       monkeypatch=monkeypatch, capsys=capsys) == want, repr(end)
    # line numbers count only those line ends, in a parse error and in a
    # bad byte's error alike
    code, out, err = run_cli(
        ["info"], stdin_text="# a\u2028b\r1 2 3\r\n1 2\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: line 3: facet has 2 vertices, previous facets have 3\n"
    path = tmp_path / "bad.txt"
    path.write_bytes("# a\u2028b\r1 2 3\r\n".encode() + b"\xff")
    code, out, err = run_cli(["info", str(path)], capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: not UTF-8: byte 0xff")


def test_replay_reads_a_ledger_with_a_byte_order_mark(tmp_path, capsys):
    _, m_text, _ = run_cli(["generate", "m4-15"], capsys=capsys)
    src, ledger = tmp_path / "m.txt", tmp_path / "l.json"
    src.write_text(m_text, encoding="utf-8")
    assert run_cli(["decompose", str(src), "--ledger", str(ledger)],
                   capsys=capsys)[0] == 0
    ledger.write_text("\ufeff" + ledger.read_text(encoding="utf-8"), encoding="utf-8")
    assert run_cli(["replay", str(ledger)], capsys=capsys) == (0, m_text, "")


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


def test_check_tight_sample_rejects_one_vertex(capsys, monkeypatch):
    code, out, err = run_cli(
        ["check", "tight", "--sample", "3"], stdin_text="a\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert out == ""
    assert _one_error_line(err), err


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


def test_check_tight_refuses_flags_of_the_other_mode(capsys, monkeypatch):
    # --seed drives only sampled scans, --jobs and --ceiling only
    # exhaustive ones: a mix is refused before any scan
    from walkup import tightness

    monkeypatch.setattr(tightness, "is_tight_z2", lambda *a, **k: pytest.fail("scanned"))
    m_text = serialize(build_m4_15())
    for flags in (
        ["--seed", "1"],
        ["--sample", "5", "--jobs", "2"],
        ["--sample", "5", "--ceiling", "20"],
    ):
        code, out, err = run_cli(
            ["check", "tight", *flags], stdin_text=m_text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2, flags
        assert out == ""
        assert _one_error_line(err), err


def test_check_tight_refuses_a_flag_mix_before_reading_input(capsys, monkeypatch):
    # the flag error wins over the parse error of a malformed stdin, and
    # the input is not parsed at all
    from walkup import io as cio

    monkeypatch.setattr(cio, "loads", lambda text: pytest.fail("parsed"))
    for flags, message in (
        (["--seed", "1"], "--seed"),
        (["--sample", "5", "--jobs", "2"], "--jobs"),
        (["--sample", "5", "--ceiling", "20"], "--ceiling"),
    ):
        code, out, err = run_cli(
            ["check", "tight", *flags], stdin_text="a b\nb\n",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2, flags
        assert out == ""
        assert _one_error_line(err) and message in err, err
    monkeypatch.undo()
    code, out, err = run_cli(
        ["check", "tight", "--sample", "5"], stdin_text="a b\nb\n",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2 and "line 2" in err, err


def test_check_tight_ceiling(capsys, monkeypatch):
    m_text = serialize(build_m4_15())
    code, out, err = run_cli(
        ["check", "tight", "--ceiling", "14"], stdin_text=m_text,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 2
    assert out == ""
    assert _one_error_line(err), err
    code, out, err = run_cli(
        ["--porcelain", "check", "tight", "--ceiling", "15", "--jobs", "1"],
        stdin_text=m_text, monkeypatch=monkeypatch, capsys=capsys,
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert (report["checked"], report["verdict"]) == (32766, "tight")


def test_generate_takes_only_its_targets_flags(capsys):
    for argv in (
        ["generate", "m4-15", "--dim", "3"],
        ["generate", "b5-30", "--seed", "1"],
        ["generate", "sphere", "--n", "5"],
        ["generate", "sphere"],
        ["generate", "stacked", "--dim", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""


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


def test_replay_rejects_handle_renamed_onto_itself(tmp_path, capsys):
    # after the first handle glues a1..a5 to b1..b5, the second one's
    # source a2..a6 is renamed to b2..b5 a6, which meets its target b2..b6
    a = [f"a{i}" for i in range(1, 7)]
    b = [f"b{i}" for i in range(1, 7)]
    base = [list(f) for f in combinations(a, 5)] + [list(f) for f in combinations(b, 5)]

    def handle(src, tgt):
        return {"source_facet": src, "target_facet": tgt,
                "pairs": [list(p) for p in zip(src, tgt)]}

    path = tmp_path / "l.json"
    path.write_text(json.dumps({
        "base": {"facets": base},
        "handles": [handle(a[:5], b[:5]), handle(a[1:], b[1:])],
    }))
    code, out, err = run_cli(["replay", str(path)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert _one_error_line(err), err
    assert "handle 2" in err


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


# Exact stdout and exit code of every report command, text and --porcelain,
# on the tight m4-15, on a non-tight stacked 4-sphere whose default-jobs
# scan takes the pooled early-stop path on a multi-core host, and on inputs
# that reach the other text branches: with boundary (b5-30), not a weak
# pseudomanifold (three triangles on one edge), disconnected (two circles).
# Complex commands print the same bytes under --porcelain.  stderr must
# stay empty.  Inputs are generator argv lists or literal facet text.
GOLDEN_INPUTS = {
    "m4-15": ["generate", "m4-15"],
    "stacked": ["generate", "stacked", "--dim", "4", "--n", "15", "--seed", "1"],
    "b5-30": ["generate", "b5-30"],
    "sphere4": ["generate", "sphere", "--dim", "4"],
    "tri": "1 2 3\n1 2 4\n1 2 5\n",
    "circles": "a b\nb c\na c\nd e\ne f\nd f\n",
}

S2_TEXT = "v1 v2 v3\nv1 v2 v4\nv1 v3 v4\nv2 v3 v4\n"
S4_TEXT = (
    "v1 v2 v3 v4 v5\n"
    "v1 v2 v3 v4 v6\n"
    "v1 v2 v3 v5 v6\n"
    "v1 v2 v4 v5 v6\n"
    "v1 v3 v4 v5 v6\n"
    "v2 v3 v4 v5 v6\n"
)

# (input, command) -> (exit code, text stdout, porcelain stdout)
GOLDEN = {
    ("m4-15", "info"): (
        0,
        (
            "dimension: 4\n"
            "f-vector: 15 105 230 240 96\n"
            "weak pseudomanifold: yes (closed)\n"
            "pseudomanifold (connected dual graph): yes\n"
            "euler characteristic: -4\n"
        ),
        (
            '{"closed": true, "command": "info", "dimension": 4, '
            '"euler": -4, "f_vector": [15, 105, 230, 240, 96], '
            '"pseudomanifold": true, "weak_pseudomanifold": true}\n'
        ),
    ),
    ("m4-15", "homology"): (
        0,
        (
            "betti (Z2): 1 3 0 3 1\n"
            "euler characteristic: -4\n"
            "connected: yes\n"
            "orientable: non-orientable\n"
        ),
        (
            '{"betti": [1, 3, 0, 3, 1], "command": "homology", '
            '"connected": true, "euler": -4, "orientable": false}\n'
        ),
    ),
    ("m4-15", "automorphisms"): (
        0,
        (
            "group order: 3\n"
            "generator: (a1 b1 c1)(a2 b2 c2)(a3 b3 c3)(a4 b4 c4)(a5 b5 c5)\n"
        ),
        (
            '{"command": "automorphisms", "generators": ["(a1 b1 '
            'c1)(a2 b2 c2)(a3 b3 c3)(a4 b4 c4)(a5 b5 c5)"], "order": 3}\n'
        ),
    ),
    ("m4-15", "decompose"): (
        0,
        (
            "handles: 3\n"
            "base: stacked sphere with 30 vertices, 102 facets\n"
        ),
        (
            '{"base_facets": 102, "base_vertices": 30, "command": '
            '"decompose", "handles": 3, "ledger_file": null}\n'
        ),
    ),
    ("m4-15", "check walkup"): (
        0,
        "walkup class member: yes\n",
        '{"command": "check walkup", "member": true}\n',
    ),
    ("m4-15", "check stacked"): (
        1,
        (
            "detected: closed, testing sphere\n"
            "stacked sphere: no\n"
        ),
        '{"command": "check stacked", "kind": "sphere", "stacked": false}\n',
    ),
    ("m4-15", "check bounds4"): (
        0,
        (
            "euler characteristic: -4\n"
            "2f1 >= 10f0 - 15chi: 210 >= 210 (tight)\n"
            "f0(f0-11) >= -15chi: 60 >= 60 (tight)\n"
            "2-neighborly: yes\n"
        ),
        (
            '{"bounds": [{"holds": true, "lhs": 210, "name": "2f1 >= '
            '10f0 - 15chi", "rhs": 210, "tight": true}, {"holds": '
            'true, "lhs": 60, "name": "f0(f0-11) >= -15chi", "rhs": '
            '60, "tight": true}], "command": "check bounds4", "euler": '
            '-4, "overall_equality": true, "two_neighborly": true}\n'
        ),
    ),
    ("m4-15", "check tight"): (
        0,
        (
            "mode: exhaustive\n"
            "subsets checked: 32766\n"
            "subsets evaluated: 16383\n"
            "verdict: tight\n"
        ),
        (
            '{"checked": 32766, "command": "check tight", "evaluated": '
            '16383, "mode": "exhaustive", "verdict": "tight", '
            '"violations": []}\n'
        ),
    ),
    ("m4-15", "check tight --jobs 1"): (
        0,
        (
            "mode: exhaustive\n"
            "subsets checked: 32766\n"
            "subsets evaluated: 16383\n"
            "verdict: tight\n"
        ),
        (
            '{"checked": 32766, "command": "check tight", "evaluated": '
            '16383, "mode": "exhaustive", "verdict": "tight", '
            '"violations": []}\n'
        ),
    ),
    ("m4-15", "check tight --sample 300 --seed 7"): (
        0,
        (
            "mode: sampled\n"
            "subsets checked: 300\n"
            "subsets evaluated: 300\n"
            "verdict: tight-on-sample\n"
        ),
        (
            '{"checked": 300, "command": "check tight", "evaluated": '
            '300, "mode": "sampled", "verdict": "tight-on-sample", '
            '"violations": []}\n'
        ),
    ),
    ("stacked", "info"): (
        0,
        (
            "dimension: 4\n"
            "f-vector: 15 60 110 105 42\n"
            "weak pseudomanifold: yes (closed)\n"
            "pseudomanifold (connected dual graph): yes\n"
            "euler characteristic: 2\n"
        ),
        (
            '{"closed": true, "command": "info", "dimension": 4, '
            '"euler": 2, "f_vector": [15, 60, 110, 105, 42], '
            '"pseudomanifold": true, "weak_pseudomanifold": true}\n'
        ),
    ),
    ("stacked", "homology"): (
        0,
        (
            "betti (Z2): 1 0 0 0 1\n"
            "euler characteristic: 2\n"
            "connected: yes\n"
            "orientable: orientable\n"
        ),
        (
            '{"betti": [1, 0, 0, 0, 1], "command": "homology", '
            '"connected": true, "euler": 2, "orientable": true}\n'
        ),
    ),
    ("stacked", "automorphisms"): (
        0,
        (
            "group order: 1\n"
            "generator: () (trivial group)\n"
        ),
        '{"command": "automorphisms", "generators": [], "order": 1}\n',
    ),
    ("stacked", "decompose"): (
        0,
        (
            "handles: 0\n"
            "base: stacked sphere with 15 vertices, 42 facets\n"
        ),
        (
            '{"base_facets": 42, "base_vertices": 15, "command": '
            '"decompose", "handles": 0, "ledger_file": null}\n'
        ),
    ),
    ("stacked", "check walkup"): (
        0,
        "walkup class member: yes\n",
        '{"command": "check walkup", "member": true}\n',
    ),
    ("stacked", "check stacked"): (
        0,
        (
            "detected: closed, testing sphere\n"
            "stacked sphere: yes\n"
        ),
        '{"command": "check stacked", "kind": "sphere", "stacked": true}\n',
    ),
    ("stacked", "check bounds4"): (
        0,
        (
            "euler characteristic: 2\n"
            "2f1 >= 10f0 - 15chi: 120 >= 120 (tight)\n"
            "f0(f0-11) >= -15chi: 60 >= -30 (strict)\n"
            "2-neighborly: no\n"
        ),
        (
            '{"bounds": [{"holds": true, "lhs": 120, "name": "2f1 >= '
            '10f0 - 15chi", "rhs": 120, "tight": true}, {"holds": '
            'true, "lhs": 60, "name": "f0(f0-11) >= -15chi", "rhs": '
            '-30, "tight": false}], "command": "check bounds4", '
            '"euler": 2, "overall_equality": false, "two_neighborly": false}\n'
        ),
    ),
    ("stacked", "check tight"): (
        1,
        (
            "mode: exhaustive\n"
            "subsets checked: 4\n"
            "subsets evaluated: 2\n"
            "verdict: not-tight\n"
            "first violation: subset {v1 v10} in degree 0\n"
        ),
        (
            '{"checked": 4, "command": "check tight", "evaluated": 2, '
            '"mode": "exhaustive", "verdict": "not-tight", '
            '"violations": [{"degree": 0, "subset": ["v1", "v10"]}, '
            '{"degree": 3, "subset": ["v11", "v12", "v13", "v14", '
            '"v15", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"]}]}\n'
        ),
    ),
    ("stacked", "check tight --jobs 1"): (
        1,
        (
            "mode: exhaustive\n"
            "subsets checked: 4\n"
            "subsets evaluated: 2\n"
            "verdict: not-tight\n"
            "first violation: subset {v1 v10} in degree 0\n"
        ),
        (
            '{"checked": 4, "command": "check tight", "evaluated": 2, '
            '"mode": "exhaustive", "verdict": "not-tight", '
            '"violations": [{"degree": 0, "subset": ["v1", "v10"]}, '
            '{"degree": 3, "subset": ["v11", "v12", "v13", "v14", '
            '"v15", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"]}]}\n'
        ),
    ),
    ("stacked", "check tight --sample 300 --seed 7"): (
        1,
        (
            "mode: sampled\n"
            "subsets checked: 5\n"
            "subsets evaluated: 5\n"
            "verdict: not-tight\n"
            "first violation: subset {v1 v10 v12 v13 v14 v15 v2 v3 v5 "
            "v7 v8 v9} in degree 3\n"
        ),
        (
            '{"checked": 5, "command": "check tight", "evaluated": 5, '
            '"mode": "sampled", "verdict": "not-tight", "violations": '
            '[{"degree": 3, "subset": ["v1", "v10", "v12", "v13", '
            '"v14", "v15", "v2", "v3", "v5", "v7", "v8", "v9"]}]}\n'
        ),
    ),
    (None, "fvector walkup --dim 4 --n 15 --chi -4"): (
        0,
        "15 105 230 240 96\n",
        (
            '{"command": "fvector walkup", "f_vector": [15, 105, 230, '
            "240, 96]}\n"
        ),
    ),
    ("b5-30", "info"): (
        0,
        (
            "dimension: 5\n"
            "f-vector: 30 135 260 255 126 25\n"
            "weak pseudomanifold: yes (with boundary)\n"
            "pseudomanifold (connected dual graph): yes\n"
            "euler characteristic: 1\n"
        ),
        (
            '{"closed": false, "command": "info", "dimension": 5, '
            '"euler": 1, "f_vector": [30, 135, 260, 255, 126, 25], '
            '"pseudomanifold": true, "weak_pseudomanifold": true}\n'
        ),
    ),
    ("b5-30", "homology"): (
        0,
        (
            "betti (Z2): 1 0 0 0 0 0\n"
            "euler characteristic: 1\n"
            "connected: yes\n"
            "orientable: not-applicable\n"
        ),
        (
            '{"betti": [1, 0, 0, 0, 0, 0], "command": "homology", '
            '"connected": true, "euler": 1, "orientable": null}\n'
        ),
    ),
    ("b5-30", "check walkup"): (
        1,
        "walkup class member: no\n",
        '{"command": "check walkup", "member": false}\n',
    ),
    ("b5-30", "check stacked"): (
        0,
        (
            "detected: boundary, testing ball\n"
            "stacked ball: yes\n"
        ),
        (
            '{"command": "check stacked", "kind": "ball", '
            '"stacked": true}\n'
        ),
    ),
    ("tri", "info"): (
        0,
        (
            "dimension: 2\n"
            "f-vector: 5 7 3\n"
            "weak pseudomanifold: no\n"
            "pseudomanifold (connected dual graph): no\n"
            "euler characteristic: 1\n"
        ),
        (
            '{"closed": false, "command": "info", "dimension": 2, '
            '"euler": 1, "f_vector": [5, 7, 3], '
            '"pseudomanifold": false, "weak_pseudomanifold": false}\n'
        ),
    ),
    ("tri", "check stacked"): (
        1,
        (
            "detected: not a weak pseudomanifold\n"
            "stacked: no\n"
        ),
        (
            '{"command": "check stacked", "kind": "not-pseudomanifold", '
            '"stacked": false}\n'
        ),
    ),
    ("circles", "info"): (
        0,
        (
            "dimension: 1\n"
            "f-vector: 6 6\n"
            "weak pseudomanifold: yes (closed)\n"
            "pseudomanifold (connected dual graph): no\n"
            "euler characteristic: 0\n"
        ),
        (
            '{"closed": true, "command": "info", "dimension": 1, '
            '"euler": 0, "f_vector": [6, 6], "pseudomanifold": false, '
            '"weak_pseudomanifold": true}\n'
        ),
    ),
    ("circles", "homology"): (
        0,
        (
            "betti (Z2): 2 2\n"
            "euler characteristic: 0\n"
            "connected: no\n"
            "orientable: orientable\n"
        ),
        (
            '{"betti": [2, 2], "command": "homology", '
            '"connected": false, "euler": 0, "orientable": true}\n'
        ),
    ),
    ("circles", "automorphisms"): (
        0,
        (
            "group order: 72\n"
            "generator: (e f)\n"
            "generator: (d e)\n"
            "generator: (b c)\n"
            "generator: (a b)\n"
            "generator: (a d)(b e)(c f)\n"
        ),
        (
            '{"command": "automorphisms", "generators": ["(e f)", '
            '"(d e)", "(b c)", "(a b)", "(a d)(b e)(c f)"], '
            '"order": 72}\n'
        ),
    ),
    ("sphere4", "decompose --ledger l.json"): (
        0,
        (
            "handles: 0\n"
            "base: stacked sphere with 6 vertices, 6 facets\n"
            "ledger written to l.json\n"
        ),
        (
            '{"base_facets": 6, "base_vertices": 6, '
            '"command": "decompose", "handles": 0, '
            '"ledger_file": "l.json"}\n'
        ),
    ),
    (None, "replay l.json"): (0, S4_TEXT, S4_TEXT),
    (None, "fvector stacked --dim 4 --n 30"): (
        0,
        "30 135 260 255 102\n",
        (
            '{"command": "fvector stacked", "f_vector": [30, 135, 260, '
            '255, 102]}\n'
        ),
    ),
    (None, "fvector from-f1 --dim 4 --n 15 --f1 105"): (
        0,
        "15 105 230 240 96\n",
        (
            '{"command": "fvector from-f1", "f_vector": [15, 105, 230, '
            '240, 96]}\n'
        ),
    ),
    (None, "generate sphere --dim 2"): (0, S2_TEXT, S2_TEXT),
}


def test_golden_cli_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # decompose --ledger and replay use l.json here
    texts = {None: None}
    for name, argv in GOLDEN_INPUTS.items():
        if isinstance(argv, str):
            texts[name] = argv
        else:
            _, texts[name], _ = run_cli(argv, capsys=capsys)
    for (name, command), (code, text_out, porcelain_out) in GOLDEN.items():
        for prefix, expected in (([], text_out), (["--porcelain"], porcelain_out)):
            got = run_cli(
                prefix + command.split(), stdin_text=texts[name],
                monkeypatch=monkeypatch, capsys=capsys,
            )
            assert got == (code, expected, ""), (name, prefix, command)
