import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (CosetAction, Subgroup, all_subgroups, bundled_a5, chebotarev_report, cli,
                      covers, group_file_data, parse_group_data, permgroup, sft)
from cheblink.cli import decimal_str, main, run_a5_experiment

from corpus import a6
from oracles import render_row_by_fractions

A5_HOM = {"degree": 5, "images": ["(1 2 3 4 5)", "(1 2 3)"]}
S3_HOM = {"degree": 3, "images": ["(1 2 3)", "(1 2)"]}
GOLDEN_MEAN = {"states": 2, "edges": [
    {"from": 0, "to": 0, "label": "x1"},
    {"from": 0, "to": 1, "label": "x1"},
    {"from": 1, "to": 0, "label": "x1"},
]}
DATA = files("cheblink") / "data"
GOLDEN = Path(__file__).parent / "golden"
TRIVIAL_HOM = {"degree": 1, "images": ["()"]}
THREE_CYCLE = {"states": 3, "edges": [
    {"from": 0, "to": 1, "label": "x1"},
    {"from": 1, "to": 2, "label": "x1"},
    {"from": 2, "to": 0, "label": "x1"},
]}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data) if isinstance(data, dict) else data)
    return str(path)


def test_decimal_str_rounds_half_up():
    assert decimal_str(Fraction(1, 60)) == "0.016667"
    assert decimal_str(Fraction(1, 4)) == "0.250000"
    assert decimal_str(Fraction(0)) == "0.000000"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333"
    assert decimal_str(Fraction(1, 1000000000)) == "0.000000"
    # no sign when the rounded digits are all zero
    assert decimal_str(Fraction(-1, 1000000000)) == "0.000000"
    assert decimal_str(Fraction(-5, 10000000)) == "-0.000001"
    # ties round away from zero, not to even
    assert decimal_str(Fraction(5, 10000000)) == "0.000001"
    assert decimal_str(Fraction(15, 10000000)) == "0.000002"
    assert decimal_str(Fraction(25, 10000000)) == "0.000003"


def test_group_classes(tmp_path, capsys):
    path = write(tmp_path, "a5.json",
                 {"degree": 5, "generators": A5_HOM["images"]})
    assert main(["group", "classes", path]) == 0
    out = capsys.readouterr().out
    assert "order 60 on 5 points; 5 classes" in out
    assert "size   20" in out


def test_braid_presentation(tmp_path, capsys):
    assert main(["braid", "presentation", "2:s1 s1 s1"]) == 0
    out = capsys.readouterr().out
    assert "x2 x1 x2 x1^-1 x2^-1 x1^-1" in out
    assert "invariant factors: [1, 0]" in out


def test_snf(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2 4\n6 8\n")
    assert main(["snf", path]) == 0
    out = capsys.readouterr().out
    assert "invariant factors [2, 4]" in out
    assert "u @ s @ v == input: True" in out


def test_snf_non_integer_token_names_file_line_and_token(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "# a comment\n2 4\n6 x\n")
    assert main(["snf", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: 'x' is not an integer\n"


def test_snf_ragged_row_names_file_and_both_lines(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "# a comment\n2 4 6\n\n6 8\n")
    assert main(["snf", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 4: 2 entries, line 2 has 3\n"


def test_snf_prints_entries_past_the_int_digit_limit(tmp_path, capsys):
    # a random 24x24 matrix with entries in [-9, 9]: u and v reach entries of
    # tens of thousands of bits, which str() refuses past 4300 digits
    rng = random.Random(1)
    path = write(tmp_path, "m.txt", "".join(
        " ".join(str(rng.randint(-9, 9)) for _ in range(24)) + "\n" for _ in range(24)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["snf", path]) == 0
    assert capsys.readouterr().out.endswith("u @ s @ v == input: True\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_snf_reads_an_entry_past_the_int_digit_limit(tmp_path, capsys):
    with cli._any_digits():
        n = int("7" * 4999 + "0")
        path = write(tmp_path, "m.txt", f"{n} 0\n0 2\n")
        want = f"invariant factors [2, {n}]"
    assert main(["snf", path]) == 0
    out = capsys.readouterr().out
    assert want in out and out.endswith("u @ s @ v == input: True\n")


def test_snf_quotes_a_prefix_of_a_long_bad_token(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 " + "x" * 10_000 + "\n")
    assert main(["snf", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: line 1: 'xxx")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


def test_snf_undecodable_matrix_names_the_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xff\xfe2\x00 \x004\x00\n\x00")  # UTF-16 text
    assert main(["snf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
def test_snf_matrix_without_rows_names_the_file(tmp_path, capsys, text):
    path = write(tmp_path, "m.txt", text)
    assert main(["snf", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: matrix file has no rows\n")


@pytest.mark.parametrize("text, problem", [
    ("(1 4)", "point 4 outside 1..3"),
    ("(1 -2)", "point -2 outside 1..3"),
    ("(1 2)(2 3)", "point 2 repeated across cycles"),
    ("(a b)", "point 'a' is not an integer in 1..3"),
    ("(1_0 2)", "point '1_0' is not an integer in 1..3"),
    ("(\u0661 2)", "point '\u0661' is not an integer in 1..3"),
    ("(+1 2)", "point '+1' is not an integer in 1..3"),
], ids=["past-degree", "negative", "repeated", "not-an-integer", "underscore",
        "arabic-indic-digit", "plus-sign"])
def test_cycle_text_errors_name_the_point_as_written(tmp_path, capsys, text, problem):
    path = write(tmp_path, "g.json", {"degree": 3, "generators": ["(1 2 3)", text]})
    assert main(["group", "classes", path]) == 2
    assert capsys.readouterr() == ("", f"error: bad cycle notation {text!r}: {problem}\n")


def test_generic_check(capsys):
    assert main(["generic", "check", "--braid", "2:s1 s1 s1",
                 "--classes", "x1"]) == 0
    assert "GENERATED" in capsys.readouterr().out
    assert main(["generic", "check", "--braid", "2:s1 s1 s1"]) == 0
    out = capsys.readouterr().out
    assert "NOT GENERATED" in out and "Z/2" in out


def radix_classes(n, base=16):
    """Class words on the trivial braid whose invariant factor is n: x_i^base
    x_{i+1}^-1 for each i, then n's base-`base` digits as exponents."""
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    words = [" ".join([f"x{i}"] * base + [f"x{i + 1}^-1"]) for i in range(1, len(digits))]
    words.append(" ".join(f"x{i}" for i, c in enumerate(digits, start=1) for _ in range(c)))
    return f"{len(digits)}:", ";".join(words)


def test_generic_check_large_prime_witness(capsys):
    braid, classes = radix_classes(2 ** 61 - 1)
    assert main(["generic", "check", "--braid", braid, "--classes", classes]) == 0
    out = capsys.readouterr().out
    assert f"invariant factors per generator: [{'1, ' * 15}{2 ** 61 - 1}]" in out
    assert f"witness surjection onto Z/{2 ** 61 - 1} " in out


def test_generic_check_unfactorable_invariant_is_input_error(capsys):
    n = 16777259 * 16777289  # two primes above the trial-division cap
    braid, classes = radix_classes(n)
    assert main(["generic", "check", "--braid", braid, "--classes", classes]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(n) in err


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write(tmp_path, "s4.json", {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cheblink", "group", "classes", path],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "group of order 24 on 4 points; 5 classes" in proc.stdout


def test_input_files_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259 §8.1); the C locale's encoding is ASCII
    group = tmp_path / "g.json"
    group.write_bytes('{"degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"], '
                      '"name": "icosaèdre"}'.encode("utf-8"))
    matrix = tmp_path / "m.txt"
    matrix.write_bytes("# matrice à deux lignes\n2 0\n0 4\n".encode("utf-8"))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONCOERCECLOCALE="0", LC_ALL="C")
    for argv, want in [(["group", "classes", str(group)], "group of order 60 on 5 points"),
                       (["snf", str(matrix)], "invariant factors [2, 4]")]:
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "cheblink", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert want in proc.stdout.decode("ascii")


def test_stdout_is_utf8_in_an_ascii_locale():
    # the verdict line's em dash has no ASCII encoding
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONCOERCECLOCALE="0", LC_ALL="C")
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "cheblink", "a5"],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "a5_text.txt").read_bytes()


def test_stdout_without_reconfigure_is_left_alone():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["a5"]) == 0
    assert buf.getvalue() == (GOLDEN / "a5_text.txt").read_text(encoding="utf-8")


def test_reader_closing_the_pipe_early_is_not_an_error():
    # `cheblink a5 ... | head -2`: the output, some 4 MB, outgrows any pipe
    # buffer, so the writer meets the closed pipe while it still has rows
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "cheblink", "a5", "--max-len", "2000",
                             "--format", "rows"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_reader_closing_the_pipe_early_is_not_an_error_in_process(capsys, monkeypatch):
    # the rows at --max-len 400 outgrow the pipe's buffer, so main meets the
    # closed pipe and points the pipe's descriptor at devnull
    read_fd, write_fd = os.pipe()
    stdout = open(write_fd, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    first = []

    def reader():
        with open(read_fd, "rb") as pipe:
            first.append(pipe.readline())

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        assert main(["a5", "--format", "rows", "--max-len", "400"]) == 0
        written, devnull = os.fstat(write_fd), os.stat(os.devnull)
        assert (written.st_dev, written.st_ino) == (devnull.st_dev, devnull.st_ino)
    finally:
        thread.join(timeout=60)
        stdout.close()
    assert first == [b"1\ttype:(1,1,1,1,1)\t0\t0.000000\t1/60\t0.016667\n"]
    assert capsys.readouterr().err == ""


def test_cover_decompose(tmp_path, capsys):
    hom = write(tmp_path, "hom.json", A5_HOM)
    assert main(["cover", "decompose", "--hom", hom,
                 "--subgroup", "stab:5", "--word", "x1"]) == 0
    out = capsys.readouterr().out
    assert "decomposition type: (5,)" in out


def test_cover_decompose_golden(capsys):
    # every subgroup spec against every word, on the bundled A5 hom; the
    # whole output, byte for byte, as captured before the cover kept only
    # its hom and subgroup
    out = []
    for spec in ("stab:5", "trivial", "whole", "(1 2 3)"):
        for word in ("x1", "x2 x1^-1", "x1 x2 x1^-1 x2^-1", "x2^-1 x2^-1 x1"):
            assert main(["cover", "decompose", "--hom", str(DATA / "a5_hom.json"),
                         "--subgroup", spec, "--word", word]) == 0
            out.append(f"# --subgroup {spec} --word {word}\n" + capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / "cover_decompose_a5.txt").read_text()


def test_cover_verify_artin(tmp_path, capsys):
    grp = write(tmp_path, "s4.json",
                {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp,
                 "--all-subgroups"]) == 0
    out = capsys.readouterr().out
    assert "all 30 subgroup(s) verified" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("name,degree,generators", [
    ("a5", 5, ["(1 2 3 4 5)", "(1 2 3)"]),
    ("s4", 4, ["(1 2 3 4)", "(1 2)"]),
    ("psl27", 7, ["(1 2 3 4 5 6 7)", "(3 5)(6 7)"]),
])
def test_cover_verify_artin_all_subgroups_golden(tmp_path, capsys, name, degree, generators):
    # the whole output, byte for byte, as captured before the cover checks
    # were made cheaper
    grp = write(tmp_path, f"{name}.json", {"degree": degree, "generators": generators})
    assert main(["cover", "verify-artin", "--group", grp, "--all-subgroups"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / f"verify_artin_{name}.txt").read_text()


def test_cover_verify_artin_join_budget_is_input_error(tmp_path, capsys):
    grp = write(tmp_path, "s6.json",
                {"degree": 6, "generators": ["(1 2 3 4 5 6)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp, "--all-subgroups"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert captured.err.count("\n") == 1


def test_cover_verify_artin_work_budget_is_input_error(tmp_path, capsys, monkeypatch):
    # S4's 30 subgroups trace 24 * 234 vertex loops; one under that is refused
    # before the first subgroup is traced
    monkeypatch.setattr(cli, "ARTIN_WORK_BUDGET", 24 * 234 - 1)
    grp = write(tmp_path, "s4.json", {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp, "--all-subgroups"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name,degree,generators,work", [
    ("a5", 5, ["(1 2 3 4 5)", "(1 2 3)"], 60 * 1019),
    ("s4", 4, ["(1 2 3 4)", "(1 2)"], 24 * 234),
], ids=["a5", "s4"])
def test_cover_verify_artin_work_within_default_budget(name, degree, generators, work):
    g = parse_group_data({"degree": degree, "generators": generators})
    assert g.order * sum(h.index for h in all_subgroups(g)) == work
    assert work <= cli.ARTIN_WORK_BUDGET


def test_cover_verify_artin_holds_one_subgroup_at_a_time(tmp_path, capsys, monkeypatch):
    # each subgroup keeps its coset action and trace, so the command lets
    # every subgroup go once it is checked
    plain = cli.verify_artin
    checked = []

    def verify(g, h):
        assert all(ref() is None for ref in checked)
        checked.append(weakref.ref(h))
        return plain(g, h)

    monkeypatch.setattr(cli, "verify_artin", verify)
    grp = write(tmp_path, "s4.json", {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp, "--all-subgroups"]) == 0
    assert "all 30 subgroup(s) verified" in capsys.readouterr().out
    assert len(checked) == 30


def test_cover_verify_artin_a6_walks_the_word_tree_once_per_class(tmp_path, capsys,
                                                                  monkeypatch):
    # A6's 501 subgroups fall in 22 conjugacy classes: every other subgroup's
    # trace is its class representative's, relabelled
    plain = covers._loop_monodromies
    walks = 0

    def counting(act):
        nonlocal walks
        walks += 1
        return plain(act)

    monkeypatch.setattr(covers, "_loop_monodromies", counting)
    grp = write(tmp_path, "a6.json", group_file_data(a6()))
    assert main(["cover", "verify-artin", "--group", grp, "--all-subgroups"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (len(out), out[-1]) == (502, "all 501 subgroup(s) verified")
    assert walks == 22


def test_cover_verify_artin_needs_spec(tmp_path, capsys):
    grp = write(tmp_path, "s4.json",
                {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp]) == 2


def test_cover_verify_artin_refuses_both_specs(tmp_path, capsys):
    # once, the subgroup was dropped and all 30 subgroups were verified
    grp = write(tmp_path, "s4.json",
                {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp, "--subgroup", "stab:1",
                 "--all-subgroups"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give exactly one of --subgroup SPEC and --all-subgroups\n"


def test_sft_orbits(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "orbits", "--sft", sft, "--hom", hom,
                 "--max-len", "5", "--limit", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # three orbits plus the stopped-early notice
    assert out[0].startswith("len   1")
    assert "stopped at --limit" in out[-1]


def test_sft_orbits_negative_limit_is_input_error(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "orbits", "--sft", sft, "--hom", hom,
                 "--max-len", "5", "--limit", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == ["error: --limit must be nonnegative, got -1"]


def test_sft_orbits_deep_lengths(tmp_path, capsys):
    # the only orbit is the length-3 cycle, so the search walks every
    # multiple of 3 up to 3000 edges deep looking for a second one
    sft = write(tmp_path, "cycle.json", THREE_CYCLE)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "orbits", "--sft", sft, "--hom", hom,
                 "--max-len", "3000", "--limit", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["len   3  edges [0 1 2]  holonomy ()  class 0"]


def test_sft_chebotarev_skip_past_end_is_input_error(tmp_path, capsys):
    sft = write(tmp_path, "cycle.json", THREE_CYCLE)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "chebotarev", "--sft", sft, "--hom", hom,
                 "--max-len", "6", "--skip", "5"]) == 2
    assert "leaves no orbit" in capsys.readouterr().err


def test_sft_chebotarev_dp_cap_is_input_error(tmp_path, capsys):
    # 14 states x |S7| = 70560 > DP_STATE_CAP: refused before any counting
    sft = write(tmp_path, "ring.json", {"states": 14, "edges": [
        {"from": i, "to": (i + 1) % 14, "label": "x1"} for i in range(14)]})
    hom = write(tmp_path, "s7.json",
                {"degree": 7, "images": ["(1 2 3 4 5 6 7)", "(1 2)"]})
    assert main(["sft", "chebotarev", "--sft", sft, "--hom", hom,
                 "--max-len", "3"]) == 2
    assert "exceeds the DP cap 65536" in capsys.readouterr().err


def test_sft_chebotarev_rows_roundtrip(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "chebotarev", "--sft", sft, "--hom", hom,
                 "--max-len", "8", "--format", "rows"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # 8 cutoffs x (1 class row + 1 type row)
    for line in lines:
        cutoff, key, count, density, target, deviation = line.split("\t")
        assert 1 <= int(cutoff) <= 8
        assert key in ("class:()", "type:(1)")
        recomputed = abs(Fraction(density) - Fraction(target))
        assert decimal_str(recomputed) == deviation


def test_sft_realization(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "realization", "--sft", sft, "--hom", hom,
                 "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "realization check passed" in out


def test_sft_realization_fails_a_lift_of_period_two(tmp_path, capsys):
    # one state, loops (1 2) and (1 3): every orbit of length n has sign
    # (-1)^n, so the lift on states x S3 has period 2 though the base has 1
    sft = write(tmp_path, "loops.json", {"states": 1, "edges": [
        {"from": 0, "to": 0, "label": "x1"},
        {"from": 0, "to": 0, "label": "x2"},
    ]})
    hom = write(tmp_path, "hom.json", {"degree": 3, "images": ["(1 2)", "(1 3)"]})
    assert main(["sft", "realization", "--sft", sft, "--hom", hom,
                 "--bound", "4"]) == 1
    captured = capsys.readouterr()
    assert "period: 2 (aperiodic: False)" in captured.out.splitlines()
    assert captured.err == "FAIL: realization check failed\n"


def test_sft_realization_over_the_dp_cap_is_input_error(tmp_path, capsys):
    states = 92  # 92 x 720 lift vertices
    sft = write(tmp_path, "ring.json", {"states": states, "edges": [
        {"from": i, "to": (i + 1) % states, "label": "x1"} for i in range(states)]})
    hom = write(tmp_path, "s6.json", {"degree": 6, "images": ["(1 2 3 4 5 6)", "(1 2)"]})
    assert main(["sft", "realization", "--sft", sft, "--hom", hom]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 92 states x group order 720 exceeds "
                            "the DP cap 65536\n")


def test_quotient_search(tmp_path, capsys):
    grp = write(tmp_path, "c2.json", {"degree": 2, "generators": ["(1 2)"]})
    assert main(["quotient", "search", "--braid", "2:s1 s1 s1",
                 "--target", grp, "--surjective-only"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 surjection(s)")


def test_quotient_search_a5_golden(tmp_path, capsys):
    # the whole output of a surjective search up to conjugacy, byte for byte
    grp = write(tmp_path, "a5.json",
                {"degree": 5, "generators": A5_HOM["images"]})
    assert main(["quotient", "search", "--braid",
                 "3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1", "--target", grp,
                 "--surjective-only", "--dedup-conjugacy"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "quotient_a5_knot.txt").read_text()


def test_quotient_search_a5_forced_golden(tmp_path, capsys):
    # here no relator meets x3 once but the first one meets x1 once, so the
    # search picks x1's image last; the output is the one from the order
    # x1, x2, x3, byte for byte
    grp = write(tmp_path, "a5.json",
                {"degree": 5, "generators": A5_HOM["images"]})
    assert main(["quotient", "search", "--braid", "3:s2 s1 s2^-1 s1^-1 s2 s2",
                 "--target", grp, "--surjective-only", "--dedup-conjugacy"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "quotient_a5_forced.txt").read_text()


def test_successive_calls_share_one_parser_and_no_values(tmp_path, capsys):
    # the argument tree is built once per process; every call still starts
    # from the defaults, whatever the calls before it set
    assert cli.build_parser() is cli.build_parser()
    assert main(["a5", "--max-len", "3", "--subgroup", "whole", "--skip", "2"]) == 0
    assert "(length <= 3, skip 2); subgroup of order 60" in capsys.readouterr().out
    assert main(["a5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("orbits counted: 25486 (length <= 11, skip 0); "
                          "subgroup of order 12, index 5\n")
    assert "(5)                  24    10186" in out and "within tolerance 0.020000" in out
    assert main(["a5", "--max-len", "11", "--format", "rows"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "a5_rows_len11.tsv").read_text()
    grp = write(tmp_path, "a5.json", {"degree": 5, "generators": A5_HOM["images"]})
    search = ["quotient", "search", "--braid", "3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1",
              "--target", grp, "--surjective-only"]
    assert main(search + ["--dedup-conjugacy"]) == 0
    up_to_conjugacy = int(capsys.readouterr().out.split()[0])
    assert up_to_conjugacy > 0
    assert main(search) == 0
    # A5 has trivial centre, so each surjection has 60 distinct conjugates
    assert capsys.readouterr().out.startswith(
        f"{60 * up_to_conjugacy} surjection(s) onto group of order 60\n")


def test_density_path_builds_no_coset_action(monkeypatch, capsys):
    # decomposition types come from the permutation character alone; coset
    # actions serve covers
    def refuse(self, group, subgroup):
        raise AssertionError("a coset action was built")

    assert not hasattr(cli, "CosetAction") and not hasattr(sft, "CosetAction")
    monkeypatch.setattr(CosetAction, "__init__", refuse)
    assert main(["a5", "--format", "rows"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "a5_rows_len11.tsv").read_text()
    s, hom = bundled_a5()
    h = Subgroup.point_stabilizer(hom.target, 4)
    rep = chebotarev_report(s, 11, subgroup=h)
    assert [r.count for r in rep.rows_at(11, types=True)] == [414, 6381, 8505, 10186]


@pytest.mark.parametrize("command", [
    ["sft", "chebotarev", "--sft", str(DATA / "a5_full_shift.json"),
     "--hom", str(DATA / "a5_hom.json"), "--max-len", "40"],
    ["a5", "--max-len", "40"],
])
def test_text_output_builds_rows_only_at_max_len(command, monkeypatch):
    # the text tables read the report's integer tally at one cutoff: the only
    # rows built are the a5 result's, at max_len
    cutoffs = []
    make = sft.DensityRow

    def row(*args):
        cutoffs.append(args[0])
        return make(*args)

    monkeypatch.setattr(sft, "DensityRow", row)
    assert main(command) == 0
    assert set(cutoffs) == ({40} if command[0] == "a5" else set())


def test_a5_defaults(capsys):
    assert main(["a5"]) == 0
    out = capsys.readouterr().out
    assert "orbits counted: 25486" in out
    assert "within tolerance" in out
    for fragment in ("(1,1,1,1,1)", "(2,2,1)", "(3,1,1)", "(5)"):
        assert fragment in out


def test_a5_rows_frozen_counts(capsys):
    assert main(["a5", "--format", "rows"]) == 0
    lines = [l.split("\t") for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 44  # 11 cutoffs x 4 types
    final = {f[1]: f for f in lines if f[0] == "11"}
    assert int(final["type:(1,1,1,1,1)"][2]) == 414
    assert int(final["type:(2,2,1)"][2]) == 6381
    assert int(final["type:(3,1,1)"][2]) == 8505
    assert int(final["type:(5)"][2]) == 10186
    for f in lines:
        recomputed = abs(Fraction(f[3]) - Fraction(f[4]))
        assert decimal_str(recomputed) == f[5]


def test_a5_rows_golden(capsys):
    # the whole flagship rows output, byte for byte
    assert main(["a5", "--max-len", "11", "--format", "rows"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "a5_rows_len11.tsv").read_text()


def test_a5_coset_types_of_klein_subgroup(capsys):
    # index 15: decomposition types are cycle types on the 15 cosets, not on
    # the 5 points, while the orbit counts per class stay those of plain a5
    assert main(["a5", "--subgroup", "(1 2)(3 4);(1 3)(2 4)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "subgroup of order 4, index 15" in lines[0]
    table = {f[0]: int(f[2]) for f in (l.split() for l in lines[2:-1])}
    assert table == {"(" + ",".join(["1"] * 15) + ")": 414,
                     "(2,2,2,2,2,2,1,1,1)": 6381,
                     "(3,3,3,3,3)": 8505,
                     "(5,5,5)": 10186}


def test_a5_loads_either_file_alone(tmp_path, capsys):
    # --hom alone relabels the packaged shift; --sft alone uses the packaged hom
    assert main(["a5"]) == 0
    plain = capsys.readouterr().out
    hom = tmp_path / "hom.json"
    sft = tmp_path / "sft.json"
    shutil.copyfile(DATA / "a5_hom.json", hom)
    shutil.copyfile(DATA / "a5_full_shift.json", sft)
    assert main(["a5", "--hom", str(hom)]) == 0
    assert capsys.readouterr().out == plain
    assert main(["a5", "--sft", str(sft)]) == 0
    assert capsys.readouterr().out == plain


def test_a5_skip_cap_is_input_error(capsys):
    # refused before any skipped orbit is enumerated
    assert main(["a5", "--max-len", "30", "--skip", "1000001"]) == 2
    assert "exceeds the skip cap 1000000" in capsys.readouterr().err


def test_a5_skip_past_end_is_input_error(capsys):
    # the full 3-shift has 3 + 3 + 8 + 18 + 48 + 116 = 196 orbits up to length 6
    assert main(["a5", "--max-len", "6", "--skip", "196"]) == 2
    assert "leaves no orbit" in capsys.readouterr().err


def mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def test_a5_experiment_at_length_100():
    # far beyond enumeration: the DP total must equal the Moebius count of
    # primitive orbits of the full 3-shift, sum over n of
    # (1/n) sum_{d | n} mu(n/d) 3^d
    rep, _ = run_a5_experiment(max_len=100)
    expected = sum(sum(mobius(n // d) * 3 ** d for d in range(1, n + 1) if n % d == 0) // n
                   for n in range(1, 101))
    assert rep.total_counted == expected
    rows = rep.rows_at(100, types=True)
    assert len(rows) == 4
    for row in rows:
        assert row.deviation <= Fraction(1, 50), row


def test_a5_strict_tolerance_fails(capsys):
    assert main(["a5", "--max-len", "6", "--tolerance", "0.0001"]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err


@pytest.mark.parametrize("fmt", ["text", "rows"])
def test_fail_line_quotes_the_printed_max_deviation(capsys, fmt):
    # the exact largest deviation, 323/764580, rounds to 0.000422; the
    # largest printed one, |0.016244 - 1/60|, to 0.000423
    assert main(["a5", "--tolerance", "0.0004"]) == 1
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict == "max deviation 0.000423 — OVER tolerance 0.000400"
    assert main(["a5", "--tolerance", "0.0004", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == "FAIL: max deviation 0.000423 exceeds tolerance 0.000400\n"
    if fmt == "rows":
        assert max(line.split("\t")[5] for line in out.splitlines()
                   if line.startswith("11\t")) == "0.000423"
    # the decision stays on the exact deviation
    assert main(["a5", "--tolerance", "0.0004225", "--format", fmt]) == 0


@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_a5_tolerance_must_be_finite_and_nonnegative(capsys, value):
    # refused before anything is counted: inf once overflowed into a
    # traceback, nan leaked a conversion message, a negative one ran the table
    assert main(["a5", "--max-len", "6", f"--tolerance={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --tolerance must be a finite number >= 0, "
                            f"got {float(value)}\n")


def test_a5_realization_bound_gate(capsys):
    # the identity class needs an orbit of length 6; bound 5 must fail
    assert main(["a5", "--bound", "5"]) == 1
    err = capsys.readouterr().err
    assert "realization check failed" in err


def test_a5_realization_bound_below_one_is_input_error(capsys):
    assert main(["a5", "--bound", "0"]) == 2
    assert capsys.readouterr().err == "error: bound must be at least 1\n"


def test_sft_realization_bound_below_one_is_input_error(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "realization", "--sft", sft, "--hom", hom,
                 "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound must be at least 1\n"


def test_a5_stab_spec_errors_are_one_based(capsys):
    # stab:K names a 1-based point, and so do its refusals
    for spec, message in (
            ("stab:9", "subgroup spec 'stab:9': point 9 outside 1..5"),
            ("stab:0", "subgroup spec 'stab:0': point 0 outside 1..5"),
            ("stab:x", "subgroup spec 'stab:x': the point must be an integer "
                       "in 1..5"),
            ("stab:+5", "subgroup spec 'stab:+5': the point must be an integer "
                        "in 1..5"),
            ("stab:\u0665", "subgroup spec 'stab:\u0665': the point must be an integer "
                             "in 1..5"),
            ("stab:0_5", "subgroup spec 'stab:0_5': the point must be an integer "
                         "in 1..5"),
            ("stab:" + "9" * 5000, f"subgroup spec 'stab:{'9' * 35}...': the point must "
                                   "be an integer in 1..5"),
            ("(1 2)", "'(1 2)' is not an element of the group")):
        assert main(["a5", "--subgroup", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a5_subgroup_point_past_the_int_digit_limit(capsys):
    # int() would refuse the point with its own message; the point is
    # refused first, and the text and the point are quoted shortened
    assert main(["a5", "--subgroup", f"({'9' * 5000} 1)"]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad cycle notation '({'9' * 39}...': point '{'9' * 40}...' is not an "
            "integer in 1..5\n")


LONG = "9" * 5000     # past int()'s default limit of 4300 digits
LONGISH = "9" * 4000  # within it


@pytest.mark.parametrize("argv, says", [
    (["a5", "--subgroup", f"({LONG} 1)"], "bad cycle notation"),
    (["a5", "--subgroup", f"stab:{LONG}"], "the point must be an integer"),
    (["a5", "--subgroup", f"stab:{LONGISH}"], "outside 1..5"),
    (["cover", "decompose", "--hom", str(DATA / "a5_hom.json"), "--subgroup", "stab:5",
      "--word", f"x1 q{LONG}"], "bad word token"),
    (["cover", "decompose", "--hom", str(DATA / "a5_hom.json"), "--subgroup", "stab:5",
      "--word", f"x{LONGISH}"], "outside x1..x2"),
    (["generic", "check", "--braid", "2:s1", "--classes", f"x{LONG}"], "bad word token"),
    (["braid", "presentation", f"3:s1 t{LONG}"], "bad braid token"),
    (["braid", "presentation", f"3:s{LONG}"], "bad braid token"),
    (["braid", "presentation", f"3:s{LONGISH}"], "bad braid letter"),
    (["braid", "presentation", f"{LONG}:s1"], "bad strand count"),
    (["braid", "presentation", f"{LONGISH}:s1"], "exceeds the strand cap"),
    (["snf", "MATRIX"], "is not an integer"),
], ids=["cycle-point", "stab-point", "stab-point-in-range", "word-token",
        "word-letter-in-range", "class-word-token", "braid-token", "braid-letter",
        "braid-letter-in-range", "strand-count", "strand-count-in-range", "matrix-token"])
def test_over_long_input_is_one_short_error_line(tmp_path, capsys, argv, says):
    # an error quotes at most TOKEN_SHOWN characters of any one piece of the
    # input, whether int() would refuse its digits or not
    matrix = write(tmp_path, "m.txt", f"1 2\n3 {LONG}x\n")
    assert main([matrix if arg == "MATRIX" else arg for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200, err[:300]
    assert says in err


def test_sft_edge_off_the_states_is_named_by_index_and_ends(tmp_path, capsys):
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    for (src, dst), message in (((1, 5), "edge 1 (1 -> 5) leaves states 0..1"),
                                ((-1, 0), "edge 1 (-1 -> 0) leaves states 0..1")):
        sft = write(tmp_path, "bad.json", {"states": 2, "edges": [
            {"from": 0, "to": 1, "label": "x1"}, {"from": src, "to": dst, "label": "x1"}]})
        assert main(["sft", "orbits", "--sft", sft, "--hom", hom, "--max-len", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a5_rejects_wrong_target(tmp_path, capsys):
    hom = write(tmp_path, "s3hom.json", S3_HOM)
    assert main(["a5", "--hom", hom]) == 1
    err = capsys.readouterr().err
    assert "alternating group" in err


def test_missing_file_is_input_error(capsys):
    assert main(["group", "classes", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    assert main(["group", "classes", path]) == 2


@pytest.mark.parametrize("data", [
    {"degree": 3, "generators": [[1, 2, 3]]},
    {"degree": 3, "generators": [123]},
    [{"degree": 3, "generators": ["(1 2 3)"]}],
    {"degree": 0, "generators": []},
], ids=["generators-as-lists", "generators-as-numbers", "top-level-list", "degree-zero"])
@pytest.mark.parametrize("command", [
    ["group", "classes"],
    ["quotient", "search", "--braid", "2:s1 s1 s1", "--target"],
], ids=["group-classes", "quotient-search"])
def test_malformed_group_file_is_input_error(tmp_path, capsys, data, command):
    path = write(tmp_path, "bad.json", json.dumps(data))
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind, data", [
    ("hom", {"degree": 3, "images": [[1, 2, 3]]}),
    ("hom", [{"degree": 3, "images": ["(1 2 3)"]}]),
    ("hom", {"degree": "3", "images": ["(1 2 3)"]}),
    ("sft", {"states": 2, "edges": [[0, 1]]}),
    ("sft", [GOLDEN_MEAN]),
    ("sft", {"states": 2, "edges": [{"from": 0, "to": 1, "label": 1}]}),
], ids=["hom-images-as-lists", "hom-top-level-list", "hom-degree-as-string",
        "sft-edges-as-lists", "sft-top-level-list", "sft-label-as-number"])
def test_malformed_hom_or_shift_file_is_input_error(tmp_path, capsys, kind, data):
    bad = write(tmp_path, "bad.json", json.dumps(data))
    if kind == "hom":
        command = ["cover", "decompose", "--hom", bad, "--subgroup", "whole", "--word", "x1"]
    else:
        hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
        command = ["sft", "orbits", "--sft", bad, "--hom", hom, "--max-len", "3"]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    ["braid", "presentation", "20000:s1"],
    ["generic", "check", "--braid", "20000:s1"],
    # the figure-eight braid 3:(s1 s2^-1)^20: relators pass 2^20 letters at letter 27
    ["braid", "presentation", "3:" + " ".join(["s1 s2^-1"] * 20)],
], ids=["strands-presentation", "strands-generic-check", "relator-letters"])
def test_braid_over_cap_is_input_error(capsys, command):
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "cap" in captured.err


@pytest.mark.parametrize("command, data", [
    (["group", "classes"], {"degree": 200000000, "generators": []}),
    # S7 on 65536 points would hold 3.3e8 image slots: refused during closure
    (["group", "classes"], {"degree": 65536, "generators": ["(1 2 3 4 5 6 7)", "(1 2)"]}),
    (["cover", "decompose", "--subgroup", "whole", "--word", "x1", "--hom"],
     {"degree": 200000000, "images": ["(1 2)"]}),
    (["sft", "orbits", "--max-len", "2", "--hom", str(DATA / "a5_hom.json"), "--sft"],
     {"states": 200000000, "edges": [{"from": 0, "to": 0, "label": "x1"}]}),
    (["group", "classes"], "[" * 100000 + "]" * 100000),
    (["cover", "decompose", "--subgroup", "whole", "--word", "x1", "--hom"], "[" * 100000),
    (["sft", "orbits", "--max-len", "2", "--hom", str(DATA / "a5_hom.json"), "--sft"],
     '{"edges": ' + "[" * 100000),
], ids=["group-degree", "group-slots-in-closure", "hom-degree", "sft-states",
        "group-nested", "hom-nested", "sft-nested"])
def test_oversized_input_is_input_error(tmp_path, capsys, command, data):
    assert main(command + [write(tmp_path, "big.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "cap" in captured.err or "nested" in captured.err


@pytest.mark.parametrize("command, text", [
    (["group", "classes"], '{"degree": %s, "generators": []}'),
    (["cover", "decompose", "--subgroup", "whole", "--word", "x1", "--hom"],
     '{"degree": %s, "images": ["(1 2)"]}'),
    (["sft", "orbits", "--max-len", "2", "--hom", str(DATA / "a5_hom.json"), "--sft"],
     '{"states": %s, "edges": []}'),
], ids=["group", "hom", "sft"])
def test_integer_past_digit_limit_is_input_error(tmp_path, capsys, command, text):
    # CPython refuses int() of more than 4300 digits by default; the error
    # names the file instead of advising a change to the interpreter
    path = write(tmp_path, "big.json", text % ("7" * 5000))
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "digits" in captured.err and "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("command, data", [
    (["group", "classes"], b"\xff\xfe{\x00}\x00"),  # UTF-16 text
    (["sft", "orbits", "--max-len", "2", "--hom", str(DATA / "a5_hom.json"), "--sft"],
     b'{"states": 1, "edges": [{"from": 0, "to'),
], ids=["group-not-utf8", "sft-truncated"])
def test_unreadable_json_names_the_file(tmp_path, capsys, command, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert sum(str(path) in line for line in captured.err.splitlines()) == 1


def test_length_over_cap_is_input_error(tmp_path):
    # refused before the DP allocates a row per length, so a 1 GB
    # address-space limit is never approached
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))

    sft = write(tmp_path, "cycle.json", THREE_CYCLE)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in (["a5", "--max-len", "100000000"],
                 ["sft", "chebotarev", "--sft", sft, "--hom", hom, "--max-len", "100000000"]):
        proc = subprocess.run([sys.executable, "-m", "cheblink", *argv], env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "length cap" in proc.stderr


# Arguments that a counting command must refuse.  A5 and A5HOM are the
# bundled shift and hom, RING a shift whose lift passes DP_STATE_CAP and S3 a
# hom onto S3.
COUNTING_REFUSALS = [
    ["--sft", "A5", "--max-len", "0"],
    ["--sft", "A5", "--max-len", "4097"],
    ["--sft", "A5", "--max-len", "30", "--skip", "1000001"],
    ["--sft", "A5", "--max-len", "6", "--skip", "196"],
    ["--sft", "RING", "--max-len", "3"],
]
A5_REFUSALS = [(["--subgroup", "stab:9"], 2), (["--bound", "0"], 2), (["--bound", "4097"], 2),
               (["--hom", "S3"], 1), (["--bound", "1"], 1)]
REFUSALS = (
    [(["a5", *args, "--format", fmt], 2) for args in COUNTING_REFUSALS
     for fmt in ("text", "rows")]
    + [(["sft", "chebotarev", "--hom", "A5HOM", *args, "--format", fmt], 2)
       for args in COUNTING_REFUSALS for fmt in ("text", "rows")]
    + [(["a5", "--max-len", "6", *args, "--format", fmt], code) for args, code in A5_REFUSALS
       for fmt in ("text", "rows")]
    + [(["sft", "orbits", "--sft", "A5", "--hom", "A5HOM", "--max-len", n], 2)
       for n in ("0", "4097")])


@pytest.mark.parametrize("argv, code", REFUSALS,
                         ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_refusal_comes_before_the_first_output_line(tmp_path, capsys, argv, code):
    # rows are printed as they are rendered, so every cap and gate must be
    # checked first
    paths = {"A5": str(DATA / "a5_full_shift.json"), "A5HOM": str(DATA / "a5_hom.json"),
             "RING": write(tmp_path, "ring.json", {"states": 1100, "edges": [
                 {"from": i, "to": (i + 1) % 1100, "label": "x1"} for i in range(1100)]}),
             "S3": write(tmp_path, "s3.json", S3_HOM)}
    assert main([paths.get(a, a) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


def test_quotient_search_on_a_thousand_strands(tmp_path, capsys):
    # one search level per strand: deeper than the interpreter's recursion limit
    target = write(tmp_path, "trivial.json", {"degree": 1, "generators": []})
    braid = "1000:" + " ".join(f"s{i}" for i in range(1, 1000))
    assert main(["quotient", "search", "--braid", braid, "--target", target]) == 0
    assert "1 homomorphism(s)" in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_word_is_input_error(tmp_path, capsys):
    hom = write(tmp_path, "hom.json", A5_HOM)
    assert main(["cover", "decompose", "--hom", hom,
                 "--subgroup", "stab:5", "--word", "x9"]) == 2
    assert main(["cover", "decompose", "--hom", hom,
                 "--subgroup", "stab:9", "--word", "x1"]) == 2
    capsys.readouterr()
    assert main(["cover", "decompose", "--hom", hom,
                 "--subgroup", "stab:5", "--word", "x1 x1^-1"]) == 2
    assert capsys.readouterr().err == ("error: word 'x1 x1^-1' is trivial after "
                                       "cyclic reduction\n")


# sha256 and line count of whole outputs, captured before rows were rendered
# from integer counts
ROW_PINS = {
    ("a5", "--max-len", "80", "--format", "rows"):
        ("43962b24689d3301ae90098bac160dab613527d5c4a9cf50a61b3c7e885a1d40", 320),
    ("a5", "--max-len", "4096", "--format", "rows"):
        ("209c5d22a0f3db79f89822287d6a099e84f96002a33428db036031e4ed58e6e7", 16384),
    ("sft", "chebotarev", "--sft", str(DATA / "a5_full_shift.json"), "--hom",
     str(DATA / "a5_hom.json"), "--max-len", "200", "--format", "rows"):
        ("8b12500808c266b11165cf0bddc674ac3f8d42070efe5b96c113957ae743110a", 1800),
}


@pytest.mark.parametrize("argv", list(ROW_PINS), ids=lambda a: " ".join(a[:3]))
def test_rows_output_byte_pins(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == ROW_PINS[argv]


@pytest.mark.parametrize("argv, golden", [
    (["a5"], "a5_text.txt"),
    (["sft", "chebotarev", "--sft", str(DATA / "a5_full_shift.json"),
      "--hom", str(DATA / "a5_hom.json"), "--max-len", "40"], "chebotarev_a5_len40.txt"),
    (["sft", "realization", "--sft", str(DATA / "a5_full_shift.json"),
      "--hom", str(DATA / "a5_hom.json")], "realization_a5.txt"),
])
def test_text_output_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


A5_FOUR_STATES = {"states": 4, "edges": [
    {"from": a, "to": b, "label": w} for a, b, w in (
        (0, 0, "x1"), (0, 1, "x2"), (0, 2, "x1 x2"), (1, 2, "x2^-1"), (1, 3, "x1"),
        (1, 0, "x2 x1"), (2, 3, "x1^-1"), (2, 0, "x2 x2"), (2, 1, "x1 x2^-1"),
        (3, 0, "x2"), (3, 1, "x1 x1"), (3, 3, "x2 x1^-1"))]}
CYCLIC_LABELS = {"states": 1, "edges": [
    {"from": 0, "to": 0, "label": w} for w in ("x1", "x1 x1", "x1 x1 x1")]}


def test_sft_realization_multi_state_golden(tmp_path, capsys):
    sft = write(tmp_path, "four.json", A5_FOUR_STATES)
    assert main(["sft", "realization", "--sft", sft, "--hom", str(DATA / "a5_hom.json"),
                 "--bound", "8"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "realization_a5_four_states.txt").read_text()


def test_sft_realization_bound_200_on_cyclic_labels(tmp_path, capsys, monkeypatch):
    # two classes have no orbit at any length; the search proves it at bound
    # 200 with the products of the two classes it finds
    calls = []
    mul = permgroup.FiniteGroup.mul

    def counting(self, i, j):
        calls.append(1)
        return mul(self, i, j)

    monkeypatch.setattr(permgroup.FiniteGroup, "mul", counting)
    sft = write(tmp_path, "cyclic.json", CYCLIC_LABELS)
    assert main(["sft", "realization", "--sft", sft, "--hom", str(DATA / "a5_hom.json"),
                 "--bound", "200"]) == 1
    captured = capsys.readouterr()
    assert "class 1 ((3 4 5)): NO orbit of length <= 200" in captured.out
    assert "class 0 (()): orbit of length 2, edges [1, 2]" in captured.out
    assert captured.err == "FAIL: realization check failed\n"
    assert len(calls) <= 1000


@pytest.mark.parametrize("command", [["a5"], ["sft", "realization", "--sft", "SFT",
                                              "--hom", str(DATA / "a5_hom.json")]])
def test_bound_over_the_length_cap_is_input_error(tmp_path, capsys, command):
    sft = write(tmp_path, "cyclic.json", CYCLIC_LABELS)
    argv = [sft if a == "SFT" else a for a in command]
    assert main(argv + ["--bound", "4097"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound 4097 exceeds the length cap 4096\n"


def test_rows_build_as_many_fractions_at_any_max_len(monkeypatch, capsys):
    # the rows are rendered from integer counts: the Fractions built are the
    # table's at max_len and the tolerance's, whatever the number of cutoffs
    built = []
    for module in (cli, sft):
        make = module.Fraction

        def counting(*args, make=make):
            built.append(args)
            return make(*args)

        monkeypatch.setattr(module, "Fraction", counting)
    per_len = []
    for max_len in ("11", "80"):
        built.clear()
        assert main(["a5", "--max-len", max_len, "--format", "rows"]) == 0
        capsys.readouterr()
        per_len.append(len(built))
    assert per_len[0] == per_len[1] > 0


def test_digit_limit_is_lifted_inside_the_block_only():
    # the helper puts back whatever limit it found
    if not hasattr(sys, "set_int_max_str_digits"):
        return  # this Python has no limit to lift
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with cli._any_digits():
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


SIXTEEN_LOOPS = {"states": 1, "edges": [
    {"from": 0, "to": 0, "label": w} for w in (
        "x1", "x2", "x1 x2", "x2 x1", "x1 x1", "x2 x2", "x1^-1", "x2^-1", "x1 x2 x1",
        "x2 x1 x2", "x1 x1 x2", "x1 x2 x2", "x2 x1 x1", "x2 x2 x1", "x1^-1 x2", "x2^-1 x1")]}


def test_counts_past_the_int_digit_limit_reach_the_output(tmp_path, monkeypatch):
    # sixteen loops into A5: at length 3600 the counts pass the 4300 decimal
    # digits that CPython's str() refuses by default; both formats print them
    # whole and leave the limit as it was.  The report is computed once and
    # handed to both commands, whose time is then the printing
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    shift = write(tmp_path, "loops.json", SIXTEEN_LOOPS)
    hom = str(DATA / "a5_hom.json")
    report = chebotarev_report(sft.load_sft_file(shift, bundled_a5()[1]), 3600)
    assert max(report.counts[-1]).bit_length() > 4300 * 3.33
    with cli._any_digits():
        want = {key: str(c) for types in (False, True)
                for key, c in zip(*report.tally(3600, types=types)[:2])}

    def reported(s, max_len, *, skip):
        assert (s.state_count, len(s.edges), max_len, skip) == (1, 16, 3600, 0)
        return report

    monkeypatch.setattr(cli, "chebotarev_report", reported)
    for fmt in ("text", "rows"):
        out = tmp_path / f"{fmt}.txt"
        with out.open("w") as f, contextlib.redirect_stdout(f):
            assert main(["sft", "chebotarev", "--sft", shift, "--hom", hom,
                         "--max-len", "3600", "--format", fmt]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        got = {}
        with out.open() as f:
            for line in f:
                if fmt == "text" and line.startswith(("class:", "type:")):
                    key, count = line.rsplit(None, 4)[:2]
                    got[key] = count
                elif fmt == "rows" and line.startswith("3600\t"):
                    _, key, count = line.split("\t")[:3]
                    got[key] = count
        out.unlink()
        assert got == want, fmt


@st.composite
def row_integers(draw):
    """(count, total, size, order) as a report's rows hold them: totals up
    to thousands of bits, and 0 when nothing is counted."""
    order = draw(st.integers(1, 10 ** 4))
    size = draw(st.integers(1, order))
    total = draw(st.one_of(st.just(0), st.integers(1, 10 ** 6), st.integers(1, 2 ** 5000)))
    count = draw(st.integers(0, total))
    return count, total, size, order


@settings(max_examples=300)
@given(row_integers())
@example((0, 0, 1, 60))
@example((1, 3, 1, 3))
@example((5, 10 ** 7, 1, 1))       # a tie in the seventh place rounds up
@example((1, 2, 60, 60))           # a target of 1 prints as "1"
@example((2 ** 4000, 3 * 2 ** 4000 + 1, 20, 60))
def test_render_row_matches_the_fraction_oracle(values):
    count, total, size, order = values
    density = Fraction(count, total) if total else Fraction(0)
    target = Fraction(size, order)
    row = sft.DensityRow(7, "type:(5)", count, density, target, abs(density - target))
    assert cli.render_row(7, "type:(5)", count, total, size, order) == \
        render_row_by_fractions(row)
