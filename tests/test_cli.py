import json
import shutil
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from cheblink.cli import ExperimentConfig, decimal_str, main, run_a5_experiment

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


def test_generic_check(capsys):
    assert main(["generic", "check", "--braid", "2:s1 s1 s1",
                 "--classes", "x1"]) == 0
    assert "GENERATED" in capsys.readouterr().out
    assert main(["generic", "check", "--braid", "2:s1 s1 s1"]) == 0
    out = capsys.readouterr().out
    assert "NOT GENERATED" in out and "Z/2" in out


def test_cover_decompose(tmp_path, capsys):
    hom = write(tmp_path, "hom.json", A5_HOM)
    assert main(["cover", "decompose", "--hom", hom,
                 "--subgroup", "stab:5", "--word", "x1"]) == 0
    out = capsys.readouterr().out
    assert "decomposition type: (5,)" in out


def test_cover_verify_artin(tmp_path, capsys):
    grp = write(tmp_path, "s4.json",
                {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp,
                 "--all-subgroups"]) == 0
    out = capsys.readouterr().out
    assert "all 30 subgroup(s) verified" in out
    assert "MISMATCH" not in out


def test_cover_verify_artin_needs_spec(tmp_path, capsys):
    grp = write(tmp_path, "s4.json",
                {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"]})
    assert main(["cover", "verify-artin", "--group", grp]) == 2


def test_sft_orbits(tmp_path, capsys):
    sft = write(tmp_path, "gm.json", GOLDEN_MEAN)
    hom = write(tmp_path, "hom.json", TRIVIAL_HOM)
    assert main(["sft", "orbits", "--sft", sft, "--hom", hom,
                 "--max-len", "5", "--limit", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # three orbits plus the stopped-early notice
    assert out[0].startswith("len   1")
    assert "stopped at --limit" in out[-1]


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
    result = run_a5_experiment(ExperimentConfig(max_len=100))
    expected = sum(sum(mobius(n // d) * 3 ** d for d in range(1, n + 1) if n % d == 0) // n
                   for n in range(1, 101))
    assert result.total_counted == expected
    assert len(result.rows) == 4
    for row in result.rows:
        assert row.deviation <= Fraction(1, 50), row


def test_a5_strict_tolerance_fails(capsys):
    assert main(["a5", "--max-len", "6", "--tolerance", "0.0001"]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err


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
                       "in 1..5")):
        assert main(["a5", "--subgroup", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
