import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_golden import CASES, GOLDEN
import audit
from vclab import cli, equations, presentations, quasimorphisms, testwords
from vclab.cli import _json_chunks, _random_pairs, build_parser, main
from vclab.words import Alphabet, Word, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_eq_finds_bezout_family(capsys):
    code, out = run(capsys, "solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "5")
    assert code == 2
    data = json.loads(out)
    assert data["instance"]["g"] == "a^2b^3"
    tags = {s["classification"] for s in data["solutions"]}
    assert tags == {"CONJUGATE_FAMILY", "GCD_FAMILY"}


def test_solve_eq_small_bound_clean(capsys):
    code, out = run(capsys, "solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "1")
    assert code == 0
    assert json.loads(out)["non_conjugate_family_count"] == 0


def test_verify_perfect_exit_codes(capsys):
    code, _ = run(capsys, "verify-perfect", "--a", "a", "--b", "b", "--n", "4", "--m", "6",
                  "--bound", "3", "--ell", "2")
    assert code == 0
    code, _ = run(capsys, "verify-perfect", "--a", "a", "--b", "b", "--n", "2", "--m", "3",
                  "--bound", "5")
    assert code == 2


def test_snf_subcommand(capsys):
    code, out = run(capsys, "snf", "--matrix", "4 0; 0 2; 2 0")
    assert code == 0
    assert json.loads(out)["diagonal"] == [2, 2]


def seeded_snf_matrix(size, seed=1, bound=50):
    """The square matrix the benchmark draws, row by row, from random.Random(seed)."""
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]


def matrix_flag(m):
    return "; ".join(" ".join(map(str, row)) for row in m)


def test_snf_report_of_the_seeded_40_by_40_matrix_is_pinned(capsys):
    # D, U and V at the size where U's entries reach 10,364 bits
    code, out = run(capsys, "snf", "--matrix", matrix_flag(seeded_snf_matrix(40)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "c8802e69f696183f39be7a18973ea0d3895b33cd21dddfbe6d8a4cfceac89c9f"


def test_snf_writes_integers_past_the_digit_limit_exactly(capsys):
    # U and V of the seeded 45 x 45 matrix have entries past 4,300 digits;
    # the report once broke off after 19 KB with a ValueError traceback
    m = seeded_snf_matrix(45)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4301)
    try:
        code, out = run(capsys, "snf", "--matrix", matrix_flag(m))
        assert sys.get_int_max_str_digits() == 4301
    finally:
        sys.set_int_max_str_digits(digits)
    assert code == 0
    # Decimal parses a string of any length, and int() of a Decimal is exact
    report = json.loads(out, parse_int=lambda text: int(Decimal(text)))
    assert max(abs(x) for row in report["u"] for x in row) >= 10**4300
    assert audit.mat_mul(audit.mat_mul(report["u"], m), report["v"]) == report["d"]


def test_dihedral_suite_subcommand(capsys):
    code, out = run(capsys, "dihedral-counterexample")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["groups"]["orders"]["product"] == 32


def test_certificates_subcommand(capsys):
    code, out = run(capsys, "certificates", "--exponents", "2 2 2 2 2 2 2 2 2 2", "--modulus", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_testword_control_finds_violation(capsys):
    code, out = run(capsys, "verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1",
                    "--targets", "a;a;a", "--bound", "1")
    assert code == 2
    assert json.loads(out)["violations"]


def test_verify_testword_exhaustive_bound_two(capsys):
    ones = "1 1 1 1 1 1 1 1 1 1"
    code, out = run(capsys, "verify-testword", "--exponents", ones, "--targets", "a;b;c", "--bound", "2")
    assert code == 2
    data = json.loads(out)
    assert data["explored"] == data["total"] == 1874161 and data["exhausted"]
    assert len(data["violations"]) == 25
    word = testwords.TestWordSpec(3, (testwords.ExponentTuple.uniform(1),)).build()
    alph = Alphabet(3)
    common = parse_word(data["common_value"], alph)
    for violation in data["violations"]:
        assignment = {name: parse_word(text, alph) for name, text in violation.items()}
        assert testwords.evaluate(word, assignment) == common


def test_divergence_csv(capsys):
    code, out = run(capsys, "divergence", "--c", "a", "--d", "b", "--n-max", "2", "--m-max", "2",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,m,length,ratio"


def test_abelianize_inline(capsys):
    code, out = run(capsys, "abelianize", "--gens", "2", "--relators", "a^4; b^2; Baba")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [2, 2]


def test_cyclic_retract_subcommand(capsys):
    code, out = run(capsys, "cyclic-retract", "--gens", "2", "--relators", "abAB",
                    "--element", "ab^2")
    assert code == 0
    data = json.loads(out)
    assert data["primitive"] and data["retraction_images"][0] == "ab^2"


@pytest.mark.parametrize("element, exponent_sums", [("aB", (1, -1)), ("a^2B^3", (2, -3))])
def test_cyclic_retract_mixed_sign_element(capsys, element, exponent_sums):
    code, out = run(capsys, "cyclic-retract", "--gens", "2", "--relators", "abAB",
                    "--element", element)
    assert code == 0
    data = json.loads(out)
    assert data["primitive"] is True
    assert sum(c * e for c, e in zip(data["covector"], exponent_sums)) == 1


@pytest.mark.parametrize("argv, rows, cols", [
    (["cyclic-retract", "--gens", "2000", "--relators", "a", "--element", "b"], 1, 2000),
    (["snf", "--matrix", " ".join(["1"] * 2000)], 1, 2000),
])
def test_transforms_past_the_budget_are_an_error(capsys, argv, rows, cols):
    # refused before any of the arrays counted exists: snf counts the
    # identities U and V, cyclic-retract the relator matrix, one pending
    # factor per row and per column, and V
    arrays, entries = {
        "snf": ("transforms", rows * rows + cols * cols),
        "cyclic-retract": ("elimination arrays and V", rows * cols + rows + cols + cols * cols),
    }[argv[0]]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {arrays} of {entries} entries for a {rows} x {cols} matrix "
        f"exceed the budget of {presentations.TRANSFORM_BUDGET} entries\n"
    )


@pytest.mark.parametrize("gens, relator, element, primitive", [
    # 2000 relators: refused while the budget counted a U of 2000^2 entries, which is not built
    ("1", "a", "a", False),
    ("2", "a^2", "b", True),
], ids=["2000x1", "2000x2"])
def test_cyclic_retract_on_many_relators_is_admitted(capsys, gens, relator, element, primitive):
    start = time.perf_counter()
    code, out = run(capsys, "cyclic-retract", "--gens", gens, "--relators", ";".join([relator] * 2000), "--element", element)
    assert time.perf_counter() - start < 3
    assert code == 0
    assert json.loads(out)["primitive"] is primitive


def test_abelianize_past_its_budget_is_an_error(tmp_path, capsys):
    # abelianize holds its matrix and one pending factor per row and per
    # column, and is refused before it builds any of them
    path = tmp_path / "pres.txt"
    path.write_text("gens: 1000000000\n")
    for argv, rows, cols in [(["--gens", "2000000", "--relators", "a"], 1, 2000000), (["--file", str(path)], 0, 10**9)]:
        start = time.perf_counter()
        assert main(["abelianize", *argv]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: elimination arrays of {rows * cols + rows + cols} entries for a {rows} x {cols} matrix "
            f"exceed the budget of {presentations.TRANSFORM_BUDGET} entries\n"
        )


@pytest.mark.parametrize("argv, free_rank", [
    (["abelianize", "--gens", "2000", "--relators", "a"], 1999),
    (["abelianize", "--gens", "1", "--relators", ";".join(["a"] * 2000)], 0),
    (["abelianize", "--gens", "1000", "--relators", ";".join(["ab"] * 1000)], 999),
])
def test_abelianize_builds_no_transform_and_stops_at_a_zero_block(capsys, argv, free_rank):
    # the first two were refused when abelianize built U and V; the last is a
    # rank-1 matrix, and took about 12 s when the elimination scanned every
    # zero block after the first
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 3
    assert code == 0
    assert json.loads(out) == {"free_rank": free_rank, "invariant_factors": []}


def test_verify_retraction_exit_codes(capsys):
    code, _ = run(capsys, "verify-retraction", "--gens", "2", "--relators", "b",
                  "--subgroup", "a", "--images", "a;1")
    assert code == 0
    code, _ = run(capsys, "verify-retraction", "--gens", "2", "--relators", "b",
                  "--subgroup", "a", "--images", "a;b")
    assert code == 2


def test_presentation_file_input(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("gens: 2\na^4\nb^2\nBaba\n")
    code, out = run(capsys, "abelianize", "--file", str(path))
    assert code == 0
    assert json.loads(out)["free_rank"] == 0


def test_malformed_word_is_an_error(capsys):
    code = main(["solve-eq", "--a", "a?", "--b", "b", "--n", "2", "--m", "3", "--bound", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["qm-defect", "--pattern", "ab", "--pairs", "300", "--max-len", "8", "--seed", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_jobs_flag_gives_same_result(capsys):
    base = ["solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "3"]
    code1, out1 = run(capsys, *base)
    code2, out2 = run(capsys, *base, "--jobs", "2")
    assert (code1, out1) == (code2, out2)


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("snf", "--matrix", "1", "--seed", "5"),  # a flag snf does not read
    ("solve-eq", "--a", "a"),  # required flags missing
    ("--bogus", "snf", "--matrix", "1"),  # a flag before the subcommand
])
def test_usage_errors_exit_1(capsys, argv):
    code, err = usage_exit(capsys, *argv)
    assert code == 1
    assert err.startswith("usage: vclab")
    # the parser that refuses a flag is the one it was given to
    if argv[0] == "--bogus":
        assert err.endswith("\nvclab: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [argv for _, _, argv in CASES], ids=[name for name, _, _ in CASES])
def test_an_unknown_flag_prints_the_subcommands_own_usage(capsys, argv):
    name = argv[0]
    code, err = usage_exit(capsys, *argv, "--bogus", "1")
    assert code == 1
    usage = subcommands(build_parser())[name].format_usage()
    assert err == f"{usage}vclab {name}: error: unrecognized arguments: --bogus 1\n"


def test_help_exits_0(capsys):
    assert usage_exit(capsys, "snf", "--help")[0] == 0


@pytest.mark.parametrize("command", [
    ("qm-homogenize", "--word", "ab"),
    ("qm-invariance", "--word", "ab", "--conjugator", "a"),
])
@pytest.mark.parametrize("choice", [(), ("--pattern", "ab", "--gen", "0")])
def test_qm_takes_exactly_one_of_pattern_and_gen(capsys, command, choice):
    code, err = usage_exit(capsys, *command, *choice)
    assert code == 1
    assert "--pattern" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["cayley-delta", "midpoint-check"])
def test_ball_rank_zero_is_an_error(capsys, command):
    assert main([command, "--rank", "0", "--radius", "1"]) == 1
    assert "alphabet rank must be >= 1" in capsys.readouterr().err


def test_rank_is_inferred_from_generator_indices(capsys):
    # the rank comes from the indices as written, so no index is too large
    code, out = run(capsys, "solve-eq", "--a", "g1000", "--b", "g3", "--n", "2", "--m", "3", "--bound", "0")
    assert code == 0
    assert json.loads(out)["instance"]["g"] == "g1000^2 g3^3"
    # a generator that cancels away still counts towards the rank
    code, out = run(capsys, "qm-invariance", "--pattern", "ab", "--word", "cC", "--conjugator", "a",
                    "--truncation", "4")
    assert code == 0


def test_qm_homogenize_huge_truncation_is_fast(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "qm-homogenize", "--pattern", "ab", "--word", "ab", "--truncations", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["homogenization_table"] == [{"value": "1", "truncation": 100000000, "error_bound": "0"}]


def test_cayley_delta_radius_six_succeeds(capsys):
    code, out = run(capsys, "cayley-delta", "--radius", "6", "--samples", "300")
    assert code == 0
    data = json.loads(out)
    assert data["ball"] == {"radius": 6, "points": 1457}
    assert data["delta_lower_bound"] == "0"


def test_cayley_delta_cap_is_checked_before_enumerating(capsys):
    # radius 11 at rank 2 holds 354,293 points, above the cap
    for radius in ("11", "1000000000"):
        start = time.perf_counter()
        assert main(["cayley-delta", "--radius", radius]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ball exceeds cap of 200000 elements")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c", "--bound", "1",
     "--max-assignments", "-5"),
    ("midpoint-check", "--radius", "1", "--samples", "-5"),
    ("cayley-delta", "--radius", "1", "--samples", "-2"),
    ("qm-defect", "--pattern", "ab", "--pairs", "-3"),
    ("qm-defect", "--pattern", "ab", "--pairs", "3", "--max-len", "-3"),
    ("verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c", "--bound", "-1"),
    ("solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "-1"),
    ("verify-perfect", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "1", "--max-candidates", "-4"),
    ("solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "1", "--jobs", "-1"),
    ("verify-perfect", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "1", "--jobs", "0"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, err = usage_exit(capsys, *argv)
    assert code == 1
    floor = 1 if argv[-2] == "--jobs" else 0
    assert f"must be >= {floor}, got {argv[-1]}" in err


@pytest.mark.parametrize("argv", [
    ("qm-homogenize", "--pattern", "ab", "--word", "ab", "--truncations", "2", "--defect=-1"),
    ("qm-invariance", "--pattern", "ab", "--word", "ab", "--conjugator", "a", "--defect=-5"),
    ("qm-invariance", "--pattern", "ab", "--word", "ab", "--conjugator", "a", "--defect=-1/2"),
    ("midpoint-check", "--radius", "1", "--delta=-1/2"),
    ("concat-check", "--paths", "1,a;a,ab", "--alpha", "1", "--delta=-1/2"),
    ("concat-check", "--paths", "1,a;a,ab", "--alpha", "1", "--delta=-0.5"),
])
def test_negative_bounds_are_usage_errors(capsys, argv):
    # written as --flag=value: argparse reads a bare -1/2 as a flag
    code, err = usage_exit(capsys, *argv)
    assert code == 1
    assert f"must be >= 0, got {Fraction(argv[-1].split('=')[1])}" in err


def test_zero_max_assignments_explores_nothing(capsys):
    code, out = run(capsys, "verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c",
                    "--bound", "1", "--max-assignments", "0")
    assert code == 0
    data = json.loads(out)
    assert data["explored"] == 0 and not data["exhausted"]


@pytest.mark.parametrize("command", [
    ("qm-homogenize", "--word", "ab"),
    ("qm-invariance", "--word", "ab", "--conjugator", "a"),
])
def test_gen_must_be_below_the_rank(capsys, command):
    assert main([*command, "--gen", "5"]) == 1
    assert "--gen 5 out of range for rank 2" in capsys.readouterr().err
    assert main([*command, "--gen", "5", "--rank", "6"]) == 0


def test_gen_below_zero_is_out_of_range(capsys):
    assert main(["qm-homogenize", "--word", "ab", "--gen", "-1"]) == 1
    assert "error: --gen -1 out of range for rank 2" in capsys.readouterr().err


def test_qm_homogenize_gen_reports_a_homomorphism_with_zero_error(capsys):
    code, out = run(capsys, "qm-homogenize", "--gen", "0", "--word", "a^2b")
    assert code == 0
    data = json.loads(out)
    assert data["qm"] == {"kind": "homomorphism", "generator": 0}
    assert data["homogenization_table"] and all(row["error_bound"] == "0" for row in data["homogenization_table"])


def test_qm_homogenize_gen_refuses_a_defect(capsys):
    # the defect of a homomorphism is 0, so --defect would have no effect
    for defect in ("3", "0"):
        code, err = usage_exit(capsys, "qm-homogenize", "--gen", "0", "--word", "a^2b", "--defect", defect)
        assert code == 1
        assert "argument --defect: not allowed with argument --gen" in err
    code, out = run(capsys, "qm-homogenize", "--pattern", "a", "--word", "a^2b", "--defect", "3", "--truncations", "1")
    assert code == 0
    assert json.loads(out)["homogenization_table"][0]["error_bound"] == "3"


def test_qm_invariance_gen_bound_reads_the_defect(capsys):
    # bound 2(|q(u)| + D)/M with q(a) = 1, D = 3 and the default M = 64
    code, out = run(capsys, "qm-invariance", "--gen", "0", "--word", "ab", "--conjugator", "a", "--defect", "3")
    assert code == 0
    data = json.loads(out)
    assert data["qm"] == {"kind": "homomorphism", "generator": 0}
    assert data["invariance"]["bound"] == "1/8"


def test_gen_and_one_letter_pattern_give_equal_values(capsys):
    tables = []
    for choice in (("--gen", "0"), ("--pattern", "a")):
        code, out = run(capsys, "qm-homogenize", *choice, "--word", "a^3bAb", "--truncations", "1,3,100000000")
        assert code == 0
        tables.append([row["value"] for row in json.loads(out)["homogenization_table"]])
    assert tables[0] == tables[1] == ["2", "2", "2"]


@pytest.mark.parametrize("argv", [
    ("build-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1"),
    ("verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c", "--bound", "1"),
], ids=["build-testword", "verify-testword"])
def test_level_is_not_a_flag(capsys, argv):
    code, err = usage_exit(capsys, *argv, "--level", "3")
    assert code == 1
    assert "unrecognized arguments: --level 3" in err


def test_solve_eq_candidate_cap_is_an_error(capsys):
    assert main(["solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "3",
                 "--max-candidates", "10"]) == 1
    assert "error: x-candidates of length <= 3 exceed cap 10" in capsys.readouterr().err


@pytest.mark.parametrize("bound, cap", [
    ("10000", "5"),  # the count has 4,772 digits
    ("1000000000", "5"),
    ("1000000000", "1000000000"),  # past CANDIDATE_CAP, which applies instead
    ("40", None),  # no --max-candidates: CANDIDATE_CAP applies
])
def test_solve_eq_candidate_cap_on_a_huge_bound_is_an_error(capsys, bound, cap):
    start = time.perf_counter()
    flags = [] if cap is None else ["--max-candidates", cap]
    assert main(["solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", bound, *flags]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    effective = min(int(cap or equations.CANDIDATE_CAP), equations.CANDIDATE_CAP)
    assert err.startswith(f"error: x-candidates of length <= {bound} exceed cap {effective}")
    assert "Traceback" not in err


def test_divergence_past_the_row_budget_is_an_error(capsys):
    start = time.perf_counter()
    assert main(["divergence", "--c", "ab", "--d", "aB", "--n-max", "1001", "--m-max", "1000"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: divergence table of 1001 x 1000 rows exceeds the budget of 1000000 rows")
    assert "Traceback" not in err


CONJUGATED = ["--c", "b^3aB^3", "--d", "ab^2"]


def test_divergence_streams_the_bytes_of_the_whole_table(capsys):
    # 37 x 23 is past both thresholds (N = 9, M = 4) and spans chunks of rows
    alph = Alphabet(2)
    c, d = parse_word("b^3aB^3", alph), parse_word("ab^2", alph)
    rows = [(n, m, len(c ** n * d ** m)) for n in range(1, 38) for m in range(1, 24)]
    ratio = max(Fraction(min(n, m), length) for n, m, length in rows)
    data = {"c": "b^3ab^-3", "d": "ab^2", "rows": [list(r) for r in rows],
            "observed_ratio_bound": str(ratio), "power_growth_ok": True}
    argv = ["divergence", *CONJUGATED, "--n-max", "37", "--m-max", "23"]
    assert run(capsys, *argv) == (0, dumps(data))
    csv = ["n,m,length,ratio"] + [f"{n},{m},{length},{Fraction(min(n, m), length)}" for n, m, length in rows]
    assert run(capsys, *argv, "--format", "csv") == (0, "\n".join(csv) + "\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_divergence_writes_the_same_bytes_to_stdout_and_out(capsys, tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
    argv = ["divergence", *CONJUGATED, "--n-max", "37", "--m-max", "23", "--format", fmt]
    code, out = run(capsys, *argv)
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == code == 0
    assert path.read_text() == out
    assert out.count("\n") > 3 * 100


@pytest.mark.parametrize("flags, message", [
    (["--c", "ab", "--d", "aB", "--n-max", "1001", "--m-max", "1000"], "divergence table of 1001 x 1000 rows exceeds"),
    (["--c", "a", "--d", "a^2"], "inputs are commensurable"),
    (["--c", "ab", "--d", "1"], "divergence needs nonidentity elements"),
    (["--c", "ab", "--d", "aB", "--n-max", "0"], "ranges must be >= 1"),
    (["--c", "a?", "--d", "b"], "error: "),
])
def test_divergence_checks_every_input_before_the_first_byte(capsys, tmp_path, flags, message):
    path = tmp_path / "report.json"
    for out in ([], ["--out", str(path)]):
        assert main(["divergence", *flags, *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["snf", "--matrix", "1 2"],
    ["divergence", "--c", "ab", "--d", "aB"],
], ids=["snf", "divergence"])
def test_out_in_a_missing_directory_is_an_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert not path.parent.exists()


@pytest.mark.parametrize("n_max, m_max", [(1000, 1000), (1000000, 1), (1, 1000000)])
def test_divergence_at_the_row_budget_streams_every_row(n_max, m_max, tmp_path):
    path = tmp_path / "report.csv"
    start = time.perf_counter()
    argv = ["divergence", "--c", "ab", "--d", "aB", "--n-max", str(n_max), "--m-max", str(m_max)]
    assert main(argv + ["--format", "csv", "--out", str(path)]) == 0
    assert time.perf_counter() - start < 10
    with path.open() as fh:
        lines = sum(1 for _ in fh)
        assert lines == n_max * m_max + 1
    # the last line: (ab)^n (aB)^m has no cancellation at the seam
    assert path.read_text()[-40:].rsplit("\n", 2)[1].startswith(f"{n_max},{m_max},{2 * (n_max + m_max)},")


def _fresh_process(*argv):
    """One CLI run in a new interpreter."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from vclab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )


def test_parser_is_built_once_and_reused_after_a_usage_error(capsys):
    bad = ["divergence", "--c", "ab", "--n-max", "x"]
    good = ["divergence", "--c", "ab", "--d", "aB", "--n-max", "3", "--m-max", "2"]
    fresh_bad, fresh_good = _fresh_process(*bad), _fresh_process(*good)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(bad)
    assert (info.value.code, capsys.readouterr().err) == (fresh_bad.returncode, fresh_bad.stderr)
    assert "argument --n-max: invalid int value: 'x'" in fresh_bad.stderr
    # the failed run built and cached the parser of divergence alone, and
    # the next run takes it from the cache: (hits, misses) of the cache
    assert cli._parser.cache_info()[:2] == (0, 1)
    assert list(subcommands(cli._parser("divergence"))) == ["divergence"]
    assert cli._parser.cache_info()[:2] == (1, 1)
    assert run(capsys, *good) == (fresh_good.returncode, fresh_good.stdout) == (0, fresh_good.stdout)
    assert cli._parser.cache_info()[:2] == (2, 1)
    assert json.loads(fresh_good.stdout)["rows"][-1] == [3, 2, 10]


def test_command_names_are_the_full_parsers_in_order():
    assert tuple(subcommands(build_parser())) == cli.COMMANDS
    assert len(cli.COMMANDS) == 17 and {argv[0] for _, _, argv in CASES} == set(cli.COMMANDS)


def parse_outcome(capsys, parser: argparse.ArgumentParser, argv: list[str]):
    """The parsed arguments, or the exit code and stderr of a usage error."""
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as stop:
        return stop.code, capsys.readouterr().err
    # each subcommand keeps its parser's error method: compare what it prints
    if "usage_error" in args:
        args["usage_error"] = args["usage_error"].__self__.format_usage()
    return args


@pytest.mark.parametrize("name,argv", [(argv[0], argv) for _, _, argv in CASES], ids=[name for name, _, _ in CASES])
def test_one_subcommands_parser_acts_as_the_full_parser(capsys, name, argv):
    full, one = build_parser(), build_parser(name)
    assert list(subcommands(one)) == [name]
    assert subcommands(one)[name].format_help() == subcommands(full)[name].format_help()
    assert one.format_usage() == full.format_usage()
    # the golden run, the bare subcommand, a flag no subcommand has, and the
    # golden run with each of its flags left out
    flags = argv[1::2]
    cases = [argv, [name], [*argv, "--nosuch", "1"]]
    cases += [argv[:i] + argv[i + 2:] for i in range(1, len(argv), 2)]
    outcomes = [parse_outcome(capsys, full, case) for case in cases]
    assert [parse_outcome(capsys, one, case) for case in cases] == outcomes
    assert isinstance(outcomes[0], dict) and outcomes[2][0] == 1
    for flag, outcome in zip(flags, outcomes[3:]):
        if any(a.required for a in subcommands(full)[name]._actions if flag in a.option_strings):
            assert outcome[0] == 1 and f"the following arguments are required: {flag}" in outcome[1]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 1), (["nosuch"], 1)], ids=["--help", "bare", "nosuch"])
def test_full_parser_lists_every_subcommand(capsys, argv, code):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == code
    assert "{" + ",".join(cli.COMMANDS) + "}" in (captured.out if code == 0 else captured.err)


def test_compound_power_past_the_budget_is_an_error(capsys):
    # g = (ab)^1000000 b^3 would spell 2,000,003 letters
    start = time.perf_counter()
    assert main(["solve-eq", "--a", "ab", "--b", "b", "--n", "1000000", "--m", "3", "--bound", "2"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: power of 2000000 letters exceeds the budget of 1000000 letters")
    assert "Traceback" not in err


@pytest.mark.parametrize("exponents, targets, bound, held", [
    # x1^1000000000000 x3 x2 x3 x2 x3 y3: 7 candidates, 4 products
    ("1000000000000 1 1 1 1 1 1 1 1 1", "a;b;c", "1", 7 + 4 * (10**12 + 6)),
    # 199,999 candidates a^k, |k| <= 99999, at rank 1, inside their cap
    ("1 1 1 1 1 1 1 1 1 1", "a;a;A", "99999", 99999 * (199999 + 4 * 7)),
], ids=["exponent", "rank-1 bound"])
def test_testword_letters_past_the_budget_are_an_error(capsys, exponents, targets, bound, held):
    # the walk spells its candidates and products as letters
    start = time.perf_counter()
    argv = ["verify-testword", "--exponents", exponents, "--targets", targets, "--bound", bound, "--max-assignments", "1"]
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: a walk holding up to {held} letters exceeds the budget of 2000000 letters")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["qm-defect", "--pattern", "a^100000000b", "--pairs", "10", "--seed", "1"],
     "error: pattern of 100000001 letters exceeds the budget of 1000000 letters"),
], ids=["qm-defect pattern"])
def test_qm_letters_past_the_budget_are_an_error(capsys, argv, message):
    # gap spells the pattern's letters, so the pattern budget refuses it
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, code, report", [
    (["qm-invariance", "--pattern", "ab", "--word", "a^100000000", "--conjugator", "b", "--truncation", "5"],
     2, {"invariance": {"residual": "1/5", "bound": "0", "within_bound": False}}),
    (["qm-invariance", "--pattern", "ab", "--word", "a^10000000", "--conjugator", "b", "--truncation", "5"],
     2, {"invariance": {"residual": "1/5", "bound": "0", "within_bound": False}}),
    (["qm-invariance", "--pattern", "ab", "--word", "a^1250000", "--conjugator", "b", "--truncation", "5"],
     2, {"invariance": {"residual": "1/5", "bound": "0", "within_bound": False}}),
    (["qm-homogenize", "--pattern", "ab", "--word", "a^4000000", "--truncations", "1,3"],
     0, {"homogenization_table": [{"value": "0", "truncation": 1, "error_bound": "0"},
                                  {"value": "0", "truncation": 3, "error_bound": "0"}]}),
    (["qm-homogenize", "--gen", "0", "--word", "a^1000000000000b", "--truncations", "1000000000000"],
     0, {"homogenization_table": [{"value": "1000000000000", "truncation": 1000000000000, "error_bound": "0"}]}),
], ids=["qm-invariance 10^8", "qm-invariance 10^7", "qm-invariance a^1250000", "qm-homogenize a^4000000",
        "qm-homogenize gen 10^12"])
def test_qm_counts_long_syllables_at_once(capsys, argv, code, report):
    # counted letter by letter, the invariance runs spelled words of up to
    # 3 * 10^8 letters (a MemoryError after 10 s), and a count budget then
    # refused them; g^3 of a^1000000000000 b was refused by the power budget
    start = time.perf_counter()
    got, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == code
    data = json.loads(out)
    assert {key: data[key] for key in report} == report
    assert "Traceback" not in capsys.readouterr().err


def test_qm_homogenize_refuses_a_truncation_below_one_with_no_report(capsys):
    # the table is built whole before a byte is written
    assert main(["qm-homogenize", "--pattern", "ab", "--word", "ab", "--truncations", "2,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: truncation must be >= 1\n"


def test_conjugacy_of_long_one_syllable_literals_reads_syllables(capsys):
    # is_conjugate spelled both 10^8-letter roots: a MemoryError after 6 s
    argv = ["divergence", "--c", "a^100000000b", "--d", "ba^100000000", "--n-max", "1", "--m-max", "1"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inputs are commensurable; divergence undefined\n"


@pytest.mark.parametrize("argv", [
    ["divergence", "--c", "a^100000000", "--d", "b", "--n-max", "2", "--m-max", "1"],
    ["verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a^100000000;b;c", "--bound", "0"],
], ids=["divergence", "verify-testword"])
def test_roots_of_long_one_syllable_literals_are_read_off_syllables(capsys, argv):
    # both spelled the 10^8 letters in oracles.root: a MemoryError after 5 s
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) and "Traceback" not in captured.err


def test_qm_invariance_at_the_count_budget_finishes(capsys):
    # the longest word counted, b^-1 a^4999996 b, was the largest a count
    # budget of 10^7 letter comparisons admitted, and took about 4 s
    argv = ["qm-invariance", "--pattern", "ab", "--word", "a^1249999", "--conjugator", "b", "--truncation", "5"]
    start = time.perf_counter()
    code, out = run(capsys, *argv, "--defect", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["invariance"] == {"residual": "1/5", "bound": "2/5", "within_bound": True}


def test_testword_candidates_past_the_cap_are_an_error(capsys):
    # bound 15 at rank 2 would hold 28,697,813 candidate images
    start = time.perf_counter()
    assert main(["verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;aB",
                 "--bound", "15", "--max-assignments", "1"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: candidate images of length <= 15 exceed the cap of 200000 words")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cayley-delta", "midpoint-check"])
@pytest.mark.parametrize("samples, rank, radius", [(10**12, 2, 5), (166_667, 2, 5), (11, 1, 99_999)])
def test_samples_past_the_budget_are_an_error(capsys, command, samples, rank, radius):
    start = time.perf_counter()
    assert main([command, "--samples", str(samples), "--rank", str(rank), "--radius", str(radius)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --samples {samples} x (--radius {radius} + 4) exceeds the budget of 1100000 steps")
    assert "Traceback" not in err


@pytest.mark.parametrize("pairs, max_len", [(1, 30_000_000), (3_000_000, 10), (10**12, 0)])
def test_qm_defect_draws_past_the_budget_are_an_error(capsys, pairs, max_len):
    start = time.perf_counter()
    assert main(["qm-defect", "--pattern", "ab", "--pairs", str(pairs), "--max-len", str(max_len)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --pairs {pairs} x (--max-len {max_len} + 1) exceeds the budget of 10000000 draws")
    assert "Traceback" not in err


def test_sampling_budgets_admit_exactly_their_size(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SAMPLE_BUDGET", 42)
    monkeypatch.setattr(cli, "PAIR_BUDGET", 12)
    for command in ("cayley-delta", "midpoint-check"):
        # a sample of radius r is charged r + SAMPLE_STEPS = r + 4
        assert main([command, "--radius", "2", "--samples", "7"]) == 0
        assert main([command, "--radius", "2", "--samples", "8"]) == 1
        assert main([command, "--radius", "0", "--samples", "10"]) == 0
        assert main([command, "--radius", "0", "--samples", "11"]) == 1
    assert main(["qm-defect", "--pattern", "ab", "--pairs", "3", "--max-len", "3"]) == 0
    assert main(["qm-defect", "--pattern", "ab", "--pairs", "2", "--max-len", "5"]) == 0
    assert main(["qm-defect", "--pattern", "ab", "--pairs", "13", "--max-len", "0"]) == 1
    assert main(["qm-defect", "--pattern", "ab", "--pairs", "1", "--max-len", "12"]) == 1
    assert capsys.readouterr().err.count("exceeds the budget") == 6


def _reference_pairs(alph, count, max_len, seed):
    """The pairs as ``randint``, ``randrange`` and ``choice`` draw them."""
    rng = random.Random(seed)

    def rand_word():
        letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
        return Word.from_syllables(alph, letters)

    return [(rand_word(), rand_word()) for _ in range(count)]


def _letters(pairs):
    """Word pairs as the letter tuples ``_random_pairs`` yields."""
    return [(tuple(f.letters()), tuple(g.letters())) for f, g in pairs]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("max_len", [0, 1, 10])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_random_pairs_draw_the_stream_of_randrange_and_choice(rank, max_len, seed):
    alph = Alphabet(rank)
    pairs = list(_random_pairs(alph, 300, max_len, seed))
    assert pairs == _letters(_reference_pairs(alph, 300, max_len, seed))
    for pair in pairs:
        for w in pair:
            # reduced signed letters of the alphabet, as a tuple that
            # rebuilds the word letter for letter
            assert type(w) is tuple and all(0 < abs(l) <= rank for l in w)
            assert all(l != -m for l, m in zip(w, w[1:]))
            assert tuple(Word.from_letters(alph, w).letters()) == w
            assert len(w) <= max_len


@pytest.mark.parametrize("max_len", [0, 2])
def test_random_pairs_share_one_identity(max_len):
    # max_len 0 draws only empty words; at 2, aA and the like reduce to nothing
    empty = [w for pair in _random_pairs(Alphabet(2), 300, max_len, 5) for w in pair if not w]
    assert len(empty) > 20
    assert all(w == () for w in empty)
    assert tuple(Alphabet(2).identity().letters()) == ()


def test_random_pairs_are_drawn_one_at_a_time():
    pairs = _random_pairs(Alphabet(2), 10**9, 10, 3)
    assert next(pairs) == _letters(_reference_pairs(Alphabet(2), 1, 10, 3))[0]


@pytest.mark.parametrize("pattern, rank", [
    ("a", 1), ("a", 2), ("a", 3), ("ab", 2), ("ab", 3), ("a^2bAB", 2), ("a^2bAB", 3),
])
@pytest.mark.parametrize("max_len", [0, 1, 10])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_sampled_defect_equals_the_recount_on_the_reference_words(pattern, rank, max_len, seed):
    # the estimate that qm-defect reports, against q(fg) - q(f) - q(g)
    # recounted on the words that randint, randrange and choice draw
    alph = Alphabet(rank)
    q = quasimorphisms.counting_qm(parse_word(pattern, alph))
    gaps = [q(f * g) - q(f) - q(g) for f, g in _reference_pairs(alph, 300, max_len, seed)]
    assert [q.gap(f, g) for f, g in _random_pairs(alph, 300, max_len, seed)] == gaps
    est = quasimorphisms.defect_estimate(q, _random_pairs(alph, 300, max_len, seed))
    assert est == (max(map(abs, gaps)), 300)


def test_one_syllable_power_is_free(capsys):
    code, out = run(capsys, "solve-eq", "--a", "a", "--b", "b", "--n", "1000000000000", "--m", "3", "--bound", "2")
    assert code == 0
    assert json.loads(out)["instance"]["g"] == "a^1000000000000b^3"


@pytest.mark.parametrize("literal,position", [("a^\u00b2", 2), ("g\u00b2", 1)], ids=["exponent", "index"])
def test_non_ascii_digit_in_a_word_is_an_error(capsys, literal, position):
    assert main(["solve-eq", "--a", literal, "--b", "b", "--n", "2", "--m", "3", "--bound", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"at position {position} in" in err
    assert "int()" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (("qm-homogenize", "--pattern", "ab", "--word", "ab", "--truncations", "1,x"),
     "argument --truncations: not an integer: 'x'"),
    (("snf", "--matrix", "4 0; 0 x"), "argument --matrix: not an integer: 'x'"),
    (("build-testword", "--exponents", "1 2 3"), "argument --exponents: need 10 exponents, got 3"),
], ids=["truncations", "matrix", "exponents"])
def test_bad_list_entries_are_usage_errors(capsys, argv, message):
    code, err = usage_exit(capsys, *argv)
    assert code == 1
    assert message in err and "invalid literal" not in err


def test_concat_check_has_no_epsilon(capsys):
    code, err = usage_exit(capsys, "concat-check", "--paths", "A^2,A,1;1,b,b^2", "--alpha", "1", "--epsilon", "1")
    assert code == 1
    assert "unrecognized arguments: --epsilon 1" in err


def test_concat_check_rejects_kappa_below_one(capsys):
    assert main(["concat-check", "--paths", "A^2,A,1;1,b,b^2", "--alpha", "1", "--kappa", "1/2"]) == 1
    assert "need kappa >= 1" in capsys.readouterr().err


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommands' parsers, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def declared_flags(command: str) -> list[str]:
    """The flags a subcommand accepts, except --out and --help."""
    return [
        action.option_strings[0]
        for action in subcommands(build_parser())[command]._actions
        if action.option_strings and action.dest not in ("help", "out")
    ]


FLAG_CASES = [(argv, flag) for _, _, argv in CASES for flag in declared_flags(argv[0])]


@pytest.mark.parametrize("argv,flag", FLAG_CASES, ids=[f"{argv[0]} {flag}" for argv, flag in FLAG_CASES])
def test_every_flag_rejects_garbage(capsys, argv, flag):
    try:
        code = main([*argv, flag, "?"])
    except SystemExit as stop:
        code = stop.code
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err


RATIONAL_FLAGS = [
    ("midpoint-check", "--delta"),
    ("concat-check", "--alpha"),
    ("concat-check", "--delta"),
    ("concat-check", "--kappa"),
    ("qm-homogenize", "--defect"),
    ("qm-invariance", "--defect"),
]


@pytest.mark.parametrize("command, flag", RATIONAL_FLAGS, ids=[f"{c} {f}" for c, f in RATIONAL_FLAGS])
def test_zero_denominator_is_a_usage_error(capsys, command, flag):
    argv = next(argv for _, _, argv in CASES if argv[0] == command)
    code, err = usage_exit(capsys, *argv, flag, "1/0")
    assert code == 1
    assert f"argument {flag}: not a rational number: '1/0'" in err
    assert "Traceback" not in err
    # exponent notation is refused before Fraction builds 10^1000000000
    start = time.perf_counter()
    code, err = usage_exit(capsys, *argv, flag, "1e1000000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert f"argument {flag}: not a rational number: '1e1000000000'" in err
    assert "Traceback" not in err


# -- the report writer -----------------------------------------------------------

def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def payload(data):
    return "".join(_json_chunks(data))


JSON_GOLDEN = [name for name, _, argv in CASES if "csv" not in argv]


def test_writer_spells_words_and_fractions():
    wide = Word.from_syllables(Alphabet(30), [(0, 1), (29, -2), (3, 1)])
    data = {
        "identity": Alphabet(2).identity(),
        "wide": wide,
        "whole": Fraction(2),
        "third": Fraction(-1, 3),
        "nested": [{"w": wide}],
    }
    spelled = {"identity": "", "wide": "g0 g29^-2 g3", "whole": "2", "third": "-1/3", "nested": [{"w": "g0 g29^-2 g3"}]}
    assert payload(data) == dumps(spelled)
    # a streamed list goes through the same hook
    assert payload({"rows": iter(data["nested"] + [Fraction(-1, 3)])}) == dumps({"rows": spelled["nested"] + ["-1/3"]})


@pytest.mark.parametrize("value, name", [(object(), "object"), ({1, 2}, "set")], ids=["object", "set"])
def test_writer_refuses_any_other_value(value, name):
    for data in ({"top": [{"x": value}]}, {"rows": iter([value])}):
        with pytest.raises(TypeError, match=f"^{name} is not a report value$"):
            payload(data)


@pytest.mark.parametrize("name", JSON_GOLDEN)
def test_writer_reproduces_every_json_golden_report(name):
    text = (GOLDEN / f"{name}.txt").read_text()
    data = json.loads(text)
    assert payload(data) == dumps(data) == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(st.dictionaries(st.text(), json_values))
@example({"mixed": [1, True], "bools": [True, False], "ints": [0, -7, 10**30]})
@example({"empty": [], "none": {}, "nested": [[], {}, [[]], {"inner": {}}, ()]})
@example({})
@example({"caf\u00e9": "\u00fc\n\u2603", "pair": (1, 2), "float": [1.5, 2], "null": None})
# a raw line break in a string is escaped by json, so re-indenting lines leaves it be
@example({"top": "\n", "dict": {"a\nb": "x\n  y\n"}, "list": ["\n", ["\r\n", {"k": "\n"}]], "key\n": 1})
def test_writer_equals_json_dumps(data):
    assert payload(data) == dumps(data)


@given(st.dictionaries(st.text(max_size=3), json_values, max_size=3), st.lists(json_values | st.tuples(st.integers(), st.integers()), max_size=20))
@example({}, [])
@example({"a": 1}, [(1, 2, 3)] * 5000 + [(1, 2)] + [(True, 2, 3), (1.5, 2, 3), (), []])
@example({"a": 1}, [(1, 2, 3)] * (2 * cli.CHUNK_ROWS))
@example({"z": [0]}, [[1, 2, 3], (4, 5, 6)])
@example({"z": "\n"}, ["\n", {"a\n": ["\n"]}, ("\n", 1), [["\n"]]])
def test_writer_streams_an_iterator_as_a_list(data, items):
    # a streamed list is written a block at a time, with the bytes of the whole list
    got, want = payload(dict(data, rows=iter(items))), dumps(dict(data, rows=items))
    # compared into a bool first: on reports of about 100 KB pytest would
    # spend minutes diffing the two strings
    same = got == want
    assert same, f"first difference at offset {next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))}"
