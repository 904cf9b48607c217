"""Golden reports: every README CLI example, compared byte for byte.

Each case runs ``vclab.cli.main`` in process and checks the exit code and the
exact standard output against ``tests/golden/<name>.txt``.  The README runs
``cayley-delta`` and ``midpoint-check`` at radius 5; here they run at radius 3
to keep the suite fast, and the full-size runs stay in the benchmark.

A golden file may change only together with a deliberate report change.  To
rewrite them all from the current code, run ``python tests/test_golden.py``
from the root of a checkout with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from vclab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, exit code, argv)
CASES = [
    ("solve-eq", 2, ["solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "5"]),
    ("verify-perfect", 0, ["verify-perfect", "--a", "a", "--b", "b", "--n", "4", "--m", "6", "--bound", "4", "--ell", "2"]),
    ("build-testword", 0, ["build-testword", "--exponents", "2 2 2 2 2 2 2 2 2 2"]),
    ("verify-testword", 0, ["verify-testword", "--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c", "--bound", "1"]),
    ("certificates", 0, ["certificates", "--exponents", "2 2 2 2 2 2 2 2 2 2", "--modulus", "2"]),
    ("qm-defect", 0, ["qm-defect", "--pattern", "ab", "--pairs", "10000", "--max-len", "10"]),
    ("qm-homogenize", 0, ["qm-homogenize", "--pattern", "ab", "--word", "ab", "--truncations", "1,2,4,8,16,32,64", "--defect", "3"]),
    ("qm-invariance", 0, ["qm-invariance", "--pattern", "ab", "--word", "ab", "--conjugator", "a", "--truncation", "64", "--defect", "3"]),
    ("cayley-delta", 0, ["cayley-delta", "--radius", "3", "--samples", "1000"]),
    ("midpoint-check", 0, ["midpoint-check", "--radius", "3", "--samples", "1000", "--delta", "0"]),
    ("concat-check", 0, ["concat-check", "--paths", "A^2,A,1;1,b,b^2", "--alpha", "1"]),
    ("divergence", 0, ["divergence", "--c", "a", "--d", "b", "--n-max", "50", "--m-max", "50", "--format", "csv"]),
    ("dihedral-counterexample", 0, ["dihedral-counterexample"]),
    ("snf", 0, ["snf", "--matrix", "4 0; 0 2; 2 0"]),
    ("abelianize", 0, ["abelianize", "--gens", "2", "--relators", "a^4; b^2; Baba"]),
    ("cyclic-retract", 0, ["cyclic-retract", "--gens", "2", "--relators", "abAB", "--element", "ab^2"]),
    ("verify-retraction", 0, ["verify-retraction", "--gens", "2", "--relators", "b", "--subgroup", "a", "--images", "a;1"]),
]


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_file(name, code, argv):
    got_code, got = run_case(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, code, argv in CASES:
        got_code, got = run_case(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (GOLDEN / f"{name}.txt").write_text(got)
