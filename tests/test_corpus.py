"""Digest corpus: every command line of ``tests/corpus.txt``, pinned by digest.

Each line runs ``vclab.cli.main`` in process.  ``tests/golden/digests.txt``
holds, for every line in order, the command, its exit code and the sha256 of
its standard output, or for an exit 1 the one ``error:`` line it prints
instead.  The golden files pin one report per subcommand in full; the corpus
pins many more, down to the report branches that only some inputs reach.

A digest may change only together with a deliberate report change.  To
rewrite them all from the current code, run ``python tests/test_corpus.py``
from the root of a checkout with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

import audit
from test_golden import CASES, GOLDEN
from vclab.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.txt"
DIGESTS = HERE / "golden" / "digests.txt"


def corpus_lines() -> list[str]:
    lines = (line.strip() for line in CORPUS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def digest_line(command: str) -> str:
    """``command``, a tab, then its exit code and what pins its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as stop:  # a usage error, from argparse
            code = stop.code
    if code == 1:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        if len(errors) != 1 or out.getvalue() or "Traceback" in err.getvalue():
            raise AssertionError(f"{command}: an exit 1 prints one error: line and no report")
        pin = errors[0]
    else:
        pin = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{command}\t{code} {pin}"


@functools.cache
def pinned() -> list[str]:
    return DIGESTS.read_text().splitlines()


def test_every_corpus_line_has_one_digest():
    assert [line.split("\t")[0] for line in pinned()] == corpus_lines()


@pytest.mark.parametrize(
    "number, command", [pytest.param(n, command, id=f"line{n}") for n, command in enumerate(corpus_lines(), 1)]
)
def test_report_matches_its_digest(number, command):
    assert digest_line(command) == pinned()[number - 1]


def snf_case(argv: list[str], report: str) -> tuple[list[list[int]], dict]:
    """The matrix of an ``snf`` command line and its parsed report."""
    text = argv[argv.index("--matrix") + 1]
    return [[int(x) for x in row.split()] for row in text.split(";")], json.loads(report)


def snf_reports() -> list[tuple[list[list[int]], dict]]:
    """Every ``snf`` corpus line that exits 0, run here, and the golden ``snf`` report."""
    out = []
    for command, line in zip(corpus_lines(), pinned()):
        argv = shlex.split(command)
        if argv[0] == "snf" and line.split("\t")[1].startswith("0 "):
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                assert main(argv) == 0
            out.append(snf_case(argv, report.getvalue()))
    argv = next(argv for name, _, argv in CASES if name == "snf")
    return out + [snf_case(argv, (GOLDEN / "snf.txt").read_text())]


def test_snf_checker_finds_each_fault():
    m = [[2, 0], [0, 3]]
    one = [[1, 0], [0, 1]]
    assert audit.snf_faults(m, one, one, [[2, 0], [0, 3]]) == ["2 does not divide 3"]
    assert audit.snf_faults(m, [[2, 0], [0, 1]], one, [[4, 0], [0, 3]]) == ["det U = 2", "4 does not divide 3"]
    assert audit.snf_faults([[1, 1]], [[1]], [[1, 0], [0, 1]], [[1, 1]]) == ["D is not diagonal"]
    assert audit.snf_faults(m, one, one, [[2, 0], [0, 6]]) == ["U M V != D"]
    assert audit.snf_faults([[0, 0], [0, 5]], one, one, [[0, 0], [0, 5]]) == ["0 does not divide 5"]


def test_every_snf_report_passes_the_independent_checker():
    cases = snf_reports()
    assert len(cases) == 7  # six corpus lines exit 0, and the golden report
    for m, report in cases:
        assert audit.snf_faults(m, report["u"], report["v"], report["d"]) == [], m


if __name__ == "__main__":
    DIGESTS.write_text("".join(digest_line(command) + "\n" for command in corpus_lines()))
    sys.exit(0)
