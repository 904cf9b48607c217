"""The benchmark's workloads: seeded command lines and report checks.

Each workload is a short list of ``vclab`` command lines built from the
workload seed.  A check receives every report of one run and returns, per
command, the reason it failed verification (``None`` when it passed).
Checks import ``vclab`` lazily so that building the commands costs no more
than generating the inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# the one multi-process solve; capped so the benchmark never oversubscribes
JOBS2 = min(2, os.cpu_count() or 1)

EQ_ARGS = ("solve-eq", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "9")
TESTWORD_EXPONENTS = "1 1 1 1 1 1 1 1 1 1"
TESTWORD_TARGETS = "a;b;aB"
SNF_SIZE = 40
SNF_ENTRY = 50
QM_PAIRS = 20000


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    parallel: bool = False  # runs worker processes, so it is not pinned and not part of wall_s


@dataclass(frozen=True)
class Outcome:
    """What one command left behind: exit code, report text, start, wall and CPU time."""

    exit_code: int
    report: str
    start: float  # time.monotonic() when the command began
    wall_s: float
    cpu_s: float  # the child's and its workers'


Problems = dict[str, Optional[str]]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Command]]  # seed -> command lines
    check: Callable[[int, dict[str, Outcome]], Problems]  # seed, outcomes by label -> problems


# -- command lines --------------------------------------------------------------


def eq_search_commands(seed: int) -> list[Command]:
    return [
        Command("solve-eq", EQ_ARGS + ("--jobs", "1")),
        Command("solve-eq-jobs2", EQ_ARGS + ("--jobs", str(JOBS2)), parallel=True),
    ]


def testword_commands(seed: int) -> list[Command]:
    argv = ("verify-testword", "--exponents", TESTWORD_EXPONENTS, "--targets", TESTWORD_TARGETS, "--bound", "2")
    return [Command("verify-testword", argv)]


def geometry_commands(seed: int) -> list[Command]:
    cayley_seed = random.Random(seed).randrange(2**31)
    return [
        Command("cayley-delta", ("cayley-delta", "--radius", "5", "--samples", "1000", "--seed", str(cayley_seed))),
        Command("divergence", ("divergence", "--c", "ab", "--d", "aB", "--n-max", "100", "--m-max", "100")),
    ]


def snf_matrix(rng: random.Random) -> list[list[int]]:
    return [[rng.randint(-SNF_ENTRY, SNF_ENTRY) for _ in range(SNF_SIZE)] for _ in range(SNF_SIZE)]


def algebra_commands(seed: int) -> list[Command]:
    rng = random.Random(seed)
    matrix = "; ".join(" ".join(map(str, row)) for row in snf_matrix(rng))
    qm_seed = rng.randrange(2**31)
    return [
        Command("dihedral-counterexample", ("dihedral-counterexample",)),
        Command("snf", ("snf", "--matrix", matrix)),
        Command("qm-defect", ("qm-defect", "--pattern", "ab", "--pairs", str(QM_PAIRS), "--seed", str(qm_seed))),
    ]


# -- report checks --------------------------------------------------------------


def _exit_problem(out: Outcome, findings: bool) -> Optional[str]:
    expected = 2 if findings else 0
    if out.exit_code != expected:
        return f"exit code {out.exit_code}, expected {expected}"
    return None


def _check_each(outcomes: dict[str, Outcome], checks: dict[str, Callable[[Outcome], Optional[str]]]) -> Problems:
    problems: Problems = {}
    for label, check in checks.items():
        try:
            problems[label] = check(outcomes[label])
        except (KeyError, ValueError, TypeError) as err:  # malformed report
            problems[label] = f"malformed report: {err!r}"
    return problems


def check_eq_search(seed: int, outcomes: dict[str, Outcome]) -> Problems:
    from vclab import equations
    from vclab.words import Alphabet, parse_word

    alph = Alphabet(2)
    inst = equations.EquationInstance(parse_word("a", alph), parse_word("b", alph), 2, 3)

    def solve(out: Outcome) -> Optional[str]:
        data = json.loads(out.report)
        if data["bound"] != 9 or not data["solutions"]:
            return "wrong bound or no solutions"
        for sol in data["solutions"]:
            x, y = parse_word(sol["x"], alph), parse_word(sol["y"], alph)
            if len(x) > 9 or len(y) > 9 or not equations.is_solution(inst, equations.SolutionPair(x, y)):
                return f"({sol['x']}, {sol['y']}) is not a solution within the bound"
        return _exit_problem(out, data["non_conjugate_family_count"] > 0)

    def jobs2(out: Outcome) -> Optional[str]:
        if out.report != outcomes["solve-eq"].report:
            return "--jobs 2 report differs from the --jobs 1 report"
        return solve(out)

    return _check_each(outcomes, {"solve-eq": solve, "solve-eq-jobs2": jobs2})


def check_testword(seed: int, outcomes: dict[str, Outcome]) -> Problems:
    from vclab import testwords
    from vclab.words import Alphabet, parse_word

    alph = Alphabet(2)
    spec = testwords.TestWordSpec(3, (testwords.ExponentTuple.from_list([1] * 10),))
    word = spec.build()

    def verify(out: Outcome) -> Optional[str]:
        data = json.loads(out.report)
        if not data["exhausted"] or data["explored"] != data["total"] or data["total"] != 17**4:
            return "search did not run to exhaustion"
        common = parse_word(data["common_value"], alph)
        for violation in data["violations"]:
            assignment = {name: parse_word(text, alph) for name, text in violation.items()}
            if testwords.evaluate(word, assignment) != common:
                return f"violation {violation} does not evaluate to the common value"
        return _exit_problem(out, bool(data["violations"]))

    return _check_each(outcomes, {"verify-testword": verify})


def check_geometry(seed: int, outcomes: dict[str, Outcome]) -> Problems:
    def delta(out: Outcome) -> Optional[str]:
        data = json.loads(out.report)
        # the free group's Cayley graph is a tree, so every triangle is 0-thin
        if data["delta_lower_bound"] != "0" or data["ball"]["points"] != 485 or data["samples"] != 1000:
            return "tree ball must be 0-thin with 485 points and 1000 samples"
        return _exit_problem(out, False)

    def divergence(out: Outcome) -> Optional[str]:
        data = json.loads(out.report)
        # (ab)^n (aB)^m has no cancellation at the seam, so its length is 2(n + m)
        expected = [[n, m, 2 * (n + m)] for n in range(1, 101) for m in range(1, 101)]
        if data["rows"] != expected or Fraction(data["observed_ratio_bound"]) != Fraction(1, 4):
            return "divergence table differs from |(ab)^n (aB)^m| = 2(n + m)"
        return _exit_problem(out, False)

    return _check_each(outcomes, {"cayley-delta": delta, "divergence": divergence})


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _divides(a: int, b: int) -> bool:
    return b % a == 0 if a else b == 0


def check_algebra(seed: int, outcomes: dict[str, Outcome]) -> Problems:
    matrix = snf_matrix(random.Random(seed))

    def suite(out: Outcome) -> Optional[str]:
        if json.loads(out.report)["ok"] is not True:
            return "dihedral suite is not ok"
        return _exit_problem(out, False)

    def snf(out: Outcome) -> Optional[str]:
        data = json.loads(out.report)
        d, diag = data["d"], data["diagonal"]
        if _matmul(_matmul(data["u"], matrix), data["v"]) != d:
            return "U M V != D"
        if any(d[i][j] for i in range(len(d)) for j in range(len(d[i])) if i != j):
            return "D is not diagonal"
        if diag != [d[i][i] for i in range(len(d))] or any(x < 0 for x in diag):
            return "diagonal does not match D or has a negative entry"
        if not all(_divides(diag[i], diag[i + 1]) for i in range(len(diag) - 1)):
            return "diagonal is not a divisor chain"
        return _exit_problem(out, False)

    def qm(out: Outcome) -> Optional[str]:
        est = json.loads(out.report)["defect_estimate"]
        if est["sample_count"] != QM_PAIRS or Fraction(est["lower_bound"]) < 0:
            return "defect estimate has the wrong sample count or a negative bound"
        return _exit_problem(out, False)

    return _check_each(outcomes, {"dihedral-counterexample": suite, "snf": snf, "qm-defect": qm})


WORKLOADS = {
    "eq-search": Workload(eq_search_commands, check_eq_search),
    "testword-search": Workload(testword_commands, check_testword),
    "geometry": Workload(geometry_commands, check_geometry),
    "algebra": Workload(algebra_commands, check_algebra),
}
