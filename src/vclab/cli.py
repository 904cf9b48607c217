"""Command-line driver: one subcommand per experiment, JSON/CSV reports.

Exit codes: 0 success, 1 error (usage errors included), 2 findings (a run
that succeeded but discovered hypothesis violations: perfectness
exceptions, test-word violations, failed suite claims, failed retraction
checks).

Reports are byte-deterministic for fixed flags and seed: canonical JSON
with sorted keys, no timestamps.  Reports never contain timing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, format_word, parse_word, word_tokens
from . import equations, finitegroups, hypgeom, presentations, quasimorphisms, testwords

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2

# --samples times (--radius + SAMPLE_STEPS) for cayley-delta and midpoint-check:
# a sample unranks three points in O(radius) steps, then reads at most
# 2 radius + 1 gaps or builds two midpoints.  Its fixed cost, three draws and
# three unrank calls, is worth 3.4-3.6 radius steps of those unrank calls
# (Python 3.11 on a 2-core host), charged as SAMPLE_STEPS.  As CLI runs there,
# cayley-delta and midpoint-check at rank 2 take 1.6-3.1 s and 3.4-5.0 s at
# radius 0 (275,000 samples) and 1.5-3.0 s and 1.9-3.3 s at radius 10 (78,571
# samples).  The budget is set so that the rank-1 cap ball, radius 99,999,
# takes 10 samples and refuses 11
SAMPLE_BUDGET = 1_100_000
SAMPLE_STEPS = 4
# --pairs times (--max-len + 1) for qm-defect, a bound on its random draws:
# about 4 s at --max-len 9 and 7 s at --max-len 0, as CLI runs on a 2-core host
PAIR_BUDGET = 10**7
# items of a streamed report list formatted and written per chunk
CHUNK_ROWS = 4096


def _infer_rank(texts: Sequence[str], rank: Optional[int]) -> Alphabet:
    if rank is not None:
        return Alphabet(rank)
    used = max((gen for text in texts for gen, _ in word_tokens(text)), default=-1)
    return Alphabet(max(used + 1, 1))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _at_least(low: int):
    """argparse type of an integer flag with a floor."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_count = _at_least(0)


def _rational(text: str) -> Fraction:
    """argparse type of a rational flag, read as ``Fraction`` reads it: 'p/q',
    an integer or a decimal.  Exponent notation is refused, since ``Fraction``
    builds the whole power of ten before anything could bound it."""
    if "e" not in text.lower():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _rational_bound(text: str) -> Fraction:
    """argparse type of a rational bound, a defect or a delta: a negative
    one would be a bound that no value meets."""
    value = _rational(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type of a list flag: comma-separated integers."""
    return [_integer(x) for x in text.split(",")]


def _matrix(text: str) -> list[list[int]]:
    """argparse type of a matrix flag: rows separated by ';', integers by spaces."""
    return [[_integer(x) for x in row.split()] for row in text.split(";") if row.strip()]


def _exponent_rows(text: str) -> list[testwords.ExponentTuple]:
    """argparse type of ``--exponents``: matrix rows of ten exponents each."""
    try:
        return [testwords.ExponentTuple.from_list(row) for row in _matrix(text)]
    except WordError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _split_words(text: str) -> list[str]:
    # every segment counts; write the identity as '1' or an empty segment
    return [part.strip() for part in text.split(";")]


def _literal(value: object) -> str:
    """The report text of a value json has no form for: a word as
    ``format_word`` spells it and a ``Fraction`` as ``str`` writes it."""
    if isinstance(value, Word):
        return format_word(value)
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not a report value")


def _json_chunks(data: dict) -> Iterator[str]:
    """``json.dumps(data, sort_keys=True, indent=2, default=_literal)`` and a
    newline, for str-keyed data, byte for byte, one top-level key at a time.
    Every word and ``Fraction`` at any depth is written by the ``_literal``
    hook, so records reach the report as they are.  Each value is
    ``json.dumps`` of its own, re-indented by one level: json escapes every
    line break inside a string, so each one in its text starts a line.  A
    top-level value that is an iterator is written as a list, ``CHUNK_ROWS``
    items at a time, so it is never held whole."""
    if not data:
        yield "{}\n"
        return
    sep = "{\n  "
    for key, value in sorted(data.items()):
        yield sep + json.dumps(key) + ": "
        if isinstance(value, Iterator):
            yield from _json_stream(value)
        else:
            yield json.dumps(value, sort_keys=True, indent=2, default=_literal).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}\n"


def _json_stream(items: Iterator) -> Iterator[str]:
    """A streamed top-level list, as ``json.dumps`` writes a list.  A block
    of tuples of plain ints of one width, such as divergence rows, goes
    through one %-template per item."""
    inner, deeper = "\n    ", "\n      "
    sep = "[" + inner
    while block := list(islice(items, CHUNK_ROWS)):
        if (
            set(map(type, block)) == {tuple}
            and set(map(type, chain.from_iterable(block))) == {int}
            and len(set(map(len, block))) == 1
        ):
            row = "[" + deeper + ("," + deeper).join(["%d"] * len(block[0])) + inner + "]"
            text = ("," + inner).join(map(row.__mod__, block))
        else:
            texts = [json.dumps(item, sort_keys=True, indent=2, default=_literal) for item in block]
            text = ("," + inner).join([t.replace("\n", inner) for t in texts])
        yield sep + text
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n  ]"


# -- subcommand implementations ----------------------------------------------


def _equation_instance(args) -> equations.EquationInstance:
    alph = _infer_rank([args.a, args.b], args.rank)
    return equations.EquationInstance(parse_word(args.a, alph), parse_word(args.b, alph), args.n, args.m)


def _solutions(report: equations.PerfectnessReport) -> dict:
    """The instance, the bound and one row per classified solution, as
    ``solve-eq`` and ``verify-perfect`` both report them."""
    inst = report.instance
    return {
        "instance": {"a": inst.a, "b": inst.b, "n": inst.n, "m": inst.m, "g": inst.g},
        "bound": report.bound,
        "solutions": [
            {"x": p.x, "y": p.y, "classification": c.tag.value, "witness": c.witness} for p, c in report.solutions
        ],
    }


def _cmd_solve_eq(args) -> tuple[int, Iterable[str]]:
    inst = _equation_instance(args)
    report = equations.verify_perfect(inst, args.bound, max_candidates=args.max_candidates, jobs=args.jobs)
    data = _solutions(report)
    data["non_conjugate_family_count"] = len(report.exceptions())
    return (EXIT_OK if report.perfect_at_bound else EXIT_FINDING), _json_chunks(data)


def _cmd_verify_perfect(args) -> tuple[int, Iterable[str]]:
    report = equations.verify_perfect(
        _equation_instance(args),
        args.bound,
        ell=args.ell,
        threshold=args.threshold,
        max_candidates=args.max_candidates,
        jobs=args.jobs,
    )
    data = _solutions(report)
    data["perfect_at_bound"] = report.perfect_at_bound
    data["hypothesis_flags"] = report.hypothesis_flags
    data["note"] = "bounded non-refutation only; no finite bound certifies perfectness"
    return (EXIT_OK if report.perfect_at_bound else EXIT_FINDING), _json_chunks(data)


def _build_spec(args) -> testwords.TestWordSpec:
    # each exponent tuple adds one level above the level-2 word x1
    return testwords.TestWordSpec(len(args.exponents) + 2, tuple(args.exponents))


def _spec_entry(spec: testwords.TestWordSpec) -> dict:
    return {"level": spec.level, "tuples": [list(vars(t).values()) for t in spec.tuples]}


def _cmd_build_testword(args) -> tuple[int, Iterable[str]]:
    spec = _build_spec(args)
    word = spec.build()
    data = {
        "spec": _spec_entry(spec),
        "word": testwords.format_test_word(word),
        "letter_length": len(word),
        "variables": sorted(testwords.variables_used(word)),
    }
    return EXIT_OK, _json_chunks(data)


def _cmd_verify_testword(args) -> tuple[int, Iterable[str]]:
    spec = _build_spec(args)
    word = spec.build()
    target_texts = _split_words(args.targets)
    alph = _infer_rank(target_texts, args.rank)
    targets = [parse_word(t, alph) for t in target_texts]
    report = testwords.verify_testword(word, targets, args.bound, max_assignments=args.max_assignments)
    data = {
        "spec": _spec_entry(spec),
        "violations": [v.assignment for v in report.violations],
        "explored": report.explored,
        "total": report.total,
        "exhausted": report.exhausted,
        "explored_fraction": report.explored / report.total if report.total else 1.0,
        "special_tuple_ok": report.special_tuple_ok,
        "alpha_window": report.alpha_window,
        "common_value": report.common_value,
    }
    code = EXIT_FINDING if report.violations else EXIT_OK
    return code, _json_chunks(data)


def _cmd_certificates(args) -> tuple[int, Iterable[str]]:
    if len(args.exponents) != 1:
        raise WordError("certificates expect exactly one exponent tuple")
    cert = testwords.exponent_sum_certificates(args.exponents[0], args.modulus)
    data = {
        "m_phi": cert.m_phi,
        "m_psi": cert.m_psi,
        "det_phi": cert.det_phi,
        "det_psi": cert.det_psi,
        "verdict": "pass" if cert.ok else "fail",
    }
    return (EXIT_OK if cert.ok else EXIT_FINDING), _json_chunks(data)


def _random_pairs(alph: Alphabet, count: int, max_len: int, seed: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``count`` seeded pairs of random reduced words, one pair at a time,
    each word as its signed letters +-(gen+1) (``Word.letters``).

    Each word draws a length ``randint(0, max_len)``, then a generator
    ``randrange(rank)`` and a sign ``choice((1, -1))`` per letter, and is
    the free reduction of those letters.  Each of those calls takes
    ``getrandbits(n.bit_length())`` until the value is below n, the
    ``Random._randbelow`` loop, and this loop draws the same bits itself,
    so the stream is theirs without the frames around it.  The letters go
    through a cancellation stack, so each word is reduced when it is drawn,
    and no ``Word`` is built.
    """
    bits = random.Random(seed).getrandbits
    rank = alph.rank
    length_bits, gen_bits = (max_len + 1).bit_length(), rank.bit_length()

    def rand_word() -> tuple[int, ...]:
        n = bits(length_bits)
        while n > max_len:
            n = bits(length_bits)
        stack: list[int] = []  # the letters of the reduced prefix
        for _ in range(n):
            gen = bits(gen_bits)
            while gen >= rank:
                gen = bits(gen_bits)
            sign = bits(2)
            while sign > 1:
                sign = bits(2)
            # choice((1, -1)) picks the entry at index `sign`; ~gen is -(gen+1)
            letter = ~gen if sign else gen + 1
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        return tuple(stack)

    for _ in range(count):
        yield rand_word(), rand_word()


def _counting_qm(text: str, alph: Alphabet) -> tuple[quasimorphisms.QuasiMorphism, dict]:
    """The counting quasimorphism of a pattern literal, with its report entry."""
    pattern = parse_word(text, alph)
    return quasimorphisms.counting_qm(pattern), {"kind": "counting", "pattern": pattern}


def _cmd_qm_defect(args) -> tuple[int, Iterable[str]]:
    alph = _infer_rank([args.pattern], args.rank)
    qm, entry = _counting_qm(args.pattern, alph)
    if args.pairs * (args.max_len + 1) > PAIR_BUDGET:
        raise BudgetExceeded(
            f"--pairs {args.pairs} x (--max-len {args.max_len} + 1) exceeds the budget of {PAIR_BUDGET} draws"
        )
    est = quasimorphisms.defect_estimate(qm, _random_pairs(alph, args.pairs, args.max_len, args.seed))
    estimate = {"lower_bound": est.lower_bound, "sample_count": est.sample_count}
    data = {"qm": entry, "defect_estimate": estimate, "seed": args.seed}
    return EXIT_OK, _json_chunks(data)


def _make_qm(args, alph: Alphabet) -> tuple[quasimorphisms.QuasiMorphism, dict]:
    """The quasimorphism of ``--pattern``, or of ``--gen i``: the exponent
    sum on x_i, which is the counting quasimorphism of the letter x_i."""
    if args.pattern is not None:
        return _counting_qm(args.pattern, alph)
    if not 0 <= args.gen < alph.rank:
        raise WordError(f"--gen {args.gen} out of range for rank {alph.rank}")
    return quasimorphisms.counting_qm(alph.generator(args.gen)), {"kind": "homomorphism", "generator": args.gen}


def _cmd_qm_homogenize(args) -> tuple[int, Iterable[str]]:
    if args.gen is not None and args.defect is not None:
        # a homomorphism's defect is exactly 0: a bound for it would be ignored
        args.usage_error("argument --defect: not allowed with argument --gen")
    texts = [args.word] + ([args.pattern] if args.pattern else [])
    alph = _infer_rank(texts, args.rank)
    qm, entry = _make_qm(args, alph)
    word = parse_word(args.word, alph)
    table = []
    for m in args.truncations:
        row = quasimorphisms.homogenize(qm, word, m, args.defect or Fraction(0))
        table.append({"value": row.value, "truncation": row.truncation, "error_bound": row.error_bound})
    data = {"qm": entry, "word": word, "homogenization_table": table}
    return EXIT_OK, _json_chunks(data)


def _cmd_qm_invariance(args) -> tuple[int, Iterable[str]]:
    texts = [args.word, args.conjugator] + ([args.pattern] if args.pattern else [])
    alph = _infer_rank(texts, args.rank)
    qm, entry = _make_qm(args, alph)
    check = quasimorphisms.conjugacy_invariance_check(
        qm,
        parse_word(args.word, alph),
        parse_word(args.conjugator, alph),
        args.truncation,
        args.defect or Fraction(0),
    )
    invariance = {"residual": check.residual, "bound": check.bound, "within_bound": check.within_bound}
    data = {"qm": entry, "invariance": invariance}
    code = EXIT_OK if check.within_bound else EXIT_FINDING
    return code, _json_chunks(data)


def _sampled_ball(args) -> hypgeom.FiniteMetricSpace:
    """The ball of ``--rank`` and ``--radius``, refused past its cap or when
    ``--samples`` times ``--radius`` + ``SAMPLE_STEPS`` passes ``SAMPLE_BUDGET``."""
    ball = hypgeom.cayley_ball(Alphabet(args.rank), args.radius)
    if args.samples * (args.radius + SAMPLE_STEPS) > SAMPLE_BUDGET:
        raise BudgetExceeded(
            f"--samples {args.samples} x (--radius {args.radius} + {SAMPLE_STEPS}) exceeds the budget of {SAMPLE_BUDGET} steps"
        )
    return ball


def _cmd_cayley_delta(args) -> tuple[int, Iterable[str]]:
    ball = _sampled_ball(args)
    report = hypgeom.delta_thin_report(ball, args.samples, seed=args.seed)
    data = {
        "delta_lower_bound": report.lower_bound,
        "witness_triangle": report.witness_triangle,
        "samples": report.samples,
        "ball": {"radius": args.radius, "points": len(ball)},
    }
    return EXIT_OK, _json_chunks(data)


def _cmd_midpoint_check(args) -> tuple[int, Iterable[str]]:
    ball = _sampled_ball(args)
    rng = random.Random(args.seed)
    n = len(ball)
    failures = 0
    for _ in range(args.samples):
        a, b, c = (ball.point(rng.randrange(n)) for _ in range(3))
        ok = hypgeom.check_midpoint_inequality(ball, a, b, c, args.delta)
        failures += 0 if ok else 1
    data = {
        "ball": {"radius": args.radius, "points": n},
        "samples": args.samples,
        "delta": args.delta,
        "failures": failures,
    }
    return (EXIT_OK if failures == 0 else EXIT_FINDING), _json_chunks(data)


def _cmd_concat_check(args) -> tuple[int, Iterable[str]]:
    segments = [seg.split(",") for seg in args.paths.split(";")]
    alph = _infer_rank([t for seg in segments for t in seg], args.rank)
    paths = [[parse_word(t.strip(), alph) for t in seg] for seg in segments]
    report = hypgeom.check_concatenation_quasigeodesic(paths, args.delta, args.kappa, args.alpha)
    data = {
        "hypotheses_ok": report.hypotheses_ok,
        "product_hypothesis_ok": report.product_hypothesis_ok,
        "length_hypothesis_ok": report.length_hypothesis_ok,
        "measured_epsilon0": report.measured_epsilon0,
    }
    return EXIT_OK, _json_chunks(data)


def _cmd_divergence(args) -> tuple[int, Iterable[str]]:
    alph = _infer_rank([args.c, args.d], args.rank)
    report = hypgeom.divergence_experiment(
        parse_word(args.c, alph), parse_word(args.d, alph), args.n_max, args.m_max
    )
    if args.format == "csv":
        return EXIT_OK, _divergence_csv(report)
    data = {
        "c": report.c,
        "d": report.d,
        "rows": report.rows(),
        "observed_ratio_bound": report.observed_ratio_bound,
        "power_growth_ok": report.power_growth_ok,
    }
    return EXIT_OK, _json_chunks(data)


def _divergence_csv(report: hypgeom.DivergenceReport) -> Iterator[str]:
    """The CSV report, ``CHUNK_ROWS`` lines at a time; the ratio min(n, m) /
    |c^n d^m| is written as ``str(Fraction)`` writes it."""
    yield "n,m,length,ratio\n"
    rows = report.rows()
    while chunk := list(islice(rows, CHUNK_ROWS)):
        lines = []
        for n, m, length in chunk:
            low = n if n < m else m
            g = math.gcd(low, length)
            ratio = f"{low // g}" if g == length else f"{low // g}/{length // g}"
            lines.append(f"{n},{m},{length},{ratio}\n")
        yield "".join(lines)


def _cmd_dihedral_counterexample(args) -> tuple[int, Iterable[str]]:
    report = finitegroups.dihedral_counterexample_suite()
    data = {
        "groups": {"orders": report.orders},
        "claim_verbally_closed": {
            "corpus_size": report.corpus_size,
            "targets": report.targets_checked,
            "disagreements": report.verbal_disagreements,
        },
        "claim_not_retract": {
            "center_is_a_squared": report.center_is_a_squared,
            "hom_count_into_center": report.homs_into_center,
            "retract_found": report.retract_of_center_found,
        },
        "negative_control_disagreements": report.control_disagreements,
        "ok": report.ok,
    }
    return (EXIT_OK if report.ok else EXIT_FINDING), _json_chunks(data)


def _cmd_snf(args) -> tuple[int, Iterable[str]]:
    snf = presentations.smith_normal_form(args.matrix)
    return EXIT_OK, _json_chunks(snf.to_json_dict())


def _load_presentation(args) -> presentations.Presentation:
    if args.file:
        with open(args.file) as fh:
            return presentations.parse_presentation(fh.read())
    if args.gens is None:
        raise WordError("need --file or --gens/--relators")
    alph = Alphabet(args.gens)
    relators = tuple(parse_word(t, alph) for t in _split_words(args.relators or ""))
    return presentations.Presentation(args.gens, relators)


def _cmd_abelianize(args) -> tuple[int, Iterable[str]]:
    ab = presentations.abelianization(_load_presentation(args))
    data = {"invariant_factors": ab.invariant_factors, "free_rank": ab.free_rank}
    return EXIT_OK, _json_chunks(data)


def _cmd_cyclic_retract(args) -> tuple[int, Iterable[str]]:
    pres = _load_presentation(args)
    h = parse_word(args.element, pres.alphabet)
    result = presentations.cyclic_retract_test(pres, h)
    data = {
        "primitive": result.primitive,
        "gcd": result.gcd,
        "free_image": result.free_image,
        "covector": result.covector,
    }
    if result.primitive:
        data["retraction_images"] = presentations.retraction_images_from_covector(pres, h, result.covector)
    return EXIT_OK, _json_chunks(data)


def _cmd_verify_retraction(args) -> tuple[int, Iterable[str]]:
    pres = _load_presentation(args)
    subgroup = [parse_word(t, pres.alphabet) for t in _split_words(args.subgroup)]
    images = [parse_word(t, pres.alphabet) for t in _split_words(args.images)]
    ok = presentations.verify_retraction(pres, subgroup, images)
    data = {"subgroup": subgroup, "images": images, "is_retraction": ok}
    return (EXIT_OK if ok else EXIT_FINDING), _json_chunks(data)


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other error, since 2 means findings."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# the subcommands, in the order the full parser lists them
COMMANDS = (
    "solve-eq", "verify-perfect", "build-testword", "verify-testword", "certificates",
    "qm-defect", "qm-homogenize", "qm-invariance", "cayley-delta", "midpoint-check",
    "concat-check", "divergence", "dihedral-counterexample", "snf", "abelianize",
    "cyclic-retract", "verify-retraction",
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given one of ``COMMANDS``, of that
    subcommand alone.  Both parse its arguments, print its help and word its
    errors alike, and both name every subcommand in the top-level usage."""
    parser = _Parser(
        prog="vclab",
        description="Exact free-group workbench: equations, test words, "
        "quasimorphisms, geometry validators, finite suites.",
    )
    # the usage of one subcommand's parser still names all 17, as the full
    # parser's choices do; with a metavar the full parser's errors would
    # call the missing subcommand by it instead of 'command'
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    # flag sets shared by several subcommands: each adds its flags, after
    # those of the set it extends, to the parser it is given
    def report(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="report file (default: stdout)")

    def words(p: argparse.ArgumentParser) -> None:
        report(p)
        p.add_argument("--rank", type=int, help="alphabet rank (default: inferred)")

    def equation(p: argparse.ArgumentParser) -> None:
        words(p)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--bound", type=_count, required=True)
        p.add_argument("--max-candidates", type=_count)
        p.add_argument("--jobs", type=_at_least(1), default=1, help="worker count")

    def qm(p: argparse.ArgumentParser) -> None:
        words(p)
        which = p.add_mutually_exclusive_group(required=True)
        which.add_argument("--pattern", help="counting quasimorphism of this word")
        which.add_argument("--gen", type=int, help="exponent sum of this generator")
        p.add_argument("--word", required=True)
        p.add_argument("--defect", type=_rational_bound, help="defect bound (rational, default 0; not with --gen on qm-homogenize)")

    def ball(p: argparse.ArgumentParser) -> None:
        report(p)
        p.add_argument("--rank", type=int, default=2, help="alphabet rank")
        p.add_argument("--radius", type=int, default=5)
        p.add_argument("--samples", type=_count, default=1000)
        p.add_argument("--seed", type=int, default=0)

    def presentation(p: argparse.ArgumentParser) -> None:
        report(p)
        p.add_argument("--file", help="presentation file: 'gens: <n>' then one relator per line")
        p.add_argument("--gens", type=int)
        p.add_argument("--relators", help="semicolon-separated relator words")

    def add(name: str, flags, text: str, func) -> Optional[argparse.ArgumentParser]:
        """The parser of subcommand ``name``, with the flag set ``flags``,
        which runs ``func``; None when another subcommand's parser is being
        built."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=text)
        flags(p)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    add("solve-eq", equation, "bounded solving of x^n y^m = a^n b^m", _cmd_solve_eq)

    if p := add("verify-perfect", equation, "bounded perfectness check", _cmd_verify_perfect):
        p.add_argument("--ell", type=int, default=1, help="divisor hypothesis parameter")
        p.add_argument("--threshold", type=int, default=0, help="size hypothesis parameter")

    if p := add("build-testword", report, "expand a test word from exponent tuples", _cmd_build_testword):
        p.add_argument("--exponents", type=_exponent_rows, required=True, help="semicolon-separated rows of 10 integers")

    if p := add("verify-testword", words, "bounded search for non-canonical solutions", _cmd_verify_testword):
        p.add_argument("--exponents", type=_exponent_rows, required=True)
        p.add_argument("--targets", required=True, help="semicolon-separated target words")
        p.add_argument("--bound", type=_count, required=True)
        p.add_argument("--max-assignments", type=_count)

    if p := add("certificates", report, "exponent-sum certificate matrices", _cmd_certificates):
        p.add_argument("--exponents", type=_exponent_rows, required=True)
        p.add_argument("--modulus", type=int, required=True)

    if p := add("qm-defect", words, "sampled defect of a counting quasimorphism", _cmd_qm_defect):
        p.add_argument("--pattern", required=True)
        p.add_argument("--pairs", type=_count, default=10000)
        p.add_argument("--max-len", type=_count, default=10)
        p.add_argument("--seed", type=int, default=0)

    if p := add("qm-homogenize", qm, "truncated homogenization table", _cmd_qm_homogenize):
        p.add_argument("--truncations", type=_int_list, default="1,2,4,8,16,32,64")

    if p := add("qm-invariance", qm, "conjugacy invariance residual", _cmd_qm_invariance):
        p.add_argument("--conjugator", required=True)
        p.add_argument("--truncation", type=int, default=64)

    add("cayley-delta", ball, "thin-triangle estimate on a Cayley ball", _cmd_cayley_delta)

    if p := add("midpoint-check", ball, "midpoint inequality on random triangles", _cmd_midpoint_check):
        p.add_argument("--delta", type=_rational_bound, default=Fraction(0))

    if p := add("concat-check", words, "quasi-geodesic concatenation hypotheses", _cmd_concat_check):
        p.add_argument("--paths", required=True, help="segments as 'w1,w2;w2,w3' vertex lists")
        p.add_argument("--alpha", type=_rational, required=True)
        p.add_argument("--delta", type=_rational_bound, default=Fraction(0))
        p.add_argument("--kappa", type=_rational, default=Fraction(1))

    if p := add("divergence", words, "table of |c^n d^m| lengths", _cmd_divergence):
        p.add_argument("--c", required=True)
        p.add_argument("--d", required=True)
        p.add_argument("--n-max", type=int, default=20)
        p.add_argument("--m-max", type=int, default=20)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    add(
        "dihedral-counterexample",
        report,
        "verbal closedness without retraction: the dihedral central product suite",
        _cmd_dihedral_counterexample,
    )

    if p := add("snf", report, "Smith normal form with transforms", _cmd_snf):
        p.add_argument("--matrix", type=_matrix, required=True, help="rows separated by ';', entries by spaces")

    add("abelianize", presentation, "invariant factors and free rank", _cmd_abelianize)

    if p := add("cyclic-retract", presentation, "primitive-image retraction criterion", _cmd_cyclic_retract):
        p.add_argument("--element", required=True)

    if p := add("verify-retraction", presentation, "check relator kill and subgroup fixation", _cmd_verify_retraction):
        p.add_argument("--subgroup", required=True, help="semicolon-separated subgroup words")
        p.add_argument("--images", required=True, help="semicolon-separated generator images")

    return parser


# one parser per process and name, None for all 17: building them all takes milliseconds
_parser = functools.cache(build_parser)


@contextlib.contextmanager
def _exact_integers() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit (Python 3.11, and 3.10.7
    on) for a block, and restore it after: a report's integers, such as the
    transforms of a 45 x 45 ``snf``, are written exactly at any size."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, a missing or an unknown subcommand need the full parser
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = _parser(command)
    args, extra = parser.parse_known_args(argv)
    if extra:  # with the subcommand first, all followed it: its parser refuses them, with its usage
        (parser.error if command is None else args.usage_error)(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # every check runs here, before the report's first byte is written,
        # and the report file is opened only once they have all passed
        code, chunks = args.func(args)
        out = open(args.out, "w") if args.out else None
    except (ValueError, BudgetExceeded, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    with _exact_integers():
        if out is None:
            sys.stdout.writelines(chunks)
        else:
            with out:
                out.writelines(chunks)
    return code


if __name__ == "__main__":
    sys.exit(main())
