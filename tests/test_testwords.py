import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vclab import cli, testwords
from vclab.words import Alphabet, BudgetExceeded, Word, WordError, count_reduced, enumerate_reduced, free_word_metric, parse_word, substitute
from vclab.testwords import (
    CertificateResult,
    ExponentTuple,
    TestWordSpec,
    base_test_word,
    base_value,
    canonical_solutions,
    _letter_evaluate,
    evaluate,
    exponent_sum_certificates,
    format_test_word,
    lift,
    variable_count,
    variable_name,
    variables_used,
    verify_testword,
    word_level,
)

F3 = Alphabet(3)


def p(text, alph=F3):
    return parse_word(text, alph)


def random_word(rng, alph, max_len):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


ABC = [p("a"), p("b"), p("c")]


# -- construction ---------------------------------------------------------------

def test_base_word_all_ones():
    w3 = base_test_word(ExponentTuple.uniform(1))
    assert format_test_word(w3) == "x1 x3 x2 x3 x2 x3 y3"


def test_base_word_m1_two():
    w3 = base_test_word(ExponentTuple(1, 1, 2, 1, 1, 1, 1, 1, 1, 1))
    assert format_test_word(w3) == "x1 x3 x1 x3 x2 x3 x2 x3 y3"


def test_base_word_length_formula():
    rng = random.Random(3)
    for _ in range(40):
        e = ExponentTuple(*[rng.randint(1, 4) for _ in range(10)])
        w3 = base_test_word(e)
        # positive exponents cannot cross-cancel, so the formula is exact
        expected = e.s * (e.m1 * (e.k1 + e.l1) + e.m2 * (e.k2 + e.l2)) + e.t * (e.p + 2 * e.q)
        assert len(w3) == expected


def test_exponents_must_be_positive():
    with pytest.raises(WordError):
        ExponentTuple(0, 1, 1, 1, 1, 1, 1, 1, 1, 1)


# -- lifting ---------------------------------------------------------------------

def test_lift_variable_counts():
    e = ExponentTuple.uniform(1)
    w3 = base_test_word(e)
    w4 = lift(w3, e)
    assert word_level(w4) == 4
    assert w4.alphabet.rank == variable_count(4) == 6
    assert variables_used(w4) == {"x1", "x2", "x3", "x4", "y3", "y4"}
    w5 = lift(w4, e)
    assert w5.alphabet.rank == variable_count(5) == 8


@pytest.mark.parametrize("rank", [2, 5])
def test_word_level_needs_an_even_rank_of_at_least_four(rank):
    with pytest.raises(WordError, match=f"^a test word has an even rank of at least 4, got rank {rank}$"):
        word_level(Alphabet(rank).generator(0))


def test_lift_matches_direct_expansion():
    # substituting the level-3 word into the shell by hand reproduces lift
    e = ExponentTuple.uniform(1)
    w3 = base_test_word(e)
    w4 = lift(w3, e)
    alph6 = Alphabet(6)
    x = {i: alph6.generator(i - 1) for i in range(1, 5)}  # x1..x4
    y3, y4 = alph6.generator(4), alph6.generator(5)
    w3_in_6 = substitute(w3, [x[1], x[2], x[3], y3])
    shell = ((w3_in_6 ** e.k1 * x[4] ** e.l1) ** e.m1 * (x[3] ** e.k2 * x[4] ** e.l2) ** e.m2) ** e.s
    shell = shell * (x[3] ** e.p * (x[4] * y4) ** e.q) ** e.t
    assert w4 == shell


def test_lift_collapse_under_trivial_new_variables():
    # sending the two new variables to 1 collapses the shell to
    # (W^{k1 m1} x_n^{k2 m2})^s x_n^{p t}; with s = 1 this is
    # W^{k1 m1 s} x_n^{k2 m2 s} x_n^{p t}
    rng = random.Random(11)
    for s_val in (1, 2):
        vals = [rng.randint(1, 3) for _ in range(10)]
        vals[6] = s_val
        e = ExponentTuple.from_list(vals)
        w3 = base_test_word(ExponentTuple.uniform(1))
        w4 = lift(w3, e)
        alph4 = Alphabet(4)
        gens = [alph4.generator(i) for i in range(4)]
        collapsed = substitute(
            w4,
            [gens[0], gens[1], gens[2], alph4.identity(), gens[3], alph4.identity()],
        )
        w3_in_4 = substitute(w3, [gens[0], gens[1], gens[2], gens[3]])
        xn = gens[2]
        expected = (w3_in_4 ** (e.k1 * e.m1) * xn ** (e.k2 * e.m2)) ** e.s * xn ** (e.p * e.t)
        assert collapsed == expected
        if s_val == 1:
            flat = w3_in_4 ** (e.k1 * e.m1 * e.s) * xn ** (e.k2 * e.m2 * e.s) * xn ** (e.p * e.t)
            assert collapsed == flat


def test_spec_builds_tower():
    spec = TestWordSpec(5, tuple(ExponentTuple.uniform(1) for _ in range(3)))
    w5 = spec.build()
    assert word_level(w5) == 5


# -- evaluation --------------------------------------------------------------------

def test_evaluate_simple_word():
    alph = Alphabet(4)
    word = alph.generator(0) * alph.generator(1)
    assert evaluate(word, {"x1": p("a"), "x2": p("b")}) == p("ab")


def test_evaluate_all_identity():
    w3 = base_test_word(ExponentTuple.uniform(2))
    idw = F3.identity()
    assert evaluate(w3, {"x1": idw, "x2": idw, "x3": idw, "y3": idw}).is_identity()


def test_evaluate_expansion_example():
    w3 = base_test_word(ExponentTuple.uniform(1))
    got = evaluate(w3, {"x1": p("a"), "x2": p("b"), "x3": p("c"), "y3": p("")})
    assert got == p("acbcbc")


def test_evaluate_missing_variable():
    w3 = base_test_word(ExponentTuple.uniform(1))
    with pytest.raises(WordError):
        evaluate(w3, {"x1": p("a"), "x2": p("b"), "x3": p("c")})


def test_evaluate_unused_variables_default_to_identity():
    alph = Alphabet(4)
    word = alph.generator(1) ** 2 * alph.generator(3)
    assert evaluate(word, {"x2": p("ab"), "y3": p("C")}) == p("ababC")


def test_evaluate_matches_letter_oracle():
    rng = random.Random(23)
    w4 = TestWordSpec(4, (ExponentTuple.uniform(1), ExponentTuple.from_list([1, 2, 1, 1, 2, 1, 1, 1, 2, 1]))).build()
    names = ["x1", "x2", "x3", "x4", "y3", "y4"]
    for _ in range(30):
        images = [random_word(rng, F3, 3) for _ in names]
        assert evaluate(w4, dict(zip(names, images))) == _letter_evaluate(w4, images)


@pytest.mark.parametrize("name", ["", "x", "y", "z1", "x\u0663", "y\u0663", "x-1"])
def test_evaluate_rejects_bad_variable_names(name):
    word = Alphabet(4).generator(0)
    with pytest.raises(WordError) as info:
        evaluate(word, {"x1": p("a"), name: p("b")})
    assert str(info.value) == f"bad variable name {name!r}"


def test_evaluate_rejects_mixed_alphabets_and_empty_assignments():
    alph = Alphabet(4)
    word = alph.generator(0)
    with pytest.raises(WordError, match="mixed alphabets"):
        evaluate(word, {"x1": p("a"), "x2": parse_word("a", Alphabet(2))})
    with pytest.raises(WordError, match="names no variables"):
        evaluate(alph.identity(), {})


# -- canonical solutions ---------------------------------------------------------------

def test_canonical_solutions_evaluate_to_common_value():
    w3 = base_test_word(ExponentTuple.uniform(2))
    u = base_value(w3, ABC)
    for alpha in (-3, -2, -1, 0, 1, 2, 3):
        assignment = canonical_solutions(w3, ABC, alpha)
        assert evaluate(w3, assignment) == u
    zero = canonical_solutions(w3, ABC, 0)
    assert zero["x1"] == p("a") and zero["y3"].is_identity()


def test_equivariance_under_conjugation():
    # evaluating at conjugated targets gives the conjugated value, exactly
    w3 = base_test_word(ExponentTuple.uniform(2))
    u = base_value(w3, ABC)
    rng = random.Random(17)
    for _ in range(100):
        h = random_word(rng, F3, 6)
        conjugated = [t.conjugate(h) for t in ABC]
        assert base_value(w3, conjugated) == u.conjugate(h)


def test_canonical_rejects_trivial_common_value():
    alph = Alphabet(4)
    word = alph.generator(3)  # just y3, so U = 1
    with pytest.raises(WordError):
        canonical_solutions(word, ABC, 1)


# -- bounded verification -----------------------------------------------------------------

def test_verifier_accepts_canonical_solutions():
    w3 = base_test_word(ExponentTuple.uniform(1))
    report = verify_testword(w3, ABC, 1)
    assert report.exhausted and not report.violations
    assert report.special_tuple_ok


def test_verifier_finds_violation_for_commensurable_targets():
    w3 = base_test_word(ExponentTuple.uniform(1))
    aaa = [p("a"), p("a"), p("a")]
    report = verify_testword(w3, aaa, 1)
    assert not report.special_tuple_ok
    assert report.violations
    u = base_value(w3, aaa)
    for violation in report.violations:
        assert evaluate(w3, violation.assignment) == u


def test_verifier_bound_zero():
    w3 = base_test_word(ExponentTuple.uniform(1))
    report = verify_testword(w3, ABC, 0)
    assert report.explored == report.total == 1
    assert not report.violations


def test_verifier_budget_is_partial(capsys):
    w3 = base_test_word(ExponentTuple.uniform(1))
    report = verify_testword(w3, ABC, 1, max_assignments=50)
    assert report.explored == 50 and not report.exhausted
    argv = ["--exponents", "1 1 1 1 1 1 1 1 1 1", "--targets", "a;b;c", "--bound", "1", "--max-assignments", "50"]
    cli.main(["verify-testword", *argv])
    assert 0 < json.loads(capsys.readouterr().out)["explored_fraction"] < 1


def product_walk(w, targets, bound, max_assignments=None):
    """Reference: every assignment in product order, W evaluated whole."""
    u = base_value(w, targets)
    window = bound // max(1, len(u)) + 1
    canonical = [canonical_solutions(w, targets, alpha) for alpha in range(-window, window + 1)]
    level = word_level(w)
    nvars = variable_count(level)
    names = [variable_name(level, i) for i in range(nvars)]
    candidates = list(enumerate_reduced(targets[0].alphabet, bound))
    total = len(candidates) ** nvars
    budget = total if max_assignments is None else min(total, max_assignments)
    violations, explored = [], 0
    for images in itertools.islice(itertools.product(candidates, repeat=nvars), budget):
        explored += 1
        assignment = dict(zip(names, images))
        if substitute(w, images) == u and assignment not in canonical:
            violations.append(assignment)
    return violations, explored, total, explored == total


ONES = ExponentTuple.uniform(1)
TWOS = ExponentTuple.uniform(2)
Q2 = ExponentTuple(1, 1, 1, 1, 1, 1, 1, 1, 2, 1)


# (exponent tuples, rank, targets, bound, max_assignments); in `a;a;b` at
# bound 2 (17 candidates) the violation at product index 887 is image 3 of
# its block, and at level 4 the one at index 4223 is image 3 of its block.
# Under TWOS, y3 occurs four times, so it is enumerated; in `a;b;aB` at
# bound 1 every x1 is dropped, so each cap falls inside a dropped block of
# 125 assignments, and at level 4 in `a;a;b;b` the (x1, x2, x3) node that
# starts at index 125 is dropped with its 125 assignments
@pytest.mark.parametrize("tuples,rank,targets,bound,cap", [
    ((ONES,), 3, "a;b;c", 1, None),
    ((ONES,), 1, "a;a;a", 2, None),
    ((ONES,), 2, "a;b;aB", 1, None),
    ((Q2,), 1, "a;a;a", 2, None),  # y3 occurs twice, so it is enumerated
    ((ONES, ONES), 2, "a;a;b;b", 1, 4223),
    ((ONES,), 2, "a;a;b", 2, 1),
    ((ONES,), 2, "a;a;b", 2, 17),
    ((ONES,), 2, "a;a;b", 2, 50),
    ((ONES,), 2, "a;a;b", 2, 887),
    ((ONES,), 2, "a;a;b", 2, 888),
    ((ONES,), 2, "a;a;b", 2, 1000),
    ((Q2,), 1, "a;a;a", 2, 131),  # the violation at index 131 is cut off
    ((TWOS,), 1, "a;a;a", 2, None),
    ((TWOS,), 1, "a;a;a", 2, 15),  # and here the one at index 15
    ((TWOS,), 2, "a;a;b", 1, None),
    ((TWOS,), 2, "a;a;b", 1, 100),
    ((TWOS,), 2, "a;b;aB", 1, None),
    ((TWOS,), 2, "a;b;aB", 1, 60),
    ((TWOS,), 2, "a;b;aB", 1, 126),
    ((TWOS,), 2, "a;b;aB", 1, 624),
    ((ONES, ONES), 2, "a;a;b;b", 1, None),
    ((ONES, ONES), 2, "a;a;b;b", 1, 130),
    ((ONES, Q2), 1, "a;a;a;a", 1, None),  # y4 enumerated at level 4
    # caps inside a node dropped on the leading syllables of its extension,
    # whose variables skip the one before it: x1 x3 in `a;b;aB` at bound 1
    # over [35, 40); at level 4, x1 x3 in `a;a;b;b` over [875, 1000), and
    # the y3 that leads x4's syllables in `a;b;aB;b` over [35, 40) and,
    # under TWOS, in `a;a;a;a` over [9, 12)
    ((ONES,), 2, "a;b;aB", 1, 37),
    ((ONES, ONES), 2, "a;a;b;b", 1, 900),
    ((ONES, ONES), 2, "a;b;aB;b", 1, 38),
    ((ONES, TWOS), 1, "a;a;a;a", 1, 10),
])
def test_solved_walk_matches_product_walk(tuples, rank, targets, bound, cap):
    w = TestWordSpec(len(tuples) + 2, tuples).build()
    targets = [parse_word(t, Alphabet(rank)) for t in targets.split(";")]
    report = verify_testword(w, targets, bound, max_assignments=cap)
    violations, explored, total, exhausted = product_walk(w, targets, bound, cap)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


X1, X2, X3, Y3 = [Alphabet(4).generator(i) for i in range(4)]


@pytest.mark.parametrize("cap", [None, 300])
@pytest.mark.parametrize("w", [
    X1 * X3 * Y3 ** -1 * X2 * X3 ** 2,  # y3^-1 between syllables
    X1 * X3 * X2 * X3 ** 2 * Y3 ** -1,  # y3^-1 last
], ids=["inner", "last"])
def test_walk_enumerates_an_inverse_occurrence(w, cap):
    # y3 is solved only as the last syllable y3^+1, so both words enumerate
    # it; in `a;a;a` at bound 2 each has 35 violations among 625 assignments
    targets = [parse_word("a", Alphabet(1))] * 3
    report = verify_testword(w, targets, 2, max_assignments=cap)
    violations, explored, total, exhausted = product_walk(w, targets, 2, cap)
    assert violations
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


def test_walk_splits_a_conjugate_candidate_for_its_power():
    # y3 is enumerated (exponent 2) and varies fastest, so its candidates
    # are squared; at bound 3 they include t c t^-1 with t nonempty, such as
    # aba^-1, whose power is spelled t c^2 t^-1 around the split core
    w = X1 * X2 * X3 * Y3 ** 2
    targets = [parse_word(t, Alphabet(2)) for t in ("a", "b", "aB")]
    report = verify_testword(w, targets, 3, max_assignments=300)
    violations, explored, total, exhausted = product_walk(w, targets, 3, 300)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


def counting_products(monkeypatch):
    calls = {"mul": 0, "pow": 0}
    mul, power = Word.__mul__, Word.__pow__

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_pow(self, k):
        calls["pow"] += 1
        return power(self, k)

    monkeypatch.setattr(Word, "__mul__", counting_mul)
    monkeypatch.setattr(Word, "__pow__", counting_pow)
    return calls


# the benchmark's test-word case, whose y3 is solved, and the all-2 word,
# whose y3 is enumerated
@pytest.mark.parametrize("tuples,rank,targets,found", [
    ((ONES,), 2, "a;b;aB", 36),
    ((TWOS,), 3, "a;b;c", 0),
], ids=["all-1 a;b;aB", "all-2 a;b;c"])
def test_walk_builds_no_word_per_assignment(monkeypatch, tuples, rank, targets, found):
    # the walk spells letters, so its Word products and powers are those
    # that set it up (U, the canonical solutions), whatever it reaches
    w = TestWordSpec(3, tuples).build()
    targets = [parse_word(t, Alphabet(rank)) for t in targets.split(";")]
    calls = counting_products(monkeypatch)
    counts = set()
    for cap in (1, 50, 1000, 20000, None):
        calls.update(mul=0, pow=0)
        report = verify_testword(w, targets, 2, max_assignments=cap)
        assert report.explored == (report.total if cap is None else cap)
        counts.add((calls["mul"], calls["pow"]))
    assert report.exhausted and len(report.violations) == found
    assert len(counts) == 1


def test_walk_extends_each_prefix_once_and_drops_far_products(monkeypatch):
    # the benchmark's test-word case; 33,152 products when each assignment
    # evaluated W's prefix from the start and was pruned on lengths only,
    # 8,470 when each lead product was built once per prefix; the letter
    # walk extends P without Word products, so only U and the canonical
    # solutions are built
    calls = counting_products(monkeypatch)
    targets = [parse_word(t, Alphabet(2)) for t in ("a", "b", "aB")]
    report = verify_testword(base_test_word(ONES), targets, 2)
    assert report.exhausted and len(report.violations) == 36
    assert (calls["mul"], calls["pow"]) == (52, 41)


def letters_held(w, rank, bound):
    # the candidates' letters and one partial product per variable
    return bound * (count_reduced(rank, bound) + variable_count(word_level(w)) * len(w))


# the walk keeps no power and no lead run, and spells each power again at
# each extension, so it is the rebuilding walk at any letter budget; these
# cases run it at the least budget that admits them
@pytest.mark.parametrize("tuples,rank,targets,bound,cap", [
    ((ONES,), 2, "a;b;aB", 1, None),
    ((TWOS,), 2, "a;a;b", 1, 100),
    ((ONES, ONES), 2, "a;a;b;b", 1, 900),
])
def test_walk_past_the_reuse_budget_rebuilds_and_matches(monkeypatch, tuples, rank, targets, bound, cap):
    w = TestWordSpec(len(tuples) + 2, tuples).build()
    targets = [parse_word(t, Alphabet(rank)) for t in targets.split(";")]
    monkeypatch.setattr(testwords, "LETTER_BUDGET", letters_held(w, rank, bound))
    report = verify_testword(w, targets, bound, max_assignments=cap)
    violations, explored, total, exhausted = product_walk(w, targets, bound, cap)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


def test_walk_past_the_reuse_budget_builds_what_the_rebuilding_walk_did(monkeypatch):
    # the walk that rebuilt each lead run and each power built 13,094
    # products here; at the least letter budget the walk builds what it
    # builds at the default one
    calls = counting_products(monkeypatch)
    w = base_test_word(ONES)
    targets = [parse_word(t, Alphabet(2)) for t in ("a", "b", "aB")]
    counts = []
    for budget in (letters_held(w, 2, 2), testwords.LETTER_BUDGET):
        monkeypatch.setattr(testwords, "LETTER_BUDGET", budget)
        calls.update(mul=0, pow=0)
        report = verify_testword(w, targets, 2)
        assert report.exhausted and len(report.violations) == 36
        counts.append((calls["mul"], calls["pow"]))
    assert counts[0] == counts[1] and counts[0][0] <= 13094


# (cap, products, powers) of the walk that rebuilt each lead run and each
# power for every extension, all-2 word over `a;b;c` at bound 2
@pytest.mark.parametrize("cap,products,powers", [
    (1, 220, 120),
    (50, 240, 130),
    (1000, 668, 344),
    (20000, 8438, 4229),
])
def test_capped_walk_builds_no_more_than_it_reaches(monkeypatch, cap, products, powers):
    # the letter walk spells its powers, so a capped walk builds no more
    # than one that rebuilt them at every step
    w = TestWordSpec(3, (TWOS,)).build()
    calls = counting_products(monkeypatch)
    report = verify_testword(w, ABC, 2, max_assignments=cap)
    assert report.explored == cap
    assert calls["mul"] <= products and calls["pow"] <= powers


def test_walk_spells_no_more_of_u_than_it_can_use(monkeypatch):
    # U opens with the one syllable a^100000; a partial product holds at
    # most |W| * bound letters, and y one more bound past it
    w = base_test_word(ONES)
    targets = [p("a^100000"), p("b"), p("c")]
    u = base_value(w, targets)
    drawn = 0
    letters = Word.letters

    def counting_letters(self):
        nonlocal drawn
        spelling_u = self == u
        for letter in letters(self):
            drawn += spelling_u
            yield letter

    monkeypatch.setattr(Word, "letters", counting_letters)
    report = verify_testword(w, targets, 1)
    monkeypatch.undo()
    assert 0 < drawn <= len(w) * 1 + 1
    violations, explored, total, exhausted = product_walk(w, targets, 1)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted) == (7**4, 7**4, True)


def test_walk_letters_past_the_budget_are_refused_before_enumeration(monkeypatch):
    # at rank 2 and bound 2, 17 candidates of at most 2 letters, and one
    # product of at most 7 * 2 letters for each of the 4 variables: 90
    w = base_test_word(ONES)
    targets = [parse_word(t, Alphabet(2)) for t in ("a", "b", "aB")]
    monkeypatch.setattr(testwords, "LETTER_BUDGET", 90)
    assert verify_testword(w, targets, 2, max_assignments=1).explored == 1
    monkeypatch.setattr(testwords, "LETTER_BUDGET", 89)
    monkeypatch.setattr(testwords, "enumerate_reduced", None)  # never reached
    with pytest.raises(BudgetExceeded, match="^a walk holding up to 90 letters exceeds the budget of 89 letters$"):
        verify_testword(w, targets, 2, max_assignments=1)


def test_enumerated_walk_pins_the_all_two_report():
    # y3 occurs four times, so it is enumerated: 20,000 of the 37^4 assignments
    w = TestWordSpec(3, (TWOS,)).build()
    report = verify_testword(w, ABC, 2, max_assignments=20000)
    violations, explored, total, exhausted = product_walk(w, ABC, 2, 20000)
    assert [v.assignment for v in report.violations] == violations == []
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted) == (20000, 37**4, False)


letters = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


@settings(max_examples=40, deadline=2000)
@given(
    st.lists(st.integers(1, 2), min_size=10, max_size=10),
    st.integers(1, 3),
    st.integers(0, 2),
    st.lists(st.lists(letters, min_size=1, max_size=2), min_size=3, max_size=3),
    st.one_of(st.none(), st.integers(0, 1000)),
)
def test_walk_matches_product_walk_on_random_cases(exponents, rank, bound, target_syllables, cap):
    alph = Alphabet(rank)
    targets = [Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in syl]) for syl in target_syllables]
    w = base_test_word(ExponentTuple.from_list(exponents))
    assume(all(targets) and not base_value(w, targets).is_identity())
    # an uncapped reference walk stays small: at most 7^4 assignments
    assume(cap is not None or count_reduced(rank, bound) <= 7)
    report = verify_testword(w, targets, bound, max_assignments=cap)
    violations, explored, total, exhausted = product_walk(w, targets, bound, cap)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 2), min_size=10, max_size=10), min_size=2, max_size=2),
    st.integers(1, 2),
    st.integers(0, 1),
    st.lists(st.lists(letters, min_size=1, max_size=2), min_size=4, max_size=4),
    st.one_of(st.none(), st.integers(0, 800)),
)
def test_level_four_walk_matches_product_walk_on_random_cases(exponents, rank, bound, target_syllables, cap):
    # level-4 words reuse lead runs at two depths, x1 x3 under x2 and the
    # run led by y3 under x4, and short caps fall inside the nodes they drop
    alph = Alphabet(rank)
    targets = [Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in syl]) for syl in target_syllables]
    w = TestWordSpec(4, tuple(ExponentTuple.from_list(e) for e in exponents)).build()
    assume(all(targets) and not base_value(w, targets).is_identity())
    # an uncapped reference walk stays small: at most 3^6 assignments
    assume(cap is not None or count_reduced(rank, bound) <= 3)
    report = verify_testword(w, targets, bound, max_assignments=cap)
    violations, explored, total, exhausted = product_walk(w, targets, bound, cap)
    assert [v.assignment for v in report.violations] == violations
    assert (report.explored, report.total, report.exhausted) == (explored, total, exhausted)


@given(st.lists(letters, max_size=12), st.lists(letters, max_size=12))
def test_distance_to_a_longer_product_is_the_added_factor(prefix, rest):
    # the walk's prune: W = P R = U with |R| <= s puts P within s of U
    p_word, r_word = Word.from_syllables(F3, prefix), Word.from_syllables(F3, rest)
    assert free_word_metric(p_word, p_word * r_word) == len(r_word)


def test_candidates_past_the_cap_are_refused_before_enumeration(monkeypatch):
    w = base_test_word(ONES)
    targets = [parse_word(t, Alphabet(2)) for t in ("a", "b", "aB")]
    with monkeypatch.context() as patch:
        patch.setattr(testwords, "enumerate_reduced", None)  # never reached
        with pytest.raises(BudgetExceeded, match="^candidate images of length <= 15 exceed the cap of 200000 words$"):
            verify_testword(w, targets, 15, max_assignments=1)
        # the count grows with the bound, so a huge bound is refused as fast
        with pytest.raises(BudgetExceeded, match="^candidate images of length <= 1000000000 exceed"):
            verify_testword(w, targets, 10**9, max_assignments=1)
    # bound 2 holds 17 candidates, and 28,697,813 at bound 15
    monkeypatch.setattr(testwords, "CANDIDATE_CAP", 17)
    assert verify_testword(w, targets, 2, max_assignments=1).explored == 1
    monkeypatch.setattr(testwords, "CANDIDATE_CAP", 16)
    with pytest.raises(BudgetExceeded, match="^candidate images of length <= 2 exceed the cap of 16 words$"):
        verify_testword(w, targets, 2, max_assignments=1)


@pytest.mark.parametrize("rank, texts, bound", [(1, ("a", "a", "A"), 3), (2, ("a", "b", "aB"), 2), (3, ("a", "b", "c"), 1)])
def test_candidate_cap_admits_exactly_its_count(monkeypatch, rank, texts, bound):
    w = base_test_word(ONES)
    targets = [parse_word(t, Alphabet(rank)) for t in texts]
    total = count_reduced(rank, bound)
    monkeypatch.setattr(testwords, "CANDIDATE_CAP", total)
    assert verify_testword(w, targets, bound, max_assignments=1).explored == 1
    monkeypatch.setattr(testwords, "CANDIDATE_CAP", total - 1)
    for b in (bound, 10**9):
        with pytest.raises(BudgetExceeded, match=f"^candidate images of length <= {b} exceed the cap of {total - 1} words$"):
            verify_testword(w, targets, b, max_assignments=1)


# -- certificates -----------------------------------------------------------------------------

def test_certificates_uniform_tuple():
    cert = exponent_sum_certificates(ExponentTuple.uniform(2), 2)
    assert cert.m_phi == ((-1, 0), (0, 1))
    assert cert.det_phi != 0 and cert.det_psi != 0
    assert cert.ok


def test_certificates_worked_example():
    m = 2
    e = ExponentTuple(k1=2 * m, l1=m, m1=1, k2=m, l2=m, m2=1, s=1, p=m, q=m, t=1)
    cert = exponent_sum_certificates(e, m)
    assert cert.det_psi == -2
    assert cert.ok


def test_certificates_divisibility_enforced():
    with pytest.raises(WordError):
        exponent_sum_certificates(ExponentTuple(3, 2, 1, 2, 2, 1, 1, 2, 2, 1), 2)


def test_certificates_always_pass_under_divisibility():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 4)
        vals = {
            name: m * rng.randint(1, 5) for name in ("k1", "l1", "k2", "l2", "p", "q")
        }
        e = ExponentTuple(
            k1=vals["k1"], l1=vals["l1"], m1=rng.randint(1, 5),
            k2=vals["k2"], l2=vals["l2"], m2=rng.randint(1, 5),
            s=rng.randint(1, 5), p=vals["p"], q=vals["q"], t=rng.randint(1, 5),
        )
        assert exponent_sum_certificates(e, m).ok
