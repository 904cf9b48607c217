import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import audit
from vclab import quasimorphisms
from vclab.cli import main
from vclab.words import Alphabet, BudgetExceeded, Word, WordError, parse_word
from vclab.quasimorphisms import (
    QuasiMorphism,
    conjugacy_invariance_check,
    counting_qm,
    defect_estimate,
    homogenize,
)

F2 = Alphabet(2)
F3 = Alphabet(3)


def p(text):
    return parse_word(text, F2)


def random_word(rng, max_len, alph=F2):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


def letters(w):
    return tuple(w.letters())


def random_pairs(seed, count, max_len):
    """Pairs of random reduced words as letter sequences, as ``defect_estimate`` reads them."""
    rng = random.Random(seed)
    return [(letters(random_word(rng, max_len)), letters(random_word(rng, max_len))) for _ in range(count)]


def exponent_sum(i, alph=F2):
    """The exponent-sum homomorphism on x_i: the counting quasimorphism of the letter x_i."""
    return counting_qm(alph.generator(i))


# -- evaluators ---------------------------------------------------------------

def test_exponent_sum_examples():
    qa = exponent_sum(0)
    assert qa(p("a^2b^3")) == 2
    assert qa(p("b")) == 0
    assert qa(p("")) == 0


def test_one_letter_pattern_counts_the_exponent_sum():
    rng = random.Random(29)
    for alph in (Alphabet(1), F2, F3):
        for i in range(alph.rank):
            q = exponent_sum(i, alph)
            for _ in range(50):
                g, u = random_word(rng, 10, alph), random_word(rng, 6, alph)
                assert q(g) == g.exponent_sums()[i]
                for m in (1, 5, 10**8):
                    assert homogenize(q, g, m, Fraction(0)).value == g.exponent_sums()[i]
                assert conjugacy_invariance_check(q, g, u, 7, Fraction(0)).residual == 0


def test_exponent_sum_is_homogeneous():
    qa = exponent_sum(0)
    rng = random.Random(31)
    for _ in range(100):
        g = random_word(rng, 8)
        m = rng.randint(-5, 5)
        assert qa(g ** m) == m * qa(g)


def test_counting_examples():
    q = counting_qm(p("ab"))
    assert q(p("abab")) == 2
    assert q(p("a")) == 0
    assert q(p("BA")) == -1
    assert q(p("")) == 0


def test_counting_pattern_validation():
    with pytest.raises(WordError):
        counting_qm(p(""))
    with pytest.raises(WordError):
        counting_qm(p("abA"))  # not cyclically reduced


def test_counting_antisymmetry():
    q = counting_qm(p("ab"))
    rng = random.Random(37)
    for _ in range(200):
        g = random_word(rng, 10)
        assert q(g.inverse()) == -q(g)


# -- counting on syllables ------------------------------------------------------

def syllable_words(alph, max_syllables, max_exp):
    """Words from syllable streams with long exponents; equal generators in a
    row merge, and opposite ones cancel."""
    syllable = st.tuples(st.integers(0, alph.rank - 1), st.integers(-max_exp, max_exp).filter(bool))
    return st.lists(syllable, max_size=max_syllables).map(lambda items: Word.from_syllables(alph, items))


def syllable_patterns(alph):
    return syllable_words(alph, 6, 4).filter(
        lambda word: 1 <= len(word.syllables) <= 5 and word.is_cyclically_reduced()
    )


@settings(max_examples=600, deadline=None)
@given(st.sampled_from((Alphabet(1), F2, F3)).flatmap(
    lambda alph: st.tuples(syllable_patterns(alph), syllable_words(alph, 14, 12))
))
@example((p("a^2"), p("a^5BA^3")))  # one syllable: 4 occurrences in a^5, none in A^3
@example((p("a^2b"), p("a^3bA^2Ba^2b")))  # ends run longer than the pattern's
@example((p("abAB"), p("abABabAB")))  # overlapping occurrences of the inner match
@example((p("aba"), p("baBa")))  # an inner match at the start of the word has no syllable before it
@example((parse_word("aCb^2", F3), parse_word("c^2aCb^3aC^2b^2", F3)))  # a longer middle does not match
def test_syllable_count_equals_the_letter_count(case):
    pattern, w = case
    assert counting_qm(pattern)(w) == audit.count(letters(pattern), letters(w))


def test_long_periodic_pattern_counts_in_linear_time():
    # a naive comparison of the inner syllables at every start took 1.35 s
    # already for (ab)^300
    q = counting_qm(p("ab") ** 1000)
    start = time.perf_counter()
    assert q(p("ab") ** 100_000) == 99_001
    assert time.perf_counter() - start < 1


def test_counts_reuse_the_inverse_of_the_pattern(monkeypatch):
    # the pattern is the same on every count, so its inverse is built once,
    # and only by a count: sampled gaps read the probes
    calls = []
    inverse = Word.inverse
    monkeypatch.setattr(Word, "inverse", lambda self: calls.append(self) or inverse(self))
    pattern = p("a^2bAB")
    q = counting_qm(pattern)
    assert q.gap(letters(p("a^2b")), letters(p("AB"))) == 1 and not calls
    assert [q(p(text)) for text in ("a^2bAB", "baBA^2", "a^2bABa^2bAB", "")] == [1, -1, 2, 0]
    assert calls == [pattern] and q.inverse == inverse(pattern).syllables


def test_counts_never_spell_the_word():
    q = counting_qm(p("a^2b"))
    assert q(p("a^1000000000000b^1000000000000a^2b")) == 2
    assert q(p("B^1000000000000A^1000000000000")) == -1
    assert exponent_sum(1)(p("a^3b^-1000000000000a")) == -10**12


# -- defect -------------------------------------------------------------------

def test_defect_zero_for_homomorphisms():
    qa = exponent_sum(0)
    est = defect_estimate(qa, random_pairs(41, 500, 10))
    assert est.lower_bound == 0


def test_defect_counting_example():
    q = counting_qm(p("ab"))
    est = defect_estimate(q, [(letters(p("a")), letters(p("b")))])
    assert est.lower_bound >= 1


def test_defect_empty_sample():
    q = counting_qm(p("ab"))
    est = defect_estimate(q, [])
    assert est.lower_bound == 0 and est.sample_count == 0


def test_counting_defect_stays_under_pattern_bound():
    # sampled quasimorphism axiom: gap bounded by 3 * pattern length
    q = counting_qm(p("ab"))
    pairs = random_pairs(43, 10_000, 10)
    est = defect_estimate(q, pairs)
    assert est.lower_bound <= 3 * len(p("ab"))
    assert est.sample_count == 10_000


def recount_gap(q, f, g):
    return q(f * g) - q(f) - q(g)


def words_of(alph, max_len):
    letters = st.tuples(st.integers(0, alph.rank - 1), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_len).map(lambda items: Word.from_syllables(alph, items))


def patterns_of(alph, max_len):
    return words_of(alph, max_len).filter(lambda word: word and word.is_cyclically_reduced())


@st.composite
def gap_cases(draw):
    alph = draw(st.sampled_from((F2, F3)))
    pattern = draw(patterns_of(alph, 7))
    f = draw(words_of(alph, 10))
    # g = c^{-1} g' with c a suffix of f, so cancellations of every length occur
    cut = draw(st.integers(0, len(f)))
    suffix = list(f.letters())[cut:]
    g = Word.from_letters(alph, [-l for l in reversed(suffix)]) * draw(words_of(alph, 10))
    return pattern, f, g


@settings(max_examples=400, deadline=None)
@given(gap_cases())
@example((parse_word("b", F2), parse_word("aBa", F2), parse_word("Ab", F2)))  # k = 1
@example((parse_word("abAB", F2), parse_word("a", F2), parse_word("b", F2)))  # k > |f| + |g|
@example((parse_word("ab", F2), parse_word("abaB", F2), parse_word("bABA", F2)))  # g = f^-1
@example((parse_word("aCb", F3), parse_word("caC^2", F3), parse_word("c^3b", F3)))  # rank 3
def test_seam_gap_equals_full_recount(case):
    pattern, f, g = case
    q = counting_qm(pattern)
    assert q.gap(letters(f), letters(g)) == recount_gap(q, f, g)


def test_seam_gap_on_long_syllables():
    # partial cancellation inside long syllables, from either side
    q = counting_qm(p("a^2B"))
    rng = random.Random(71)
    for _ in range(2000):
        f = Word.from_syllables(F2, [(rng.randrange(2), rng.randint(-6, 6)) for _ in range(rng.randint(0, 4))])
        g = Word.from_syllables(F2, [(rng.randrange(2), rng.randint(-6, 6)) for _ in range(rng.randint(0, 4))])
        for right in (g, f.inverse() * g, g * f.inverse()):
            assert q.gap(letters(f), letters(right)) == recount_gap(q, f, right)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((F2, F3)).flatmap(lambda alph: st.tuples(patterns_of(alph, 7), words_of(alph, 10))))
def test_gap_with_the_identity_equals_full_recount(case):
    # gap returns 0 at once when either word is empty, as q(1) = 0
    pattern, w = case
    q = counting_qm(pattern)
    one = w.alphabet.identity()
    for f, g in ((one, w), (w, one), (one, one)):
        assert q.gap(letters(f), letters(g)) == recount_gap(q, f, g) == 0


def test_full_cancellation_gives_zero_gap():
    q = counting_qm(p("ab"))
    rng = random.Random(73)
    for _ in range(200):
        f = random_word(rng, 10)
        assert q.gap(letters(f), letters(f.inverse())) == 0


def test_homomorphism_gap_is_zero():
    qa = exponent_sum(1)
    assert qa.gap(letters(p("abab")), letters(p("BA"))) == 0


# -- homogenization ------------------------------------------------------------

def test_homogenize_homomorphism_fixed_point():
    qa = exponent_sum(0)
    for m in (1, 2, 4, 64):
        res = homogenize(qa, p("a^2b"), m, Fraction(0))
        assert res.value == 2 and res.error_bound == 0


def test_homogenize_identity_word():
    q = counting_qm(p("ab"))
    for m in (1, 4, 16):
        assert homogenize(q, p(""), m, Fraction(3)).value == 0


def test_homogenize_counting_converges():
    q = counting_qm(p("ab"))
    res = homogenize(q, p("ab"), 64, Fraction(3))
    assert res.value == 1
    assert res.error_bound == Fraction(3, 64)


def test_doubling_cauchy_property():
    q = counting_qm(p("ab"))
    pairs = random_pairs(47, 10_000, 10)
    d_hat = defect_estimate(q, pairs).lower_bound
    bound_defect = max(d_hat, Fraction(3 * len(p("ab"))))
    rng = random.Random(53)
    for _ in range(100):
        g = random_word(rng, 8)
        for m in (1, 2, 4, 8, 16, 32, 64):
            gap = abs(q(g ** (2 * m)) / (2 * m) - q(g ** m) / m)
            assert gap <= bound_defect / m


# -- conjugacy invariance ---------------------------------------------------------

def test_invariance_exact_for_homomorphisms():
    qa = exponent_sum(0)
    rng = random.Random(59)
    for _ in range(100):
        g, u = random_word(rng, 8), random_word(rng, 6)
        check = conjugacy_invariance_check(qa, g, u, 16, Fraction(0))
        assert check.residual == 0


def test_invariance_trivial_conjugator():
    q = counting_qm(p("ab"))
    check = conjugacy_invariance_check(q, p("ab"), p(""), 8, Fraction(3))
    assert check.residual == 0


def test_invariance_bound_example():
    q = counting_qm(p("ab"))
    d = Fraction(3)
    check = conjugacy_invariance_check(q, p("ab"), p("a"), 64, d)
    assert check.bound == 2 * (abs(q(p("a"))) + d) / 64
    assert check.within_bound


def test_invariance_random_conjugators():
    q = counting_qm(p("ab"))
    pairs = random_pairs(61, 10_000, 10)
    d_hat = max(defect_estimate(q, pairs).lower_bound, Fraction(3 * 2))
    rng = random.Random(67)
    for _ in range(100):
        g, u = random_word(rng, 8), random_word(rng, 6)
        for m in (1, 4, 16, 64):
            check = conjugacy_invariance_check(q, g, u, m, d_hat)
            assert check.within_bound


# -- q(g^M) without building g^M ---------------------------------------------------

def test_closed_form_powers_match_direct_evaluation():
    rng = random.Random(79)
    for alph in (F2, F3):
        for _ in range(60):
            pattern = random_word(rng, 5, alph)
            if not pattern or not pattern.is_cyclically_reduced():
                continue
            q = counting_qm(pattern)
            g, u = random_word(rng, 8, alph), random_word(rng, 4, alph)
            h = g.conjugate(u)
            for m in range(1, 41):
                assert homogenize(q, g, m, Fraction(3)).value == q(g ** m) / m
                residual = abs(q(g ** m) / m - q(h ** m) / m)
                assert conjugacy_invariance_check(q, g, u, m, Fraction(3)).residual == residual


def _core_period(g):
    """The threshold of ``_power_value``: letters for a one-syllable core,
    cyclic syllables otherwise."""
    core, _ = g.cyclic_reduce()
    syl = core.syllables
    if len(syl) == 1:
        return len(core), "letters"
    return len(syl) - (syl[0][0] == syl[-1][0]), "syllables"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((Alphabet(1), F2, F3)).flatmap(
    lambda alph: st.tuples(syllable_patterns(alph), syllable_words(alph, 7, 4))
))
@example((p("a^3"), p("ba^2B")))  # one-syllable core: the letter threshold
@example((p("ab"), p("aba")))  # the ends of the core share a generator
@example((p("a^2bAB"), p("a^3bA")))  # g = a (a^2 b) a^-1: the core merges with the conjugator
@example((p("ab" + "a^2b" * 12 + "a"), p("aba")))  # 27 syllables over a period of 2
def test_power_value_equals_the_letter_count_of_the_power(case):
    pattern, g = case
    q = counting_qm(pattern)
    period, unit = _core_period(g) if g else (1, "letters")
    size = len(pattern) if unit == "letters" else len(pattern.syllables)
    m0 = -(-size // period) + 2
    for m in range(1, m0 + 7):
        assert quasimorphisms._power_value(q, g, m) == audit.count(letters(pattern), letters(g ** m))


def test_power_threshold_counts_cyclic_syllables():
    # g = aba has 3 syllables but a period of 2: a^2 b repeats.  The pattern
    # a b (a^2 b)^12 a of 27 syllables first occurs in g^13, so a threshold of
    # ceil(27 / 3) + 2 = 11 would read q(g^11) = q(g^12) = 0 and extrapolate 0
    pattern, g = p("ab" + "a^2b" * 12 + "a"), p("aba")
    q = counting_qm(pattern)
    assert [audit.count(letters(pattern), letters(g ** m)) for m in (11, 12, 13, 20)] == [0, 0, 1, 8]
    assert [quasimorphisms._power_value(q, g, m) for m in (11, 12, 13, 20, 10**12)] == [0, 0, 1, 8, 10**12 - 12]


def test_powers_are_built_from_syllables_past_the_power_budget():
    # g^3 of a^1000000000000 b has 2 * 10^12 letters more than the power budget
    q = exponent_sum(0)
    g = p("a^1000000000000b")
    assert homogenize(q, g, 10**12, Fraction(0)).value == 10**12
    q = counting_qm(p("a^2b"))
    assert homogenize(q, g, 10**6, Fraction(0)).value == 1
    check = conjugacy_invariance_check(q, g, p("b^1000000000000a"), 10**6, Fraction(6))
    assert check.within_bound


def test_closed_form_powers_for_homomorphisms():
    qb = exponent_sum(1)
    rng = random.Random(83)
    for _ in range(50):
        g = random_word(rng, 8)
        for m in (1, 7, 40):
            assert homogenize(qb, g, m, Fraction(0)).value * m == qb(g ** m)


def test_huge_truncation_is_exact():
    q = counting_qm(p("ab"))
    res = homogenize(q, p("ab"), 10**8, Fraction(3))
    assert res.value == 1 and res.error_bound == Fraction(3, 10**8)
    # (aab)^M holds M occurrences of ab and none of BA
    assert homogenize(q, p("a^2b"), 10**12, Fraction(0)).value == 1
    check = conjugacy_invariance_check(q, p("ab"), p("aB"), 10**9, Fraction(3))
    assert check.within_bound


def test_a_table_of_truncations_counts_the_two_powers_once(monkeypatch, capsys):
    # pattern abab, g = ab: q(g^m) = m - 1 is affine from m0 = 4 on, so the
    # seven truncations past it count g^4 and g^5 once, not once each
    calls = []
    count = QuasiMorphism.__call__
    monkeypatch.setattr(QuasiMorphism, "__call__", lambda self, w: calls.append(w) or count(self, w))
    truncations = range(5, 12)
    assert main(["qm-homogenize", "--pattern", "abab", "--word", "ab", "--truncations", ",".join(map(str, truncations))]) == 0
    table = json.loads(capsys.readouterr().out)["homogenization_table"]
    assert [row["value"] for row in table] == [str(Fraction(m - 1, m)) for m in truncations]
    assert calls == [p("ab") ** 4, p("ab") ** 5]


# -- budgets ----------------------------------------------------------------------


def test_pattern_budget_admits_its_edge_and_refuses_past_it():
    edge = quasimorphisms.PATTERN_BUDGET
    assert counting_qm(p(f"a^{edge - 1}b")).gap(letters(p("ab")), letters(p("ab"))) == 0
    with pytest.raises(BudgetExceeded, match=f"pattern of {edge + 1} letters exceeds the budget of {edge} letters"):
        counting_qm(p(f"a^{edge}b"))


@pytest.mark.parametrize("truncation", [0, -3])
def test_truncations_below_one_are_refused(truncation):
    q = counting_qm(p("ab"))
    for call in (lambda: homogenize(q, p("ab"), truncation, Fraction(0)),
                 lambda: conjugacy_invariance_check(q, p("ab"), p("a"), truncation, Fraction(0))):
        with pytest.raises(WordError, match="^truncation must be >= 1$"):
            call()
