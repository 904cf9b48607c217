import random
from fractions import Fraction

import pytest

from vclab.words import Alphabet, Word, WordError, parse_word
from vclab.quasimorphisms import (
    QMKind,
    conjugacy_invariance_check,
    counting_qm,
    defect_estimate,
    exponent_sum_qm,
    homogenize,
)

F2 = Alphabet(2)


def p(text):
    return parse_word(text, F2)


def random_word(rng, max_len, alph=F2):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


def random_pairs(seed, count, max_len):
    rng = random.Random(seed)
    return [(random_word(rng, max_len), random_word(rng, max_len)) for _ in range(count)]


# -- evaluators ---------------------------------------------------------------

def test_exponent_sum_examples():
    qa = exponent_sum_qm(0)
    assert qa(p("a^2b^3")) == 2
    assert qa(p("b")) == 0
    assert qa(p("")) == 0


def test_exponent_sum_is_homogeneous():
    qa = exponent_sum_qm(0)
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


# -- defect -------------------------------------------------------------------

def test_defect_zero_for_homomorphisms():
    qa = exponent_sum_qm(0)
    est = defect_estimate(qa, random_pairs(41, 500, 10))
    assert est.lower_bound == 0


def test_defect_counting_example():
    q = counting_qm(p("ab"))
    est = defect_estimate(q, [(p("a"), p("b"))])
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


# -- homogenization ------------------------------------------------------------

def test_homogenize_homomorphism_fixed_point():
    qa = exponent_sum_qm(0)
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
    qa = exponent_sum_qm(0)
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
