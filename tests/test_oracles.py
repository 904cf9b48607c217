import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import audit
from wordstream import reduced_words
from vclab.words import Alphabet, Word, WordError, parse_word
from vclab.oracles import (
    is_commensurable,
    is_conjugate,
    is_special_tuple,
    root,
)

F2 = Alphabet(2)


def w(text, alph=F2):
    return parse_word(text, alph)


def random_word(rng, alph, max_len):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


def conjugate_closure(word, depth):
    """All g^{-1} w g with |g| <= depth, by single-letter conjugation BFS."""
    alph = word.alphabet
    singles = [Word.from_syllables(alph, [(g, s)]) for g in range(alph.rank) for s in (1, -1)]
    seen = {word}
    frontier = [word]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for letter in singles:
                img = cur.conjugate(letter)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def exhaustive_conjugate_search(u, v, bound):
    """Exists g with |g| <= bound and g^{-1} u g = v, by meet in the middle.

    Every conjugator of length <= bound splits as g1 g2 with |g1| <= ceil
    and |g2| <= floor, so the search is exhaustive over that ball.
    """
    half = (bound + 1) // 2
    return bool(conjugate_closure(u, half) & conjugate_closure(v, bound - half))


# -- conjugacy ------------------------------------------------------------------

def test_conjugacy_examples():
    witness = is_conjugate(w("abA"), w("b"))
    assert witness.conjugator == w("a")
    assert is_conjugate(w("a"), w("b")) is None
    witness = is_conjugate(w("abab"), w("baba"))
    assert witness.conjugator == w("a")


def test_conjugacy_witness_soundness():
    rng = random.Random(41)
    for _ in range(300):
        u = random_word(rng, F2, 8)
        g = random_word(rng, F2, 5)
        v = u.conjugate(g)
        witness = is_conjugate(u, v)
        assert witness is not None
        assert u.conjugate(witness.conjugator) == v


def test_conjugacy_agrees_with_naive_search():
    words = reduced_words(F2, 3)
    all_g = reduced_words(F2, 4)
    rng = random.Random(43)
    for _ in range(150):
        u, v = rng.choice(words), rng.choice(words)
        naive = any(u.conjugate(g) == v for g in all_g)
        fast = is_conjugate(u, v) is not None
        # naive search with |g| <= 4 is already complete for |u|,|v| <= 3
        assert naive == fast


def test_conjugacy_agrees_with_bounded_exhaustive_search():
    words = reduced_words(F2, 4)
    rng = random.Random(47)
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        bound = len(u) + len(v)
        assert exhaustive_conjugate_search(u, v, bound) == (is_conjugate(u, v) is not None)


def rotation_scan_conjugate(u, v):
    """Conjugacy by trying every rotation of the cyclic core in turn."""
    cu, pu = u.cyclic_reduce()
    cv, pv = v.cyclic_reduce()
    lu, lv = list(cu.letters()), list(cv.letters())
    if len(lu) != len(lv):
        return None
    if not lu:
        return u.alphabet.identity()
    doubled = lu + lu
    for shift in range(len(lu)):
        if doubled[shift:shift + len(lu)] == lv:
            return pu * Word.from_letters(u.alphabet, lu[:shift]) * pv.inverse()
    return None


def test_conjugacy_matches_rotation_scan():
    by_length = {}
    for word in reduced_words(F2, 5):
        by_length.setdefault(len(word), []).append(word)
    for words in by_length.values():
        for u, v in itertools.product(words, repeat=2):
            got = is_conjugate(u, v)
            assert (None if got is None else got.conjugator) == rotation_scan_conjugate(u, v)


syllable_lists = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1, 2, -2, 3, -5])), max_size=5)
conjugator_lists = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1, 2, -3])), max_size=4)


@settings(max_examples=300)
@given(st.integers(1, 3), syllable_lists, conjugator_lists, conjugator_lists, st.integers(2, 4))
# c = bab: u = a c^2 A and v = AB c^2 ba = b^2ab^2a match at two rotations,
# and the first syllable match is the larger one
@example(2, [(1, 1), (0, 1), (1, 1)], [(0, 1)], [(0, -1), (1, -1)], 2)
def test_conjugacy_witness_of_powers_matches_rotation_scan(rank, base, left, right, e):
    # t c^e t^-1 against s c^e s^-1: a core that is a proper power matches
    # at several rotations, often with merged ends, and the least is taken
    alph = Alphabet(rank)
    c, t, s = (Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in syl]) for syl in (base, left, right))
    u, v = t * c ** e * t.inverse(), s * c ** e * s.inverse()
    got = is_conjugate(u, v)
    assert got.conjugator == rotation_scan_conjugate(u, v)
    assert u.conjugate(got.conjugator) == v
    assert all(type(syl) is tuple for syl in got.conjugator.syllables)


def test_conjugacy_never_spells_the_letters():
    huge = 10**12
    assert is_conjugate(w(f"a^{huge}b"), w(f"ba^{huge}")) == (w(f"a^{huge}"),)
    assert is_conjugate(w(f"a^{huge}b"), w(f"ba^{huge + 1}")) is None
    assert is_commensurable(w(f"a^{huge}b"), w(f"ba^{huge}")) == (w("b"), 1, 1)
    # (a^huge b)^3 and a rotation of it, whose ends merge round the cycle
    u = w(f"Ba^{huge}ba^{huge}ba^{huge}bb")
    v = w(f"a^5ba^{huge}ba^{huge}ba^{huge - 5}")
    got = is_conjugate(u, v)
    assert u.conjugate(got.conjugator) == v
    assert got.conjugator == w(f"Ba^{huge - 5}")


# -- roots -----------------------------------------------------------------------

def test_root_examples():
    assert root(w("abab")) == (w("ab"), 2)
    assert root(w("a")) == (w("a"), 1)
    assert root(w("Ba^3b")) == (w("Bab"), 3)


def test_root_rejects_identity():
    with pytest.raises(WordError):
        root(w(""))


def test_root_reconstructs_and_is_idempotent():
    rng = random.Random(53)
    for _ in range(300):
        base = random_word(rng, F2, 6)
        if base.is_identity():
            continue
        k = rng.randint(1, 4)
        word = base ** k
        r, e = root(word)
        assert r ** e == word
        assert e % k == 0 or k % 1 == 0  # e is a multiple of any exhibited power
        assert root(r).exponent == 1


# -- commensurability --------------------------------------------------------------

def test_commensurable_examples():
    got = is_commensurable(w("a"), w("a^3"))
    assert (got.conjugator, got.s, got.t) == (w(""), 3, 1)
    got = is_commensurable(w("ab"), w("ba"))
    assert got is not None and abs(got.s) == abs(got.t) == 1
    assert is_commensurable(w("a"), w("b")) is None


def test_commensurable_witness_property():
    rng = random.Random(59)
    for _ in range(200):
        u = random_word(rng, F2, 6)
        v = random_word(rng, F2, 6)
        if u.is_identity() or v.is_identity():
            continue
        got = is_commensurable(u, v)
        if got is not None:
            g, s, t = got
            assert s != 0 and t != 0
            assert u ** s == (v ** t).conjugate(g)


def test_non_commensurable_pair_backed_by_exhaustion():
    a, b = w("a"), w("b")
    assert is_commensurable(a, b) is None
    for s, t in itertools.product(range(-3, 4), repeat=2):
        if s == 0 or t == 0:
            continue
        for g in reduced_words(F2, 4):
            assert a ** s != (b ** t).conjugate(g)


def test_commensurability_symmetric_and_power_invariant():
    rng = random.Random(61)
    for _ in range(120):
        u, v = random_word(rng, F2, 5), random_word(rng, F2, 5)
        if u.is_identity() or v.is_identity():
            continue
        assert (is_commensurable(u, v) is None) == (is_commensurable(v, u) is None)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        g = random_word(rng, F2, 4)
        u2 = (u ** k).conjugate(g)
        assert (is_commensurable(u, v) is None) == (is_commensurable(u2, v) is None)


# -- elementary subgroups ------------------------------------------------------------

def test_elementary_subgroup_examples():
    # E(w) is generated by the root of w
    assert root(w("a^2")).root == w("a")
    assert root(w("Ba^3b")).root == w("Bab")
    assert root(w("ab")).root == w("ab")


def test_elementary_subgroup_equality_criterion():
    # equal iff the single-word generators agree up to inversion
    def same_elementary_subgroup(w1, w2):
        g1, g2 = root(w1).root, root(w2).root
        return g1 == g2 or g1 == g2.inverse()

    assert same_elementary_subgroup(w("a^2"), w("a^-3"))
    assert same_elementary_subgroup(w("Bab"), w("Ba^2b"))
    assert not same_elementary_subgroup(w("a"), w("b"))
    assert not same_elementary_subgroup(w("a"), w("Bab"))


# -- special tuples --------------------------------------------------------------------

def test_special_tuple_examples():
    assert is_special_tuple([w("a"), w("b"), w("ab")]) is True
    assert is_special_tuple([w("a^2"), w("b")]) is False  # a proper power
    assert is_special_tuple([w("a"), w("Bab")]) is False  # a commensurable pair


def test_special_tuple_rejects_identity():
    with pytest.raises(WordError):
        is_special_tuple([w("a"), w("")])


def audit_root(word):
    """The kernel's root, read back as a word."""
    r, e = audit.root(tuple(word.letters()))
    return Word.from_letters(word.alphabet, r), e


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 5)])
def test_root_matches_divisor_scan(rank, max_len):
    for word in reduced_words(Alphabet(rank), max_len):
        if word.is_identity():
            continue
        got = root(word)
        assert got == audit_root(word)
        assert Word(word.alphabet, got.root.syllables) == got.root


@given(st.integers(1, 3), syllable_lists, syllable_lists, st.integers(1, 5))
def test_root_on_syllables_matches_the_letter_oracle(rank, conjugator, base, k):
    # t r^k t^-1 reaches merged end syllables, one-syllable cores and powers
    alph = Alphabet(rank)
    t = Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in conjugator])
    r = Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in base])
    word = t * r ** k * t.inverse()
    if word.is_identity():
        return
    got = root(word)
    assert got == audit_root(word)
    assert all(type(syl) is tuple for syl in got.root.syllables)


def test_root_never_spells_the_letters():
    alph = Alphabet(3)
    huge = 10**12
    assert root(w(f"a^{huge}", alph)) == (w("a", alph), huge)
    assert root(w(f"cA^{huge}C", alph)) == (w("cAC", alph), huge)
    # (a^huge b)^3 with its last a^huge merged round the cycle
    body = Word.from_syllables(alph, [(1, 1), (0, huge), (1, 1), (0, huge), (1, 1), (0, huge)])
    assert root(body) == (Word.from_syllables(alph, [(1, 1), (0, huge)]), 3)
    # merged ends that break the period: a^huge b a^huge b a^(huge + 1)
    lopsided = Word.from_syllables(alph, [(0, huge), (1, 1), (0, huge), (1, 1), (0, huge + 1)])
    assert root(lopsided) == (lopsided, 1)
