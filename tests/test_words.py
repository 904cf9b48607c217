import collections
import itertools
import pickle
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import audit
from wordstream import reduced_words
from vclab import words
from vclab.oracles import root
from vclab.words import (
    POWER_BUDGET,
    Alphabet,
    BudgetExceeded,
    Word,
    WordError,
    count_reduced,
    enumerate_reduced,
    format_word,
    letter_order,
    parse_word,
    reduced_count_exceeds,
    substitute,
)

F2 = Alphabet(2)
F3 = Alphabet(3)


def w(text, alph=F2):
    return parse_word(text, alph)


def random_word(rng, alph, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        gen = rng.randrange(alph.rank)
        sign = rng.choice((1, -1))
        letters.append((gen, sign))
    return Word.from_syllables(alph, letters)


# -- parsing and formatting -------------------------------------------------

def test_parse_compact():
    word = w("aB")
    assert word.syllables == ((0, 1), (1, -1))


def test_parse_verbose_exponents():
    assert w("a^2 b^-3").syllables == ((0, 2), (1, -3))


def test_parse_empty_is_identity():
    assert w("").is_identity()


def test_parse_g_tokens():
    big = Alphabet(30)
    word = parse_word("g0 g27^-2", big)
    assert word.syllables == ((0, 1), (27, -2))


def test_parse_rejects_out_of_range():
    with pytest.raises(WordError):
        parse_word("c", F2)
    with pytest.raises(WordError):
        parse_word("g5", F2)


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("a^", F2)
    with pytest.raises(WordError):
        parse_word("?", F2)


def test_parse_checks_indices_before_cancelling():
    # z and Z would cancel, but z is generator 25
    with pytest.raises(WordError, match="generator index 25 out of range for rank 2"):
        parse_word("zZ", F2)


def test_from_syllables_checks_indices_before_merging():
    with pytest.raises(WordError, match="generator index 5 out of range for rank 2"):
        Word.from_syllables(F2, [(5, 1), (5, -1)])
    with pytest.raises(WordError, match="generator index -1 out of range for rank 2"):
        Word.from_syllables(F2, [(-1, 2)])


@pytest.mark.parametrize("text,message", [
    ("a^\u00b2", "malformed exponent at position 2 in 'a^\u00b2'"),
    ("g\u00b2", "unexpected character '\u00b2' at position 1 in 'g\u00b2'"),
], ids=["exponent", "index"])
def test_non_ascii_digits_are_malformed(text, message):
    # a superscript two passes str.isdigit but int() rejects it
    with pytest.raises(WordError) as info:
        parse_word(text, Alphabet(7))
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("a^\u0663", "malformed exponent at position 2 in 'a^\u0663'"),
    ("a^-\u0663", "malformed exponent at position 2 in 'a^-\u0663'"),
    ("g\u0663", "unexpected character '\u0663' at position 1 in 'g\u0663'"),
    ("g1\u0663", "unexpected character '\u0663' at position 2 in 'g1\u0663'"),
], ids=["exponent", "signed-exponent", "index", "index-tail"])
def test_decimal_digits_outside_ascii_are_malformed(text, message):
    # an Arabic-Indic three passes str.isdecimal, and int() reads it as 3
    with pytest.raises(WordError) as info:
        parse_word(text, Alphabet(7))
    assert str(info.value) == message


@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=30))
def test_roundtrip_parse_format(letters):
    word = Word.from_syllables(F3, letters)
    assert parse_word(format_word(word), F3) == word


def test_roundtrip_large_rank():
    big = Alphabet(30)
    word = Word.from_syllables(big, [(28, 1), (2, -1), (28, 1)])
    assert parse_word(format_word(word), big) == word


# -- reduction ---------------------------------------------------------------

def test_reduce_cancellation():
    assert Word.from_syllables(F2, [(0, 1), (1, 1), (1, -1), (0, 1)]) == w("a^2")


def test_reduce_to_identity():
    assert Word.from_syllables(F2, [(0, 1), (0, -1)]).is_identity()


def test_reduce_merges_syllables():
    assert Word.from_syllables(F2, [(0, 2), (0, 3)]) == w("a^5")


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=25))
def test_reduce_idempotent(items):
    word = Word.from_syllables(F2, items)
    assert Word.from_syllables(F2, list(word.syllables)) == word
    # the merge output passes the checking constructor it no longer runs
    assert Word(F2, word.syllables) == word


# -- group operations ---------------------------------------------------------

def test_multiply_examples():
    assert w("ab") * w("Ba") == w("a^2")


def test_invert_example():
    assert w("a^2b^3").inverse() == w("b^-3a^-2")


def test_power_examples():
    assert w("ab") ** 3 == w("ababab")
    assert w("ab") ** 0 == w("")
    assert w("aba") ** 2 == w("aba^2ba")


def test_mixed_alphabet_rejected():
    with pytest.raises(WordError):
        w("a") * parse_word("a", F3)


def test_associativity_and_inverses_random():
    rng = random.Random(7)
    for _ in range(300):
        u, v, x = (random_word(rng, F2, 12) for _ in range(3))
        assert (u * v) * x == u * (v * x)
        assert (u * u.inverse()).is_identity()


def test_power_length_bound():
    rng = random.Random(11)
    for _ in range(200):
        word = random_word(rng, F2, 8)
        k = rng.randint(-6, 6)
        assert len(word ** k) <= abs(k) * len(word)
        core, _ = word.cyclic_reduce()
        assert len(core ** k) == abs(k) * len(core)


def test_power_agrees_with_repeated_multiplication():
    rng = random.Random(13)
    for _ in range(200):
        word = random_word(rng, F3, 8)
        k = rng.randint(0, 5)
        slow = F3.identity()
        for _ in range(k):
            slow = slow * word
        assert word ** k == slow
        assert word ** (-k) == slow.inverse()


# -- the kernel against a letter-level oracle ------------------------------------
#
# The oracle is ``audit``: signed letters +-(gen+1) with a cancellation stack,
# sharing no code with the syllable kernel.

syllable_words = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=12).map(
    lambda items: Word.from_syllables(F3, items)
)


def letters_of(word):
    return tuple(word.letters())


def exact(syllables):
    """Whether a syllable tuple and every syllable in it are exact tuples."""
    return type(syllables) is tuple and all(type(syl) is tuple for syl in syllables)


def plain(word):
    """Whether every syllable is an exact tuple, the one type the kernel builds."""
    return exact(word.syllables)


def checked(word):
    """The letters of a kernel output that also passes the public validation."""
    assert Word(word.alphabet, word.syllables) == word
    assert has_its_length(word)
    assert plain(word)
    return letters_of(word)


@given(syllable_words, syllable_words)
def test_product_matches_letter_reduction(u, v):
    assert checked(u * v) == audit.mul(letters_of(u), letters_of(v))
    # a factor that cancels deep into the other one
    assert checked(u * (u.inverse() * v)) == letters_of(v)


@given(syllable_words, st.integers(-5, 5))
def test_power_matches_letter_reduction(u, k):
    assert checked(u ** k) == audit.power(letters_of(u), k)


@given(syllable_words)
def test_inverse_matches_letter_reduction(u):
    assert checked(u.inverse()) == audit.inverse(letters_of(u))


@given(syllable_words, syllable_words)
def test_cyclic_reduce_matches_letter_trimming(u, g):
    word = g * u * g.inverse()
    t, c = audit.cyclic_core(letters_of(word))
    core, conj = word.cyclic_reduce()
    assert checked(core) == c
    assert checked(conj) == t


# -- the stored letter length ---------------------------------------------------


def has_its_length(word):
    return len(word) == word.length == sum(abs(exp) for _, exp in word.syllables)


# long syllables too, so seams cancel whole syllables and merge partial ones
long_syllable_words = st.lists(st.tuples(st.integers(0, 2), st.integers(-40, 40)), max_size=10).map(
    lambda items: Word.from_syllables(F3, items)
)
any_words = st.one_of(syllable_words, long_syllable_words)


@given(any_words, any_words)
def test_product_carries_its_length(u, v):
    assert has_its_length(u * v)
    assert has_its_length(u * (u.inverse() * v))
    assert has_its_length(u * u.inverse())


@given(any_words, st.integers(-5, 5))
def test_power_carries_its_length(u, k):
    assert has_its_length(u ** k)


@given(any_words, any_words)
def test_inverse_and_cyclic_reduce_carry_their_lengths(u, g):
    assert has_its_length(u.inverse())
    core, conj = (g * u * g.inverse()).cyclic_reduce()
    assert has_its_length(core) and has_its_length(conj)


@given(any_words, st.integers(1, 6))
def test_root_carries_its_length(u, k):
    if u:
        got = root(u ** k)
        assert has_its_length(got.root)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(-5, 5)), max_size=15))
def test_constructors_carry_their_lengths(items):
    word = Word.from_syllables(F3, items)
    assert has_its_length(word)
    assert has_its_length(Word.from_letters(F3, word.letters()))
    assert has_its_length(parse_word(format_word(word), F3))
    assert has_its_length(Word(F3, word.syllables))
    assert plain(word) and plain(Word.from_letters(F3, word.letters())) and plain(parse_word(format_word(word), F3))


def level_of(rank, i):
    """The letter length of word i of ``enumerate_reduced``'s order."""
    length = 0
    while count_reduced(rank, length) <= i:
        length += 1
    return length


@pytest.mark.parametrize("rank, max_len", [(1, 6), (2, 5), (3, 3)])
def test_enumeration_carries_lengths(rank, max_len):
    # the stream holds exact syllable tuples, reduced as yielded, whose
    # letter length is the one a consumer reads off the position
    alph = Alphabet(rank)
    for i, syllables in enumerate(enumerate_reduced(alph, max_len)):
        word = Word._reduced(alph, syllables, level_of(rank, i))
        assert exact(syllables) and has_its_length(word) and Word(alph, syllables) == word
    for first in [(gen, sign) for gen in range(rank) for sign in (1, -1)]:
        assert all(has_its_length(word) for word in reduced_words(alph, max_len, first))
        # a named pair as the first letter starts exact syllables too
        for syllables in enumerate_reduced(alph, max_len, Pair(*first)):
            assert exact(syllables) and Word(alph, syllables).syllables == syllables


@given(any_words)
def test_pickle_and_replace_keep_the_length(word):
    for copy in (pickle.loads(pickle.dumps(word)), Word(word.alphabet, word.syllables)):
        assert copy == word and hash(copy) == hash(word)
        assert has_its_length(copy)


@given(any_words, any_words)
def test_equal_words_from_different_histories_are_equal(u, v):
    built = [
        u * v,
        Word.from_syllables(F3, list(u.syllables) + list(v.syllables)),
        Word.from_letters(F3, list(u.letters()) + list(v.letters())),
        parse_word(format_word(u) + format_word(v), F3),
        (u * v * u) * u.inverse(),
        Word(F3, (u * v).syllables),
    ]
    for word in built:
        assert word == built[0] and hash(word) == hash(built[0])
        assert len(word) == len(built[0])
    assert repr(built[0]) == repr(built[-1])


def test_length_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Word(F2, (), 0)
    with pytest.raises(TypeError):
        Word(F2, w("ab").syllables, length=5)


# -- the power budget -------------------------------------------------------------


def test_compound_power_within_the_budget_is_built():
    assert len(w("ab") ** (POWER_BUDGET // 2)) == POWER_BUDGET
    assert len(w("ab") ** -(POWER_BUDGET // 2)) == POWER_BUDGET


@pytest.mark.parametrize("text, k", [
    ("ab", POWER_BUDGET // 2 + 1),
    ("ab", -(POWER_BUDGET // 2 + 1)),
    ("ba^3BA^2", POWER_BUDGET // 3),  # cyclically reduced, 7 letters
    (f"a^{POWER_BUDGET}b", 2),
])
def test_compound_power_past_the_budget_raises(text, k):
    base = w(text) if k > 0 else w(text).inverse()
    core, _ = base.cyclic_reduce()
    letters = abs(k) * len(core)
    with pytest.raises(BudgetExceeded, match=f"^power of {letters} letters exceeds the budget of {POWER_BUDGET} letters$"):
        w(text) ** k
    # the budget belongs to ``**``: the kernel helper builds the same power
    assert len(words._core_power(core, core.alphabet.identity(), abs(k))) == letters


# cyclically reduced cores at ranks 1-3: the core of any nonidentity word
cores = st.integers(1, 3).flatmap(
    lambda rank: st.lists(st.tuples(st.integers(0, rank - 1), st.integers(-4, 4)), max_size=8).map(
        lambda items: Word.from_syllables(Alphabet(rank), items).cyclic_reduce()[0]
    )
).filter(bool)


@given(cores, st.integers(1, 6))
@example(w("aba"), 3)
@example(w("a^2ba^3"), 4)
@example(w("A^2bA"), 2)
@example(w("abAB"), 5)
@example(parse_word("abca", F3), 6)
@example(w("a^3"), 1)
def test_core_power_spells_the_core_k_times(core, k):
    power = words._core_power(core, core.alphabet.identity(), k)
    assert checked(power) == letters_of(core) * k
    assert power == Word.from_letters(core.alphabet, letters_of(core) * k)
    assert power.length == k * core.length


@pytest.mark.parametrize("alph, max_len", [(F2, 6), (F3, 4)])
def test_prefix_is_the_first_n_letters(alph, max_len):
    for word in reduced_words(alph, max_len):
        letters = letters_of(word)
        for n in range(len(word) + 1):
            cut = word.prefix(n)
            assert checked(cut) == letters[:n]
            assert cut == Word.from_letters(alph, letters[:n])
            assert cut.length == n


def test_prefix_of_long_syllables():
    word = w("a^1000000000000b^3")
    big = 10**12
    for n, text in [(0, ""), (1, "a"), (big - 1, f"a^{big - 1}"), (big, f"a^{big}"), (big + 2, f"a^{big}b^2")]:
        cut = word.prefix(n)
        # re-validated without spelling out its letters
        assert Word(F2, cut.syllables) == cut and plain(cut) and has_its_length(cut)
        assert cut == w(text) and cut.length == n
    assert word.prefix(big + 3) is word
    for n in (-1, big + 4):
        with pytest.raises(WordError, match=f"^prefix of {n} letters out of range for a word of {big + 3} letters$"):
            word.prefix(n)


def test_one_syllable_powers_are_free():
    assert (w("a") ** 10**12).syllables == ((0, 10**12),)
    power = words._core_power(w("A^3"), F2.identity(), 10**12)
    assert power.syllables == ((0, -3 * 10**12),) and power.length == 3 * 10**12
    # a conjugated one-syllable core is free too
    assert w("ba^5B") ** -10**12 == w(f"ba^{-5 * 10**12}B")
    assert len(w(f"a^{POWER_BUDGET}") ** 2) == 2 * POWER_BUDGET


def test_checking_constructor_rejects_bad_syllables():
    with pytest.raises(WordError):
        Word(F2, ((0, 0),))
    with pytest.raises(WordError):
        Word(F2, ((2, 1),))
    with pytest.raises(WordError):
        Word(F2, ((-1, 1),))
    with pytest.raises(WordError):
        Word(F2, ((0, 1), (0, 2)))
    for syllable in [0, (0,), (0, 1, 2), [], "ab", (0, 1.5), ("a", 1), {0: 1, 1: 2}, None]:
        with pytest.raises(WordError, match="is not a \\(generator, exponent\\) pair of integers"):
            Word(F2, ((1, 1), syllable))


Pair = collections.namedtuple("Pair", "gen exp")


@given(any_words)
def test_checking_constructor_stores_plain_pairs(word):
    # lists and named pairs give the parsed word, with its hash and length
    for syllables in ([list(syl) for syl in word.syllables], [Pair(*syl) for syl in word.syllables], iter(word.syllables)):
        built = Word(word.alphabet, syllables)
        assert built == word and hash(built) == hash(word)
        assert plain(built) and has_its_length(built)
        rebuilt = Word(built.alphabet, built.syllables)
        assert rebuilt == word and plain(rebuilt)


def test_from_letters_reduces_and_round_trips():
    assert Word.from_letters(F2, [1, -2, 2, 1]) == w("a^2")
    word = w("a^2Bab^3")
    assert Word.from_letters(F2, word.letters()) == word


# -- conjugation and cyclic reduction ----------------------------------------

def test_conjugate_examples():
    assert w("b").conjugate(w("a")) == w("Aba")
    assert w("a").conjugate(w("a")) == w("a")
    assert w("a^2").conjugate(w("B")) == w("ba^2B")


def test_cyclic_reduce_examples():
    core, u = w("Bab").cyclic_reduce()
    assert (core, u) == (w("a"), w("B"))
    core, u = w("ab").cyclic_reduce()
    assert (core, u) == (w("ab"), w(""))
    core, u = w("abA").cyclic_reduce()
    assert (core, u) == (w("b"), w("a"))


def test_cyclic_reduce_reassembles():
    rng = random.Random(3)
    for _ in range(400):
        word = random_word(rng, F2, 14)
        core, u = word.cyclic_reduce()
        assert len(core) <= len(word)
        assert u * core * u.inverse() == word
        # the core is genuinely cyclically reduced
        recore, _ = core.cyclic_reduce()
        assert recore == core


def test_cyclic_core_is_shortest_conjugate():
    rng = random.Random(5)
    for _ in range(50):
        word = random_word(rng, F2, 8)
        core, _ = word.cyclic_reduce()
        for conj in reduced_words(F2, 3):
            assert len(word.conjugate(conj)) >= len(core)


# -- exponent sums -------------------------------------------------------------

def test_exponent_sum_examples():
    assert w("a^2b^3").exponent_sums() == [2, 3]
    assert w("abA").exponent_sums() == [0, 1]
    assert w("").exponent_sums() == [0, 0]
    assert w("c^-1000000000000a", F3).exponent_sums() == [1, 0, -10**12]


def test_exponent_sum_is_homomorphism():
    # sigma(w) counts letters, and sigma(uv) = sigma(u) + sigma(v)
    rng = random.Random(17)
    for _ in range(200):
        u, v = random_word(rng, F3, 10), random_word(rng, F3, 10)
        sums = u.exponent_sums()
        counts = collections.Counter(u.letters())
        assert sums == [counts[gen + 1] - counts[-gen - 1] for gen in range(3)]
        assert (u * v).exponent_sums() == [x + y for x, y in zip(sums, v.exponent_sums())]


# -- substitution ---------------------------------------------------------------

def test_substitute_basic():
    word = parse_word("g0 g1^-1", F2)
    assert substitute(word, [w("ab"), w("b")]) == w("abB") * w("")  # abb^-1 = a
    assert substitute(word, [w("ab"), w("b")]) == w("a")


def test_substitute_is_homomorphism():
    rng = random.Random(23)
    imgs = [w("ab"), w("Ba")]
    for _ in range(100):
        u, v = random_word(rng, F2, 8), random_word(rng, F2, 8)
        assert substitute(u * v, imgs) == substitute(u, imgs) * substitute(v, imgs)


# -- enumeration -----------------------------------------------------------------

def test_enumeration_counts_examples():
    assert len(list(enumerate_reduced(F2, 1))) == 5
    assert len(list(enumerate_reduced(F2, 2))) == 17
    assert len(list(enumerate_reduced(Alphabet(1), 3))) == 7


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 4, 5, 6])
def test_enumeration_matches_closed_form(rank, max_len):
    words = reduced_words(Alphabet(rank), max_len)
    assert len(words) == count_reduced(rank, max_len)
    assert len(set(words)) == len(words)
    assert all(len(word) <= max_len for word in words)


def test_count_is_the_sum_over_lengths():
    for rank in range(1, 5):
        for max_len in range(-1, 40):
            assert count_reduced(rank, max_len) == 1 + sum(2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, max_len + 1))


def test_count_exceeds_the_cap_exactly_as_the_count_does(monkeypatch):
    for rank in range(1, 5):
        for max_len in range(12):
            total = count_reduced(rank, max_len)
            for cap in {0, 1, total - 1, total, total + 1}:
                assert reduced_count_exceeds(rank, max_len, cap) == (total > cap)
    # a huge length is counted at the clamp, never at its own size
    lengths = []
    monkeypatch.setattr(words, "count_reduced", lambda rank, max_len: lengths.append(max_len) or count_reduced(rank, max_len))
    assert reduced_count_exceeds(2, 10**9, 200_000) and reduced_count_exceeds(1, 10**9, 200_000)
    assert lengths == [18, 200_000]


@pytest.mark.parametrize("rank, max_len", [(1, 5), (2, 4), (3, 3)])
def test_first_letter_shards_split_the_enumeration(rank, max_len):
    alph = Alphabet(rank)
    words = reduced_words(alph, max_len)
    for first in [(gen, sign) for gen in range(rank) for sign in (1, -1)]:
        shard = reduced_words(alph, max_len, first)
        assert shard == [word for word in words if word and word.syllables[0][0] == first[0]
                         and (word.syllables[0][1] > 0) == (first[1] > 0)]
        assert list(enumerate_reduced(alph, 0, first)) == []


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_each_level_of_a_shard_extends_the_level_before_in_letter_order(rank):
    # the abelian prune of solve-eq walks this order without reading a word:
    # level 1 is the shard letter, and level L lists, for each word of level
    # L - 1 in turn, its extensions by every letter but the inverse of its
    # last one, in letter order
    alph = Alphabet(rank)
    letters = [(gen, sign) for gen in range(rank) for sign in (1, -1)]
    for first in letters:
        levels = [[[first]]]
        for _ in range(4):
            levels.append([word + [letter] for word in levels[-1] for letter in letters if letter != (word[-1][0], -word[-1][1])])
        for max_len in range(6):
            expected = [Word.from_syllables(alph, word) for level in levels[:max_len] for word in level]
            assert reduced_words(alph, max_len, first) == expected


def test_first_letter_must_be_a_letter():
    for first in [(0, 2), (0, 0), (2, 1), (-1, 1)]:
        with pytest.raises(WordError, match="first must be a letter"):
            list(enumerate_reduced(F2, 3, first))


def test_enumeration_shortest_first():
    lengths = [len(word) for word in reduced_words(F2, 4)]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("rank, max_len", [(1, 7), (2, 6), (3, 4)])
def test_enumeration_matches_letter_list_construction(rank, max_len):
    alph = Alphabet(rank)
    words = reduced_words(alph, max_len)
    assert [letters_of(word) for word in words] == audit.words(rank, max_len)
    assert [word.syllables for word in words] == list(enumerate_reduced(alph, max_len))


def test_letter_order_is_the_enumeration_order_and_lazy():
    assert list(letter_order(2)) == [(0, 1), (0, -1), (1, 1), (1, -1)]
    assert list(enumerate_reduced(F3, 1)) == [()] + [(letter,) for letter in letter_order(3)]
    # a rank far past every budget: no letter is built before it is read
    huge = Alphabet(10**18)
    assert list(itertools.islice(letter_order(huge.rank), 3)) == [(0, 1), (0, -1), (1, 1)]
    assert reduced_words(huge, 1, (1, -1)) == [Word(huge, ((1, -1),))]


# -- shortlex codec ---------------------------------------------------------------


@pytest.mark.parametrize("rank, max_len", [(1, 50), (2, 8), (3, 5)])
def test_unrank_is_the_enumeration_and_rank_inverts_it(rank, max_len):
    alph = Alphabet(rank)
    listed = reduced_words(alph, max_len)
    unranked = [words.unrank(alph, i) for i in range(len(listed))]
    assert unranked == listed
    # each word passes the checking constructor with the same length
    assert all(len(Word(alph, w.syllables)) == len(w) for w in unranked)
    assert [words.rank(w) for w in unranked] == list(range(len(listed)))


@pytest.mark.parametrize("rank, max_len", [(1, 9), (2, 6), (3, 4)])
def test_every_shard_item_is_the_syllables_of_its_unranked_word(rank, max_len):
    # level L of shard c is the block of B^(L-1) words of length L that
    # starts at count_reduced(rank, L - 1) + c B^(L-1), B = 2 rank - 1
    alph = Alphabet(rank)
    branch = 2 * rank - 1
    for c, first in enumerate(letter_order(rank)):
        starts = [count_reduced(rank, length - 1) + c * branch ** (length - 1) for length in range(1, max_len + 1)]
        indices = [start + j for length, start in enumerate(starts, 1) for j in range(branch ** (length - 1))]
        assert list(enumerate_reduced(alph, max_len, first)) == [words.unrank(alph, i).syllables for i in indices]
    assert list(enumerate_reduced(alph, max_len)) == [words.unrank(alph, i).syllables for i in range(count_reduced(rank, max_len))]


def test_rank_reads_a_syllable_at_a_time_as_the_letters_do():
    rng = random.Random(5)
    for rank in (2, 3, 4):
        alph = Alphabet(rank)
        for _ in range(300):
            syllables = [(rng.randrange(rank), rng.choice((1, -1)) * rng.randint(1, 12)) for _ in range(rng.randint(0, 6))]
            w = Word.from_syllables(alph, syllables)
            assert words.rank(w) == audit.index(letters_of(w), rank)
            assert words.unrank(alph, words.rank(w)) == w


def test_rank_of_one_syllable_words_in_closed_form():
    f1, n = Alphabet(1), 10**12
    # rank 1 has no digit to repeat: a^n and a^-n are 2n - 1 and 2n
    assert words.rank(Word(f1, [(0, n)])) == 2 * n - 1
    assert words.rank(Word(f1, [(0, -n)])) == 2 * n
    assert words.unrank(f1, 2 * n) == Word(f1, [(0, -n)])
    # at rank 2, a^50 is the first word of 50 letters and A^50 the first
    # after the 3^49 that begin with a
    assert words.rank(parse_word("a^50", F2)) == count_reduced(2, 49)
    assert words.rank(parse_word("A^50", F2)) == count_reduced(2, 49) + 3**49
    assert words.unrank(F2, count_reduced(2, 49) + 3**49) == parse_word("A^50", F2)


def test_unrank_refuses_a_negative_index():
    with pytest.raises(WordError, match="word index must be >= 0, got -1"):
        words.unrank(F2, -1)
