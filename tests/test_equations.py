import json
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import audit
from vclab import cli, equations
from vclab.words import Alphabet, BudgetExceeded, Word, WordError, count_reduced, enumerate_reduced, parse_word
from vclab.equations import (
    Classification,
    EquationInstance,
    SolutionPair,
    Tag,
    brute_force_solutions,
    classify_solution,
    conjugate_family,
    is_solution,
    power_exponent_of,
    verify_perfect,
    _abelian_survivors,
    _class2_survivors,
    _root_length,
)
from vclab.oracles import is_conjugate, root

F2 = Alphabet(2)


def w(text):
    return parse_word(text, F2)


def inst23():
    return EquationInstance(w("a"), w("b"), 2, 3)


# -- construction and evaluation -----------------------------------------------

def test_instance_caches_rhs():
    inst = inst23()
    assert inst.g == w("a^2b^3")


def test_instance_rejects_identity_coefficients():
    with pytest.raises(WordError):
        EquationInstance(w(""), w("b"), 2, 3)


def test_is_solution_examples():
    inst = inst23()
    assert is_solution(inst, SolutionPair(w("a"), w("b")))
    assert is_solution(inst, SolutionPair(inst.g.inverse(), inst.g))
    assert not is_solution(inst, SolutionPair(w("b"), w("a")))


def test_conjugate_family_examples():
    inst = inst23()
    assert conjugate_family(inst, 0) == SolutionPair(w("a"), w("b"))
    one = conjugate_family(inst, 1)
    assert one == SolutionPair(inst.a.conjugate(inst.g), inst.b.conjugate(inst.g))
    assert is_solution(inst, one)
    assert is_solution(inst, conjugate_family(inst, -1))


def test_conjugate_family_solves_for_special_instances():
    rng = random.Random(5)
    words = [word for word in enumerate_reduced(F2, 3) if not word.is_identity()]
    tried = 0
    while tried < 40:
        a, b = rng.choice(words), rng.choice(words)
        try:
            inst = EquationInstance(a, b, rng.randint(1, 4), rng.randint(1, 4))
        except WordError:
            continue
        tried += 1
        for alpha in range(-5, 6):
            assert is_solution(inst, conjugate_family(inst, alpha))


# -- brute force ------------------------------------------------------------------

def test_brute_force_bound_one():
    assert brute_force_solutions(inst23(), 1) == [SolutionPair(w("a"), w("b"))]


def test_brute_force_bound_zero_empty():
    assert brute_force_solutions(inst23(), 0) == []


def test_brute_force_finds_bezout_solution_at_five():
    inst = inst23()
    sols = brute_force_solutions(inst, 5)
    assert SolutionPair(inst.g.inverse(), inst.g) in sols
    for pair in sols:
        assert is_solution(inst, pair)


@pytest.mark.parametrize("n,m,bound", [(1, 1, 2), (2, 3, 2), (2, 2, 2)])
def test_brute_force_complete_against_letter_oracle(n, m, bound):
    inst = EquationInstance(w("a"), w("b"), n, m)
    target = tuple(inst.g.letters())
    expected = set()
    for x in audit.words(2, bound):
        for y in audit.words(2, bound):
            if audit.mul(audit.power(x, n), audit.power(y, m)) == target:
                expected.add((Word.from_letters(F2, x), Word.from_letters(F2, y)))
    got = {(p.x, p.y) for p in brute_force_solutions(inst, bound)}
    assert got == expected


def test_brute_force_budget_cap():
    with pytest.raises(BudgetExceeded):
        brute_force_solutions(inst23(), 6, max_candidates=100)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_budget_cap_is_exactly_the_candidate_count(rank):
    alph = Alphabet(rank)
    inst = EquationInstance(alph.generator(0), alph.generator(rank - 1), 2, 3)
    for bound in range(7 if rank < 3 else 5):
        total = count_reduced(rank, bound)
        brute_force_solutions(inst, bound, max_candidates=total)
        with pytest.raises(BudgetExceeded, match=f"^x-candidates of length <= {bound} exceed cap {total - 1}$"):
            brute_force_solutions(inst, bound, max_candidates=total - 1)
    for cap in (0, 5, 10**9):
        with pytest.raises(BudgetExceeded):
            brute_force_solutions(inst, 10**9, max_candidates=cap)


def test_candidate_cap_bounds_every_search(monkeypatch):
    # CANDIDATE_CAP applies with or without max_candidates, whichever is less
    inst = inst23()
    total = count_reduced(2, 4)
    monkeypatch.setattr(equations, "CANDIDATE_CAP", total)
    assert brute_force_solutions(inst, 4) == brute_force_solutions(inst, 4, max_candidates=10**9)
    monkeypatch.setattr(equations, "CANDIDATE_CAP", total - 1)
    for cap in (None, total, 10**9):
        with pytest.raises(BudgetExceeded, match=f"^x-candidates of length <= 4 exceed cap {total - 1}$"):
            brute_force_solutions(inst, 4, max_candidates=cap)


def test_brute_force_caps_workers(monkeypatch):
    import concurrent.futures
    import os

    pools = []
    inst = inst23()
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]

    class InlinePool:
        """Records the pool size and the shard count, and maps in process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            shards = list(shards)
            pools.append((self.max_workers, len(shards)))
            # a task is the instance, with its g, the bound and one first
            # letter: no candidate list travels to a worker, and no worker
            # rebuilds g
            assert fn.args == (inst, 3) and not fn.keywords
            sent = pickle.loads(pickle.dumps(fn.args[0]))
            assert sent == inst and sent.g == inst.g
            assert shards == letters
            return [fn(first) for first in shards]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    expected = brute_force_solutions(inst, 3)
    assert pools == []
    assert brute_force_solutions(inst, 3, jobs=10**6) == expected
    assert brute_force_solutions(inst, 3, jobs=3) == expected
    # bound 0 has no shard, and one worker needs no pool
    assert brute_force_solutions(inst, 0, jobs=8) == []
    assert brute_force_solutions(inst, 3, jobs=1) == expected
    assert pools == [(4, 4), (3, 4)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert brute_force_solutions(inst, 3, jobs=8) == expected
    assert pools == [(4, 4), (3, 4)]


class InlinePool:
    """Stands in for ProcessPoolExecutor and maps in process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, shards):
        return [fn(first) for first in shards]


def passes_abelian_test(inst, x):
    """n*sigma_i(x) = sigma_i(g) modulo m for every generator i."""
    return all((sg - inst.n * sx) % inst.m == 0 for sg, sx in zip(inst.g.exponent_sums(), x.exponent_sums()))


def unpruned_solutions(inst, bound):
    """A root for every candidate x, nothing skipped, in shortlex order of x."""
    found = []
    for x in enumerate_reduced(inst.alphabet, bound):
        rem = (x ** inst.n).inverse() * inst.g
        if rem.is_identity():
            y = inst.alphabet.identity()
        else:
            r, e = root(rem)
            if e % inst.m:
                continue
            y = r ** (e // inst.m)
        if len(y) <= bound:
            found.append(SolutionPair(x, y))
    return found


@pytest.mark.parametrize("a, b, rank", [("a", "b", 2), ("ab", "aB", 2), ("a", "bc", 3)])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 3), (3, 2), (4, 6)])
def test_brute_force_equals_unpruned_search(a, b, rank, n, m):
    alph = Alphabet(rank)
    inst = EquationInstance(parse_word(a, alph), parse_word(b, alph), n, m)
    got = brute_force_solutions(inst, 5)
    assert got == unpruned_solutions(inst, 5)
    assert all(passes_abelian_test(inst, p.x) and is_solution(inst, p) for p in got)


def shard_letters(alph):
    return [(gen, sign) for gen in range(alph.rank) for sign in (1, -1)]


def check_abelian_filter_by_shard(inst, max_bound):
    """The walk of each shard, with its first letter, keeps exactly the
    survivors of the letter-free abelian test, at every bound up to max_bound."""
    alph = inst.alphabet
    for bound in range(1, max_bound + 1):
        for first in shard_letters(alph):
            xs = list(enumerate_reduced(alph, bound, first))
            got = list(_abelian_survivors(xs, inst.g, inst.n, inst.m, bound, first))
            assert got == [x for x in xs if passes_abelian_test(inst, x)]


@pytest.mark.parametrize("a, b, rank", [("a", "a^2", 1), ("a", "b", 2), ("aB", "b^2", 2), ("a", "bc", 3), ("ab", "c", 3)])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 3), (4, 6), (5, 1)])
def test_abelian_filter_keeps_exactly_the_survivors(a, b, rank, n, m):
    alph = Alphabet(rank)
    check_abelian_filter_by_shard(EquationInstance(parse_word(a, alph), parse_word(b, alph), n, m), 5)


@pytest.mark.parametrize("a, b, rank", [("a", "a^2", 1), ("a", "b", 2), ("aB", "b^2", 2), ("ab", "c", 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_filter_keeps_exactly_the_survivors_of_a_large_modulus(a, b, rank, n):
    # m = 1000003 > 2 * bound + 1, so no exponent sum of x wraps modulo m
    alph = Alphabet(rank)
    check_abelian_filter_by_shard(EquationInstance(parse_word(a, alph), parse_word(b, alph), n, 1000003), 5)


@pytest.mark.parametrize("a, b, rank, bound", [("a", "a^2", 1, 7), ("a", "b", 2, 6), ("aB", "b^2", 2, 6), ("ab", "c", 3, 4)])
@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (4, 6), (2, 1000003)])
def test_abelian_filter_reads_positions_only(a, b, rank, bound, n, m):
    # the walk marks positions of the shard's order: given the indices in
    # place of the words, it keeps exactly the survivors' indices
    alph = Alphabet(rank)
    inst = EquationInstance(parse_word(a, alph), parse_word(b, alph), n, m)
    for first in shard_letters(alph):
        xs = list(enumerate_reduced(alph, bound, first))
        got = list(_abelian_survivors(range(len(xs)), inst.g, n, m, bound, first))
        assert got == [i for i, x in enumerate(xs) if passes_abelian_test(inst, x)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_brute_force_enumerates_each_x_once(monkeypatch, jobs):
    import concurrent.futures
    import vclab.equations

    seen = []

    def recording(alph, max_len, first=None):
        for x in enumerate_reduced(alph, max_len, first):
            seen.append(x)
            yield x

    # the pool maps in process, so the recording enumerator sees every shard
    monkeypatch.setattr(vclab.equations, "enumerate_reduced", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert brute_force_solutions(inst23(), 4, jobs=jobs) == unpruned_solutions(inst23(), 4)
    # x = 1, then the shards in letter order: a stable sort by length gives
    # the shortlex order, as brute_force_solutions relies on
    assert sorted(seen, key=len) == list(enumerate_reduced(F2, 4))
    assert len(seen) == count_reduced(2, 4) == 161


# -- the class-2 quotient Q of exponent m, as explicit pair products -------------
# An element is (s, c): s holds r residues mod m, and c the residues mod m'
# (m for odd m, m/2 for even m) of the pairs i < j in the order of q_pairs.

def q_pairs(rank):
    return [(i, j) for i in range(rank) for j in range(i + 1, rank)]


def q_half(m):
    return m if m % 2 else m // 2


def q_mul(u, v, m):
    """(s, c)(s', c') = (s + s', c + c' + beta(s, s')), beta(s, s')_ij = s_j s'_i."""
    (s, c), (t, d) = u, v
    half = q_half(m)
    pairs = q_pairs(len(s))
    return (
        tuple((a + b) % m for a, b in zip(s, t)),
        tuple((c[k] + d[k] + s[j] * t[i]) % half for k, (i, j) in enumerate(pairs)),
    )


def q_one(rank):
    return (0,) * rank, (0,) * len(q_pairs(rank))


def q_inverse(u, m):
    """(-s, -c + beta(s, s)), checked against q_mul on every call."""
    s, c = u
    half = q_half(m)
    inv = (
        tuple(-a % m for a in s),
        tuple((-c[k] + s[j] * s[i]) % half for k, (i, j) in enumerate(q_pairs(len(s)))),
    )
    assert q_mul(u, inv, m) == q_mul(inv, u, m) == q_one(len(s))
    return inv


def q_pow(u, k, m):
    out = q_one(len(u[0]))
    for _ in range(k):
        out = q_mul(out, u, m)
    return out


def q_phi(word, m):
    """The image of ``word``, letter by letter: x_i -> (e_i, 0), x_i^-1 -> its inverse."""
    rank = word.alphabet.rank
    out = q_one(rank)
    for letter in word.letters():
        gen = abs(letter) - 1
        image = (tuple(int(i == gen) % m for i in range(rank)), (0,) * len(q_pairs(rank)))
        out = q_mul(out, image if letter > 0 else q_inverse(image, m), m)
    return out


def passes_q_test(inst, x):
    """phi(x)^n = phi(g) in Q, which every solution meets."""
    return q_pow(q_phi(x, inst.m), inst.n, inst.m) == q_phi(inst.g, inst.m)


words_of_rank = st.integers(1, 3).flatmap(
    lambda rank: st.tuples(
        *[st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from([1, -1, 2, -3])), max_size=6)] * 2
    ).map(lambda pair: tuple(Word.from_syllables(Alphabet(rank), items) for items in pair))
)


@given(words_of_rank, st.integers(1, 6))
def test_q_is_a_quotient_of_exponent_m(pair, m):
    # phi is a homomorphism through free cancellation, and kills every m-th power
    u, v = pair
    assert q_phi(u * v, m) == q_mul(q_phi(u, m), q_phi(v, m), m)
    assert q_phi(u ** m, m) == q_one(u.alphabet.rank)
    assert q_pow(q_phi(u, m), m, m) == q_one(u.alphabet.rank)


@pytest.mark.parametrize("a, b, rank", [("a", "a^2", 1), ("a", "b", 2), ("ab", "aB", 2), ("aB", "b^2", 2), ("a", "bc", 3)])
@pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 2), (2, 1)])
def test_class2_stage_keeps_exactly_the_q_survivors(a, b, rank, n, m):
    alph = Alphabet(rank)
    inst = EquationInstance(parse_word(a, alph), parse_word(b, alph), n, m)
    bound = 5 if rank < 3 else 4
    for first in shard_letters(alph):
        xs = list(enumerate_reduced(alph, bound, first))
        got = list(_class2_survivors(_abelian_survivors(xs, inst.g, n, m, bound, first), inst.g, n, m))
        assert got == [x for x in xs if passes_q_test(inst, x)]


def test_class2_stage_is_skipped_where_it_says_nothing():
    xs = list(enumerate_reduced(F2, 2))
    for m in (1, 2):
        assert _class2_survivors(xs, inst23().g, 2, m) is xs
    rank1 = Alphabet(1)
    ys = list(enumerate_reduced(rank1, 3))
    assert _class2_survivors(ys, rank1.generator(0) ** 5, 2, 3) is ys


GRID = [("a", "a^2", 1, 5), ("a", "b", 2, 5), ("ab", "aB", 2, 5), ("a", "bc", 3, 4)]


@pytest.mark.parametrize("a, b, rank, bound", GRID, ids=[f"rank{rank}-{a}-{b}" for a, b, rank, _ in GRID])
def test_brute_force_equals_unpruned_search_on_a_grid(monkeypatch, a, b, rank, bound):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    alph = Alphabet(rank)
    for n in range(1, 7):
        for m in range(1, 7):
            inst = EquationInstance(parse_word(a, alph), parse_word(b, alph), n, m)
            expected = unpruned_solutions(inst, bound)
            assert brute_force_solutions(inst, bound, jobs=1) == expected
            assert brute_force_solutions(inst, bound, jobs=2) == expected


def test_root_calls_are_pinned_with_both_prunes(monkeypatch):
    import vclab.equations

    calls = []

    def counting_root(word):
        calls.append(word)
        return root(word)

    monkeypatch.setattr(vclab.equations, "root", counting_root)
    inst = inst23()
    xs = list(enumerate_reduced(F2, 5))
    assert len(xs) == 485
    assert sum(passes_abelian_test(inst, x) for x in xs) == 56
    assert sum(passes_q_test(inst, x) for x in xs) == 16
    assert len(brute_force_solutions(inst, 5)) == 2
    # the abelian prune alone took 29 roots here
    assert len(calls) == 10


@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=6), st.integers(1, 4))
def test_root_length_passes_every_power(letters, m):
    y = Word.from_syllables(Alphabet(3), letters)
    assert _root_length(y ** m, m) == len(y)


def test_root_length_refuses_lengths_without_a_root():
    # a cyclic core of length 3 is no square, and one of length 2 no cube
    assert _root_length(w("aba"), 2) is None
    assert _root_length(w("a^3"), 2) is None
    assert _root_length(w("Ba^2b"), 3) is None
    assert _root_length(w("Ba^2b"), 2) == len(w("Bab"))
    # a necessary condition only: a^3 b^3 is no square, yet its lengths allow one
    assert _root_length(w("a^3b^3"), 2) == 3


def test_brute_force_takes_roots_of_survivors_only(monkeypatch):
    import vclab.equations

    calls = []

    def counting_root(word):
        calls.append(word)
        return root(word)

    monkeypatch.setattr(vclab.equations, "root", counting_root)
    inst = inst23()
    xs = list(enumerate_reduced(F2, 5))
    survivors = [x for x in xs if passes_abelian_test(inst, x)]
    assert brute_force_solutions(inst, 5) == unpruned_solutions(inst, 5)
    assert 0 < len(calls) <= len(survivors) < len(xs) // 4


def test_brute_force_deterministic_order():
    inst = inst23()
    assert brute_force_solutions(inst, 5) == brute_force_solutions(inst, 5)


# -- classification ------------------------------------------------------------------

def test_classify_base_solution():
    inst = inst23()
    got = classify_solution(inst, SolutionPair(w("a"), w("b")))
    assert got.tag is Tag.CONJUGATE_FAMILY and got.witness["alpha"] == 0


def test_classify_bezout_solution():
    inst = inst23()
    got = classify_solution(inst, SolutionPair(inst.g.inverse(), inst.g))
    assert got.tag is Tag.GCD_FAMILY
    assert (got.witness["s"], got.witness["t"]) == (-1, 1)
    # both components are powers of g, so they share a maximal cyclic subgroup
    assert root(inst.g.inverse()).root == root(inst.g).root.inverse()


def test_classify_constructed_conjugate():
    inst = inst23()
    pair = conjugate_family(inst, 2)
    got = classify_solution(inst, pair)
    assert got.tag is Tag.CONJUGATE_FAMILY and got.witness["alpha"] == 2


def test_classify_rejects_non_solution():
    with pytest.raises(WordError):
        classify_solution(inst23(), SolutionPair(w("b"), w("a")))


def test_classify_witnesses_reverify():
    inst = inst23()
    for pair in brute_force_solutions(inst, 5):
        got = classify_solution(inst, pair)
        if got.tag is Tag.CONJUGATE_FAMILY:
            assert conjugate_family(inst, got.witness["alpha"]) == pair
        elif got.tag is Tag.GCD_FAMILY:
            s, t = got.witness["s"], got.witness["t"]
            assert inst.n * s + inst.m * t == 1
            assert SolutionPair(inst.g ** s, inst.g ** t) == pair
        elif got.tag is Tag.SWAPPED:
            assert pair.x.conjugate(got.witness["x_to_b"]) == inst.b
            assert pair.y.conjugate(got.witness["y_to_a"]) == inst.a


def test_classify_takes_each_root_once(monkeypatch):
    import vclab.equations
    import vclab.oracles

    cases = []
    for a, b, n, m, bound in (("a", "b", 1, 1, 4), ("a", "a", 2, 3, 6), ("a", "b", 2, 2, 5)):
        inst = EquationInstance(w(a), w(b), n, m)
        cases += [(inst, pair) for pair in brute_force_solutions(inst, bound)]
    calls = []

    def counting_root(word):
        calls.append(word)
        return root(word)

    # every root call, whichever module makes it
    monkeypatch.setattr(vclab.equations, "root", counting_root)
    monkeypatch.setattr(vclab.oracles, "root", counting_root)
    tags = set()
    for inst, pair in cases:
        calls.clear()
        tags.add(classify_solution(inst, pair).tag)
        assert len(calls) == len(set(calls)) <= 2
    assert {Tag.COMMON_E, Tag.UNCLASSIFIED} <= tags


def test_swapped_classification_on_synthetic_pair():
    # n = m = 1 admits the swapped solution (b, B a b) since b * (Bab) = ab
    inst = EquationInstance(w("a"), w("b"), 1, 1)
    pair = SolutionPair(w("b"), w("Bab"))
    assert is_solution(inst, pair)
    got = classify_solution(inst, pair)
    assert got.tag is Tag.SWAPPED
    assert pair.x.conjugate(got.witness["x_to_b"]) == inst.b
    assert pair.y.conjugate(got.witness["y_to_a"]) == inst.a


def test_power_exponent_of():
    g = w("a^2b^3")
    assert power_exponent_of(g, g ** 4) == 4
    assert power_exponent_of(g, g ** -2) == -2
    assert power_exponent_of(g, w("")) == 0
    assert power_exponent_of(g, w("ab")) is None


syllables = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1, 2, -3])), max_size=4)


@given(st.integers(1, 3), syllables, syllables, syllables, syllables, st.booleans(), st.booleans(),
       st.integers(1, 3), st.integers(-3, 3), st.integers(1, 4))
def test_a_power_of_x_lies_in_e_of_y_only_when_e_of_x_does(rank, t, c, t2, c2, same_t, same_c, i, j, n):
    # why classify_solution needs no tag past COMMON_E: x^n is a power of
    # ey = root(y).root exactly when root(x).root is ey or its inverse; x
    # and y are drawn as t c^i t^-1 and t' c'^j t'^-1, often sharing t or c
    alph = Alphabet(rank)
    t, c, t2, c2 = (Word.from_syllables(alph, [(gen % rank, exp) for gen, exp in syl]) for syl in (t, c, t2, c2))
    s, d = (t if same_t else t2), (c if same_c else c2)
    x, y = t * c ** i * t.inverse(), s * d ** j * s.inverse()
    if x.is_identity() or y.is_identity():
        return
    ex, ey = root(x).root, root(y).root
    assert (power_exponent_of(ey, x ** n) is not None) == (ex == ey or ex == ey.inverse())


# -- gcd count consistency --------------------------------------------------------------

def _bezout_pairs_within(n, m, g_len, bound):
    pairs = set()
    limit = bound // g_len + 2
    for s in range(-limit, limit + 1):
        for t in range(-limit, limit + 1):
            if n * s + m * t == 1 and abs(s) * g_len <= bound and abs(t) * g_len <= bound:
                pairs.add((s, t))
    return pairs


@pytest.mark.parametrize("bound", [5, 10])
def test_gcd_solution_count_matches_bezout_prediction(bound):
    inst = inst23()
    assert math.gcd(inst.n, inst.m) == 1
    predicted = _bezout_pairs_within(inst.n, inst.m, len(inst.g), bound)
    found = [
        pair
        for pair in brute_force_solutions(inst, bound)
        if classify_solution(inst, pair).tag is Tag.GCD_FAMILY
    ]
    assert len(found) == len(predicted)


# -- perfectness reports -----------------------------------------------------------------

def test_verify_perfect_bound_one():
    report = verify_perfect(inst23(), 1)
    assert report.perfect_at_bound
    assert len(report.solutions) == 1


def test_verify_perfect_finds_bezout_exception():
    inst = inst23()
    report = verify_perfect(inst, 5)
    assert not report.perfect_at_bound
    tags = {c.tag for _, c in report.exceptions()}
    assert tags == {Tag.GCD_FAMILY}
    for pair, _ in report.exceptions():
        assert is_conjugate(pair.x, inst.a) is None
        assert is_conjugate(pair.x, inst.b) is None
        assert is_conjugate(pair.y, inst.a) is None
        assert is_conjugate(pair.y, inst.b) is None


def test_verify_perfect_flags_equal_exponents():
    report = verify_perfect(EquationInstance(w("a"), w("b"), 2, 2), 2)
    assert report.hypothesis_flags["n_ne_m"] is False


def test_verify_perfect_divisor_flags():
    report = verify_perfect(EquationInstance(w("a"), w("b"), 4, 6), 2, ell=2)
    flags = report.hypothesis_flags
    assert flags["n_in_ell_N"] and flags["m_in_ell_N"] and flags["n_ne_m"]


def test_report_serializes(capsys):
    # the report of verify_perfect(inst23(), 2)
    cli.main(["verify-perfect", "--a", "a", "--b", "b", "--n", "2", "--m", "3", "--bound", "2"])
    data = json.loads(capsys.readouterr().out)
    assert data["instance"]["g"] == "a^2b^3"
    assert isinstance(data["solutions"], list)
