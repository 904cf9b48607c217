"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact (integer or rational equality); runtime
ceilings are asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction

import pytest

import audit
from vclab.words import Alphabet, Word, enumerate_reduced, parse_word
from vclab import equations, finitegroups, hypgeom, oracles, presentations, quasimorphisms, testwords

F2 = Alphabet(2)
F3 = Alphabet(3)


def p2(text):
    return parse_word(text, F2)


def p3(text):
    return parse_word(text, F3)


def rand_word(rng, alph, max_len):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


def announce(number, name, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: PASS - {name}{stamp}")


# -- 1: conjugacy decision vs exhaustive conjugator search -----------------------

def test_acceptance_01_conjugacy_oracle_equivalence():
    start = time.time()
    singles = [Word.from_syllables(F2, [(g, s)]) for g in range(2) for s in (1, -1)]

    def closure(word, depth):
        # all conjugates g^{-1} w g with |g| <= depth; single-letter BFS
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
        return frozenset(seen)

    cache = {}

    def closure5(word):
        if word not in cache:
            cache[word] = closure(word, 5)
        return cache[word]

    words = list(enumerate_reduced(F2, 5))
    assert len(words) == 485
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(10_000):
        u, v = rng.choice(words), rng.choice(words)
        # every conjugator of length <= 10 factors through the two
        # depth-5 closures, so this is the exhaustive length-10 search
        exhaustive = not closure5(u).isdisjoint(closure5(v))
        fast = oracles.is_conjugate(u, v) is not None
        if exhaustive != fast:
            disagreements += 1
    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed < 60
    announce(1, "conjugacy agrees with exhaustive length-10 search on 10^4 pairs", elapsed)


# -- 2: the Bezout family at gcd(n, m) = 1 ---------------------------------------

def test_acceptance_02_bezout_family_reproduction():
    start = time.time()
    inst = equations.EquationInstance(p2("a"), p2("b"), 2, 3)
    g = inst.g
    solutions = equations.brute_force_solutions(inst, 5)
    target = equations.SolutionPair(g.inverse(), g)
    assert target in solutions
    tag = equations.classify_solution(inst, target)
    assert tag.tag is equations.Tag.GCD_FAMILY
    for component in (target.x, target.y):
        assert oracles.is_conjugate(component, inst.a) is None
        assert oracles.is_conjugate(component, inst.b) is None
    elapsed = time.time() - start
    assert elapsed < 120
    announce(2, "(g^-1, g) found at bound 5, Bezout-classified, not conjugate to a or b", elapsed)


# -- 3: bounded perfectness for shared divisor ------------------------------------

def test_acceptance_03_perfectness_bounded():
    start = time.time()
    inst = equations.EquationInstance(p2("a"), p2("b"), 4, 6)
    report = equations.verify_perfect(inst, 4, ell=2)
    assert report.perfect_at_bound
    assert all(c.tag is equations.Tag.CONJUGATE_FAMILY for _, c in report.solutions)
    assert report.hypothesis_flags["n_ne_m"]
    assert report.hypothesis_flags["n_in_ell_N"] and report.hypothesis_flags["m_in_ell_N"]
    elapsed = time.time() - start
    assert elapsed < 600
    announce(3, "every bound-4 solution of x^4 y^6 = a^4 b^6 is in the conjugation orbit", elapsed)


# -- 4: canonical solutions and equivariance ---------------------------------------

def test_acceptance_04_testword_canonical_identity():
    start = time.time()
    word = testwords.base_test_word(testwords.ExponentTuple.uniform(2))
    targets = [p3("a"), p3("b"), p3("c")]
    u = testwords.base_value(word, targets)
    for alpha in range(-3, 4):
        assignment = testwords.canonical_solutions(word, targets, alpha)
        assert testwords.evaluate(word, assignment) == u
    rng = random.Random(404)
    for _ in range(100):
        h = rand_word(rng, F3, 6)
        conjugated = [t.conjugate(h) for t in targets]
        assert testwords.base_value(word, conjugated) == u.conjugate(h)
    elapsed = time.time() - start
    announce(4, "canonical assignments hit the common value; conjugation equivariance exact", elapsed)


# -- 5: certificate matrices ---------------------------------------------------------

def test_acceptance_05_certificates():
    cert = testwords.exponent_sum_certificates(testwords.ExponentTuple.uniform(2), 2)
    assert cert.det_phi != 0
    assert cert.det_psi != 0
    assert cert.ok
    announce(5, "both certificate determinants nonzero for the uniform tuple (e = m = 2)")


# -- 6: quasimorphism numerics ---------------------------------------------------------

def test_acceptance_06_quasimorphism_numerics():
    start = time.time()
    q = quasimorphisms.counting_qm(p2("ab"))
    rng = random.Random(606)
    pairs = [(tuple(rand_word(rng, F2, 10).letters()), tuple(rand_word(rng, F2, 10).letters())) for _ in range(10_000)]
    d_hat = quasimorphisms.defect_estimate(q, pairs).lower_bound
    truncations = (1, 2, 4, 8, 16, 32, 64)
    rng = random.Random(607)
    for _ in range(100):
        g = rand_word(rng, F2, 8)
        for m in truncations:
            gap = abs(q(g ** (2 * m)) / (2 * m) - q(g ** m) / m)
            assert gap <= d_hat / m
    rng = random.Random(608)
    for _ in range(100):
        g, conj = rand_word(rng, F2, 8), rand_word(rng, F2, 6)
        for m in truncations:
            check = quasimorphisms.conjugacy_invariance_check(q, g, conj, m, d_hat)
            assert check.within_bound
    elapsed = time.time() - start
    announce(6, "doubling and invariance bounds hold with the empirical defect, exact rationals", elapsed)


# -- 7: geometry on the radius-5 ball ----------------------------------------------------

def test_acceptance_07_geometry():
    start = time.time()
    ball = hypgeom.cayley_ball(Alphabet(2), 5)
    delta = hypgeom.delta_thin_report(ball, 1000, seed=7).lower_bound
    assert delta == 0
    rng = random.Random(77)
    for _ in range(1000):
        a, b, c = (ball.point(rng.randrange(len(ball))) for _ in range(3))
        assert hypgeom.check_midpoint_inequality(ball, a, b, c, Fraction(0))
    report = hypgeom.divergence_experiment(p2("a"), p2("b"), 50, 50)
    for n, m, length in report.rows():
        assert length == n + m
    elapsed = time.time() - start
    announce(7, "tree ball is 0-thin, midpoints pass at delta 0, |a^n b^m| = n + m up to 50", elapsed)


# -- 8: the dihedral central-product suite --------------------------------------------------

def test_acceptance_08_dihedral_suite():
    start = time.time()
    report = finitegroups.dihedral_counterexample_suite()
    assert report.orders["product"] == 32
    assert not report.retract_of_center_found
    assert report.verbal_disagreements == 0
    assert report.targets_checked == 8
    assert report.control_disagreements == 1
    elapsed = time.time() - start
    assert elapsed < 300
    announce(8, "order 32, no retraction onto the glued center, verbally closed, control trips", elapsed)


# -- 9: exact integer linear algebra ----------------------------------------------------------

def test_acceptance_09_smith_normal_form():
    start = time.time()
    worked = presentations.smith_normal_form([[4, 0], [0, 2], [2, 0]])
    assert worked.diagonal() == [2, 2]
    pres = presentations.Presentation(2, (p2("a^4"), p2("b^2"), p2("Baba")))
    ab = presentations.abelianization(pres)
    assert ab.invariant_factors == (2, 2) and ab.free_rank == 0
    rng = random.Random(909)
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        snf = presentations.smith_normal_form(matrix)
        assert audit.mat_mul(audit.mat_mul(snf.u, matrix), snf.v) == snf.d
        assert abs(audit.determinant(snf.u)) == 1
        assert abs(audit.determinant(snf.v)) == 1
        diagonal = snf.diagonal()
        for i in range(len(diagonal) - 1):
            assert diagonal[i + 1] == 0 or (diagonal[i] != 0 and diagonal[i + 1] % diagonal[i] == 0)
    elapsed = time.time() - start
    announce(9, "diag(2,2) worked example; 500 random exact SNFs with unimodular transforms", elapsed)


# -- 10: retraction pipeline -------------------------------------------------------------------

def test_acceptance_10_retraction_pipeline():
    pres = presentations.Presentation(2, (p2("b"),))
    u = p2("ab")
    solution = (p2("a").conjugate(u), p2(""))
    result = presentations.retraction_from_solution(pres, [p2("a")], [p2("b")], solution, u, 1)
    assert result.verified
    assert presentations.verify_retraction(pres, [p2("a")], list(result.images))
    with pytest.raises(presentations.RetractionConditionError) as err:
        presentations.retraction_from_solution(pres, [p2("a")], [p2("b")], (p2("a"), p2("b")), u, 0)
    assert err.value.condition == "relator-kill"
    assert err.value.index == 0
    announce(10, "alpha = 1 correction verifies; relator-violating control named index 0")
