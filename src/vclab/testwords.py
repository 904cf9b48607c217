"""Recursive test words and their bounded verification.

A level-n test word is a plain ``Word`` in the 2n - 2 variables
x_1..x_n, y_3..y_n, so its rank gives its level.  The level-3 base word is
the shell of ten positive exponents around the level-2 word x_1; each
further level wraps the previous word in the same shell with a fresh pair
of variables, and puts y_n last with exponent +1 when q*t = 1.  For a tuple
of target elements, the canonical solutions of W(targets) = W(vars) are the
targets conjugated by powers of the common value; the bounded verifier
hunts for any other solutions, and solves y_n instead of enumerating it
when y_n is the last syllable of W, with exponent +1, and occurs nowhere
else.

The ten exponents are user parameters: the construction is verified for
its consequences, never claimed to yield a genuine test word outright.
"""

from __future__ import annotations

from itertools import islice
from typing import Mapping, NamedTuple, Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, count_reduced, enumerate_reduced, rank, reduced_count_exceeds, substitute
from .oracles import is_special_tuple


class ExponentTuple:
    """Ten positive shell exponents."""

    def __init__(self, k1: int, l1: int, m1: int, k2: int, l2: int, m2: int, s: int, p: int, q: int, t: int) -> None:
        self.k1, self.l1, self.m1, self.k2, self.l2, self.m2, self.s, self.p, self.q, self.t = k1, l1, m1, k2, l2, m2, s, p, q, t
        # vars() lists the ten in the order of the signature
        for name, value in vars(self).items():
            if value < 1:
                raise WordError(f"exponent {name} must be >= 1, got {value}")

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is ExponentTuple else NotImplemented

    @staticmethod
    def uniform(e: int) -> "ExponentTuple":
        """All ten exponents equal to e; satisfies every divisibility need."""
        return ExponentTuple(*([e] * 10))

    @staticmethod
    def from_list(values: Sequence[int]) -> "ExponentTuple":
        if len(values) != 10:
            raise WordError(f"need 10 exponents, got {len(values)}")
        return ExponentTuple(*values)


def variable_count(level: int) -> int:
    """x_1..x_level plus y_3..y_level."""
    return 2 * level - 2


def x_index(level: int, i: int) -> int:
    if not 1 <= i <= level:
        raise WordError(f"x_{i} out of range at level {level}")
    return i - 1


def y_index(level: int, j: int) -> int:
    if not 3 <= j <= level:
        raise WordError(f"y_{j} out of range at level {level}")
    return level + (j - 3)


def variable_name(level: int, index: int) -> str:
    if index < level:
        return f"x{index + 1}"
    return f"y{index - level + 3}"


def word_level(w: Word) -> int:
    """The level n of a test word, whose rank is variable_count(n) = 2n - 2."""
    rank = w.alphabet.rank
    if rank < 4 or rank % 2:
        raise WordError(f"a test word has an even rank of at least 4, got rank {rank}")
    return rank // 2 + 1


def variables_used(w: Word) -> set[str]:
    level = word_level(w)
    return {variable_name(level, gen) for gen, _ in w.syllables}


def format_test_word(w: Word) -> str:
    """The syllables by variable name, such as ``x1 x3^2 y3``; ``1`` if none."""
    level = word_level(w)
    parts = []
    for gen, exp in w.syllables:
        name = variable_name(level, gen)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def lift(word: Word, e: ExponentTuple) -> Word:
    """The level-(n+1) word ((X^k1 x_{n+1}^l1)^m1 (x_n^k2 x_{n+1}^l2)^m2)^s
    (x_n^p (x_{n+1} y_{n+1})^q)^t around X, a word in the 2n - 2 variables
    of level n (n = 2 for the level-2 word x1)."""
    n = word.alphabet.rank // 2 + 1
    target = Alphabet(variable_count(n + 1))
    # re-embed: x-indices are stable, y-indices shift up by one
    embedded = Word.from_syllables(
        target,
        [(g if g < n else g + 1, exp) for g, exp in word.syllables],
    )
    xn = target.generator(x_index(n + 1, n))
    xn1 = target.generator(x_index(n + 1, n + 1))
    yn1 = target.generator(y_index(n + 1, n + 1))
    head = ((embedded ** e.k1 * xn1 ** e.l1) ** e.m1 * (xn ** e.k2 * xn1 ** e.l2) ** e.m2) ** e.s
    tail = (xn ** e.p * (xn1 * yn1) ** e.q) ** e.t
    return head * tail


def base_test_word(e: ExponentTuple) -> Word:
    """The level-3 word ((x1^k1 x3^l1)^m1 (x2^k2 x3^l2)^m2)^s (x2^p (x3 y3)^q)^t,
    the shell around the level-2 word x1."""
    return lift(Alphabet(variable_count(2)).generator(0), e)


class TestWordSpec:
    """Level plus one exponent tuple per construction step."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, level: int, tuples: tuple[ExponentTuple, ...]) -> None:
        if level < 3:
            raise WordError("levels start at 3")
        if len(tuples) != level - 2:
            raise WordError(f"level {level} needs {level - 2} exponent tuples")
        self.level, self.tuples = level, tuples

    def build(self) -> Word:
        word = base_test_word(self.tuples[0])
        for e in self.tuples[1:]:
            word = lift(word, e)
        return word


def evaluate(w: Word, assignment: Mapping[str, Word]) -> Word:
    """Homomorphic image under variable name -> word, reduced.

    Variables the word does not use may be left out; they map to the identity.
    """
    level = word_level(w)
    images: list[Optional[Word]] = [None] * variable_count(level)
    for name, value in assignment.items():
        index = _parse_variable(level, name)
        images[index] = value
    used = {gen for gen, _ in w.syllables}
    missing = [variable_name(level, g) for g in sorted(used) if images[g] is None]
    if missing:
        raise WordError(f"assignment missing variables: {', '.join(missing)}")
    given = [img for img in images if img is not None]
    if not given:
        raise WordError("assignment names no variables")
    target = given[0].alphabet
    if any(img.alphabet != target for img in given):
        raise WordError("assignment words use mixed alphabets")
    return substitute(w, [target.identity() if img is None else img for img in images])


def _parse_variable(level: int, name: str) -> int:
    kind, num = name[:1], name[1:]
    digits = num.isascii() and num.isdecimal()
    if kind == "x" and digits:
        return x_index(level, int(num))
    if kind == "y" and digits:
        return y_index(level, int(num))
    raise WordError(f"bad variable name {name!r}")


def target_assignment(w: Word, targets: Sequence[Word]) -> dict:
    """x_i -> targets[i-1], every y_j -> identity."""
    level = word_level(w)
    if len(targets) != level:
        raise WordError(f"level {level} needs {level} target words")
    alph = targets[0].alphabet
    assignment = {f"x{i + 1}": t for i, t in enumerate(targets)}
    for j in range(3, level + 1):
        assignment[f"y{j}"] = alph.identity()
    return assignment


def base_value(w: Word, targets: Sequence[Word]) -> Word:
    """The common value U = W(targets, 1, ..., 1)."""
    return evaluate(w, target_assignment(w, targets))


def canonical_solutions(w: Word, targets: Sequence[Word], alpha: int) -> dict:
    """The assignment x_i -> targets[i]^{U^alpha}, y_j -> 1.

    Conjugation by U fixes U, so this solves W(vars) = U for every alpha.
    """
    u = base_value(w, targets)
    if u.is_identity():
        raise WordError("common value is the identity; canonical family undefined")
    shift = u ** alpha
    assignment = target_assignment(w, targets)
    return {
        name: (value.conjugate(shift) if name.startswith("x") else value)
        for name, value in assignment.items()
    }


# -- bounded verification ----------------------------------------------------

# candidate images a search may hold: 118,097 words of length <= 10 at rank 2
CANDIDATE_CAP = 200_000
# letters a walk may hold: each candidate image, of at most bound letters,
# and one partial product of at most |W| * bound letters per variable
LETTER_BUDGET = 2 * 10**6


class Violation(NamedTuple):
    assignment: dict


class TestWordReport(NamedTuple):
    __test__ = False  # not a pytest class, despite the name

    violations: list[Violation]
    explored: int
    total: int
    exhausted: bool
    special_tuple_ok: bool
    alpha_window: int
    common_value: Word


def _letter_evaluate(w: Word, images: Sequence[Word]) -> Word:
    """Independent letter-by-letter evaluation used to re-verify violations."""
    target = images[0].alphabet
    out: list[int] = []
    for letter in w.letters():
        image = images[abs(letter) - 1]
        piece = list(image.letters()) if letter > 0 else [-l for l in reversed(list(image.letters()))]
        for x in piece:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return Word.from_letters(target, out)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-x for x in reversed(letters)])


def verify_testword(
    w: Word,
    targets: Sequence[Word],
    bound: int,
    max_assignments: Optional[int] = None,
) -> TestWordReport:
    """Search every assignment with images of length <= bound for violations.

    A violation solves W(assignment) = W(targets, 1..1) without being a
    canonical solution for any alpha in the window.  An empty report is
    bounded non-refutation, not a proof.  The special-tuple hypothesis on
    the targets is recorded, not enforced, so hypothesis-violating control
    runs can demonstrate genuine violations.  The candidate images, the
    reduced words of length <= bound, are refused past ``CANDIDATE_CAP``
    before one is built.

    Assignments are walked depth first in ``itertools.product`` order over
    the candidate images, so the last variable (y_n) varies fastest.  The
    walk keeps one partial product P per depth, the leading syllables of W
    whose variables are all assigned, as a tuple of signed letters with
    lcp, the length of its common prefix with U.  Each assignment extends
    P by the syllables it completes, one power at a time, spelled as
    t c0^|e| t^-1 for a candidate t c0 t^-1 with c0 cyclically reduced (c0
    inverted when e < 0).  That spelling is reduced, so only the seam with
    P cancels; lcp is cut back to the seam and grows again only if the cut
    reached it.  So d(P, U) = |P^-1 U| = |P| + |U| - 2 lcp needs no
    product.  A P whose distance to U exceeds the most letters the later
    syllables can spell (sum of |exp| * bound) is dropped, since W = P R = U
    with |R| <= s gives d(P, U) = |R| <= s, and counts as every assignment
    below it.  P holds at most bound * |W| letters, and U is spelled no
    further; the candidates and one P per variable are refused past
    ``LETTER_BUDGET`` letters before the walk.

    When W ends in y_n with exponent +1 and y_n occurs in no other
    syllable, as in every built word whose top tuple has q*t = 1, y_n is
    solved rather than enumerated: W = P y = U gives y = P^-1 U, the one
    image that can complete the other variables.  Its letters, P past lcp
    inverted and then U past lcp, are formed only if d(P, U) <= bound, and
    its index among the candidates is ``rank(y)``.  Each assignment of the
    other variables then stands for the block of consecutive product
    assignments that differ in y alone.  So ``explored``, the
    ``max_assignments`` cut (which may fall inside a block or a dropped
    node) and the order of the violations are those of the full walk.  Any
    other W enumerates y_n as well, in blocks of one.
    """
    special_ok = is_special_tuple(targets)
    u = base_value(w, targets)
    alph = targets[0].alphabet
    if reduced_count_exceeds(alph.rank, bound, CANDIDATE_CAP):
        raise BudgetExceeded(f"candidate images of length <= {bound} exceed the cap of {CANDIDATE_CAP} words")
    level = word_level(w)
    nvars = variable_count(level)
    held = bound * (count_reduced(alph.rank, bound) + nvars * len(w))
    if held > LETTER_BUDGET:
        raise BudgetExceeded(f"a walk holding up to {held} letters exceeds the budget of {LETTER_BUDGET} letters")
    var_names = [variable_name(level, i) for i in range(nvars)]
    alpha_window = bound // max(1, len(u)) + 1
    canonical: list[dict] = []
    if u.is_identity():
        canonical.append(target_assignment(w, targets))
    else:
        for alpha in range(-alpha_window, alpha_window + 1):
            canonical.append(canonical_solutions(w, targets, alpha))

    # candidates[i]: the letters of words[i], candidate image i
    words = list(enumerate_reduced(alph, bound))
    candidates = [tuple(word.letters()) for word in words]
    total = len(candidates) ** nvars
    budget = total if max_assignments is None else min(total, max_assignments)

    syllables = w.syllables
    n = len(syllables)
    # reach[pos]: the most letters syllables pos.. can spell, y_n included
    reach = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        reach[pos] = reach[pos + 1] + abs(syllables[pos][1]) * bound
    # y_n, the last variable, is solved only as W's last syllable y_n^+1
    solved = [gen for gen, _ in syllables].count(nvars - 1) == 1 and syllables[-1] == (nvars - 1, 1)
    free, block = (nvars - 1, len(candidates)) if solved else (nvars, 1)
    # stop[d]: the end of the leading syllables whose variables are among
    # the first d, all of W but y_n at d = free when y_n is solved;
    # weight[d]: the assignments below a node at depth d
    stop = [next((pos for pos, (gen, _) in enumerate(syllables) if gen >= d), n) for d in range(free + 1)]
    weight = [len(candidates) ** (free - d) * block for d in range(free + 1)]
    size_u = len(u)
    # extensions[d]: depth d's, each syllable as its variable, its
    # exponent and the reach past it less |U|, so that a product P is far
    # when |P| - 2 lcp passes that
    steps = [(gen, exp, reach[pos + 1] - size_u) for pos, (gen, exp) in enumerate(syllables)]
    extensions = [steps[stop[d]:stop[d + 1]] for d in range(free)]
    # the letters of U that a partial product can match, and a 0
    target = (*islice(u.letters(), reach[0]), 0)
    # splits[i]: the pieces t, c0, t^-1 of candidate i = t c0 t^-1 around
    # its cyclic core c0, filled on its first power other than 1
    splits: list[Optional[tuple]] = [None] * len(candidates)
    # the candidate indices of the images the walk has assigned, y_n last
    picks = [0] * nvars
    violations: list[Violation] = []
    explored = 0

    def power(i: int, exp: int) -> tuple:
        """The letters of candidate i to the power ``exp``."""
        if exp == 1:
            return candidates[i]
        split = splits[i]
        if split is None:
            core, t = words[i].cyclic_reduce()
            t_letters = tuple(t.letters())
            split = splits[i] = t_letters, tuple(core.letters()), _inverse(t_letters)
        conj, core, conj_inv = split
        if exp < 0:
            core, exp = _inverse(core), -exp
        return conj + core * exp + conj_inv

    def leaf(value: tuple, lcp: int) -> None:
        """The block under ``value``, W but a solved y_n: count it and
        record its violation, if any."""
        nonlocal explored
        covered = min(block, budget - explored)
        explored += covered
        distance = len(value) + size_u - 2 * lcp
        if solved:
            # y = P^-1 U; one of more than ``bound`` letters is no candidate
            if distance > bound:
                return
            # y spells P past lcp inverted, then U past lcp; letter lcp of P
            # differs from letter lcp of U, so y is reduced as spelled, and
            # of at most ``bound`` letters it is always a candidate
            found = rank(Word.from_letters(alph, _inverse(value[lcp:]) + target[lcp:size_u]))
            # a block cut by the budget holds only its first `covered` images
            if found >= covered:
                return
            picks[free] = found
        elif distance:
            return
        images = [words[i] for i in picks]
        assignment = dict(zip(var_names, images))
        if any(assignment == c for c in canonical):
            return
        # re-verify through the independent letter-level evaluator
        if _letter_evaluate(w, images) != u:
            raise AssertionError("search and letter oracle disagree")
        violations.append(Violation(assignment))

    def walk(depth: int, value: tuple, lcp: int) -> None:
        """Every assignment of variable ``depth`` under the partial product
        ``value`` of syllables ..stop[depth]-1, whose common prefix with U
        is ``lcp`` letters long."""
        nonlocal explored
        run = extensions[depth]
        below = weight[depth + 1]
        # the powers of the syllables whose variables were assigned above
        fixed = [None if gen == depth else power(picks[gen], exp) for gen, exp, _ in run]
        for i in range(len(candidates)):
            if explored >= budget:
                return
            picks[depth] = i
            letters = candidates[i]
            product, common = value, lcp
            for (_, exp, room), piece in zip(run, fixed):
                if piece is None:
                    piece = letters if exp == 1 else power(i, exp)
                if product and piece and product[-1] == -piece[0]:
                    cut, k = len(product) - 1, 1
                    while cut and k < len(piece) and product[cut - 1] == -piece[k]:
                        cut -= 1
                        k += 1
                    product = product[:cut] + piece[k:]
                    if common > cut:
                        common = cut
                else:
                    cut = len(product)
                    product += piece
                if common == cut:
                    # the sentinel that ends ``target`` matches no letter
                    size = len(product)
                    while common < size and product[common] == target[common]:
                        common += 1
                if len(product) - 2 * common > room:
                    explored = min(explored + below, budget)
                    break
            else:
                if depth + 1 == free:
                    leaf(product, common)
                else:
                    walk(depth + 1, product, common)

    walk(0, (), 0)
    return TestWordReport(
        violations=violations,
        explored=explored,
        total=total,
        exhausted=explored == total,
        special_tuple_ok=special_ok,
        alpha_window=alpha_window,
        common_value=u,
    )


# -- exponent-sum certificates ------------------------------------------------


class CertificateResult(NamedTuple):
    """Two integer 2x2 matrices whose nonzero determinants pin down the
    conjugation exponents in the uniqueness argument for the level-3 word.

    The first matrix records the images of the head factors under the
    homomorphism killing the third target; the second under the
    homomorphism killing the second.  Acting on exponent pairs, both must
    be injective, which forces all four exponents to vanish.
    """

    m_phi: tuple[tuple[int, int], tuple[int, int]]
    m_psi: tuple[tuple[int, int], tuple[int, int]]

    @property
    def det_phi(self) -> int:
        (a, b), (c, d) = self.m_phi
        return a * d - b * c

    @property
    def det_psi(self) -> int:
        (a, b), (c, d) = self.m_psi
        return a * d - b * c

    @property
    def ok(self) -> bool:
        return self.det_phi != 0 and self.det_psi != 0


def exponent_sum_certificates(e: ExponentTuple, m: int) -> CertificateResult:
    """Certificate matrices for the uniqueness argument, exact integers.

    Requires m to divide k1, k2, l1, l2, p and q, so that all entries are
    integers (the underlying homomorphisms are defined on m-th powers).
    """
    if m < 1:
        raise WordError("modulus must be positive")
    for name in ("k1", "k2", "l1", "l2", "p", "q"):
        if getattr(e, name) % m:
            raise WordError(f"{m} does not divide {name} = {getattr(e, name)}")
    m_phi = ((-e.k1 // m, 0), (0, e.k2 // m))
    m_psi = (
        (-(e.k1 * e.m1) // m, 0),
        (-(e.l1 * e.m1 + e.l2 * e.m2) // m, e.q // m),
    )
    return CertificateResult(m_phi, m_psi)
