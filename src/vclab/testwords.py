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

from dataclasses import asdict, astuple, dataclass
from typing import Mapping, Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, enumerate_reduced, format_word, free_word_metric, reduced_count_exceeds, substitute
from .oracles import is_special_tuple


@dataclass(frozen=True)
class ExponentTuple:
    """Ten positive shell exponents."""

    k1: int
    l1: int
    m1: int
    k2: int
    l2: int
    m2: int
    s: int
    p: int
    q: int
    t: int

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 1:
                raise WordError(f"exponent {name} must be >= 1, got {value}")

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
    return {variable_name(level, s.gen) for s in w.syllables}


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


@dataclass(frozen=True)
class TestWordSpec:
    """Level plus one exponent tuple per construction step."""

    __test__ = False  # not a pytest class, despite the name

    level: int
    tuples: tuple[ExponentTuple, ...]

    def __post_init__(self) -> None:
        if self.level < 3:
            raise WordError("levels start at 3")
        if len(self.tuples) != self.level - 2:
            raise WordError(f"level {self.level} needs {self.level - 2} exponent tuples")

    def build(self) -> Word:
        word = base_test_word(self.tuples[0])
        for e in self.tuples[1:]:
            word = lift(word, e)
        return word

    def to_json_dict(self) -> dict:
        return {"level": self.level, "tuples": [list(astuple(t)) for t in self.tuples]}


def evaluate(w: Word, assignment: Mapping[str, Word]) -> Word:
    """Homomorphic image under variable name -> word, reduced.

    Variables the word does not use may be left out; they map to the identity.
    """
    level = word_level(w)
    images: list[Optional[Word]] = [None] * variable_count(level)
    for name, value in assignment.items():
        index = _parse_variable(level, name)
        images[index] = value
    used = {s.gen for s in w.syllables}
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
# letters the power table and the lead-run caches of a search may hold at
# their fullest; one that could pass what is left is not kept, and the walk
# rebuilds its entries at each use instead
REUSE_LETTERS = 2 * 10**6


@dataclass(frozen=True)
class Violation:
    assignment: dict

    def to_json_dict(self) -> dict:
        return {name: format_word(word) for name, word in sorted(self.assignment.items())}


@dataclass(frozen=True)
class TestWordReport:
    __test__ = False  # not a pytest class, despite the name

    violations: list[Violation]
    explored: int
    total: int
    exhausted: bool
    special_tuple_ok: bool
    alpha_window: int
    common_value: Word

    def to_json_dict(self) -> dict:
        return {
            "violations": [v.to_json_dict() for v in self.violations],
            "explored": self.explored,
            "total": self.total,
            "exhausted": self.exhausted,
            "explored_fraction": self.explored / self.total if self.total else 1.0,
            "special_tuple_ok": self.special_tuple_ok,
            "alpha_window": self.alpha_window,
            "common_value": format_word(self.common_value),
        }


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
    walk keeps one partial product per depth, the leading syllables of W
    whose variables are all assigned, and each assignment extends it by the
    syllables it completes.  A partial product P whose distance to U
    exceeds the most letters the later syllables can spell (sum of
    |exp| * bound) is dropped: W = P R = U with |R| <= s gives
    d(P, U) = |P^-1 U| = |R| <= s.  A dropped node is counted as every
    assignment below it.

    No product is built twice for the same images.  Each power c ** e of a
    candidate c, for an exponent e of W, is built once, the first time the
    walk needs it.  In the level-3 word x1 x3 x2 x3 x2 x3 y3, x2 completes
    no syllable, so the step x1 x3 that leads x3's extension does not
    depend on x2.  In general, the leading syllables of an extension whose
    variables are its own and those the partial product depends on are
    built once per image, with their drop verdict, and kept until one of
    those earlier images changes.  Both fill on first use, so a capped walk
    builds only what it reaches, in the order of a walk that rebuilt them.
    Powers and lead runs that could hold more than ``REUSE_LETTERS``
    letters in all are rebuilt at each use instead of kept.

    When W ends in y_n with exponent +1 and y_n occurs in no other
    syllable, as in every built word whose top tuple has q*t = 1, y_n is
    solved rather than enumerated: W = P y = U gives y = P^-1 U, the one
    image that can complete the other variables, kept only if it is a
    candidate.  Each assignment of the other variables then stands for the
    block of consecutive product assignments that differ in y alone.  So
    ``explored``, the ``max_assignments`` cut (which may fall inside a
    block or a dropped node) and the order of the violations are those of
    the full walk.  Any other W enumerates y_n as well, in blocks of one.
    """
    special_ok = is_special_tuple(targets)
    u = base_value(w, targets)
    alph = targets[0].alphabet
    if reduced_count_exceeds(alph.rank, bound, CANDIDATE_CAP):
        raise BudgetExceeded(f"candidate images of length <= {bound} exceed the cap of {CANDIDATE_CAP} words")
    level = word_level(w)
    nvars = variable_count(level)
    var_names = [variable_name(level, i) for i in range(nvars)]
    alpha_window = bound // max(1, len(u)) + 1
    canonical: list[dict] = []
    if u.is_identity():
        canonical.append(target_assignment(w, targets))
    else:
        for alpha in range(-alpha_window, alpha_window + 1):
            canonical.append(canonical_solutions(w, targets, alpha))

    candidates = list(enumerate_reduced(alph, bound))
    total = len(candidates) ** nvars
    budget = total if max_assignments is None else min(total, max_assignments)

    syllables = w.syllables
    n = len(syllables)
    # y_n, the last variable, is solved only as W's last syllable y_n^+1
    solved = [syl.gen for syl in syllables].count(nvars - 1) == 1 and syllables[-1] == (nvars - 1, 1)
    free, block = (nvars - 1, len(candidates)) if solved else (nvars, 1)
    index = {word: i for i, word in enumerate(candidates)} if solved else {}
    # stop[d]: the end of the leading syllables whose variables are among
    # the first d, all of W but y_n at d = free when y_n is solved;
    # weight[d]: the assignments below a node at depth d
    stop = [next((pos for pos, syl in enumerate(syllables) if syl.gen >= d), n) for d in range(free + 1)]
    weight = [len(candidates) ** (free - d) * block for d in range(free + 1)]
    # reach[pos]: the most letters syllables pos.. can spell, y_n included
    reach = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        reach[pos] = reach[pos + 1] + abs(syllables[pos].exp) * bound
    size_u = len(u)
    # steps[pos]: syllable pos as its variable, its exponent, its row of
    # c ** exp by candidate index and the reach past it; a row fills on
    # first use and serves every syllable with its exponent, and the row
    # for exponent 1 is the candidates themselves.  A power spells at most
    # |exp| * bound letters, so the rows keep their powers if that many
    # fit ``REUSE_LETTERS``; `spare` is what is left for the lead runs.
    exponents = {syl.exp for syl in syllables}
    rows = {exp: candidates if exp == 1 else [None] * len(candidates) for exp in exponents}
    steps = [(gen, exp, rows[exp], reach[pos + 1]) for pos, (gen, exp) in enumerate(syllables)]
    table = len(candidates) * bound * sum(abs(exp) for exp in exponents if exp != 1)
    keep = table <= REUSE_LETTERS
    spare = REUSE_LETTERS - table if keep else REUSE_LETTERS
    # The partial product at depth d depends on the images of the variables
    # up to `formed` alone, the last depth before d whose extension added
    # syllables (-1 if none did).  When formed < d - 1, the leading
    # syllables of depth d's extension whose variable is d or at most
    # formed skip the variables in between: heads[d] holds that run, whose
    # product (None if far) leads[d] keeps per image of variable d until a
    # new image at depth formed clears it; tails[d] holds the rest.  A kept
    # run is not far, so it spells at most |U| + the reach past it.
    heads: list[list] = [[] for _ in range(free)]
    tails = [steps[stop[d]:stop[d + 1]] for d in range(free)]
    leads: list[Optional[dict]] = [None] * free
    clears: list[list[dict]] = [[] for _ in range(free)]
    formed = -1
    for d in range(1, free):
        if stop[d - 1] < stop[d]:
            formed = d - 1
            continue
        run = 0
        for gen, *_ in tails[d]:
            if gen != d and gen > formed:
                break
            run += 1
        if not run:
            continue
        held = len(candidates) * (size_u + tails[d][run - 1][3])
        if held <= spare:
            spare -= held
            heads[d], tails[d], leads[d] = tails[d][:run], tails[d][run:], {}
            if formed >= 0:
                clears[formed].append(leads[d])
    # the candidate indices of the images the walk has assigned, y_n last
    picks = [0] * nvars
    violations: list[Violation] = []
    explored = 0

    def extend(value: Word, run: list) -> Optional[Word]:
        """``value`` times the syllables of ``run`` under the picked images,
        or None once a product P is far from U, beyond the reach of the
        syllables after it; d(P, U) lies between |P| - |U| and |P| + |U|,
        so lengths settle most cases."""
        for gen, exp, row, room in run:
            i = picks[gen]
            power = row[i]
            if power is None:
                power = candidates[i] ** exp
                if keep:
                    row[i] = power
            value = value * power
            size = value.length
            if size + size_u > room and (abs(size - size_u) > room or free_word_metric(value, u) > room):
                return None
        return value

    def leaf(value: Word) -> None:
        """The block under ``value``, W but a solved y_n: count it and
        record its violation, if any."""
        nonlocal explored
        covered = min(block, budget - explored)
        explored += covered
        if solved:
            found = index.get(value.inverse() * u)
            # a block cut by the budget holds only its first `covered` images
            if found is None or found >= covered:
                return
            picks[free] = found
        elif value != u:
            return
        images = [candidates[i] for i in picks]
        assignment = dict(zip(var_names, images))
        if any(assignment == c for c in canonical):
            return
        # re-verify through the independent letter-level evaluator
        if _letter_evaluate(w, images) != u:
            raise AssertionError("search and letter oracle disagree")
        violations.append(Violation(assignment))

    def walk(depth: int, value: Word) -> None:
        """Every assignment of variable ``depth`` under the partial product
        ``value`` of syllables ..stop[depth]-1."""
        nonlocal explored
        head, tail, cache, resets = heads[depth], tails[depth], leads[depth], clears[depth]
        below = weight[depth + 1]
        for i in range(len(candidates)):
            if explored >= budget:
                return
            picks[depth] = i
            for reset in resets:
                reset.clear()
            if cache is None:
                partial = extend(value, tail)
            else:
                if i in cache:
                    partial = cache[i]
                else:
                    partial = cache[i] = extend(value, head)
                if partial is not None:
                    partial = extend(partial, tail)
            if partial is None:
                explored += min(below, budget - explored)
            elif depth + 1 == free:
                leaf(partial)
            else:
                walk(depth + 1, partial)

    walk(0, alph.identity())
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


@dataclass(frozen=True)
class CertificateResult:
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

    def to_json_dict(self) -> dict:
        return {
            "m_phi": [list(r) for r in self.m_phi],
            "m_psi": [list(r) for r in self.m_psi],
            "det_phi": self.det_phi,
            "det_psi": self.det_psi,
            "verdict": "pass" if self.ok else "fail",
        }


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
