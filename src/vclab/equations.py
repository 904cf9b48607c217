"""The equation family x^n y^m = a^n b^m in free groups.

The conjugation orbit of the base solution, exhaustive bounded solving
with two prunes and a root-based solve for y, classification
of each solution into a structural family (the orbit, Bezout powers of
the right-hand side, swapped conjugates, a shared maximal cyclic
subgroup), and bounded perfectness verification.  A report
can only refute perfectness or fail to refute it at a bound; no finite
run certifies the unbounded statement.

The prunes map the equation to a group where y^m vanishes: the
abelianization modulo m, walked beside the shortlex enumeration without
reading x, and then a class-2 nilpotent quotient of exponent dividing m,
where x must meet one more congruence per pair of generators (the proof is
in ``_class2_survivors``).  Every solution passes both.
"""

from __future__ import annotations

import enum
import functools
import os
from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .words import Alphabet, BudgetExceeded, Word, WordError, enumerate_reduced, letter_order, reduced_count_exceeds
from .oracles import is_conjugate, root

# reduced x a search may enumerate, whatever max_candidates asks: bound 14
# at rank 2 (9,565,937 words) took 10-12 s and 107 MiB peak RSS, n = 2,
# m = 3, as a CLI run on a shared 2-core host (bound 12, 1,062,881 words,
# 1.2-1.3 s and 26 MiB)
CANDIDATE_CAP = 10**7


class EquationInstance:
    """Data (a, b, n, m) of x^n y^m = a^n b^m with cached right-hand side g."""

    def __init__(self, a: Word, b: Word, n: int, m: int) -> None:
        if a.is_identity() or b.is_identity():
            raise WordError("coefficients a, b must be nonidentity")
        if n < 1 or m < 1:
            raise WordError("exponents n, m must be positive")
        a._require_same_alphabet(b)
        self.a, self.b, self.n, self.m, self.g = a, b, n, m, a ** n * b ** m

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is EquationInstance else NotImplemented

    @property
    def alphabet(self) -> Alphabet:
        return self.a.alphabet


class SolutionPair(NamedTuple):
    x: Word
    y: Word


class Tag(enum.Enum):
    CONJUGATE_FAMILY = "CONJUGATE_FAMILY"
    GCD_FAMILY = "GCD_FAMILY"
    SWAPPED = "SWAPPED"
    COMMON_E = "COMMON_E"
    UNCLASSIFIED = "UNCLASSIFIED"


class Classification(NamedTuple):
    tag: Tag
    witness: dict


def is_solution(inst: EquationInstance, p: SolutionPair) -> bool:
    p.x._require_same_alphabet(inst.a)
    return p.x ** inst.n * p.y ** inst.m == inst.g


def conjugate_family(inst: EquationInstance, alpha: int) -> SolutionPair:
    """The solution (a, b) conjugated by g^alpha; solves for every alpha."""
    h = inst.g ** alpha
    return SolutionPair(inst.a.conjugate(h), inst.b.conjugate(h))


def power_exponent_of(base: Word, x: Word) -> Optional[int]:
    """Return s with base^s == x, or None.  Exact via length arithmetic."""
    if x.is_identity():
        return 0
    if base.is_identity():
        return None
    core, conj = base.cyclic_reduce()
    excess = len(x) - 2 * len(conj)
    if excess <= 0 or excess % len(core):
        return None
    s = excess // len(core)
    if base ** s == x:
        return s
    if base ** (-s) == x:
        return -s
    return None


def brute_force_solutions(
    inst: EquationInstance,
    bound: int,
    max_candidates: Optional[int] = None,
    jobs: int = 1,
) -> list[SolutionPair]:
    """All solution pairs with both components of length <= bound.

    Enumerates x only: y is forced, since in a free group x^{-n} g is an
    m-th power in at most one way.  Every reduced x comes from
    ``enumerate_reduced`` as its syllable tuple; x is dropped unless the
    abelianized equation n*sigma(x) + m*sigma(y) = sigma(g) has an integer
    solution sigma(y), sigma being the vector of exponent sums: every
    solution passes this test, which ``_abelian_survivors`` decides for
    each position of a shard's shortlex order, reading no syllable of x,
    and only then builds x as a ``Word``.  A survivor is then
    mapped to a class-2 nilpotent group Q of exponent dividing m, where y^m
    vanishes too, so phi(x)^n = phi(g) in Q; for every pair i < j of
    generators that is one more congruence,
    n*c_ij(x) + C(n, 2)*sigma_i(x)*sigma_j(x) = c_ij(g) modulo m' (m' = m
    for odd m, m/2 for even m), where c_ij(w) sums e times the exponent sum
    of x_j before each syllable x_i^e of w; ``_class2_survivors`` proves it.
    Before ``root`` is taken, x is also dropped when the length of
    x^{-n} g rules out an m-th root of length <= bound.

    The search is split into one shard per first letter; the parent
    handles x = 1.  ``jobs`` > 1 runs the shards in a process pool of
    ``min(jobs, cpu_count, 2 * rank)`` workers, each enumerating its own
    shard and returning only its solutions.  All reduced x, the
    ``count_reduced`` total, are capped at ``max_candidates`` and never
    more than ``CANDIDATE_CAP``.  Sorted by length, then letters, of x,
    which determines y: a stable sort by length, as x = 1 and then the
    shards in letter order each come in ``enumerate_reduced``'s order.
    """
    if bound < 0:
        raise WordError("bound must be >= 0")
    rank = inst.alphabet.rank
    cap = CANDIDATE_CAP if max_candidates is None else min(max_candidates, CANDIDATE_CAP)
    if reduced_count_exceeds(rank, bound, cap):
        raise BudgetExceeded(f"x-candidates of length <= {bound} exceed cap {cap}")
    n, m = inst.n, inst.m
    # x = 1, the one word of length 0
    ones = [Word._reduced(inst.alphabet, syllables, 0) for syllables in enumerate_reduced(inst.alphabet, 0)]
    found = _solve_candidates(ones, n, m, inst.g, bound)
    shards = list(letter_order(rank)) if bound else []
    solve = functools.partial(_solve_shard, inst, bound)
    # never more workers than CPUs or shards, whatever jobs asks for
    workers = min(jobs, os.cpu_count() or 1, len(shards))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(solve, shards))
    else:
        parts = [solve(first) for first in shards]
    found += [pair for part in parts for pair in part]
    found.sort(key=lambda p: len(p.x))
    return found


def _solve_shard(inst: EquationInstance, bound: int, first: tuple[int, int]) -> list[SolutionPair]:
    """The solutions whose x starts with the letter ``first``."""
    g, n, m = inst.g, inst.n, inst.m
    xs = enumerate_reduced(g.alphabet, bound, first)
    survivors = _class2_survivors(_abelian_survivors(xs, g, n, m, bound, first), g, n, m)
    return _solve_candidates(survivors, n, m, g, bound)


def _abelian_survivors(xs: Iterable[tuple], g: Word, n: int, m: int, bound: int, first: tuple[int, int]) -> Iterator[Word]:
    """The words x of ``xs`` with n*sigma(x) = sigma(g) modulo m, in order,
    where ``xs`` holds, position by position, the syllables of
    ``enumerate_reduced(g.alphabet, bound, first)``; no x is read, and a
    ``Word`` is built for the survivors alone.

    Level 1 of that shard is ``first``, and level L lists, for each word of
    level L-1 in turn, its extensions by every letter but the inverse of its
    last one, in letter order: (2*rank - 1)^(L-1) words of L letters.  So a
    walk over the states (sigma(x) mod m, last letter), level by level,
    marks each position and knows its length: ``children`` maps a state to
    its children's states and ``kept`` to their verdicts, both filled on
    first use, for at most min(m, 2*bound + 1)^rank * 2*rank states.
    """
    alph = g.alphabet
    rank = alph.rank
    letters = list(letter_order(rank))
    size = len(letters)
    target = g.exponent_sums()

    # a state is code * size + k: letter k is last, and digit i of code in
    # base m is sigma_i(x) mod m
    def child(code: int, k: int) -> int:
        gen, sign = letters[k]
        digit = code // m ** gen % m
        return (code + ((digit + sign) % m - digit) * m ** gen) * size + k

    def passes(state: int) -> bool:
        code = state // size
        return all((target[i] - n * (code // m ** i % m)) % m == 0 for i in range(rank))

    shard = iter(xs)

    def built(length: int, verdicts: Iterable[bool]) -> Iterator[Word]:
        """The words of level ``length`` whose verdicts pass."""
        return map(Word._reduced, repeat(alph), compress(islice(shard, (size - 1) ** (length - 1)), verdicts), repeat(length))

    children: dict[int, tuple[int, ...]] = {}
    kept: dict[int, tuple[bool, ...]] = {}

    def levels() -> Iterator[Iterator[Word]]:
        """The survivors of each level in turn."""
        level = [child(0, letters.index(first))]
        verdicts: Iterable[bool] = map(passes, level)
        for length in range(1, bound + 1):
            yield built(length, verdicts)
            if length == bound:
                return
            # the verdicts of level length + 1, and its states if it has children
            for state in set(level).difference(children):
                code, last = divmod(state, size)
                kids = children[state] = tuple(child(code, k) for k in range(size) if k != last ^ 1)
                kept[state] = tuple(map(passes, kids))
            verdicts = chain.from_iterable(map(kept.__getitem__, level))
            if length + 1 < bound:
                level = list(chain.from_iterable(map(children.__getitem__, level)))

    # the levels are chained, so no generator frame is resumed per survivor
    return chain.from_iterable(levels())


def _class2_survivors(xs: Iterable[Word], g: Word, n: int, m: int) -> Iterable[Word]:
    """The x in ``xs`` whose image in a class-2 quotient of exponent m
    passes the equation's test, in order; every x when that test is empty.

    Let m' = m for odd m and m' = m/2 for even m, r the rank, and
    Q = Z_m^r x Z_m'^(r(r-1)/2) with

        (s, c)(s', c') = (s + s', c + c' + beta(s, s')),
        beta(s, s')_ij = s_j * s'_i  for i < j.

    beta is bilinear (and well defined, as m' divides m), so the product
    is associative, with identity (0, 0) and (s, c)^-1 = (-s, -c + beta(s, s)).
    By induction (s, c)^k = (k s, k c + C(k, 2) beta(s, s)) for every
    integer k.  m' divides m and C(m, 2) = m (m - 1) / 2, so every element
    has order dividing m.  Since beta(e_i, e_i) = 0, x_i -> (e_i, 0)
    extends to a homomorphism phi: F_r -> Q with phi(x_i^e) = (e e_i, 0),
    and phi(w) = (sigma(w), c(w)), where c_ij(w) is the sum, over the
    syllables x_i^e of w, of e times the exponent sum of x_j before that
    syllable.  A solution has phi(y)^m = 1, so phi(x)^n = phi(g):

        n sigma(x) = sigma(g)  (mod m),
        n c_ij(x) + C(n, 2) sigma_i(x) sigma_j(x) = c_ij(g)  (mod m'), i < j.

    The first line is ``_abelian_survivors``'s test; this stage checks the
    second, one pass over the syllables of x per pair i < j, and stops at
    the first pair that fails.  With m' = 1 (m <= 2) or rank 1 it says
    nothing, and every x passes.
    """
    rank = g.alphabet.rank
    half = m if m % 2 else m // 2
    if rank == 1 or half == 1:
        return xs
    choose = n * (n - 1) // 2

    def sums(w: Word, i: int, j: int) -> tuple[int, int, int]:
        """sigma_i(w), sigma_j(w) and c_ij(w)."""
        si = sj = c = 0
        for gen, exp in w.syllables:
            if gen == j:
                sj += exp
            elif gen == i:
                c += exp * sj
                si += exp
        return si, sj, c

    targets = [(i, j, sums(g, i, j)[2]) for i in range(rank) for j in range(i + 1, rank)]

    def passes(x: Word) -> bool:
        for i, j, target in targets:
            si, sj, c = sums(x, i, j)
            if (n * c + choose * si * sj - target) % half:
                return False
        return True

    return filter(passes, xs)


def _solve_candidates(xs: Iterable[Word], n: int, m: int, g: Word, bound: int) -> list[SolutionPair]:
    """The pairs (x, y) with x^n y^m = g and |y| <= bound, x taken from ``xs``."""
    out = []
    for x in xs:
        rem = x ** -n * g
        if rem.is_identity():
            y = x.alphabet.identity()
        else:
            size = _root_length(rem, m)
            if size is None or size > bound:
                continue
            rd = root(rem)
            if rd.exponent % m:
                continue
            y = rd.root ** (rd.exponent // m)
        if len(y) <= bound:
            out.append(SolutionPair(x, y))
    return out


def _root_length(w: Word, m: int) -> Optional[int]:
    """|y| if w = y^m for some y, read off lengths alone; None when the
    lengths rule every y out.

    Write y = t c t^{-1}, reduced as written, with c cyclically reduced.
    Then y^m = t c^m t^{-1} is reduced as written and c^m is cyclically
    reduced, so the cyclic core of w is c^m, of length L = m|c|, and
    |y| = 2|t| + |c| = |w| - L + L/m.  So m divides L, or w is no m-th power.
    With w = u core u^{-1} reduced as written, |w| - L = 2|u|.
    """
    core, conj = w.cyclic_reduce()
    size = len(core)
    if size % m:
        return None
    return 2 * len(conj) + size // m


def classify_solution(inst: EquationInstance, p: SolutionPair) -> Classification:
    """Tag a solution, trying the structural families first.

    Order: conjugate family, Bezout family, swapped conjugates, common
    maximal-cyclic subgroup, unclassified.  Every witness re-verifies
    exactly.

    No tag is needed for x^n in E(y) (or y^m in E(x)) with E(x) != E(y):
    write x = t c t^{-1}, reduced as written with c cyclically reduced, so
    x^n = t c^n t^{-1} and root(x^n).root = root(x).root.  If x^n = ey^s
    with ey = root(y).root, then s != 0, and root(x).root = root(ey^s).root,
    which is ey or ey^{-1}: the common-subgroup test has tagged the pair.
    """
    if not is_solution(inst, p):
        raise WordError("classify_solution requires a genuine solution")
    window = (len(p.x) + len(p.y)) // max(1, len(inst.g)) + 1
    for alpha in range(-window, window + 1):
        if conjugate_family(inst, alpha) == p:
            return Classification(Tag.CONJUGATE_FAMILY, {"alpha": alpha})
    s = power_exponent_of(inst.g, p.x)
    t = power_exponent_of(inst.g, p.y)
    if s is not None and t is not None and inst.n * s + inst.m * t == 1:
        return Classification(Tag.GCD_FAMILY, {"s": s, "t": t})
    swap_x = is_conjugate(p.x, inst.b)
    swap_y = is_conjugate(p.y, inst.a)
    if swap_x is not None and swap_y is not None:
        return Classification(
            Tag.SWAPPED,
            {"x_to_b": swap_x.conjugator, "y_to_a": swap_y.conjugator},
        )
    if not p.x.is_identity() and not p.y.is_identity():
        # E(w) is the maximal cyclic subgroup containing w, generated by its root
        ex, ey = root(p.x).root, root(p.y).root
        if ex == ey or ex == ey.inverse():
            return Classification(Tag.COMMON_E, {"e_generator": ex})
    return Classification(Tag.UNCLASSIFIED, {})


class PerfectnessReport(NamedTuple):
    instance: EquationInstance
    bound: int
    solutions: list[tuple[SolutionPair, Classification]]
    perfect_at_bound: bool
    hypothesis_flags: dict

    def exceptions(self) -> list[tuple[SolutionPair, Classification]]:
        return [(p, c) for p, c in self.solutions if c.tag is not Tag.CONJUGATE_FAMILY]


def verify_perfect(
    inst: EquationInstance,
    bound: int,
    ell: int = 1,
    threshold: int = 0,
    max_candidates: Optional[int] = None,
    jobs: int = 1,
) -> PerfectnessReport:
    """Classify every bounded solution and flag non-conjugate-family ones.

    ell and threshold are the (non-effective) divisor and size parameters
    of the perfectness statement; they are recorded as hypothesis flags,
    never enforced.
    """
    if ell < 1:
        raise WordError("ell must be >= 1")
    if threshold < 0:
        raise WordError("threshold must be >= 0")
    pairs = brute_force_solutions(inst, bound, max_candidates=max_candidates, jobs=jobs)
    tagged = [(p, classify_solution(inst, p)) for p in pairs]
    flags = {
        "ell": ell,
        "threshold": threshold,
        "n_ne_m": inst.n != inst.m,
        "n_in_ell_N": inst.n % ell == 0,
        "m_in_ell_N": inst.m % ell == 0,
    }
    perfect = all(c.tag is Tag.CONJUGATE_FAMILY for _, c in tagged)
    return PerfectnessReport(inst, bound, tagged, perfect, flags)
