"""Counting quasimorphisms on free groups, with exact rational arithmetic.

A counting quasimorphism takes the signed occurrences of a fixed pattern
in the reduced word; the pattern of one letter x_i gives the exponent-sum
homomorphism on x_i, whose defect is exactly zero.  Defect estimation is
sampling-based and yields lower bounds only; each sampled gap
q(fg) - q(f) - q(g) is read off the letters next to the cancellation
between f and g, never from a recount of fg.  Homogenization is by
truncation q(g^M)/M with the standard subadditivity error D/M, and
conjugacy invariance is measured by the truncated residual against its
bound; q(g^M) is exact and affine in M past a threshold, so any
truncation costs O(|g| + |pattern|).  A value q(w) spells w out and
compares |w| * |pattern| letters, so both carry a budget, checked before
any letter is spelled; homogenization and the invariance check read the
length of every value they will count off the cores and check them all
(a homogenization table, every truncation's) before the first count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .words import POWER_BUDGET, BudgetExceeded, Word, WordError

# letters of a pattern, spelled out with its inverse once per quasimorphism
PATTERN_BUDGET = 10**6
# |w| * |pattern| for one value q(w): the letters its windows compare
COUNT_BUDGET = 10**7


@dataclass(frozen=True)
class QuasiMorphism:
    """Signed occurrences of ``pattern`` in reduced words; see ``counting_qm``."""

    pattern: Word
    # signed letters of the pattern and of its inverse
    probes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        letters = tuple(self.pattern.letters())
        object.__setattr__(self, "probes", (letters, tuple(-l for l in reversed(letters))))

    def __call__(self, w: Word) -> Fraction:
        self._require_count_budget(len(w))
        return Fraction(self._signed_count(tuple(w.letters())))

    def _require_count_budget(self, length: int) -> None:
        """Refuse to count in a word of ``length`` letters past ``COUNT_BUDGET``."""
        if length * len(self.pattern) > COUNT_BUDGET:
            raise BudgetExceeded(
                f"counting a pattern of {len(self.pattern)} letters in a word of {length} letters "
                f"exceeds the budget of {COUNT_BUDGET} letter comparisons"
            )

    def _signed_count(self, text: tuple[int, ...]) -> int:
        """Occurrences of the pattern in the letter sequence minus those of its inverse."""
        probe, inverse = self.probes
        k = len(probe)
        count = 0
        for i in range(len(text) - k + 1):
            window = text[i:i + k]
            count += (window == probe) - (window == inverse)
        return count

    def gap(self, f: Word, g: Word) -> int:
        """q(fg) - q(f) - q(g), from the letters around the cancellation.

        Write f = f'c and g = c^{-1}g' reduced, with c the cancelled part,
        so that fg = f'g'.  For a pattern of length k let cross(A|B) be the
        signed count in the last k - 1 letters of A followed by the first
        k - 1 letters of B: exactly the windows of AB that meet both A and
        B.  Counting the windows of f'g', f'c and c^{-1}g' by where they lie,
        and using q(c^{-1}) = -q(c),

            q(fg) - q(f) - q(g) = cross(f'|g') - cross(f'|c) - cross(c^{-1}|g').

        The last k - 1 letters of c^{-1} invert the first k - 1 of c, so
        the work depends only on k and on the syllables of c.  When f or g
        is the identity the gap is 0 at once, since q(1) = 0.
        """
        if f.alphabet is not g.alphabet:
            f._require_same_alphabet(g)
        left, right = f.syllables, g.syllables
        if not left or not right:
            return 0
        i, j, n = len(left), 0, len(right)
        while i and j < n and left[i - 1].gen == right[j].gen and left[i - 1].exp == -right[j].exp:
            i -= 1
            j += 1
        # c is the last `part` letters of left[i - 1], then left[i:]
        part = 0
        if i and j < n and left[i - 1].gen == right[j].gen and (left[i - 1].exp > 0) != (right[j].exp > 0):
            part = min(abs(left[i - 1].exp), abs(right[j].exp))
        width = len(self.probes[0]) - 1
        f_end = _letters_before(left, i, part, width)
        g_start = _letters_from(right, j, part, width)
        if part:
            c_start = _letters_from(left, i - 1, abs(left[i - 1].exp) - part, width)
        else:
            c_start = _letters_from(left, i, 0, width)
        c_inverse_end = tuple(-l for l in reversed(c_start))
        return (
            self._signed_count(f_end + g_start)
            - self._signed_count(f_end + c_start)
            - self._signed_count(c_inverse_end + g_start)
        )


def _letter(gen: int, exp: int) -> int:
    return gen + 1 if exp > 0 else -gen - 1


def _letters_from(syllables: tuple, index: int, drop: int, count: int) -> tuple[int, ...]:
    """Up to ``count`` letters of syllables[index:], after its first ``drop``."""
    out: list[int] = []
    while len(out) < count and index < len(syllables):
        gen, exp = syllables[index]
        out += [_letter(gen, exp)] * min(abs(exp) - drop, count - len(out))
        drop = 0
        index += 1
    return tuple(out)


def _letters_before(syllables: tuple, index: int, drop: int, count: int) -> tuple[int, ...]:
    """Up to ``count`` last letters of syllables[:index], before its last ``drop``."""
    out: list[int] = []
    while len(out) < count and index:
        index -= 1
        gen, exp = syllables[index]
        out += [_letter(gen, exp)] * min(abs(exp) - drop, count - len(out))
        drop = 0
    return tuple(reversed(out))


def counting_qm(pattern: Word) -> QuasiMorphism:
    """Signed subword counting: occurrences of the pattern minus occurrences
    of its inverse, over the reduced word only (no cyclic counting)."""
    if pattern.is_identity():
        raise WordError("pattern must be nonidentity")
    if not pattern.is_cyclically_reduced():
        raise WordError("pattern must be cyclically reduced")
    if len(pattern) > PATTERN_BUDGET:
        raise BudgetExceeded(f"pattern of {len(pattern)} letters exceeds the budget of {PATTERN_BUDGET} letters")
    return QuasiMorphism(pattern)


class DefectEstimate(NamedTuple):
    lower_bound: Fraction
    sample_count: int

    def to_json_dict(self) -> dict:
        return {"lower_bound": str(self.lower_bound), "sample_count": self.sample_count}


def defect_estimate(q: QuasiMorphism, sample_pairs: Iterable[tuple[Word, Word]]) -> DefectEstimate:
    """max |q(fg) - q(f) - q(g)| over the given pairs, read one at a time;
    a lower bound for the true defect, never an upper bound."""
    best = count = 0
    for count, (f, g) in enumerate(sample_pairs, 1):
        gap = abs(q.gap(f, g))
        if gap > best:
            best = gap
    return DefectEstimate(Fraction(best), count)


def _power_value(q: QuasiMorphism, g: Word, m: int) -> Fraction:
    """q(g^m) for m >= 1 without building g^m when m is large.

    For a pattern of length k, write g = t c t^{-1} with c cyclically
    reduced and n = |c| > 0.  For m >= 1 the letters of g^m are
    T C^m T^{-1} with no cancellation (T, C the letters of t, c).  Suppose k - 1 <= m n, and compare the
    windows of length k in T C^{m+1} T^{-1} with those in T C^m T^{-1}:
      - a window starting inside T ends within T C^m, since
        |T| - 1 + k <= |T| + m n, and reads the same in both words;
      - a window starting at or past |T| + n lies in the suffix C^m T^{-1},
        which starts n letters earlier in the shorter word;
      - the n windows starting in the first period of C lie inside C^{m+1}
        and read each cyclic rotation of C once.
    The first two kinds match the windows of T C^m T^{-1} one to one, so
    q(g^{m+1}) - q(g^m) is the cyclic signed count of c, whatever m is.
    m0 = ceil(k/n) + 2 exceeds both 1 and (k - 1)/n, so q(g^m) is affine
    in m from m0 on, and the two short powers g^m0 and g^(m0+1) give it
    exactly.
    """
    counted = _counted_powers(q, g, m)
    if not counted:
        return Fraction(0)
    if len(counted) == 1:
        return q(g ** m)
    m0 = counted[0][1]
    base = q(g ** m0)
    return base + (m - m0) * (q(g ** (m0 + 1)) - base)


def _counted_powers(q: QuasiMorphism, g: Word, m: int) -> tuple[tuple[Word, int], ...]:
    """The pairs (g, k) of the powers g^k that ``_power_value(q, g, m)``
    counts, in the order it counts them; a truncation m < 1 is refused."""
    if m < 1:
        raise WordError("truncation must be >= 1")
    core, _ = g.cyclic_reduce()
    n = len(core)
    if not n:
        return ()
    m0 = (len(q.probes[0]) + n - 1) // n + 2
    return ((g, m),) if m <= m0 else ((g, m0), (g, m0 + 1))


def _check_counts(q: QuasiMorphism, powers: Iterable[tuple[Word, int]]) -> None:
    """Refuse the first value q(g^k) past ``COUNT_BUDGET``, taking the
    pairs (g, k >= 1) in the order they will be counted, before any is.

    With g = t c t^{-1} and c cyclically reduced, g^k = t c^k t^{-1} is
    reduced as written, so |g^k| = |g| + (k - 1)|c|: no power is built.  A
    power that ``Word.__pow__`` refuses, k >= 2 copies of a core of two or
    more syllables past ``POWER_BUDGET`` letters, ends the check, since
    building it raises before it would be counted.
    """
    for g, k in powers:
        core, _ = g.cyclic_reduce()
        if k > 1 and len(core.syllables) > 1 and k * len(core) > POWER_BUDGET:
            return
        q._require_count_budget(len(g) + (k - 1) * len(core))


class HomogenizationResult(NamedTuple):
    value: Fraction
    truncation: int
    error_bound: Fraction

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "truncation": self.truncation,
            "error_bound": str(self.error_bound),
        }


def homogenize(q: QuasiMorphism, g: Word, truncation: int, defect: Fraction) -> HomogenizationResult:
    """Truncated homogenization q(g^M)/M with error bound D/M.

    The caller supplies D, a bound for the defect; a one-letter pattern is
    a homomorphism, whose defect is exactly zero.  A truncation below 1 is
    refused.
    """
    _check_counts(q, _counted_powers(q, g, truncation))
    value = _power_value(q, g, truncation) / truncation
    return HomogenizationResult(value, truncation, Fraction(defect) / truncation)


def homogenization_table(q: QuasiMorphism, g: Word, truncations: Sequence[int], defect: Fraction) -> list[HomogenizationResult]:
    """``homogenize`` at each truncation, with every truncation and count of
    the table checked, in table order, before the first count."""
    _check_counts(q, (power for m in truncations for power in _counted_powers(q, g, m)))
    return [homogenize(q, g, m, defect) for m in truncations]


class InvarianceCheck(NamedTuple):
    residual: Fraction
    bound: Fraction

    @property
    def within_bound(self) -> bool:
        return self.residual <= self.bound

    def to_json_dict(self) -> dict:
        return {
            "residual": str(self.residual),
            "bound": str(self.bound),
            "within_bound": self.within_bound,
        }


def conjugacy_invariance_check(
    q: QuasiMorphism, g: Word, u: Word, truncation: int, defect: Fraction
) -> InvarianceCheck:
    """Residual |q(g^M) - q((u^{-1} g u)^M)| / M against 2(|q(u)| + D)/M.

    Homogenized quasimorphisms are conjugacy invariant; the truncated
    residual decays at the stated rate.
    """
    m = truncation
    h = g.conjugate(u)
    _check_counts(q, [*_counted_powers(q, g, m), *_counted_powers(q, h, m), (u, 1)])
    residual = abs(_power_value(q, g, m) / m - _power_value(q, h, m) / m)
    bound = 2 * (abs(q(u)) + Fraction(defect)) / m
    return InvarianceCheck(residual, bound)
