"""Counting quasimorphisms on free groups, with exact rational arithmetic.

A counting quasimorphism takes the signed occurrences of a fixed pattern
in the reduced word; the pattern of one letter x_i gives the exponent-sum
homomorphism on x_i, whose defect is exactly zero.  A value q(w) is
counted on the syllables of w and of the pattern, in time linear in the
syllables, and spells no letter.  Defect estimation is sampling-based
and yields lower bounds only; each sampled gap q(fg) - q(f) - q(g) is
read off the letters next to the cancellation between f and g, never
from a recount of fg, so each quasimorphism spells its pattern out once,
within a budget.  Homogenization is by truncation q(g^M)/M with the
standard subadditivity error D/M, and conjugacy invariance is measured by
the truncated residual against its bound; q(g^M) is exact and affine in M
past a threshold, so any truncation counts two powers of a few copies of
the cyclic core of g, built by the word kernel's power helper without the
power budget.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .oracles import _cyclic_form, _prefix_function
from .words import BudgetExceeded, Word, WordError, _core_power

# letters of a pattern, spelled out with its inverse once per quasimorphism
# for the seam windows of ``QuasiMorphism.gap``
PATTERN_BUDGET = 10**6


class QuasiMorphism:
    """Signed occurrences of ``pattern`` in reduced words; see ``counting_qm``."""

    def __init__(self, pattern: Word) -> None:
        self.pattern = pattern
        # signed letters of the pattern and of its inverse
        letters = tuple(pattern.letters())
        self.probes = letters, tuple(-l for l in reversed(letters))
        # for each g asked about, q(g^m0) and the step of q(g^m) past m0
        # (``_power_value``): a table of truncations counts them once
        self.power_lines: dict[Word, tuple[Fraction, Fraction]] = {}

    @cached_property
    def inverse(self) -> tuple[tuple[int, int], ...]:
        """The syllables of the pattern's inverse, built on the first count."""
        return self.pattern.inverse().syllables

    def __call__(self, w: Word) -> Fraction:
        return Fraction(_occurrences(self.pattern.syllables, w.syllables) - _occurrences(self.inverse, w.syllables))

    def _signed_count(self, text: tuple[int, ...]) -> int:
        """Occurrences of the pattern in the letter sequence minus those of its inverse."""
        probe, inverse = self.probes
        k = len(probe)
        count = 0
        for i in range(len(text) - k + 1):
            window = text[i:i + k]
            count += (window == probe) - (window == inverse)
        return count

    def gap(self, f: tuple[int, ...], g: tuple[int, ...]) -> int:
        """q(fg) - q(f) - q(g) for reduced words f and g given as their
        signed letters (``Word.letters``), from the letters around the
        cancellation.

        Write f = f'c and g = c^{-1}g' reduced, with c the cancelled part,
        so that fg = f'g'.  For a pattern of length k let cross(A|B) be the
        signed count in the last k - 1 letters of A followed by the first
        k - 1 letters of B: exactly the windows of AB that meet both A and
        B.  Counting the windows of f'g', f'c and c^{-1}g' by where they lie,
        and using q(c^{-1}) = -q(c),

            q(fg) - q(f) - q(g) = cross(f'|g') - cross(f'|c) - cross(c^{-1}|g').

        The last k - 1 letters of c^{-1} invert the first k - 1 of c, so
        the work depends only on k and on the length of c.  When f or g
        is the identity the gap is 0 at once, since q(1) = 0; when nothing
        cancels, c is empty and the gap is cross(f|g) alone.
        """
        if not f or not g:
            return 0
        i, j, n = len(f), 0, len(g)
        while i and j < n and f[i - 1] == -g[j]:
            i -= 1
            j += 1
        # c is f[i:], and f' ends at i
        width = len(self.probes[0]) - 1
        f_end, g_start = f[max(i - width, 0):i], g[j:j + width]
        if not j:
            return self._signed_count(f_end + g_start)
        c_start = f[i:i + width]
        c_inverse_end = tuple(-l for l in reversed(c_start))
        return (
            self._signed_count(f_end + g_start)
            - self._signed_count(f_end + c_start)
            - self._signed_count(c_inverse_end + g_start)
        )


def _occurrences(pattern: tuple[tuple[int, int], ...], syllables: tuple[tuple[int, int], ...]) -> int:
    """Occurrences of a reduced pattern in a reduced word, both as syllables.

    A pattern x^k occurs max(0, |e| - |k| + 1) times in each syllable x^e of
    the same sign.  A pattern p_1 ... p_s of s >= 2 syllables changes
    generator after p_1 and before p_s, so it occurs once at syllable i of
    the word exactly when w_i and w_{i+s-1} run the letters of p_1 and p_s
    at least as long, and w_{i+1} ... w_{i+s-2} equal p_2 ... p_{s-1}.  One
    KMP prefix function finds those inner matches in linear time.
    """
    first, last = pattern[0], pattern[-1]
    if len(pattern) == 1:
        return sum(abs(exp - first[1]) + 1 for gen, exp in syllables if _runs(gen, exp, *first))
    inner = len(pattern) - 2
    # None is no syllable, so no border crosses it: an inner match ending at
    # index end is syllables[end - 2 inner : end - inner], between w_i and w_{i+s-1}
    prefix = _prefix_function([*pattern[1:-1], None, *syllables])
    return sum(
        1 for end in range(2 * inner + 1, len(prefix) - 1)
        if prefix[end] == inner and _runs(*syllables[end - 2 * inner - 1], *first) and _runs(*syllables[end - inner], *last)
    )


def _runs(gen: int, exp: int, part_gen: int, part_exp: int) -> bool:
    """Whether the syllable (gen, exp) runs the letter of (part_gen, part_exp) at least |part_exp| times."""
    return gen == part_gen and (0 < part_exp <= exp or exp <= part_exp < 0)


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


def defect_estimate(q: QuasiMorphism, sample_pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]) -> DefectEstimate:
    """max |q(fg) - q(f) - q(g)| over the given pairs of reduced letter
    sequences (``QuasiMorphism.gap``), read one at a time; a lower bound
    for the true defect, never an upper bound."""
    best = count = 0
    for count, (f, g) in enumerate(sample_pairs, 1):
        gap = abs(q.gap(f, g))
        if gap > best:
            best = gap
    return DefectEstimate(Fraction(best), count)


def _power_value(q: QuasiMorphism, g: Word, m: int) -> Fraction:
    """q(g^m) for m >= 1, from powers of at most m0 + 1 copies of the core.

    Write g = t c t^{-1} with c cyclically reduced, so that g^m = t c^m t^{-1}
    up to merging the syllables at each seam.  As a sequence of units,
    letters when c is one syllable x^e and syllables otherwise, g^m is
    H B^{m-d} E for m >= d, with B of P units and H, E fixed:
      - letters: d = 0, B = c, P = |e|;
      - syllables, the ends of c of different generators: d = 2, B = c and
        P = r, as only the first and last copy of c meet t and t^{-1};
      - syllables, both ends of c of generator x: c^m is
        c_1 (c_2 ... c_{r-1} x^{e_r + e_1})^{m-1} c_2 ... c_r, so d = 1, B is
        the bracket and P = r - 1 (``oracles._cyclic_form``).
    A pattern of k units occurs in windows of k units (``_occurrences``).
    If k - 1 <= (m - d) P, the windows of H B^{m+1-d} E that start in H lie
    in H B^{m-d}, and those from |H| + P on lie in the suffix B^{m-d} E, so
    they match the windows of H B^{m-d} E one to one; the P others lie in
    B^{m+1-d} and read each cyclic rotation of B once.  So q(g^{m+1}) -
    q(g^m) is the cyclic count over B, whatever m is.  m0 = ceil(k/P) + 2
    exceeds d and (m0 - d) P >= k, so q(g^m) is affine in m from m0 on, and
    g^m0 and g^(m0+1) give it exactly; ``q.power_lines`` keeps the line, so
    they are counted once for all truncations.  In syllables P >= 2, so they
    hold at most ceil(k/P) + 3 <= k + 3 copies of c; in letters they are a
    few syllables for any m.
    """
    if m < 1:
        raise WordError("truncation must be >= 1")
    core, t, cyclic, _ = _cyclic_form(g)
    if not cyclic:
        return Fraction(0)
    k, period = (len(q.pattern), len(core)) if len(cyclic) == 1 else (len(q.pattern.syllables), len(cyclic))
    m0 = (k + period - 1) // period + 2
    if m <= m0:
        return q(_core_power(core, t, m))
    line = q.power_lines.get(g)
    if line is None:
        base = q(_core_power(core, t, m0))
        line = q.power_lines[g] = base, q(_core_power(core, t, m0 + 1)) - base
    return line[0] + (m - m0) * line[1]


class HomogenizationResult(NamedTuple):
    value: Fraction
    truncation: int
    error_bound: Fraction


def homogenize(q: QuasiMorphism, g: Word, truncation: int, defect: Fraction) -> HomogenizationResult:
    """Truncated homogenization q(g^M)/M with error bound D/M.

    The caller supplies D, a bound for the defect; a one-letter pattern is
    a homomorphism, whose defect is exactly zero.  A truncation below 1 is
    refused.
    """
    value = _power_value(q, g, truncation) / truncation
    return HomogenizationResult(value, truncation, Fraction(defect) / truncation)


class InvarianceCheck(NamedTuple):
    residual: Fraction
    bound: Fraction

    @property
    def within_bound(self) -> bool:
        return self.residual <= self.bound


def conjugacy_invariance_check(
    q: QuasiMorphism, g: Word, u: Word, truncation: int, defect: Fraction
) -> InvarianceCheck:
    """Residual |q(g^M) - q((u^{-1} g u)^M)| / M against 2(|q(u)| + D)/M.

    Homogenized quasimorphisms are conjugacy invariant; the truncated
    residual decays at the stated rate.
    """
    m = truncation
    h = g.conjugate(u)
    residual = abs(_power_value(q, g, m) / m - _power_value(q, h, m) / m)
    bound = 2 * (abs(q(u)) + Fraction(defect)) / m
    return InvarianceCheck(residual, bound)
