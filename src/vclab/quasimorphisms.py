"""Concrete quasimorphisms on free groups, with exact rational arithmetic.

Two kinds are provided: exponent-sum homomorphisms (defect exactly zero)
and counting quasimorphisms (signed occurrences of a fixed pattern in the
reduced word).  Defect estimation is sampling-based and yields lower
bounds only; homogenization is by truncation q(g^M)/M with the standard
subadditivity error D/M, and conjugacy invariance is measured by the
truncated residual against its bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .words import Word, WordError, format_word


class QMKind(enum.Enum):
    HOMOMORPHISM = "homomorphism"
    COUNTING = "counting"


@dataclass(frozen=True)
class QuasiMorphism:
    kind: QMKind
    gen: Optional[int] = None
    pattern: Optional[Word] = None

    def __call__(self, w: Word) -> Fraction:
        if self.kind is QMKind.HOMOMORPHISM:
            return Fraction(w.exponent_sum(self.gen))
        return Fraction(_count_occurrences(w, self.pattern) - _count_occurrences(w, self.pattern.inverse()))

    def describe(self) -> dict:
        if self.kind is QMKind.HOMOMORPHISM:
            return {"kind": self.kind.value, "generator": self.gen}
        return {"kind": self.kind.value, "pattern": format_word(self.pattern)}


def _count_occurrences(w: Word, pattern: Word) -> int:
    text = list(w.letters())
    probe = list(pattern.letters())
    n, k = len(text), len(probe)
    return sum(1 for i in range(n - k + 1) if text[i:i + k] == probe)


def exponent_sum_qm(gen: int) -> QuasiMorphism:
    """The homomorphism w -> exponent sum of w on one generator."""
    if gen < 0:
        raise WordError("generator index must be >= 0")
    return QuasiMorphism(QMKind.HOMOMORPHISM, gen=gen)


def counting_qm(pattern: Word) -> QuasiMorphism:
    """Signed subword counting: occurrences of the pattern minus occurrences
    of its inverse, over the reduced word only (no cyclic counting)."""
    if pattern.is_identity():
        raise WordError("pattern must be nonidentity")
    if not pattern.is_cyclically_reduced():
        raise WordError("pattern must be cyclically reduced")
    return QuasiMorphism(QMKind.COUNTING, pattern=pattern)


@dataclass(frozen=True)
class DefectEstimate:
    lower_bound: Fraction
    sample_count: int

    def to_json_dict(self) -> dict:
        return {"lower_bound": str(self.lower_bound), "sample_count": self.sample_count}


def defect_estimate(q: QuasiMorphism, sample_pairs: Sequence[tuple[Word, Word]]) -> DefectEstimate:
    """max |q(fg) - q(f) - q(g)| over the given pairs; a lower bound for
    the true defect, never an upper bound for counting kinds."""
    best = Fraction(0)
    for f, g in sample_pairs:
        gap = abs(q(f * g) - q(f) - q(g))
        if gap > best:
            best = gap
    return DefectEstimate(best, len(sample_pairs))


@dataclass(frozen=True)
class HomogenizationResult:
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

    The caller supplies D, a bound for the defect; for homomorphisms the
    defect is exactly zero and the value equals q(g) with zero error.
    """
    if truncation < 1:
        raise WordError("truncation must be >= 1")
    value = q(g ** truncation) / truncation
    if q.kind is QMKind.HOMOMORPHISM:
        return HomogenizationResult(value, truncation, Fraction(0))
    return HomogenizationResult(value, truncation, Fraction(defect) / truncation)


@dataclass(frozen=True)
class InvarianceCheck:
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
    if truncation < 1:
        raise WordError("truncation must be >= 1")
    m = truncation
    h = g.conjugate(u)
    residual = abs(q(g ** m) / m - q(h ** m) / m)
    bound = 2 * (abs(q(u)) + Fraction(defect)) / m
    return InvarianceCheck(residual, bound)
