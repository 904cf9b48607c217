"""Decision procedures in free groups.

Conjugacy via cyclic normal forms, maximal roots, commensurability and
special tuples; ``root(w).root`` generates the elementary (maximal cyclic)
subgroup E(w).  Conjugacy and roots share one Knuth-Morris-Pratt prefix
function, so both take linear time.  Every positive answer carries a
witness that re-verifies by plain word arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .words import Syllable, Word, WordError


class ConjugacyWitness(NamedTuple):
    """g such that g^{-1} u g = v."""

    conjugator: Word


class RootData(NamedTuple):
    root: Word
    exponent: int


class CommensurabilityWitness(NamedTuple):
    """(g, s, t) with u^s = g^{-1} v^t g, s and t nonzero."""

    conjugator: Word
    s: int
    t: int


def is_conjugate(u: Word, v: Word) -> Optional[ConjugacyWitness]:
    """Decide conjugacy; exact via rotation of cyclic normal forms, the
    rotation found by string matching in linear time."""
    u._require_same_alphabet(v)
    cu, pu = u.cyclic_reduce()
    cv, pv = v.cyclic_reduce()
    lu, lv = list(cu.letters()), list(cv.letters())
    if len(lu) != len(lv):
        return None
    if not lu:
        return ConjugacyWitness(u.alphabet.identity())
    n = len(lu)
    # the first rotation of lu equal to lv is the first match of lv in
    # lu + lu; 0 is no letter, so no border crosses it
    prefix = _prefix_function(lv + [0] + lu + lu)
    for end in range(2 * n, 3 * n):
        if prefix[end] == n:
            shift = end - 2 * n
            # cu = x y and cv = y x with x the first `shift` letters,
            # so cv = x^{-1} cu x and g = pu x pv^{-1} conjugates u to v
            x = Word.from_letters(u.alphabet, lu[:shift])
            g = pu * x * pv.inverse()
            return ConjugacyWitness(g)
    return None


def _prefix_function(seq: Sequence) -> list[int]:
    """prefix[i]: length of the longest proper border of seq[:i + 1]
    (Knuth-Morris-Pratt), in linear time."""
    prefix = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = prefix[k - 1]
        if seq[i] == seq[k]:
            k += 1
        prefix[i] = k
    return prefix


def root(w: Word) -> RootData:
    """Write w = r^e with e maximal; r is then not a proper power.

    The cyclic core is r0^e exactly when rotating it by |core|/e letters
    gives it back, so e is the number of rotations that fix the cyclic
    word, and it is read off the syllables, never the letters.  A core of
    one syllable x^k has e = |k|.  Otherwise, when the first and last
    syllables share a generator they share a sign (the core is cyclically
    reduced), so they merge into one; the merged sequence spells the
    cyclic word from a syllable boundary, with no two cyclic neighbours on
    one generator.  A rotation that fixes the cyclic word maps syllables
    to syllables, so the rotations that fix it are those of the merged
    sequence: its shortest period p, from the KMP prefix function, when p
    divides its length L, and e = L/p; otherwise e = 1.  Linear in the
    syllables.
    """
    if w.is_identity():
        raise WordError("identity has no well-defined root")
    core, conj = w.cyclic_reduce()
    syllables = core.syllables
    if len(syllables) == 1:
        exponent = abs(syllables[0].exp)
    else:
        cyclic = list(syllables)
        first, last = cyclic[0], cyclic[-1]
        if first.gen == last.gen:
            cyclic[0] = Syllable(first.gen, first.exp + last.exp)
            cyclic.pop()
        size = len(cyclic)
        period = size - _prefix_function(cyclic)[-1]
        exponent = 1 if size % period else size // period
    if exponent == 1:
        return RootData(w, 1)
    # the first |core|/e letters of a reduced word: cut the syllables there
    period = len(core) // exponent
    piece, left = [], period
    for gen, exp in syllables:
        if left <= abs(exp):
            piece.append(Syllable(gen, left if exp > 0 else -left))
            break
        piece.append(Syllable(gen, exp))
        left -= abs(exp)
    r = Word._reduced(w.alphabet, tuple(piece), period)
    return RootData(conj * r * conj.inverse(), exponent)


def is_commensurable(u: Word, v: Word) -> Optional[CommensurabilityWitness]:
    """Decide whether u^s is conjugate to v^t for some nonzero s, t.

    In a free group this reduces to conjugacy of the maximal roots up to
    inversion, which is exact.  The returned witness satisfies
    u^s = g^{-1} v^t g.
    """
    if u.is_identity() or v.is_identity():
        raise WordError("commensurability is defined for nonidentity elements")
    ru, eu = root(u)
    rv, ev = root(v)
    direct = is_conjugate(rv, ru)
    if direct is not None:
        # (g^{-1} rv g)^{eu ev} = ru^{eu ev} = u^{ev}
        return CommensurabilityWitness(direct.conjugator, ev, eu)
    flipped = is_conjugate(rv.inverse(), ru)
    if flipped is not None:
        return CommensurabilityWitness(flipped.conjugator, ev, -eu)
    return None


def is_special_tuple(ws: Sequence[Word]) -> bool:
    """Whether each word is special and all pairs are non-commensurable.

    Over the standard basis of a free group, special means nonidentity and
    not a proper power, so that E(w) = <w>.
    """
    for i, w in enumerate(ws):
        if w.is_identity():
            raise WordError(f"tuple entry {i} is the identity")
    for w in ws:
        if root(w).exponent > 1:
            return False
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if is_commensurable(ws[i], ws[j]) is not None:
                return False
    return True
