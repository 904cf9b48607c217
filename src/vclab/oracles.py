"""Decision procedures in free groups.

Conjugacy via cyclic normal forms, maximal roots, commensurability and
special tuples; ``root(w).root`` generates the elementary (maximal cyclic)
subgroup E(w).  Conjugacy and roots share one cyclic syllable form and one
Knuth-Morris-Pratt prefix function, so both take time linear in the
syllables.  Every positive answer carries a witness that re-verifies by
plain word arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .words import Word, WordError


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
    """Decide conjugacy; exact via rotation of cyclic normal forms.  A match
    of sv at syllable r of su + su, found by KMP, means that cv is cu rotated
    by x, its first start_u + |su[:r]| - start_v letters (mod |cu|), so that
    cu = x y and cv = y x = x^{-1} cu x; the least such x is taken."""
    u._require_same_alphabet(v)
    cu, pu, su, start_u = _cyclic_form(u)
    cv, pv, sv, start_v = _cyclic_form(v)
    if len(sv) != len(su):
        return None
    if not su:
        return ConjugacyWitness(u.alphabet.identity())
    # None is no syllable, so no border crosses it
    prefix = _prefix_function(sv + [None] + su + su)
    shifts, offset = [], start_u - start_v
    # a match that ends at index end starts at syllable end - 2 |sv| of su + su
    for end, (_, exp) in enumerate(su, 2 * len(sv)):
        if prefix[end] == len(sv):
            shifts.append(offset % len(cu))
        offset += abs(exp)
    # g = pu x pv^{-1} conjugates u to v
    return ConjugacyWitness(pu * cu.prefix(min(shifts)) * pv.inverse()) if shifts else None


def _cyclic_form(w: Word) -> tuple[Word, Word, list[tuple[int, int]], int]:
    """(core, u, cyclic, start): w = u core u^{-1} from ``cyclic_reduce``, and
    the core's syllables as a cyclic word from its letter ``start``, first
    and last merged when they share a generator (and so a sign).  No cyclic
    neighbours then do, so a rotation between two such words maps
    syllables to syllables."""
    core, conj = w.cyclic_reduce()
    cyclic = list(core.syllables)
    if len(cyclic) > 1 and cyclic[0][0] == cyclic[-1][0]:
        gen, last = cyclic.pop()
        cyclic[0] = (gen, cyclic[0][1] + last)
        return core, conj, cyclic, len(core) - abs(last)
    return core, conj, cyclic, 0


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
    one syllable x^k has e = |k|.  Otherwise the rotations that fix it are
    those of its cyclic syllables (``_cyclic_form``): e = L/p when the
    shortest period p of their L syllables, from the KMP prefix function,
    divides L, and e = 1 otherwise.  Linear in the syllables.
    """
    if w.is_identity():
        raise WordError("identity has no well-defined root")
    core, conj, cyclic, _ = _cyclic_form(w)
    size = len(cyclic)
    if size == 1:
        exponent = abs(cyclic[0][1])
    else:
        period = size - _prefix_function(cyclic)[-1]
        exponent = 1 if size % period else size // period
    if exponent == 1:
        return RootData(w, 1)
    return RootData(conj * core.prefix(len(core) // exponent) * conj.inverse(), exponent)


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
