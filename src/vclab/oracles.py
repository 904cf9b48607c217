"""Decision procedures in free groups.

Conjugacy via cyclic normal forms, maximal roots, commensurability,
elementary (maximal cyclic) subgroups, special tuples, and Stallings
folding for subgroup membership and rank.  Every positive answer carries
a witness that re-verifies by plain word arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .words import Alphabet, Syllable, Word, WordError


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


def _signed_letters(w: Word) -> list[int]:
    return list(w.letters())


def is_conjugate(u: Word, v: Word) -> Optional[ConjugacyWitness]:
    """Decide conjugacy; exact via rotation of cyclic normal forms."""
    u._require_same_alphabet(v)
    cu, pu = u.cyclic_reduce()
    cv, pv = v.cyclic_reduce()
    lu, lv = _signed_letters(cu), _signed_letters(cv)
    if len(lu) != len(lv):
        return None
    if not lu:
        return ConjugacyWitness(u.alphabet.identity())
    doubled = lu + lu
    n = len(lu)
    for shift in range(n):
        if doubled[shift:shift + n] == lv:
            # cu = x y and cv = y x with x the first `shift` letters,
            # so cv = x^{-1} cu x and g = pu x pv^{-1} conjugates u to v
            x = Word.from_letters(u.alphabet, lu[:shift])
            g = pu * x * pv.inverse()
            return ConjugacyWitness(g)
    return None


def root(w: Word) -> RootData:
    """Write w = r^e with e maximal; r is then not a proper power.

    The root of the cyclic core is its shortest period that divides its
    length, read off the KMP prefix function in linear time.
    """
    if w.is_identity():
        raise WordError("identity has no well-defined root")
    core, conj = w.cyclic_reduce()
    letters = _signed_letters(core)
    n = len(letters)
    # prefix[i]: length of the longest proper border of letters[:i + 1]
    prefix = [0] * n
    k = 0
    for i in range(1, n):
        while k and letters[i] != letters[k]:
            k = prefix[k - 1]
        if letters[i] == letters[k]:
            k += 1
        prefix[i] = k
    period = n - prefix[-1]
    if n % period or period == n:
        return RootData(w, 1)
    # the first `period` letters of a reduced word: cut the syllables there
    piece, left = [], period
    for gen, exp in core.syllables:
        if left <= abs(exp):
            piece.append(Syllable(gen, left if exp > 0 else -left))
            break
        piece.append(Syllable(gen, exp))
        left -= abs(exp)
    r = Word._reduced(w.alphabet, tuple(piece))
    return RootData(conj * r * conj.inverse(), n // period)


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


def elementary_subgroup(w: Word) -> tuple[Word, Word]:
    """Data (r, u) with E(w) = u <r> u^{-1}, r primitive.

    Here E(w) is the maximal cyclic subgroup containing w: the set of f
    with f^{-1} w^k f = w^m for nonzero k, m.
    """
    if w.is_identity():
        raise WordError("elementary subgroup undefined for the identity")
    core, conj = w.cyclic_reduce()
    return root(core).root, conj


def elementary_generator(w: Word) -> Word:
    """Single-word generator of E(w): u * r * u^{-1}."""
    r, u = elementary_subgroup(w)
    return u * r * u.inverse()


def same_elementary_subgroup(w1: Word, w2: Word) -> bool:
    g1, g2 = elementary_generator(w1), elementary_generator(w2)
    return g1 == g2 or g1 == g2.inverse()


@dataclass(frozen=True)
class SpecialTupleVerdict:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_special_tuple(ws: Sequence[Word]) -> SpecialTupleVerdict:
    """Check that each word is special and all pairs are non-commensurable.

    Over the standard basis of a free group, special means nonidentity and
    not a proper power, so that E(w) = <w>.
    """
    for i, w in enumerate(ws):
        if w.is_identity():
            raise WordError(f"tuple entry {i} is the identity")
    for i, w in enumerate(ws):
        rd = root(w)
        if rd.exponent > 1:
            return SpecialTupleVerdict(False, f"{w} is a proper power ({rd.root})^{rd.exponent}")
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if is_commensurable(ws[i], ws[j]) is not None:
                return SpecialTupleVerdict(False, f"commensurable pair ({ws[i]}, {ws[j]})")
    return SpecialTupleVerdict(True)


# -- Stallings folding ------------------------------------------------------


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded labeled graph of a finitely generated subgroup.

    Deterministic: at most one edge with a given generator label leaves
    each state.  ``edges`` maps (state, signed label) -> state where the
    signed label is +-(gen+1) as in Word.letters().
    """

    alphabet: Alphabet
    num_states: int
    base: int
    edges: dict[tuple[int, int], int]

    def accepts(self, w: Word) -> bool:
        state = self.base
        for letter in w.letters():
            nxt = self.edges.get((state, letter))
            if nxt is None:
                return False
            state = nxt
        return state == self.base

    def geometric_edges(self) -> set[tuple[int, int, int]]:
        return {(s, lab, t) for (s, lab), t in self.edges.items() if lab > 0}

    def betti_number(self) -> int:
        return len(self.geometric_edges()) - self.num_states + 1


def fold(gens: Sequence[Word], alph: Alphabet | None = None) -> SubgroupGraph:
    """Build the folded subgroup graph for the given generators.

    Starts from a wedge of loops at the base state and identifies clashing
    edges to a fixed point, always folding the lexicographically least
    clashing pair (state, label, target, target).
    """
    if alph is None:
        if not gens:
            raise WordError("need an alphabet when the generator list is empty")
        alph = gens[0].alphabet
    for g in gens:
        if g.alphabet != alph:
            raise WordError("subgroup generators use mixed alphabets")

    # raw edge list: each geometric edge stored once with positive label
    edges: list[list[int]] = []  # [src, label>0, dst]
    next_state = 1
    for g in gens:
        state = 0
        letters = list(g.letters())
        for i, letter in enumerate(letters):
            target = 0 if i == len(letters) - 1 else next_state
            if target == next_state:
                next_state += 1
            if letter > 0:
                edges.append([state, letter, target])
            else:
                edges.append([target, -letter, state])
            state = target

    parent = list(range(next_state))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        canon = sorted({(find(s), lab, find(t)) for s, lab, t in edges})
        clash = None
        seen: dict[tuple[int, int], int] = {}
        for s, lab, t in canon:
            # an s-clash: two distinct targets for the same out-label; a
            # t-clash: two distinct sources for the same in-label
            if (s, lab) in seen and seen[(s, lab)] != t:
                clash = (min(seen[(s, lab)], t), max(seen[(s, lab)], t))
                break
            seen[(s, lab)] = t
        if clash is None:
            seen_rev: dict[tuple[int, int], int] = {}
            for s, lab, t in canon:
                if (t, lab) in seen_rev and seen_rev[(t, lab)] != s:
                    clash = (min(seen_rev[(t, lab)], s), max(seen_rev[(t, lab)], s))
                    break
                seen_rev[(t, lab)] = s
        if clash is None:
            edges = [list(e) for e in canon]
            break
        a, b = clash
        parent[find(b)] = find(a)

    # compact state indices, base first
    reachable = {0}
    for s, _, t in edges:
        reachable.add(s)
        reachable.add(t)
    order = sorted(reachable)
    index = {old: new for new, old in enumerate(order)}
    edge_map: dict[tuple[int, int], int] = {}
    for s, lab, t in edges:
        edge_map[(index[s], lab)] = index[t]
        edge_map[(index[t], -lab)] = index[s]
    return SubgroupGraph(alph, len(order), index[0], edge_map)


def subgroup_membership(gens: Sequence[Word], w: Word) -> bool:
    """Exact membership of w in <gens> via the folded graph."""
    if w.is_identity():
        return True
    graph = fold(gens, w.alphabet)
    return graph.accepts(w)


def verify_free_of_rank(ws: Sequence[Word], alph: Alphabet | None = None) -> bool:
    """True iff ws is a basis of a free subgroup of rank len(ws).

    The folded graph's first Betti number is the rank of <ws>; it equals
    len(ws) exactly when the given words are independent generators.
    """
    graph = fold(ws, alph)
    return graph.betti_number() == len(ws)
