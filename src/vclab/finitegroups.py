"""Finite groups as multiplication tables, with exhaustive searches.

Provides the dihedral group of order 8, central products, homomorphism
enumeration between table groups, retraction search, and exhaustive
verbal-closedness checking.  The headline suite builds the central
product of two dihedral groups amalgamated over their centers and
verifies that one factor is verbally closed in it while the center is not
a retract of the other factor.

Words in group elements are ``Word`` values evaluated by
``FiniteGroup.evaluate_word``, which reads each syllable's power from the
cyclic power table every group builds once; a homomorphism is its tuple of
images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, enumerate_reduced

# assignments an exhaustive search may try before it refuses
SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table with identity, inverse and power tables.

    Construction checks the identity and inverse laws always, and full
    associativity for orders up to 64.
    """

    mult: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...] = field(init=False)
    gens: dict = field(default_factory=dict, compare=False)
    # powers[x] = (e, x, x^2, ..., x^(order(x) - 1)), the cyclic powers of x
    powers: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.mult)
        if any(len(row) != n for row in self.mult):
            raise WordError("multiplication table must be square")
        e = self.identity
        for i in range(n):
            if self.mult[e][i] != i or self.mult[i][e] != i:
                raise WordError("identity law fails")
        inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if self.mult[i][j] == e and self.mult[j][i] == e:
                    inverse[i] = j
                    break
            if inverse[i] is None:
                raise WordError(f"element {i} has no inverse")
        object.__setattr__(self, "inverse", tuple(inverse))
        if n <= 64:
            for i in range(n):
                for j in range(n):
                    ij = self.mult[i][j]
                    for k in range(n):
                        if self.mult[ij][k] != self.mult[i][self.mult[j][k]]:
                            raise WordError("associativity fails")
        powers = []
        for x in range(n):
            row, y = [e], x
            while y != e:
                if len(row) == n:
                    raise WordError(f"powers of element {x} never reach the identity")
                row.append(y)
                y = self.mult[y][x]
            powers.append(tuple(row))
        object.__setattr__(self, "powers", tuple(powers))

    @property
    def order(self) -> int:
        return len(self.mult)

    def mul(self, i: int, j: int) -> int:
        return self.mult[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def power(self, i: int, k: int) -> int:
        row = self.powers[i]
        return row[k % len(row)]

    def element_order(self, i: int) -> int:
        return len(self.powers[i])

    def closure(self, gens: Sequence[int]) -> list[int]:
        return sorted(_spanning_words(self, gens))

    def center(self) -> list[int]:
        return [z for z in range(self.order) if self.is_central(z)]

    def is_central(self, z: int) -> bool:
        return all(self.mul(z, x) == self.mul(x, z) for x in range(self.order))

    def evaluate_word(self, word: Word, images: Sequence[int]) -> int:
        """Image of a symbolic word under generator index -> element."""
        out, mult, powers = self.identity, self.mult, self.powers
        for gen, exp in word.syllables:
            row = powers[images[gen]]
            out = mult[out][row[exp % len(row)]]
        return out


def dihedral4() -> FiniteGroup:
    """Order-8 dihedral group <a, b | a^4, b^2, b^-1 a b a>.

    Elements are a^i b^j indexed i + 4j; marked generators "a" and "b".
    """
    def idx(i, j):
        return i % 4 + 4 * (j % 2)

    table = [[0] * 8 for _ in range(8)]
    for i, j, k, l in itertools.product(range(4), range(2), range(4), range(2)):
        # (a^i b^j)(a^k b^l) = a^(i + k or i - k) b^(j + l)
        shift = (i + k) if j == 0 else (i - k)
        table[idx(i, j)][idx(k, l)] = idx(shift, j + l)
    return FiniteGroup(
        tuple(tuple(r) for r in table), 0, gens={"a": idx(1, 0), "b": idx(0, 1)}
    )


@dataclass(frozen=True)
class CentralProduct:
    group: FiniteGroup
    embed_left: tuple[int, ...]
    embed_right: tuple[int, ...]


def central_product(a: FiniteGroup, b: FiniteGroup, za: int, zb: int) -> CentralProduct:
    """Quotient of a x b by the cyclic subgroup generated by (za, zb).

    za and zb must be central and of equal order.  Two pairs are
    identified iff they differ by a power of (za, zb); the result has
    order |a| |b| / order(za).
    """
    if not a.is_central(za):
        raise WordError("left amalgamated element is not central")
    if not b.is_central(zb):
        raise WordError("right amalgamated element is not central")
    k = a.element_order(za)
    if k != b.element_order(zb):
        raise WordError("amalgamated elements have different orders")

    def orbit(p: int, q: int):
        out = []
        x, y = p, q
        for _ in range(k):
            out.append((x, y))
            x, y = a.mul(x, za), b.mul(y, zb)
        return out

    rep: dict[tuple[int, int], tuple[int, int]] = {}
    reps: list[tuple[int, int]] = []
    for p in range(a.order):
        for q in range(b.order):
            if (p, q) in rep:
                continue
            cls = orbit(p, q)
            canon = min(cls)
            for pair in cls:
                rep[pair] = canon
            reps.append(canon)
    reps.sort()
    index = {pair: i for i, pair in enumerate(reps)}
    table = [
        [index[rep[(a.mul(p1, p2), b.mul(q1, q2))]] for (p2, q2) in reps]
        for (p1, q1) in reps
    ]
    group = FiniteGroup(
        tuple(tuple(r) for r in table), index[rep[(a.identity, b.identity)]]
    )
    embed_left = tuple(index[rep[(p, b.identity)]] for p in range(a.order))
    embed_right = tuple(index[rep[(a.identity, q)]] for q in range(b.order))
    return CentralProduct(group, embed_left, embed_right)


# -- homomorphisms -----------------------------------------------------------


def _generating_set(g: FiniteGroup) -> list[int]:
    """Small deterministic generating set: marked generators if they
    generate, else greedy by index."""
    if g.gens:
        marked = sorted(g.gens.values())
        if len(g.closure(marked)) == g.order:
            return marked
    gens: list[int] = []
    covered = {g.identity}
    for x in range(g.order):
        if x not in covered:
            gens.append(x)
            covered = set(g.closure(gens))
            if len(covered) == g.order:
                break
    return gens


def _spanning_words(g: FiniteGroup, gens: Sequence[int]) -> dict[int, Word]:
    """Each element of <gens> as a shortest word whose generator i stands
    for gens[i], found breadth-first."""
    alph = Alphabet(max(len(gens), 1))
    moves = []
    for i, gen in enumerate(gens):
        moves += [(gen, alph.generator(i)), (g.inv(gen), alph.generator(i).inverse())]
    words = {g.identity: alph.identity()}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for element, letter in moves:
                y = g.mul(x, element)
                if y not in words:
                    words[y] = words[x] * letter
                    nxt.append(y)
        frontier = nxt
    return words


def enumerate_table_homs(
    src: FiniteGroup, dst_elements: Sequence[int], inside: FiniteGroup
) -> list[tuple[int, ...]]:
    """All homomorphisms src -> <dst_elements> viewed inside ``inside``,
    as element maps.

    Candidate generator images are extended along spanning words and
    kept only when the full map is multiplicative on every pair, which is
    sound and complete.  When src is a subgroup of ``inside`` the element
    indices of src and the target agree.
    """
    gens = _generating_set(src)
    words = _spanning_words(src, gens)
    target = sorted(set(dst_elements))
    total = len(target) ** len(gens)
    if total > SEARCH_BUDGET:
        raise BudgetExceeded(f"{total} assignments exceed budget {SEARCH_BUDGET}")
    homs = []
    for images in itertools.product(target, repeat=len(gens)):
        mapping = tuple(inside.evaluate_word(words[x], images) for x in range(src.order))
        if all(
            mapping[src.mul(x, y)] == inside.mul(mapping[x], mapping[y])
            for x in range(src.order)
            for y in range(src.order)
        ):
            homs.append(mapping)
    return homs


def is_retract(g: FiniteGroup, subgroup_gens: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Search all homomorphisms g -> <subgroup_gens> for one fixing the
    subgroup pointwise; its element map, or None when exhaustion finds
    nothing."""
    subgroup = g.closure(subgroup_gens)
    for hom in enumerate_table_homs(g, subgroup, g):
        if all(hom[h] == h for h in subgroup):
            return hom
    return None


# -- verbal closedness --------------------------------------------------------


@dataclass(frozen=True)
class WordEquationReport:
    word: Word
    rhs: int
    solvable_in_group: bool
    group_witness: Optional[tuple[int, ...]]
    solvable_in_subgroup: bool
    subgroup_witness: Optional[tuple[int, ...]]

    @property
    def disagreement(self) -> bool:
        return self.solvable_in_group and not self.solvable_in_subgroup


def _value_witnesses(g: FiniteGroup, word: Word, domain: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """value -> first witness tuple over assignments from the domain."""
    nvars = word.alphabet.rank
    out: dict[int, tuple[int, ...]] = {}
    for images in itertools.product(domain, repeat=nvars):
        val = g.evaluate_word(word, images)
        if val not in out:
            out[val] = images
    return out


def verbally_closed_check(
    g: FiniteGroup,
    subgroup_gens: Sequence[int],
    corpus: Sequence[Word],
    targets: Sequence[int],
) -> list[WordEquationReport]:
    """Exhaustive solvability of W(x) = h in g versus in the subgroup.

    A disagreement is an equation solvable in g but not in the subgroup;
    every flag is backed by full enumeration and positive flags carry a
    witness assignment.
    """
    subgroup = g.closure(subgroup_gens)
    for h in targets:
        if h not in subgroup:
            raise WordError(f"target {h} lies outside the subgroup")
    reports = []
    for word in corpus:
        nvars = word.alphabet.rank
        if g.order ** nvars > SEARCH_BUDGET:
            raise BudgetExceeded(f"|G|^{nvars} exceeds budget {SEARCH_BUDGET}")
        in_group = _value_witnesses(g, word, range(g.order))
        in_sub = _value_witnesses(g, word, subgroup)
        for h in targets:
            reports.append(
                WordEquationReport(
                    word=word,
                    rhs=h,
                    solvable_in_group=h in in_group,
                    group_witness=in_group.get(h),
                    solvable_in_subgroup=h in in_sub,
                    subgroup_witness=in_sub.get(h),
                )
            )
    return reports


def default_corpus(num_vars: int = 2, max_len: int = 4) -> list[Word]:
    """All reduced nonidentity words in the given variables up to the
    length bound, deduplicated up to renaming (permuting) the variables."""
    alph = Alphabet(num_vars)
    seen = set()
    corpus = []
    for word in enumerate_reduced(alph, max_len):
        if word.is_identity():
            continue
        keys = []
        for perm in itertools.permutations(range(num_vars)):
            keys.append(tuple((perm[g], e) for g, e in word.syllables))
        canon = min(keys)
        if canon not in seen:
            seen.add(canon)
            corpus.append(word)
    return corpus


# -- the dihedral counterexample suite ------------------------------------------


@dataclass(frozen=True)
class DihedralSuiteReport:
    orders: dict
    corpus_size: int
    targets_checked: int
    verbal_disagreements: int
    center_is_a_squared: bool
    homs_into_center: int
    retract_of_center_found: bool
    control_disagreements: int

    @property
    def ok(self) -> bool:
        return (
            self.orders == {"left": 8, "right": 8, "product": 32}
            and self.verbal_disagreements == 0
            and self.center_is_a_squared
            and not self.retract_of_center_found
            and self.control_disagreements == 1
        )

    def to_json_dict(self) -> dict:
        return {
            "groups": {"orders": dict(self.orders)},
            "claim_verbally_closed": {
                "corpus_size": self.corpus_size,
                "targets": self.targets_checked,
                "disagreements": self.verbal_disagreements,
            },
            "claim_not_retract": {
                "center_is_a_squared": self.center_is_a_squared,
                "hom_count_into_center": self.homs_into_center,
                "retract_found": self.retract_of_center_found,
            },
            "negative_control_disagreements": self.control_disagreements,
            "ok": self.ok,
        }


def dihedral_counterexample_suite() -> DihedralSuiteReport:
    """Two order-8 dihedral groups glued over their centers.

    Verifies exhaustively that the left factor is verbally closed in the
    central product, that every homomorphism of the right factor into the
    left factor's center lands in the order-2 center (so no retraction
    onto the glued center exists), and that the center inside one
    dihedral factor fails verbal closedness for x^2 = center generator
    (the negative control).
    """
    left, right = dihedral4(), dihedral4()
    za = left.power(left.gens["a"], 2)
    zb = right.power(right.gens["a"], 2)
    product = central_product(left, right, za, zb)
    g = product.group

    corpus = default_corpus(2, 4)
    sub_gens = [product.embed_left[left.gens["a"]], product.embed_left[left.gens["b"]]]
    targets = [product.embed_left[x] for x in range(left.order)]
    reports = verbally_closed_check(g, sub_gens, corpus, targets)
    disagreements = sum(1 for r in reports if r.disagreement)

    # center of the left factor is <a^2>; any centralizing homomorphic
    # image of the right factor lies inside it
    center = left.center()
    a_squared = left.closure([za])
    center_ok = sorted(center) == sorted(a_squared)
    homs_center = enumerate_table_homs(right, center, left)
    lands = all(set(h).issubset(set(a_squared)) for h in homs_center)
    center_ok = center_ok and lands

    retract = is_retract(right, [zb])

    x_squared = Alphabet(1).generator(0) ** 2
    control = verbally_closed_check(right, [zb], [x_squared], [zb])
    control_disagreements = sum(1 for r in control if r.disagreement)

    return DihedralSuiteReport(
        orders={"left": left.order, "right": right.order, "product": g.order},
        corpus_size=len(corpus),
        targets_checked=len(targets),
        verbal_disagreements=disagreements,
        center_is_a_squared=center_ok,
        homs_into_center=len(homs_center),
        retract_of_center_found=retract is not None,
        control_disagreements=control_disagreements,
    )
