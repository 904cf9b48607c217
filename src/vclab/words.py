"""Exact arithmetic in free groups.

Words are stored fully reduced, as runs of syllables ``(generator, exponent)``
with nonzero arbitrary-precision integer exponents.  A syllable is a plain
pair, an exact ``tuple`` and no subclass of it: every layer unpacks
syllables, and the interpreter unpacks exact tuples on a fast path.  Two
words are equal in the free group iff their syllable sequences are equal, so
structural equality is the word problem.  Alphabets and words are
immutable and hashable.

Words carry their letter length: every constructor knows it when it builds
the word, so ``len(w)`` is a field read and never re-sums the syllables.  A
power of a compound word is refused past ``POWER_BUDGET`` letters.
"""

from __future__ import annotations

import string
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence


class WordError(ValueError):
    """Malformed word data: bad literal, bad index, alphabet mismatch."""


class BudgetExceeded(RuntimeError):
    """A search or a ball would exceed its configured cap."""


# letters a power of a core with two or more syllables may spell out;
# one-syllable powers such as a^1000000000000 are a single syllable and free
POWER_BUDGET = 10**6


def _read_only(self, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of alphabets and words, which are hashed."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Alphabet:
    """A ranked basis x_0, ..., x_{rank-1} of a free group."""

    __slots__ = ("rank",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, rank: int) -> None:
        if rank < 1:
            raise WordError(f"alphabet rank must be >= 1, got {rank}")
        _set_rank(self, rank)

    def __eq__(self, other: object) -> bool:
        return self.rank == other.rank if other.__class__ is Alphabet else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank,))

    def __reduce__(self) -> tuple:
        return Alphabet, (self.rank,)

    def generator(self, index: int) -> "Word":
        return Word.from_syllables(self, [(index, 1)])

    def identity(self) -> "Word":
        return Word._reduced(self, (), 0)


def _merge_runs(items: Iterable[tuple[int, int]], rank: int) -> tuple[tuple[int, int], ...]:
    """Free reduction of a syllable stream via a cancellation stack.

    Each generator is checked against the rank as it arrives, before any
    merging, so an out-of-range pair that would cancel is still refused.
    """
    stack: list[list[int]] = []
    for gen, exp in items:
        if not 0 <= gen < rank:
            raise WordError(f"generator index {gen} out of range for rank {rank}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple(map(tuple, stack))


# bound once: ``Word._reduced`` runs for nearly every word built
_new_object = object.__new__
_exponent = itemgetter(1)


class Word:
    """A reduced word over a fixed alphabet.

    Supports ``u * v``, ``u ** k``, ``u.inverse()`` and the usual
    free-group operations.  The empty word is the group identity.

    Construction through ``Word(...)`` validates its input and stores its
    syllables as plain pairs.  Kernel operations whose output is reduced by
    construction build it with ``Word._reduced``, which skips the check and
    takes the letter length from its caller.
    """

    # slotted: searches and Cayley balls hold hundreds of thousands of
    # words; ``length`` caches the letter length, outside == and hash
    __slots__ = ("alphabet", "syllables", "length")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, alphabet: Alphabet, syllables: Iterable[tuple[int, int]]) -> None:
        checked: list[tuple[int, int]] = []
        for syl in syllables:
            if not isinstance(syl, Sequence) or len(syl) != 2 or not all(isinstance(x, int) for x in syl):
                raise WordError(f"syllable {syl!r} is not a (generator, exponent) pair of integers")
            gen, exp = syl
            if not 0 <= gen < alphabet.rank:
                raise WordError(f"generator index {gen} out of range for rank {alphabet.rank}")
            if exp == 0:
                raise WordError("zero exponent in syllable")
            if checked and checked[-1][0] == gen:
                raise WordError("adjacent syllables share a generator (word not reduced)")
            checked.append((gen, exp))
        _set_alphabet(self, alphabet)
        _set_syllables(self, tuple(checked))
        _set_length(self, sum(map(abs, map(_exponent, checked))))

    def __eq__(self, other: object) -> bool:
        return (self.alphabet, self.syllables) == (other.alphabet, other.syllables) if other.__class__ is Word else NotImplemented

    def __hash__(self) -> int:
        return hash((self.alphabet, self.syllables))

    def __reduce__(self) -> tuple:
        # a word crosses the --jobs pool as it is, checked when first built
        return Word._reduced, (self.alphabet, self.syllables, self.length)

    @staticmethod
    def from_syllables(alph: Alphabet, items: Iterable[tuple[int, int]]) -> "Word":
        """The reduced word of a syllable stream, merged and cancelled."""
        syl = _merge_runs(items, alph.rank)
        return Word._reduced(alph, syl, sum(map(abs, map(_exponent, syl))))

    @staticmethod
    def from_letters(alph: Alphabet, letters: Iterable[int]) -> "Word":
        """The reduced word of signed letters +-(gen+1), as ``letters()`` yields them."""
        return Word.from_syllables(alph, ((abs(l) - 1, 1 if l > 0 else -1) for l in letters))

    @staticmethod
    def _reduced(alph: Alphabet, syllables: tuple[tuple[int, int], ...], length: int) -> "Word":
        """Trusted constructor: ``syllables`` must already be a valid reduced
        word, and ``length`` the sum of its absolute exponents."""
        word = _new_object(Word)
        _set_alphabet(word, alph)
        _set_syllables(word, syllables)
        _set_length(word, length)
        return word

    # -- basic structure -------------------------------------------------

    def __len__(self) -> int:
        """Letter length |w| over the standard basis."""
        return self.length

    def is_identity(self) -> bool:
        return not self.syllables

    def letters(self) -> Iterator[int]:
        """Letters as signed integers: +-(gen+1), inverse letters negated."""
        for gen, exp in self.syllables:
            step = gen + 1 if exp > 0 else -(gen + 1)
            for _ in range(abs(exp)):
                yield step

    def prefix(self, n: int) -> "Word":
        """The prefix of n letters, 0 <= n <= |w|: a slice of the syllables,
        the last one kept cut short when n ends inside it."""
        if n == self.length:
            return self
        if not 0 <= n < self.length:
            raise WordError(f"prefix of {n} letters out of range for a word of {self.length} letters")
        syl, j, rest = self.syllables, 0, n
        while rest >= abs(syl[j][1]):
            rest -= abs(syl[j][1])
            j += 1
        # the prefix keeps `rest` letters of syllable j, fewer than it has
        head = syl[:j]
        if rest:
            gen, exp = syl[j]
            head += ((gen, rest if exp > 0 else -rest),)
        return Word._reduced(self.alphabet, head, n)

    def _require_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise WordError(f"alphabet mismatch: rank {self.alphabet.rank} vs {other.alphabet.rank}")

    # -- group operations ------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet is not self.alphabet:
            self._require_same_alphabet(other)
        left, right = self.syllables, other.syllables
        if not right:
            return self
        if not left:
            return other
        # both factors are reduced, so cancellation happens only at the seam
        i, j, n = len(left), 0, len(right)
        length = self.length + other.length
        while i and j < n:
            gen, exp = left[i - 1]
            other_gen, other_exp = right[j]
            if gen != other_gen:
                break
            total = exp + other_exp
            if total:
                length += abs(total) - abs(exp) - abs(other_exp)
                return Word._reduced(self.alphabet, left[:i - 1] + ((gen, total),) + right[j + 1:], length)
            length -= 2 * abs(exp)
            i -= 1
            j += 1
        return Word._reduced(self.alphabet, left[:i] + right[j:], length)

    def inverse(self) -> "Word":
        return Word._reduced(self.alphabet, tuple([(g, -e) for g, e in reversed(self.syllables)]), self.length)

    def __pow__(self, k: int) -> "Word":
        if k == 1:
            return self
        if k == -1:
            return self.inverse()
        if k == 0:
            return self.alphabet.identity()
        base = self if k > 0 else self.inverse()
        k = abs(k)
        if k == 2 and base.length <= POWER_BUDGET // 2:
            # one product, cheaper than splitting off the cyclic core
            return base * base
        core, conj = base.cyclic_reduce()
        if not core.syllables:
            return self.alphabet.identity()
        if len(core.syllables) > 1 and k * core.length > POWER_BUDGET:
            raise BudgetExceeded(f"power of {k * core.length} letters exceeds the budget of {POWER_BUDGET} letters")
        return _core_power(core, conj, k)

    def conjugate(self, g: "Word") -> "Word":
        """g^{-1} * self * g."""
        self._require_same_alphabet(g)
        return g.inverse() * self * g

    # -- normal forms ----------------------------------------------------

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split self = u * core * u^{-1} with core cyclically reduced.

        Returns ``(core, u)``.  The core is shortest in the conjugacy class.
        """
        syl, alph = self.syllables, self.alphabet
        i, j = 0, len(syl) - 1
        trim = 0  # letters of u, whose inverse the end of self spells
        while i < j:
            gen, first = syl[i]
            last_gen, last = syl[j]
            if gen != last_gen or (first > 0) == (last > 0):
                break
            rest = first + last
            if rest:
                # the longer end keeps `rest`; its new neighbour differs in
                # generator from the other end, so trimming stops here
                if abs(first) > abs(last):
                    core = ((gen, rest),) + syl[i + 1:j]
                    trimmed = (gen, -last)
                else:
                    core = syl[i + 1:j] + ((gen, rest),)
                    trimmed = (gen, first)
                trim += abs(trimmed[1])
                return Word._reduced(alph, core, self.length - 2 * trim), Word._reduced(alph, syl[:i] + (trimmed,), trim)
            trim += abs(first)
            i += 1
            j -= 1
        if not i:
            return self, Word._reduced(alph, (), 0)
        return Word._reduced(alph, syl[i:j + 1], self.length - 2 * trim), Word._reduced(alph, syl[:i], trim)

    def is_cyclically_reduced(self) -> bool:
        core, _ = self.cyclic_reduce()
        return core.syllables == self.syllables

    def exponent_sums(self) -> list[int]:
        """sigma(w): the exponent sum of every generator, in one pass."""
        sums = [0] * self.alphabet.rank
        for gen, exp in self.syllables:
            sums[gen] += exp
        return sums

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.alphabet.rank})"


# the slot descriptors' setters, bound once like object.__new__ above: they
# skip the read-only __setattr__ and its attribute-name lookup
_set_rank = Alphabet.__dict__["rank"].__set__
_set_alphabet = Word.__dict__["alphabet"].__set__
_set_syllables = Word.__dict__["syllables"].__set__
_set_length = Word.__dict__["length"].__set__


def _core_power(core: Word, conj: Word, k: int) -> Word:
    """conj core^k conj^-1 for a nonidentity cyclically reduced core and
    k >= 1, with ``(core, conj)`` from ``cyclic_reduce``, so that neither
    product cancels; at any length: no budget applies here."""
    syl = core.syllables
    if len(syl) == 1:
        powered: tuple[tuple[int, int], ...] = ((syl[0][0], syl[0][1] * k),)
    elif syl[0][0] != syl[-1][0]:
        powered = syl * k
    else:
        # cyclically reduced with equal end generators: exponent signs
        # agree, so the seams merge without cancellation
        seam = (syl[0][0], syl[0][1] + syl[-1][1])
        middle = syl[1:-1]
        powered = (syl[0],) + (middle + (seam,)) * (k - 1) + middle + (syl[-1],)
    return conj * Word._reduced(core.alphabet, powered, k * core.length) * conj.inverse()


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Homomorphic image of w under generator i -> images[i]."""
    if len(images) < w.alphabet.rank:
        raise WordError(f"need {w.alphabet.rank} images, got {len(images)}")
    # rank >= 1, so there is at least one image
    target = images[0].alphabet
    for img in images:
        if img.alphabet != target:
            raise WordError("images use mixed alphabets")
    result = target.identity()
    for gen, exp in w.syllables:
        result = result * images[gen] ** exp
    return result


def free_word_metric(u: Word, v: Word) -> int:
    """|u^{-1} v|: both lengths less twice their common letter prefix."""
    if u.alphabet is not v.alphabet:
        u._require_same_alphabet(v)
    common = 0
    for (gen, exp), (other_gen, other_exp) in zip(u.syllables, v.syllables):
        if gen != other_gen or (exp > 0) != (other_exp > 0):
            break
        if exp != other_exp:
            common += min(abs(exp), abs(other_exp))
            break
        common += abs(exp)
    return u.length + v.length - 2 * common


# -- word literals --------------------------------------------------------
#
# Grammar: a token is a lowercase letter a..z (generator 0..25), an
# uppercase letter (its inverse), or g<i> for arbitrary index i; each token
# takes an optional ^<int> suffix.  Verbose form separates tokens with
# whitespace, compact form concatenates them.  parse(format(w)) == w.

_LOWER = string.ascii_lowercase


def word_tokens(text: str) -> Iterator[tuple[int, int]]:
    """The (generator, exponent) tokens of a literal, before reduction and
    without a rank: the generator index of each token is as written."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        inverted = False
        if ch == "g" and i + 1 < n and text[i + 1] in string.digits:
            i += 1
            j = i
            while j < n and text[j] in string.digits:
                j += 1
            gen = int(text[i:j])
            i = j
        elif ch.islower() and ch in _LOWER:
            gen = _LOWER.index(ch)
            i += 1
        elif ch.isupper() and ch.lower() in _LOWER:
            gen = _LOWER.index(ch.lower())
            inverted = True
            i += 1
        elif ch == "1":
            # allow a bare 1 for the identity in hand-written literals
            i += 1
            continue
        else:
            raise WordError(f"unexpected character {ch!r} at position {i} in {text!r}")
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            if j >= n or text[j] not in string.digits:
                raise WordError(f"malformed exponent at position {i} in {text!r}")
            while j < n and text[j] in string.digits:
                j += 1
            exp = int(text[i:j])
            i = j
        yield gen, -exp if inverted else exp


def parse_word(text: str, alph: Alphabet) -> Word:
    return Word.from_syllables(alph, word_tokens(text))


def format_word(w: Word) -> str:
    if not w.syllables:
        return ""
    if w.alphabet.rank <= 26:
        parts = []
        for gen, exp in w.syllables:
            letter = _LOWER[gen]
            if exp == 1:
                parts.append(letter)
            elif exp == -1:
                parts.append(letter.upper())
            else:
                parts.append(f"{letter}^{exp}")
        return "".join(parts)
    parts = [f"g{gen}" + ("" if exp == 1 else f"^{exp}") for gen, exp in w.syllables]
    return " ".join(parts)


def letter_order(rank: int) -> Iterator[tuple[int, int]]:
    """The letters (generator, sign) of rank ``rank`` in letter order, a <
    a^-1 < b < b^-1 < ..., one at a time: a rank may be far larger than
    any search its budget admits."""
    return ((gen, sign) for gen in range(rank) for sign in (1, -1))


def enumerate_reduced(alph: Alphabet, max_len: int, first: Optional[tuple[int, int]] = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """The syllables of every reduced word of letter length <= max_len,
    shortest first.

    Each item is the tuple ``Word.syllables`` would hold, and no ``Word``
    is built: a search builds the words it keeps, so the ones it drops by
    position cost no object.  Within a length class the order is
    lexicographic on letter sequences, letters ordered by
    ``letter_order``.  Yields each word exactly once; the count is
    1 + sum_{n=1..max_len} 2k(2k-1)^{n-1} for rank k.  Given a letter
    ``first`` (exponent +-1), only the words that begin with it, in the
    same order; the identity is not one of them.
    """
    if max_len < 0:
        raise WordError("max_len must be >= 0")
    if first is None:
        yield ()
        starts = letter_order(alph.rank)
    elif first in letter_order(alph.rank):
        starts = [(first[0], first[1])]
    else:
        raise WordError(f"first must be a letter of rank {alph.rank}, got {tuple(first)}")
    frontier = [(letter,) for letter in starts] if max_len else []
    yield from frontier
    # one letter extends a reduced word by bumping its last syllable (same
    # generator and sign), is refused (the inverse letter), or opens a new
    # syllable, so every extension is reduced by construction; the steps
    # after a last syllable are (bumps it, one-syllable tail), in letter order
    steps: dict[tuple[int, int], list[tuple[bool, tuple]]] = {}
    for level in range(2, max_len + 1):
        # the last level is never extended, so its words are not kept
        extended = []
        keep = level < max_len
        for prefix in frontier:
            last = prefix[-1]
            after = steps.get(last)
            if after is None:
                after = steps[last] = [
                    (True, ((g, last[1] + e),)) if g == last[0] else (False, ((g, e),))
                    for g, e in letter_order(alph.rank)
                    if g != last[0] or (e > 0) == (last[1] > 0)
                ]
            head = prefix[:-1]
            for bumps, tail in after:
                ext = (head if bumps else prefix) + tail
                if keep:
                    extended.append(ext)
                yield ext
        frontier = extended


def unrank(alph: Alphabet, i: int) -> Word:
    """The i-th word, from 0, in ``enumerate_reduced``'s order, built in
    O(|w|) integer steps (O(1) at rank 1) without building any other."""
    if i < 0:
        raise WordError(f"word index must be >= 0, got {i}")
    if not i:
        return alph.identity()
    if alph.rank == 1:
        # the words of length n are a^n, then a^-n
        n = (i + 1) // 2
        return Word._reduced(alph, ((0, n if i % 2 else -n),), n)
    # skip the shorter words: 1 of length 0, 2k (2k - 1)^(n-1) of length n
    branch = 2 * alph.rank - 1
    i, length, size = i - 1, 1, 2 * alph.rank
    while i >= size:
        i, length, size = i - size, length + 1, size * branch
    # i spells a first letter of 2k, then each later letter one of the
    # 2k - 1 that do not cancel the one before, in letter order; letter c
    # is generator c // 2, inverted when c is odd.  A run of equal letters
    # is one syllable, and no two letters cancel, so the word is reduced.
    digits = []
    for _ in range(length - 1):
        i, digit = divmod(i, branch)
        digits.append(digit)
    letter, run, syllables = i, 1, []
    for digit in reversed(digits):
        if digit >= letter ^ 1:
            digit += 1
        if digit == letter:
            run += 1
        else:
            syllables.append((letter >> 1, -run if letter & 1 else run))
            letter, run = digit, 1
    syllables.append((letter >> 1, -run if letter & 1 else run))
    return Word._reduced(alph, tuple(syllables), length)


def rank(w: Word) -> int:
    """The index of ``w`` in ``enumerate_reduced``'s order, the inverse of
    ``unrank``, in O(syllables) integer steps.

    At rank k >= 2, with B = 2k - 1 and letter c = 2 gen + (1 if inverted),
    a word of letters c_1 ... c_n follows the ``count_reduced(k, n - 1)``
    shorter words, and among those of length n its place is the number
    c_1 B^(n-1) + d_2 B^(n-2) + ... + d_n, where d_j is c_j less one if c_j
    passes c_(j-1) ^ 1, the one letter that cannot follow c_(j-1).
    Proof of the syllable steps.  Inside a syllable c_j = c_(j-1), which
    passes c_j ^ 1 iff c_j is odd, so d_j = 2 gen: the r - 1 letters after
    a syllable's first repeat one digit and add 2 gen (B^(r-1) - 1) / (B - 1)
    once the value before them is scaled by B^(r-1).  At a syllable's first
    letter the generator changes, so c_j passes c_(j-1) ^ 1 iff its
    generator passes that of c_(j-1).  At rank 1, B = 1 and there is no digit: the words of
    length n are a^n, then a^-n, at 2n - 1 and 2n.  QED

    The index has about |w| log2(2k - 1) bits, so ``rank`` is meant for
    words within a search bound: a^1000000000000 at rank 1 is cheap, but at
    rank 2 its index would not fit in memory.
    """
    syllables = w.syllables
    if not syllables:
        return 0
    if w.alphabet.rank == 1:
        return 2 * w.length - (syllables[0][1] > 0)
    branch = 2 * w.alphabet.rank - 1
    # no generator passes the rank, so the first letter's digit is its own
    value, last = 0, w.alphabet.rank
    for gen, exp in syllables:
        digit = 2 * gen + (exp < 0) - (gen > last)
        repeat = branch ** (abs(exp) - 1)
        value = (value * branch + digit) * repeat + 2 * gen * (repeat - 1) // (branch - 1)
        last = gen
    return count_reduced(w.alphabet.rank, w.length - 1) + value


def reduced_count_exceeds(rank: int, max_len: int, cap: int) -> bool:
    """Whether more than ``cap`` reduced words of rank ``rank`` have length
    <= ``max_len``, for a cap >= 0 and whatever the length.

    The count grows with the length and passes it: it exceeds L at rank 1
    and 2^L past rank 1.  So it exceeds the cap at the clamp ``cap``
    (rank 1) or ``cap.bit_length()``, and counting at ``min(max_len,
    clamp)`` decides exactly, with one small power.
    """
    clamp = cap if rank == 1 else cap.bit_length()
    return count_reduced(rank, min(max_len, clamp)) > cap


def count_reduced(rank: int, max_len: int) -> int:
    """Closed-form count of reduced words of length <= max_len: the
    geometric sum 1 + sum_{n=1..max_len} 2k(2k-1)^{n-1} for rank k."""
    if max_len <= 0:
        return 1
    if rank == 1:
        return 1 + 2 * max_len
    return 1 + rank * ((2 * rank - 1) ** max_len - 1) // (rank - 1)
