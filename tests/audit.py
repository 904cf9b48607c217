"""The tests' independent reference: word and matrix arithmetic done the plain way.

A word is a sequence of signed letters +-(gen+1), as ``Word.letters()``
yields them; a matrix is a list of integer rows.  Nothing here imports
``vclab``, so a test that checks the package against it compares two
independent computations of the same answer.
"""

from __future__ import annotations

Letters = tuple[int, ...]


def reduce(letters) -> Letters:
    """Free reduction with a cancellation stack."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def mul(u, v) -> Letters:
    return reduce((*u, *v))


def inverse(u) -> Letters:
    return tuple(-x for x in reversed(tuple(u)))


def power(u, k: int) -> Letters:
    return reduce((tuple(u) if k >= 0 else inverse(u)) * abs(k))


def alphabet(rank: int) -> list[int]:
    """The letters in order a < A < b < B < ..."""
    return [s * (g + 1) for g in range(rank) for s in (1, -1)]


def words(rank: int, max_len: int) -> list[Letters]:
    """Every reduced word of length <= max_len, shortest first, and each
    length in letter order: every prefix, then its one-letter extensions."""
    out = frontier = [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in alphabet(rank) if not (w and w[-1] == -x)]
        out = out + frontier
    return out


def index(letters, rank: int) -> int:
    """The position of a reduced word in ``words(rank, ...)``: the count of
    shorter words, then one digit a letter, in base 2k for the first letter
    and 2k - 1 after it (no letter follows its own inverse)."""
    value, before, n = 0, 0, 0
    for x in letters:
        allowed = [y for y in alphabet(rank) if y != -before]
        value, before, n = value * len(allowed) + allowed.index(x), x, n + 1
    return value + (n > 0) + sum(2 * rank * (2 * rank - 1) ** (j - 1) for j in range(1, n))


def cyclic_core(letters) -> tuple[Letters, Letters]:
    """(t, c) with w = t c t^-1 and c cyclically reduced, for a reduced word
    w: trim inverse letters off both ends at once."""
    w = tuple(letters)
    k = 0
    while 2 * k + 1 < len(w) and w[k] == -w[-1 - k]:
        k += 1
    return w[:k], w[k:len(w) - k]


def root(letters) -> tuple[Letters, int]:
    """(r, e) with w = r^e and e largest, for a reduced word w != 1: strip
    the conjugator t of w = t c t^-1, then try each divisor of |c| in turn
    as the period of the cyclic core c."""
    t, core = cyclic_core(letters)
    n = len(core)
    for period in range(1, n + 1):
        if n % period == 0 and core == core[:period] * (n // period):
            return mul(mul(t, core[:period]), inverse(t)), n // period
    raise ValueError("the identity has no root")


def count(pattern, text) -> int:
    """Over every window of the pattern's length in the text: occurrences of
    the pattern minus those of its inverse."""
    p, t = tuple(pattern), tuple(text)
    q, k = inverse(p), len(p)
    return sum((t[i:i + k] == p) - (t[i:i + k] == q) for i in range(len(t) - k + 1))


def mat_mul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    return [[sum(row[i] * b[i][j] for i in range(len(b))) for j in range(cols)] for row in a]


def determinant(m) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def snf_faults(m, u, v, d) -> list[str]:
    """What is wrong with a Smith normal form U·M·V = D of M, if anything:
    U and V must be unimodular, D diagonal and each d_i divide d_(i+1)."""
    faults = []
    if mat_mul(mat_mul(u, m), v) != d:
        faults.append("U M V != D")
    for name, t in (("U", u), ("V", v)):
        if abs(determinant(t)) != 1:
            faults.append(f"det {name} = {determinant(t)}")
    if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        faults.append("D is not diagonal")
    diagonal = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for a, b in zip(diagonal, diagonal[1:]):
        if (b % a if a else b):
            faults.append(f"{a} does not divide {b}")
    return faults
