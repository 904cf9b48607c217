"""Finitely presented groups over free targets: integer linear algebra.

Relator matrices, Smith normal form with tracked unimodular transforms,
abelianization invariants, the primitive-image criterion for retractions
onto cyclic subgroups, and verification of retractions built from
solutions of the big test-word equation.

All arithmetic is arbitrary-precision integer; matrices are plain lists
of lists.  Smith normal form, abelianization and the cyclic-retract test run
one pivot loop, each tracking only the transforms it reads, and each refuses
a matrix whose arrays would pass ``TRANSFORM_BUDGET`` entries up front.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, format_word, parse_word, substitute

Matrix = list[list[int]]

# entries of the identities U (rows^2) and V (cols^2) a Smith normal form starts
# from, or of the matrix and its per-row and per-column state, plus V when only
# V is built
TRANSFORM_BUDGET = 4 * 10**6


class Presentation:
    """Generators x_0, ..., x_{num_gens-1} and relator words over them."""

    def __init__(self, num_gens: int, relators: tuple[Word, ...]) -> None:
        if num_gens < 1:
            raise WordError("need at least one generator")
        for r in relators:
            if r.alphabet.rank != num_gens:
                raise WordError("relator alphabet does not match generator count")
        self.num_gens, self.relators = num_gens, relators

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.num_gens)


def parse_presentation(text: str) -> Presentation:
    """File format: a line ``gens: <n>`` then one relator literal per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0] if lines else ""
    try:
        num = int(head[len("gens:"):] if head.startswith("gens:") else "")
    except ValueError:
        raise WordError("presentation must start with 'gens: <n>'") from None
    alph = Alphabet(num)
    relators = tuple(parse_word(ln, alph) for ln in lines[1:])
    return Presentation(num, relators)


def _check_budget(arrays: str, entries: int, rows: int, cols: int) -> None:
    """Refuse a rows x cols elimination whose arrays pass ``TRANSFORM_BUDGET``."""
    if entries > TRANSFORM_BUDGET:
        raise BudgetExceeded(f"{arrays} of {entries} entries for a {rows} x {cols} matrix exceed the budget of {TRANSFORM_BUDGET} entries")


def relator_matrix(pres: Presentation) -> Matrix:
    """Row i, column j holds the exponent sum of relator i on generator j."""
    return [r.exponent_sums() for r in pres.relators]


def identity_matrix(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


class SNFResult(NamedTuple):
    """U M V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    d: Matrix
    u: Matrix
    v: Matrix

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    def to_json_dict(self) -> dict:
        return {"d": self.d, "u": self.u, "v": self.v, "diagonal": self.diagonal()}


def smith_normal_form(m: Matrix) -> SNFResult:
    """Diagonalize by elementary row and column operations, tracking both
    transforms, so U M V = D exactly.  Refused past ``TRANSFORM_BUDGET``."""
    rows, cols = len(m), len(m[0]) if m else 0
    _check_budget("transforms", rows * rows + cols * cols, rows, cols)
    if any(len(row) != cols for row in m):
        raise WordError("matrix is ragged")
    d = [row[:] for row in m]
    u, vt = identity_matrix(rows), identity_matrix(cols)
    _diagonalize(d, u, vt)
    return SNFResult(d, u, [list(row) for row in zip(*vt)])


def _diagonalize(d: Matrix, u: Matrix, vt: Matrix) -> None:
    """Bring d to Smith normal form in place, doing each row operation to the
    rows of u and each column operation to the rows of vt, whose lengths give
    d's shape.  From identities u ends as U and vt as the columns of V; empty
    rows stay empty, and d never depends on what u and vt hold.  Pivot
    choice: smallest nonzero absolute value in the working block, ties broken
    topmost then leftmost.  A block with no nonzero entry holds every later
    block, so the loop stops at the first one.

    D's entries stay small while U's and V's grow to thousands of bits, so
    the transforms are updated lazily.  During step k every row operation on
    U adds a multiple of pivot row k, so row i keeps one pending factor
    ``owed[i]`` and pays it in a single pass just before row k changes (a
    pivot swap, the divisibility step, the end of step k); V, held as its
    columns, does the same against pivot column k.  Deferring changes no
    integer of U or V: they never feed back into the pivot choices, and a
    zero block is found only by a step's first scan, when nothing is owed.
    Rows and columns of D before k are zero outside the diagonal, so D's
    operations touch only the block from (k, k).
    """
    rows, cols = len(u), len(vt)
    owed_u = [0] * rows  # row i of U still owes owed_u[i] * u[k]
    owed_v = [0] * cols  # column j of V still owes owed_v[j] * vt[k]

    def settle(t, owed, k):
        # pay every pending multiple of t[k], one pass per nonzero factor
        for i in range(k + 1, len(t)):
            if c := owed[i]:
                t[i] = [x + c * y for x, y in zip(t[i], t[k])]
                owed[i] = 0

    for k in range(min(rows, cols)):
        while True:
            pivot, least = None, 0
            for i in range(k, rows):
                row = d[i]
                for j in range(k, cols):
                    x = abs(row[j])
                    if x and (pivot is None or x < least):
                        pivot, least = (i, j), x
            if pivot is None:
                return
            pi, pj = pivot
            if pi != k:
                settle(u, owed_u, k)
                d[k], d[pi] = d[pi], d[k]
                u[k], u[pi] = u[pi], u[k]
            if pj != k:
                settle(vt, owed_v, k)
                for row in d[k:]:
                    row[k], row[pj] = row[pj], row[k]
                vt[k], vt[pj] = vt[pj], vt[k]
            dk = d[k]
            p = dk[k]
            reduced = True
            tail = dk[k:]
            for i in range(k + 1, rows):
                row = d[i]
                if row[k]:
                    q = -(row[k] // p)
                    row[k:] = [x + q * y for x, y in zip(row[k:], tail)]
                    owed_u[i] += q
                    if row[k]:
                        reduced = False
            for j in range(k + 1, cols):
                if dk[j]:
                    q = -(dk[j] // p)
                    for row in d[k:]:
                        row[j] += q * row[k]
                    owed_v[j] += q
                    if dk[j]:
                        reduced = False
            if not reduced:
                continue
            # divisibility: pull any non-divisible entry into row k
            culprit = None
            for i in range(k + 1, rows):
                row = d[i]
                for j in range(k + 1, cols):
                    if row[j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            settle(u, owed_u, k)
            dk[k:] = [x + y for x, y in zip(dk[k:], d[culprit][k:])]
            u[k] = [x + y for x, y in zip(u[k], u[culprit])]
        settle(u, owed_u, k)
        settle(vt, owed_v, k)
        if d[k][k] < 0:
            d[k][k] = -d[k][k]
            u[k] = [-x for x in u[k]]


class AbelianizationData(NamedTuple):
    invariant_factors: tuple[int, ...]  # entries > 1, divisibility chain
    free_rank: int


def abelianization(pres: Presentation) -> AbelianizationData:
    """Invariant factors and free rank of the abelianized group, read from
    the diagonal of an elimination that tracks no transform."""
    rows, cols = len(pres.relators), pres.num_gens
    _check_budget("elimination arrays", rows * cols + rows + cols, rows, cols)
    d = relator_matrix(pres)
    _diagonalize(d, [[]] * rows, [[]] * cols)
    nonzero = [d[i][i] for i in range(min(rows, cols)) if d[i][i]]
    return AbelianizationData(tuple(x for x in nonzero if x > 1), cols - len(nonzero))


def _extended_gcd_vector(values: Sequence[int]) -> tuple[int, list[int]]:
    """gcd plus Bezout coefficients for a vector of integers."""
    g, steps = 0, []
    for val in values:
        # new g = x * old g + y * val
        g, x, y = _xgcd(g, val)
        steps.append((x, y))
    # value i keeps its y, times the x of every later step
    coeffs, scale = [], 1
    for x, y in reversed(steps):
        coeffs.append(y * scale)
        scale *= x
    return g, coeffs[::-1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # floor division leaves the last remainder negative when b < 0
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class CyclicRetractResult(NamedTuple):
    primitive: bool
    gcd: int
    free_image: tuple[int, ...]
    covector: Optional[tuple[int, ...]]


def cyclic_retract_test(pres: Presentation, h: Word) -> CyclicRetractResult:
    """Primitive-image criterion for a retraction onto <h>.

    Computes the image of h in the free part of the abelianization; when
    the coordinate gcd is 1 an integer covector lambda with
    lambda(image(h)) = 1 exists and g -> h^{lambda(ab(g))} is a
    retraction of the presented group onto <h>.
    """
    if h.is_identity():
        raise WordError("h must be nonidentity")
    if h.alphabet.rank != pres.num_gens:
        raise WordError("h must be a word in the presentation generators")
    rows, cols = len(pres.relators), pres.num_gens
    _check_budget("elimination arrays and V", rows * cols + rows + cols + cols * cols, rows, cols)
    m = relator_matrix(pres)
    d = [row[:] for row in m]
    vt = identity_matrix(cols)  # the columns of V; U is not read
    _diagonalize(d, [[]] * rows, vt)
    free = [vt[j] for j in range(cols) if j >= rows or d[j][j] == 0]  # V's free columns
    e = h.exponent_sums()
    # coordinates of h in the changed basis: e . V, on the free columns,
    # summed over the generators h uses
    used = [(j, x) for j, x in enumerate(e) if x]
    free_image = tuple(sum(x * col[j] for j, x in used) for col in free)
    g, bezout = _extended_gcd_vector(free_image)
    if g != 1:
        return CyclicRetractResult(False, g, free_image, None)
    # the free columns combined by the nonzero Bezout coefficients
    covector = [0] * cols
    for b, col in zip(bezout, free):
        if b:
            covector = [c + b * x for c, x in zip(covector, col)]
    covector = tuple(covector)
    if sum(c * x for c, x in zip(covector, e)) != 1:
        raise AssertionError(f"covector {covector} does not send h to 1")
    for relator_row in m:
        if sum(c * x for c, x in zip(covector, relator_row)) != 0:
            raise AssertionError(f"covector {covector} does not kill relator row {relator_row}")
    return CyclicRetractResult(True, 1, free_image, covector)


def retraction_images_from_covector(pres: Presentation, h: Word, covector: Sequence[int]) -> list[Word]:
    """Generator images of the retraction g_j -> h^{lambda_j}."""
    return [h ** covector[j] for j in range(pres.num_gens)]


# -- retractions from solutions -------------------------------------------------


class RetractionConditionError(WordError):
    """A required condition fails; carries which one and the index."""

    def __init__(self, condition: str, index: int, detail: str):
        super().__init__(f"{condition} condition fails at index {index}: {detail}")
        self.condition = condition
        self.index = index


def verify_retraction(pres: Presentation, subgroup_words: Sequence[Word], images: Sequence[Word]) -> bool:
    """True iff the assignment kills every relator and fixes the subgroup.

    The target free group shares the presentation's alphabet; subgroup
    generators are given as words and must map to themselves literally.
    """
    if len(images) != pres.num_gens:
        raise WordError(f"need {pres.num_gens} generator images, got {len(images)}")
    for r in pres.relators:
        if not substitute(r, images).is_identity():
            return False
    for v in subgroup_words:
        if substitute(v, images) != v:
            return False
    return True


class RetractionResult(NamedTuple):
    images: tuple[Word, ...]
    verified: bool


def retraction_from_solution(
    pres: Presentation,
    subgroup_words: Sequence[Word],
    relator_words: Sequence[Word],
    solution: Sequence[Word],
    common_value: Word,
    alpha: int,
) -> RetractionResult:
    """Build the conjugation-corrected retraction from an equation solution.

    Preconditions, checked in order and reported with the offending index:
    every relator word must evaluate to the identity on the solution, and
    every subgroup word must evaluate to its own conjugate by the alpha-th
    power of the common value.  The corrected assignment conjugates the
    solution back, which restores the subgroup pointwise.
    """
    if len(solution) != pres.num_gens:
        raise WordError(f"need {pres.num_gens} solution words, got {len(solution)}")
    for j, u_word in enumerate(relator_words):
        if not substitute(u_word, solution).is_identity():
            raise RetractionConditionError("relator-kill", j, f"{format_word(u_word)} does not die")
    shift = common_value ** alpha
    for i, v_word in enumerate(subgroup_words):
        expected = v_word.conjugate(shift)
        if substitute(v_word, solution) != expected:
            raise RetractionConditionError(
                "subgroup-fixation", i, f"{format_word(v_word)} is not conjugated by the expected power"
            )
    back = common_value ** (-alpha)
    corrected = tuple(s.conjugate(back) for s in solution)
    verified = verify_retraction(pres, list(subgroup_words), list(corrected))
    return RetractionResult(corrected, verified)
