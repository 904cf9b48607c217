import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from audit import determinant, mat_mul
from vclab import presentations
from vclab.words import Alphabet, BudgetExceeded, WordError, parse_word
from vclab.presentations import (
    Presentation,
    _diagonalize,
    _extended_gcd_vector,
    RetractionConditionError,
    abelianization,
    cyclic_retract_test,
    identity_matrix,
    parse_presentation,
    relator_matrix,
    retraction_from_solution,
    retraction_images_from_covector,
    smith_normal_form,
    verify_retraction,
)

F1 = Alphabet(1)
F2 = Alphabet(2)


def p(text, alph=F2):
    return parse_word(text, alph)


def d4_presentation():
    return Presentation(2, (p("a^4"), p("b^2"), p("Baba")))


# -- relator matrices ------------------------------------------------------------

def test_relator_matrix_d4():
    assert relator_matrix(d4_presentation()) == [[4, 0], [0, 2], [2, 0]]


def test_relator_matrix_empty():
    assert relator_matrix(Presentation(2, ())) == []


def test_relator_matrix_commutator():
    assert relator_matrix(Presentation(2, (p("abAB"),))) == [[0, 0]]


# -- Smith normal form --------------------------------------------------------------

def minor_gcd_invariants(m, k_max):
    """Invariant factors via gcds of k x k minors; the independent oracle."""
    rows, cols = len(m), len(m[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, k_max + 1):
        gcd_k = 0
        for ris in itertools.combinations(range(rows), k):
            for cis in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in cis] for i in ris]
                gcd_k = math.gcd(gcd_k, determinant(sub))
        if gcd_k == 0:
            out.append(0)
            prev = 0
        else:
            out.append(gcd_k // prev)
            prev = gcd_k
    return out


def test_snf_worked_example():
    m = [[4, 0], [0, 2], [2, 0]]
    snf = smith_normal_form(m)
    assert snf.diagonal() == [2, 2]
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
    # minor-gcd oracle: d1 = gcd of entries = 2, d1 d2 = gcd of 2x2 minors = 4
    assert minor_gcd_invariants(m, 2) == [2, 2]


def test_snf_identity_and_zero():
    snf = smith_normal_form(identity_matrix(3))
    assert snf.diagonal() == [1, 1, 1]
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal() == [0, 0]


def test_snf_random_matrices_exact():
    rng = random.Random(101)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
        diag = snf.diagonal()
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(i + 1, len(diag)):
                assert diag[j] == 0 or (diag[i] != 0 and diag[j] % diag[i] == 0) or diag[i] == 0 and diag[j] == 0
        # off-diagonal must vanish
        for i, row in enumerate(snf.d):
            for j, val in enumerate(row):
                if i != j:
                    assert val == 0


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(103)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        assert snf.diagonal() == minor_gcd_invariants(m, min(rows, cols))


def eager_smith_normal_form(m, cols=None):
    """Smith normal form that applies every row and column operation to U
    and V as it happens, over whole rows and columns, and scans every block
    to the end: the reference for ``_diagonalize``, its lazily updated
    transforms and its stop at the first zero block."""
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    d = [row[:] for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    limit = min(rows, cols)
    for k in range(limit):
        while True:
            pivot = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (k, k):
                if pivot[0] != k:
                    swap_rows(k, pivot[0])
                if pivot[1] != k:
                    swap_cols(k, pivot[1])
            reduced = True
            for i in range(k + 1, rows):
                if d[i][k]:
                    add_row(i, k, -(d[i][k] // d[k][k]))
                    if d[i][k]:
                        reduced = False
            for j in range(k + 1, cols):
                if d[k][j]:
                    add_col(j, k, -(d[k][j] // d[k][k]))
                    if d[k][j]:
                        reduced = False
            if not reduced:
                continue
            # divisibility: pull any non-divisible entry into row k
            culprit = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if d[i][j] % d[k][k]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(k, culprit, 1)
        if d[k][k] < 0:
            negate_row(k)
    return d, u, v


def sparse_matrix(rng, rows, cols, bound=60):
    """Entries in [-bound, bound], about a third of them zero."""
    return [[0 if rng.random() < 1 / 3 else rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def low_rank_matrix(rng, rows, cols, rank, bound=9):
    """A sum of ``rank`` outer products, so the elimination meets a zero block."""
    m = [[0] * cols for _ in range(rows)]
    for _ in range(rank):
        left = [rng.randint(-bound, bound) for _ in range(rows)]
        right = [rng.randint(-bound, bound) for _ in range(cols)]
        m = [[x + a * b for x, b in zip(row, right)] for row, a in zip(m, left)]
    return m


# each companion of _diagonalize is an identity (the transform is tracked) or
# empty rows (it is not)
COMPANIONS = list(itertools.product((True, False), repeat=2))


def assert_diagonalize_matches_eager(m, cols, track_u, track_v):
    rows = len(m)
    d = [row[:] for row in m]
    u = identity_matrix(rows) if track_u else [[]] * rows
    vt = identity_matrix(cols) if track_v else [[]] * cols
    _diagonalize(d, u, vt)
    eager_d, eager_u, eager_v = eager_smith_normal_form(m, cols=cols)
    assert d == eager_d
    assert u == (eager_u if track_u else [[]] * rows)
    assert vt == ([list(col) for col in zip(*eager_v)] if track_v else [[]] * cols)


def test_snf_transforms_equal_the_eager_reference():
    rng = random.Random(113)
    for case in range(1500):
        rows, cols = rng.randint(0, 9), rng.randint(1, 9)
        if case % 3:
            m = sparse_matrix(rng, rows, cols)
        else:
            m = low_rank_matrix(rng, rows, cols, rng.randint(0, 2))
        for companions in COMPANIONS:
            assert_diagonalize_matches_eager(m, cols, *companions)


@pytest.mark.parametrize("cols", range(10))
def test_snf_with_no_rows_equals_the_eager_reference(cols):
    for companions in COMPANIONS:
        assert_diagonalize_matches_eager([], cols, *companions)


@given(st.integers(1, 9).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-60, 60), st.integers(-60, 60)), min_size=cols, max_size=cols),
    max_size=9,
).map(lambda m: (m, cols))), st.sampled_from(COMPANIONS))
def test_snf_transforms_equal_the_eager_reference_drawn(case, companions):
    m, cols = case
    assert_diagonalize_matches_eager(m, cols, *companions)


def test_snf_transforms_equal_the_eager_reference_at_12_by_12():
    rng = random.Random(127)
    for m in (sparse_matrix(rng, 12, 12, bound=50), low_rank_matrix(rng, 12, 12, 3)):
        for companions in COMPANIONS:
            assert_diagonalize_matches_eager(m, 12, *companions)


def test_snf_transposes_the_tracked_columns_of_v():
    m = sparse_matrix(random.Random(131), 5, 7)
    assert tuple(smith_normal_form(m)) == eager_smith_normal_form(m)
    assert tuple(smith_normal_form([])) == ([], [], [])


def test_snf_transforms_are_unimodular_at_12_by_12():
    m = sparse_matrix(random.Random(127), 12, 12, bound=50)
    snf = smith_normal_form(m)
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1


# -- abelianization ---------------------------------------------------------------------

def test_abelianization_examples():
    assert abelianization(d4_presentation()).invariant_factors == (2, 2)
    assert abelianization(d4_presentation()).free_rank == 0
    free = abelianization(Presentation(2, ()))
    assert free.invariant_factors == () and free.free_rank == 2
    trivial = abelianization(Presentation(1, (parse_word("a", F1),)))
    assert trivial.invariant_factors == () and trivial.free_rank == 0


def test_abelianization_invariant_under_relator_shuffles():
    rng = random.Random(107)
    base = [p("a^4"), p("b^2"), p("Baba")]
    reference = abelianization(Presentation(2, tuple(base)))
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        shuffled = [r.inverse() if rng.random() < 0.5 else r for r in shuffled]
        assert abelianization(Presentation(2, tuple(shuffled))) == reference


# -- what each caller builds, and its budget ---------------------------------------------------

def test_each_caller_builds_only_the_transforms_it_reads(monkeypatch):
    built, held = [], []
    real_identity, real_diagonalize = presentations.identity_matrix, presentations._diagonalize

    def diagonalize(d, u, vt):
        held.append((sum(map(len, u)), sum(map(len, vt))))  # entries of U and V at the start
        real_diagonalize(d, u, vt)

    monkeypatch.setattr(presentations, "identity_matrix", lambda n: built.append(n) or real_identity(n))
    monkeypatch.setattr(presentations, "_diagonalize", diagonalize)
    alph = Alphabet(3)
    pres = Presentation(3, (alph.generator(0) ** 2, alph.generator(1) ** 3))
    assert abelianization(pres) == ((6,), 1)
    assert (built, held) == ([], [(0, 0)])
    assert cyclic_retract_test(pres, alph.generator(2)).covector == (0, 0, 1)
    assert (built, held[1:]) == ([3], [(0, 9)])
    assert smith_normal_form(relator_matrix(pres)).diagonal() == [1, 6]
    assert (built[1:], held[2:]) == ([2, 3], [(4, 9)])


@pytest.mark.parametrize("rows, cols", [(1, 3), (3, 1), (2, 2), (4, 3), (0, 2)])
def test_transform_budget_admits_exactly_its_entries(monkeypatch, rows, cols):
    alph = Alphabet(cols)
    pres = Presentation(cols, tuple(alph.generator(i % cols) ** (i + 2) for i in range(rows)))
    m = relator_matrix(pres)
    h = alph.generator(0)
    snf_cols = cols if rows else 0  # a matrix with no rows has no columns either
    runs = [  # what is counted, how many entries, for which shape; the run and a check of its result
        ("transforms", rows * rows + snf_cols * snf_cols, (rows, snf_cols),
         lambda: smith_normal_form(m), lambda snf: mat_mul(mat_mul(snf.u, m), snf.v) == snf.d),
        ("elimination arrays and V", rows * cols + rows + cols + cols * cols, (rows, cols),
         lambda: cyclic_retract_test(pres, h), lambda res: res.primitive == (rows == 0)),
        ("elimination arrays", rows * cols + rows + cols, (rows, cols),
         lambda: abelianization(pres), lambda ab: ab.free_rank == cols - min(rows, cols)),
    ]
    for arrays, entries, (r, c), run, holds in runs:
        monkeypatch.setattr(presentations, "TRANSFORM_BUDGET", entries)
        assert holds(run())
        with monkeypatch.context() as refusing:
            refusing.setattr(presentations, "TRANSFORM_BUDGET", entries - 1)
            # refused before the relator matrix or any transform is built
            refusing.setattr(presentations, "relator_matrix", None)
            refusing.setattr(presentations, "identity_matrix", None)
            message = f"^{arrays} of {entries} entries for a {r} x {c} matrix exceed the budget of {entries - 1} entries$"
            with pytest.raises(BudgetExceeded, match=message):
                run()


class Admitted(Exception):
    """Raised in place of the relator matrix, the first thing built past the budget."""


def admits(pres):
    try:
        abelianization(pres)
    except Admitted:
        return True
    except BudgetExceeded:
        return False
    raise AssertionError("abelianization neither built its matrix nor refused")


def test_abelianization_admits_every_shape_the_transform_rule_admits(monkeypatch):
    def matrix(pres):
        raise Admitted
    monkeypatch.setattr(presentations, "relator_matrix", matrix)
    budget = presentations.TRANSFORM_BUDGET
    for rows in [*range(0, 2000, 50), 1999]:
        cols = math.isqrt(budget - rows * rows)  # the widest shape whose transforms fit
        relator = Alphabet(cols).generator(0)
        assert admits(Presentation(cols, (relator,) * rows))
    # rows * cols + rows + cols entries: 2c + 1 on one relator, c with none
    for rows, cols, admitted in [(1, 1999999, True), (1, 2000000, False), (0, 4000000, True), (0, 4000001, False),
                                 (0, 10**9, False), (2000, 1, True), (1999999, 1, True), (2000000, 1, False)]:
        assert admits(Presentation(cols, (Alphabet(cols).generator(0),) * rows)) == admitted


# -- cyclic retract criterion ----------------------------------------------------------------

def test_cyclic_retract_free_group():
    res = cyclic_retract_test(Presentation(2, ()), p("a"))
    assert res.primitive and res.covector == (1, 0)
    images = retraction_images_from_covector(Presentation(2, ()), p("a"), res.covector)
    assert images == [p("a"), p("")]


def test_cyclic_retract_proper_power():
    res = cyclic_retract_test(Presentation(2, ()), p("a^2"))
    assert not res.primitive and res.gcd == 2


def test_cyclic_retract_free_abelian():
    res = cyclic_retract_test(Presentation(2, (p("abAB"),)), p("ab^2"))
    assert res.primitive
    assert sum(c * x for c, x in zip(res.covector, [1, 2])) == 1


def test_cyclic_retract_torsion_image():
    # in <a | a^2> the image of a is pure torsion
    res = cyclic_retract_test(Presentation(1, (parse_word("a^2", F1),)), parse_word("a", F1))
    assert not res.primitive


def test_cyclic_retract_covector_kills_relators():
    rng = random.Random(109)
    for _ in range(40):
        relators = tuple(
            p("".join(rng.choice("abAB") for _ in range(rng.randint(0, 6))))
            for _ in range(rng.randint(0, 3))
        )
        pres = Presentation(2, relators)
        h = p("")
        while h.is_identity():
            h = p("".join(rng.choice("abAB") for _ in range(rng.randint(1, 6))))
        res = cyclic_retract_test(pres, h)
        if res.primitive:
            images = retraction_images_from_covector(pres, h, res.covector)
            assert verify_retraction(pres, [h], images)


def folded_bezout(values):
    """Bezout coefficients as a fold that scales the whole list at every value."""
    g, coeffs = 0, []
    for val in values:
        g, x, y = presentations._xgcd(g, val)
        coeffs = [c * x for c in coeffs] + [y]
    return g, coeffs


@given(st.lists(st.integers(-9, 9), max_size=6))
@example([1, -1])
@example([0, 2, -3])
@example([])
@example([0] * 50 + [6, 0, 10, 0, 15] + [0] * 50)
def test_bezout_coefficients_reach_the_gcd(values):
    g, coeffs = _extended_gcd_vector(values)
    assert g == math.gcd(*values)
    assert len(coeffs) == len(values)
    assert sum(c * v for c, v in zip(coeffs, values)) == g
    # the coefficients a cyclic-retract report writes, as the fold gave them
    assert (g, coeffs) == folded_bezout(values)


def dense_cyclic_retract(pres, h):
    """The criterion from V of the full Smith normal form, with sums over
    every entry of V's free columns and the folded Bezout coefficients."""
    m = relator_matrix(pres)
    snf = smith_normal_form(m)
    rows, cols = len(m), pres.num_gens
    free = [[row[j] for row in snf.v] for j in range(cols) if j >= rows or snf.d[j][j] == 0]
    image = tuple(sum(x * y for x, y in zip(h.exponent_sums(), col)) for col in free)
    g, bezout = folded_bezout(image)
    if g != 1:
        return (False, g, image, None)
    return (True, 1, image, tuple(sum(b * x for b, x in zip(bezout, row)) for row in zip(*free)))


def test_cyclic_retract_equals_the_dense_criterion():
    rng = random.Random(113)
    for _ in range(60):
        gens = rng.randint(2, 7)
        alph = Alphabet(gens)
        letters = "abcdefg"[:gens] + "ABCDEFG"[:gens]
        relators = tuple(
            parse_word("".join(rng.choice(letters) for _ in range(rng.randint(0, 8))), alph)
            for _ in range(rng.randint(1, 4))
        )
        pres = Presentation(gens, relators)
        h = alph.identity()
        while h.is_identity():
            h = parse_word("".join(rng.choice(letters) for _ in range(rng.randint(1, 6))), alph)
        assert tuple(cyclic_retract_test(pres, h)) == dense_cyclic_retract(pres, h)


# -- retraction verification -------------------------------------------------------------------

def test_verify_retraction_basic():
    free2 = Presentation(2, ())
    assert verify_retraction(free2, [p("a")], [p("a"), p("")])


def test_verify_retraction_relator_violation():
    pres = Presentation(2, (p("b"),))
    assert not verify_retraction(pres, [p("a")], [p("a"), p("b")])


def test_verify_retraction_conjugation_correction():
    # images conjugated by U fail fixation; correcting by U^{-1} restores it
    pres = Presentation(2, ())
    u = p("ab")
    moved = [p("a").conjugate(u), p("b").conjugate(u)]
    assert not verify_retraction(pres, [p("a")], moved)
    restored = [img.conjugate(u.inverse()) for img in moved]
    assert verify_retraction(pres, [p("a")], restored)


def test_retraction_from_solution_alpha_one():
    pres = Presentation(2, (p("b"),))
    u = p("ab")
    solution = (p("a").conjugate(u), p(""))
    result = retraction_from_solution(pres, [p("a")], [p("b")], solution, u, 1)
    assert result.verified
    assert result.images[0] == p("a")


def test_retraction_from_solution_alpha_zero_identity_correction():
    pres = Presentation(2, (p("b"),))
    solution = (p("a"), p(""))
    result = retraction_from_solution(pres, [p("a")], [p("b")], solution, p("ab"), 0)
    assert result.verified and result.images == (p("a"), p(""))


def test_retraction_from_solution_relator_violation_named():
    pres = Presentation(2, (p("b"),))
    with pytest.raises(RetractionConditionError) as err:
        retraction_from_solution(pres, [p("a")], [p("b")], (p("a"), p("b")), p("ab"), 0)
    assert err.value.condition == "relator-kill"
    assert err.value.index == 0


def test_retraction_from_solution_fixation_violation_named():
    pres = Presentation(2, (p("b"),))
    with pytest.raises(RetractionConditionError) as err:
        retraction_from_solution(pres, [p("a")], [p("b")], (p("b^2"), p("")), p("ab"), 0)
    assert err.value.condition == "subgroup-fixation"
    assert err.value.index == 0


# -- presentation files ---------------------------------------------------------------------------

def test_parse_presentation_file():
    pres = parse_presentation("gens: 2\n# dihedral of order 8\na^4\nb^2\nBaba\n")
    assert pres.num_gens == 2
    assert [str(r) for r in pres.relators] == ["a^4", "b^2", "Baba"]


def test_parse_presentation_rejects_missing_header():
    # a count that is no integer is no header either
    for text in ("a^4\n", "gens: x\n", "gens:\n"):
        with pytest.raises(WordError, match="^presentation must start with 'gens: <n>'$"):
            parse_presentation(text)
