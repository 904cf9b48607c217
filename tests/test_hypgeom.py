import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vclab import cli, hypgeom
from vclab.oracles import is_commensurable
from vclab.words import Alphabet, BudgetExceeded, Word, WordError, count_reduced, enumerate_reduced, free_word_metric, parse_word
from vclab.hypgeom import (
    cayley_ball,
    check_concatenation_quasigeodesic,
    check_midpoint_inequality,
    delta_thin_report,
    divergence_experiment,
    free_tree_vertex,
    quasigeodesic_slack,
)

F2 = Alphabet(2)
F3 = Alphabet(3)


def p(text, alph=F2):
    return parse_word(text, alph)


def random_word(rng, max_len, alph=F2):
    letters = [(rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return Word.from_syllables(alph, letters)


def points(sp):
    return [sp.point(i) for i in range(len(sp))]


def geodesic(sp, u, v):
    """The vertices of the geodesic from u to v in ``sp``, read one at a time."""
    return [sp.geodesic_vertex(u, v, k) for k in range(sp.dist(u, v) + 1)]


def vertex_gaps(sp, a, b, c):
    """d(vertex k of [c, a], vertex k of [c, b]) for k up to (a|b)_c, each
    pair built by ``geodesic_vertex`` and measured by ``dist``."""
    reach = (sp.dist(c, a) + sp.dist(c, b) - sp.dist(a, b)) // 2
    return [sp.dist(sp.geodesic_vertex(c, a, k), sp.geodesic_vertex(c, b, k)) for k in range(reach + 1)]


class MatrixSpace:
    """A finite metric space given by its points and distance matrix, with a
    ball's interface: ``len``, ``point``, ``dist``, ``geodesic_vertex`` and
    ``side_gaps``.

    Its geodesics keep the ball's contract: vertex k lies at distance k
    from the start, one edge from vertex k - 1.  Each path listed in
    ``geodesics`` is checked for that here; a pair not listed must be at
    most one edge apart, and its path is [u, v], or [u] when u = v.  Vertex
    k of a geodesic is read off the listed path, and the side gaps are
    measured between such vertices."""

    def __init__(self, pts, matrix, geodesics=None):
        self.points, self.matrix = tuple(pts), matrix
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.geodesics = geodesics or {}
        for (u, v), path in self.geodesics.items():
            assert (path[0], path[-1]) == (u, v)
            assert [self.dist(u, x) for x in path] == list(range(len(path)))
            assert all(self.dist(x, y) == 1 for x, y in zip(path, path[1:]))

    def __len__(self):
        return len(self.points)

    def point(self, i):
        return self.points[i]

    def dist(self, u, v):
        return self.matrix[self.index[u]][self.index[v]]

    def geodesic_vertex(self, u, v, k):
        if (u, v) in self.geodesics:
            return self.geodesics[u, v][k]
        if self.dist(u, v) > 1:
            raise AssertionError(f"no geodesic listed from {u} to {v}, {self.dist(u, v)} apart")
        return ([u, v] if u != v else [u])[k]

    def side_gaps(self, a, b, c):
        return vertex_gaps(self, a, b, c)


def _bfs_ball(gens, radius):
    """The ball over any generating set, every distance found by a
    breadth-first search out to 2 * radius, which covers every pair inside
    the ball; points ordered by distance, then as ``enumerate_reduced``
    orders them."""
    alph = gens[0].alphabet
    moves = [m for g in gens for m in (g, g.inverse())]
    distances = {alph.identity(): 0}
    frontier = [alph.identity()]
    for step in range(1, 2 * radius + 1):
        nxt = []
        for word in frontier:
            for mv in moves:
                img = word * mv
                if img not in distances:
                    distances[img] = step
                    nxt.append(img)
        frontier = nxt
    order = {w: i for i, w in enumerate(enumerate_reduced(alph, radius))}
    pts = sorted((w for w, d in distances.items() if d <= radius), key=lambda w: (distances[w], order[w]))
    return MatrixSpace(pts, tuple(tuple(distances[u.inverse() * v] for v in pts) for u in pts))


@pytest.fixture(scope="module")
def ball4():
    return cayley_ball(F2, 4)


# -- balls ---------------------------------------------------------------------

def test_ball_sizes():
    assert len(cayley_ball(F2, 0)) == 1
    assert len(cayley_ball(F2, 1)) == 5
    assert len(cayley_ball(F2, 2)) == 17


def test_ball_cap(monkeypatch):
    monkeypatch.setattr(hypgeom, "BALL_CAP", 50)
    with pytest.raises(BudgetExceeded):
        cayley_ball(F2, 4)
    # the cap bounds the ball's point count
    monkeypatch.setattr(hypgeom, "BALL_CAP", 161)
    assert len(cayley_ball(F2, 4)) == 161
    monkeypatch.setattr(hypgeom, "BALL_CAP", 160)
    with pytest.raises(BudgetExceeded, match="ball exceeds cap of 160 elements"):
        cayley_ball(F2, 4)


@pytest.mark.parametrize("rank, radius", [(1, 7), (2, 3), (3, 2)])
def test_ball_cap_admits_exactly_its_count(monkeypatch, rank, radius):
    alph, total = Alphabet(rank), count_reduced(rank, radius)
    monkeypatch.setattr(hypgeom, "BALL_CAP", total)
    assert len(cayley_ball(alph, radius)) == total
    monkeypatch.setattr(hypgeom, "BALL_CAP", total - 1)
    for r in (radius, 10**9):
        with pytest.raises(BudgetExceeded, match=f"^ball exceeds cap of {total - 1} elements$"):
            cayley_ball(alph, r)


def test_ball_cap_is_clamped_for_any_radius():
    start = time.perf_counter()
    for alph in (Alphabet(1), F2, F3):
        with pytest.raises(BudgetExceeded, match="ball exceeds cap of 200000 elements"):
            cayley_ball(alph, 10**9)
    assert time.perf_counter() - start < 1
    assert len(cayley_ball(Alphabet(1), 99_999)) == 199_999
    with pytest.raises(BudgetExceeded):
        cayley_ball(Alphabet(1), 100_000)


@pytest.mark.parametrize("rank, radius", [(k, r) for k in (1, 2, 3) for r in range(6)])
def test_points_unrank_the_enumeration(rank, radius):
    alph = Alphabet(rank)
    sp = cayley_ball(alph, radius)
    assert len(sp) == count_reduced(rank, radius)
    assert points(sp) == list(enumerate_reduced(alph, radius))
    for i in (-1, len(sp)):
        with pytest.raises(IndexError):
            sp.point(i)


def test_rank_one_points_at_the_largest_radius():
    alph = Alphabet(1)
    sp = cayley_ball(alph, 99_999)
    last = len(sp) - 1
    assert [sp.point(i) for i in (0, 1, 2, last)] == [p("", alph), p("a", alph), p("A", alph), p("a^-99999", alph)]
    assert sp.point(last - 1) == p("a^99999", alph)
    _assert_trusted(sp.point(last))


def test_ball_metric_is_word_metric(ball4):
    rng = random.Random(3)
    pts = points(ball4)
    for _ in range(300):
        u, v = rng.choice(pts), rng.choice(pts)
        assert ball4.dist(u, v) == free_word_metric(u, v)


@pytest.mark.parametrize("rank, radius", [(2, r) for r in range(5)] + [(3, r) for r in range(3)])
def test_standard_ball_matches_breadth_first_ball(rank, radius):
    alph = Alphabet(rank)
    fast = cayley_ball(alph, radius)
    slow = _bfs_ball([alph.generator(i) for i in range(rank)], radius)
    # the unranked order is the breadth-first order (distance, shortlex)
    pts = points(fast)
    assert pts == list(slow.points)
    assert pts == list(enumerate_reduced(alph, radius))
    assert tuple(tuple(fast.dist(u, v) for v in pts) for u in pts) == slow.matrix
    # each geodesic of the ball is a shortest path of the breadth-first
    # metric, which in a tree is the only one
    for u in pts:
        for v in pts:
            path = geodesic(fast, u, v)
            assert (path[0], path[-1]) == (u, v)
            assert [slow.dist(u, x) for x in path] == list(range(len(path)))
            assert all(slow.dist(x, y) == 1 for x, y in zip(path, path[1:]))


def test_on_demand_dist_rejects_points_outside_the_ball(ball4):
    assert ball4.dist(p("a^4"), p("B^4")) == 8
    with pytest.raises(WordError, match="not in space"):
        ball4.dist(p("a^5"), p(""))
    with pytest.raises(WordError, match="not in space"):
        ball4.dist(p(""), p("ab^4"))


def _index_dist(points, u, v):
    """On-demand ``dist`` as it was with an index of the points: both words
    looked up by hash, the first one missing named in the error."""
    index = {pt: i for i, pt in enumerate(points)}
    try:
        index[u], index[v]
    except KeyError as missing:
        raise WordError(f"point {missing.args[0]} not in space") from None
    return free_word_metric(u, v)


def _outcome(dist, u, v):
    try:
        return dist(u, v)
    except WordError as err:
        return str(err)


@pytest.mark.parametrize("rank, radius", [(2, r) for r in range(5)] + [(3, r) for r in range(3)])
def test_on_demand_membership_matches_an_index_of_the_points(rank, radius):
    alph = Alphabet(rank)
    ball = cayley_ball(alph, radius)
    assert (ball.alphabet, ball.radius) == (alph, radius)
    pts = points(ball)
    one = alph.identity()
    outside = p("a" * (radius + 1), alph)
    for x in enumerate_reduced(alph, radius + 1):
        for u, v in ((x, one), (one, x), (x, x), (x, outside), (outside, x)):
            assert _outcome(ball.dist, u, v) == _outcome(lambda *uv: _index_dist(pts, *uv), u, v)


def test_on_demand_dist_reads_alphabets_by_equality(ball4):
    same_rank = Alphabet(2)
    assert same_rank is not F2
    assert ball4.dist(p("ab", same_rank), p("B^3", F2)) == 5
    for word in (p("c", F3), p("", F3), p("ab", F3)):
        with pytest.raises(WordError, match=f"^point {word} not in space$"):
            ball4.dist(word, p(""))
        with pytest.raises(WordError, match=f"^point {word} not in space$"):
            ball4.dist(p("a"), word)


# -- Gromov products --------------------------------------------------------------

def gromov_floor(sp, a, b, c):
    """floor((a|b)_c), read as the last index of ``side_gaps``."""
    return len(sp.side_gaps(a, b, c)) - 1


def test_gromov_product_examples(ball4):
    one = p("")
    assert gromov_floor(ball4, p("a"), p("b"), one) == 0
    assert gromov_floor(ball4, p("ab"), p("a"), one) == 1
    assert gromov_floor(ball4, p("a"), p("a"), p("b")) == ball4.dist(p("b"), p("a"))


def test_gromov_product_sum_identity(ball4):
    # in a free group d(c, a) + d(c, b) - d(a, b) is even, so each product
    # is its floor
    rng = random.Random(11)
    pts = points(ball4)
    for _ in range(300):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert gromov_floor(ball4, a, b, c) + gromov_floor(ball4, a, c, b) == ball4.dist(b, c)


def test_gromov_product_unknown_point(ball4):
    with pytest.raises(WordError):
        ball4.side_gaps(p("a^9"), p("a"), p(""))


# -- side gaps -------------------------------------------------------------------

@pytest.mark.parametrize("rank, radius", [(1, 5), (2, 2), (3, 1)])
def test_side_gaps_match_built_vertices_on_every_triangle(rank, radius):
    sp = cayley_ball(Alphabet(rank), radius)
    pts = points(sp)
    for a in pts:
        for b in pts:
            for c in pts:
                assert sp.side_gaps(a, b, c) == vertex_gaps(sp, a, b, c)


@pytest.mark.parametrize("rank, radius", [(2, 10), (4, 4)])
def test_side_gaps_match_built_vertices_on_seeded_triangles(rank, radius):
    sp = cayley_ball(Alphabet(rank), radius)
    rng = random.Random(rank * 100 + radius)
    for _ in range(500):
        a, b, c = (sp.point(rng.randrange(len(sp))) for _ in range(3))
        assert sp.side_gaps(a, b, c) == vertex_gaps(sp, a, b, c)


def test_side_gaps_of_long_syllables():
    alph = Alphabet(1)
    sp = cayley_ball(alph, 99_999)
    words = [p(w, alph) for w in ("a^99999", "A^99998", "a^5")]
    for a, b, c in permutations(words):
        assert sp.side_gaps(a, b, c) == vertex_gaps(sp, a, b, c)


def test_side_gaps_refuse_a_point_outside_the_ball(ball4):
    inside, outside = p("ab"), p("a^5")
    for triangle in ((outside, inside, inside), (inside, outside, inside), (inside, inside, outside)):
        with pytest.raises(WordError, match="^point a\\^5 not in space$"):
            ball4.side_gaps(*triangle)


# -- thin triangles ------------------------------------------------------------------

def test_tree_ball_is_zero_thin(ball4):
    assert delta_thin_report(ball4, 300, seed=7).lower_bound == 0


def test_two_point_space():
    sp = MatrixSpace((p(""), p("a")), ((0, 1), (1, 0)))
    assert delta_thin_report(sp, 50, seed=1).lower_bound == 0


def _cycle_space():
    """The 6-cycle "", a, a^2, a^3, b^2, b as a graph, its points listed in
    the order "", a, a^2, a^3, b, b^2.  Each geodesic takes the shorter arc,
    and the clockwise one between antipodes.  On the sides from "" to a^2
    and to b^2, whose Gromov product is 1, the vertices a and b lie 2 apart."""
    pts = [p(w) for w in ("", "a", "a^2", "a^3", "b", "b^2")]
    ring = [pts[i] for i in (0, 1, 2, 3, 5, 4)]
    at = {x: i for i, x in enumerate(ring)}

    def arc(u, v):
        forward = (at[v] - at[u]) % 6
        step = 1 if forward <= 3 else -1
        return [ring[(at[u] + step * k) % 6] for k in range(min(forward, 6 - forward) + 1)]

    geo = {(u, v): arc(u, v) for u in pts for v in pts}
    return MatrixSpace(pts, tuple(tuple(len(geo[u, v]) - 1 for v in pts) for u in pts), geo)


def test_cycle_metric_gives_positive_delta():
    sp = _cycle_space()
    n = len(sp)
    full = all(
        sp.matrix[i][k] <= sp.matrix[i][j] + sp.matrix[j][k]
        for i in range(n) for j in range(n) for k in range(n)
    )
    assert full
    assert delta_thin_report(sp, 1000, seed=5).lower_bound == 2


def _quadratic_delta(sp, samples, seed):
    """Every pair of vertices on the two sides, as the report defines it."""
    rng = random.Random(seed)
    n = len(sp)
    best, witness = Fraction(0), None
    for _ in range(samples):
        a, b, c = (sp.point(rng.randrange(n)) for _ in range(3))
        product = Fraction(sp.dist(c, a) + sp.dist(c, b) - sp.dist(a, b), 2)
        for pa in geodesic(sp, c, a):
            for pb in geodesic(sp, c, b):
                if sp.dist(c, pa) == sp.dist(c, pb) <= product and sp.dist(pa, pb) > best:
                    best, witness = Fraction(sp.dist(pa, pb)), (a, b, c)
    return best, witness


@pytest.mark.parametrize("samples, seed", [(1, 0), (3, 1), (10, 2), (40, 3), (1000, 5)])
def test_delta_report_matches_quadratic_reference(samples, seed):
    sp = _cycle_space()
    report = delta_thin_report(sp, samples, seed=seed)
    assert (report.lower_bound, report.witness_triangle) == _quadratic_delta(sp, samples, seed)


def test_delta_report_on_tree_ball_matches_quadratic_reference():
    for rank, radius in [(1, 6), (2, 4), (3, 3)]:
        sp = cayley_ball(Alphabet(rank), radius)
        for seed in (0, 4, 9):
            report = delta_thin_report(sp, 200, seed=seed)
            assert (report.lower_bound, report.witness_triangle) == _quadratic_delta(sp, 200, seed)


class CountingBall(hypgeom.FiniteMetricSpace):
    """A ball that keeps the points it hands out and counts the geodesic
    vertices it is asked for."""

    def __init__(self, alphabet, radius):
        super().__init__(alphabet, radius)
        self.sampled, self.vertex_calls = [], 0

    def point(self, i):
        self.sampled.append(super().point(i))
        return self.sampled[-1]

    def geodesic_vertex(self, u, v, k):
        self.vertex_calls += 1
        return super().geodesic_vertex(u, v, k)


def test_delta_report_measures_only_what_it_compares(monkeypatch):
    # a triangle's gaps are read off its three points: no geodesic vertex
    # is asked for, and the only words built are the points themselves
    built = []
    trusted = Word._reduced

    def counted(*args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(Word, "_reduced", staticmethod(counted))
    sp = CountingBall(F2, 4)
    for seed in range(200):
        built.clear()
        sp.sampled.clear()
        delta_thin_report(sp, 1, seed=seed)
        assert sp.vertex_calls == 0
        assert len(sp.sampled) == 3
        assert list(map(id, built)) == list(map(id, sp.sampled))


@pytest.mark.parametrize("rank", [1, 2])
def test_delta_report_on_the_one_point_ball(capsys, rank):
    # every triangle of the radius-0 ball has its one point at each corner;
    # the report is pinned byte for byte
    assert cli.main(["cayley-delta", "--rank", str(rank), "--radius", "0"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "ball": {\n    "points": 1,\n    "radius": 0\n  },\n  "delta_lower_bound": "0",\n'
        '  "samples": 1000,\n  "witness_triangle": null\n}\n'
    )


# -- quasi-geodesics -----------------------------------------------------------------

@pytest.mark.parametrize("alph, radius", [(F2, 2), (F3, 2), (Alphabet(1), 4)])
def test_geodesic_matches_letter_by_letter_construction(alph, radius):
    sp = cayley_ball(alph, radius)
    points = list(enumerate_reduced(alph, radius))
    for u in points:
        for v in points:
            path = [u]
            for letter in (u.inverse() * v).letters():
                path.append(path[-1] * Word.from_letters(alph, [letter]))
            assert geodesic(sp, u, v) == path


def _assert_trusted(w):
    """A word from the trusted constructor: its syllables are plain pairs
    that re-validate, and its length, which ``==`` ignores, is the sum of
    its exponents."""
    assert Word(w.alphabet, w.syllables) == w
    assert all(type(syl) is tuple for syl in w.syllables)
    assert w.length == sum(abs(exp) for _, exp in w.syllables)


@pytest.mark.parametrize("alph, radius", [(Alphabet(1), 4), (F2, 3), (F3, 2)])
def test_points_and_geodesic_vertices_are_valid_words(alph, radius):
    sp = cayley_ball(alph, radius)
    pts = points(sp)
    for u in pts:
        _assert_trusted(u)
        for v in pts:
            path = geodesic(sp, u, v)
            assert len(path) == free_word_metric(u, v) + 1
            assert (path[0], path[-1]) == (u, v)
            for k, vertex in enumerate(path):
                _assert_trusted(vertex)
                assert sp.dist(u, vertex) == k


def test_geodesic_vertex_is_the_vertex_of_the_whole_geodesic(ball4):
    # every pair and every k of the rank-2 radius-4 ball: in a tree, vertex
    # k is the one point at distance k from u and d(u, v) - k from v; each
    # vertex is a trusted word built on its own
    pts = points(ball4)
    for u in pts:
        for v in pts:
            path = geodesic(ball4, u, v)
            for k, vertex in enumerate(path):
                assert (ball4.dist(u, vertex), ball4.dist(vertex, v)) == (k, len(path) - 1 - k)
                _assert_trusted(vertex)
            for k in (-1, len(path)):
                with pytest.raises(IndexError, match=f"^vertex {k} out of range for a geodesic of {len(path) - 1} edges$"):
                    free_tree_vertex(u, v, k)


def test_geodesic_vertex_of_long_syllables():
    u, v = p("a^1000000000000b^3"), p("a^999999999999B")
    d = free_word_metric(u, v)
    assert d == 5
    assert [free_tree_vertex(u, v, k) for k in range(d + 1)] == [u, p("a^1000000000000b^2"), p("a^1000000000000b"), p("a^1000000000000"), p("a^999999999999"), v]


def test_geodesic_between_alphabets_of_equal_rank(ball4):
    u, v = p("a^3b", Alphabet(2)), p("a^2B^2")
    assert geodesic(ball4, u, v) == [u, p("a^3"), p("a^2"), p("a^2B"), v]
    with pytest.raises(WordError, match="alphabet mismatch"):
        free_tree_vertex(p("a"), p("c", F3), 0)


def test_geodesic_segment_is_one_zero_quasigeodesic():
    path = geodesic(cayley_ball(F2, 5), p(""), p("a^3b^2"))
    assert quasigeodesic_slack(path, Fraction(1)) == 0


def test_backtracking_path_fails():
    # the whole path spells two letters and returns to its start
    path = [p("a"), p("ab"), p("a")]
    assert quasigeodesic_slack(path, Fraction(1)) == -2
    assert quasigeodesic_slack(path, Fraction(2)) == -1


def test_single_vertex_has_no_slack():
    assert quasigeodesic_slack([p("ab")], Fraction(3)) == 0
    with pytest.raises(WordError):
        quasigeodesic_slack([], Fraction(1))


def test_power_sequence_is_geodesic_for_cyclically_reduced():
    rng = random.Random(13)
    kappa = Fraction(1)
    for _ in range(30):
        g = random_word(rng, 5)
        core, _ = g.cyclic_reduce()
        if core.is_identity():
            continue
        vertices = [core ** i for i in range(6)]
        assert quasigeodesic_slack(vertices, kappa) >= 0


def test_quasigeodesic_one_zero_iff_geodesic(ball4):
    rng = random.Random(17)
    kappa = Fraction(1)
    pts = points(ball4)
    for _ in range(100):
        u, v, x = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        path = [u, x, v]
        geodesic = free_word_metric(u, x) + free_word_metric(x, v) == free_word_metric(u, v)
        assert (quasigeodesic_slack(path, kappa) >= 0) == geodesic


# -- midpoint inequality -------------------------------------------------------------

def test_midpoint_example(ball4):
    assert check_midpoint_inequality(ball4, p("a^2"), p("b^2"), p(""), Fraction(0))


def test_midpoint_degenerate(ball4):
    assert check_midpoint_inequality(ball4, p("a^2"), p("a^2"), p(""), Fraction(0))


def test_midpoint_random_tree_triangles(ball4):
    rng = random.Random(19)
    pts = points(ball4)
    for _ in range(1000):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert check_midpoint_inequality(ball4, a, b, c, Fraction(0))


def test_midpoint_rejects_points_outside_the_ball(ball4):
    # the midpoints a^3 of both sides lie inside the ball, the end a^6 does not
    with pytest.raises(WordError, match="^point a\\^6 not in space$"):
        check_midpoint_inequality(ball4, p("a"), p("a"), p("a^6"), Fraction(0))
    with pytest.raises(WordError, match="^point a\\^6 not in space$"):
        geodesic(ball4, p(""), p("a^6"))
    with pytest.raises(WordError, match="^point a\\^6 not in space$"):
        ball4.geodesic_vertex(p(""), p("a^6"), 3)


def test_midpoint_reads_the_geodesics_of_the_space():
    # the sides [a, c] and [b, c] run through the middle vertices ma and mb;
    # every distance is 1 or 2, so the matrix is a metric
    c, a, b, ma, mb = p(""), p("a^2"), p("b^2"), p("A"), p("B")
    matrix = ((0, 2, 2, 1, 1), (2, 0, 1, 1, 1), (2, 1, 0, 1, 1), (1, 1, 1, 0, 2), (1, 1, 1, 2, 0))
    sp = MatrixSpace((c, a, b, ma, mb), matrix, {(a, c): [a, ma, c], (b, c): [b, mb, c]})
    # d(ma, mb) = 2 against d(a, b) = 1; a one-edge side would put its
    # midpoint at distance 1 from the other
    assert not check_midpoint_inequality(sp, a, b, c, Fraction(0))
    assert check_midpoint_inequality(sp, a, b, c, Fraction(1, 2))


# -- concatenation -----------------------------------------------------------------------

def _seg(u, v):
    return geodesic(cayley_ball(F2, 4), u, v)


def test_concatenation_clean_joint():
    rep = check_concatenation_quasigeodesic(
        [_seg(p("A^2"), p("")), _seg(p(""), p("b^2"))],
        Fraction(0), Fraction(1), Fraction(1),
    )
    assert rep.hypotheses_ok
    assert rep.measured_epsilon0 == 0


def test_concatenation_backtracking_joint():
    rep = check_concatenation_quasigeodesic(
        [_seg(p("a^2"), p("")), _seg(p(""), p("ab"))],
        Fraction(0), Fraction(1), Fraction(1),
    )
    # Gromov product at the joint is 1, not below alpha = 1
    assert not rep.product_hypothesis_ok
    assert rep.measured_epsilon0 == 2  # the overlap costs exactly 2 alpha


def test_concatenation_three_segments():
    rep = check_concatenation_quasigeodesic(
        [_seg(p("a^2"), p("")), _seg(p(""), p("b^2")), _seg(p("b^2"), p("b^2a^2"))],
        Fraction(0), Fraction(1), Fraction(1),
    )
    assert rep.hypotheses_ok
    assert rep.measured_epsilon0 == 0


def _epsilon0_by_pairs(vertices, kappa):
    """Smallest epsilon making the joined vertex path a (kappa, epsilon)-quasi-geodesic."""
    worst = Fraction(0)
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            length = sum(free_word_metric(vertices[k], vertices[k + 1]) for k in range(i, j))
            worst = max(worst, Fraction(length) / kappa - free_word_metric(vertices[i], vertices[j]))
    return worst


@pytest.mark.parametrize("seed", range(6))
def test_concatenation_epsilon0_matches_pair_scan(seed):
    rng = random.Random(seed)
    kappa = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    joints = [random_word(rng, 4) for _ in range(rng.randint(3, 4))]
    paths = [
        [u] + [random_word(rng, 4) for _ in range(rng.randint(0, 2))] + [v]
        for u, v in zip(joints, joints[1:])
    ]
    rep = check_concatenation_quasigeodesic(
        paths, Fraction(0), kappa, Fraction(1),
    )
    joined = paths[0] + [w for path in paths[1:] for w in path[1:]]
    assert rep.measured_epsilon0 == _epsilon0_by_pairs(joined, kappa)


def test_concatenation_endpoint_mismatch():
    with pytest.raises(WordError):
        check_concatenation_quasigeodesic(
            [_seg(p(""), p("a")), _seg(p("b"), p("b^2"))],
            Fraction(0), Fraction(1), Fraction(1),
        )


# -- divergence ---------------------------------------------------------------------------

def test_divergence_no_cancellation():
    report = divergence_experiment(p("a"), p("b"), 8, 8)
    for n, m, length in report.rows():
        assert length == n + m
    assert report.observed_ratio_bound == Fraction(1, 2)
    assert report.observed_ratio_bound < 1
    assert report.power_growth_ok


def test_divergence_seam_cancellation():
    c, d = p("ab"), p("Ba")
    report = divergence_experiment(c, d, 4, 4)
    table = {(n, m): length for n, m, length in report.rows()}
    for (n, m), length in table.items():
        assert length == len(c ** n * d ** m)
    assert table[(1, 1)] == 2  # ab * b^-1 a = a^2


def _divergence_by_products(c, d, n_max, m_max):
    """The divergence table built the direct way: every c^n d^m as a product,
    its length summed over its syllables, the ratio kept as a Fraction."""
    def letters(word):
        return sum(abs(exp) for _, exp in word.syllables)

    c_pows, d_pows = [c.alphabet.identity()], [d.alphabet.identity()]
    growth_ok = True
    for w, pows, k_max in ((c, c_pows, n_max), (d, d_pows, m_max)):
        for k in range(1, k_max + 1):
            pows.append(pows[-1] * w)
            if w.is_cyclically_reduced() and letters(pows[-1]) < k:
                growth_ok = False
    rows, best = [], Fraction(0)
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            length = letters(c_pows[n] * d_pows[m])
            rows.append((n, m, length))
            best = max(best, Fraction(min(n, m), length))
    return tuple(rows), best, growth_ok


def _thresholds(c, d):
    """K, N and M of ``divergence_experiment``, uncapped."""
    (c_core, c_conj), (d_core, d_conj) = c.cyclic_reduce(), d.cyclic_reduce()
    bound = 2 * max(len(c_conj), len(d_conj)) + len(c_core) + len(d_core) + 1
    n_top = next(n for n in range(1, bound + 1) if len(c_conj) + n * len(c_core) >= bound)
    m_top = next(m for m in range(1, bound + 1) if len(d_conj) + m * len(d_core) >= bound)
    return bound, n_top, m_top


@pytest.mark.parametrize("c, d, alph", [
    ("ab", "aB", F2),
    ("abA", "a", F2),  # not cyclically reduced, and a^-1 cancels at the seam
    ("ab", "Ba^2b", F2),  # b^-1 cancels at the seam
    ("ab", "Ba", F2),
    ("a", "b", F2),
    ("a^2bA", "ab^-3", F2),
    ("abc", "CBa", F3),
    # long conjugators around short cores: the thresholds N, M reach 9
    ("b^3aB^3", "ab", F2),
    ("ab", "b^3aB^3", F2),
    ("b^3aB^3", "a^3bA^3", F2),
    ("ab^4aB^4A", "b^2", F2),
    ("c^2abC^2", "aBA", F3),
])
def test_divergence_matches_products(c, d, alph):
    c, d = p(c, alph), p(d, alph)
    _, n_top, m_top = _thresholds(c, d)
    for n_max, m_max in ((30, 30), (1, 7), (9, 2), (n_top + 3, m_top + 3)):
        report = divergence_experiment(c, d, n_max, m_max)
        assert (tuple(report.rows()), report.observed_ratio_bound, report.power_growth_ok) == _divergence_by_products(
            c, d, n_max, m_max
        )


@st.composite
def non_commensurable_pairs(draw):
    """Two conjugated cores t c_0 t^-1 at rank 2 or 3, non-commensurable."""
    alph = draw(st.sampled_from([F2, F3]))
    letters = st.tuples(st.integers(0, alph.rank - 1), st.sampled_from([1, -1]))

    def element():
        conj = Word.from_syllables(alph, draw(st.lists(letters, max_size=6)))
        core = Word.from_syllables(alph, draw(st.lists(letters, min_size=1, max_size=5)))
        return conj * core * conj.inverse()

    c, d = element(), element()
    assume(not c.is_identity() and not d.is_identity() and is_commensurable(c, d) is None)
    return c, d


@settings(max_examples=150, deadline=None)
@given(non_commensurable_pairs(), st.integers(1, 20), st.integers(1, 20))
def test_divergence_matches_products_on_random_pairs(pair, n_max, m_max):
    c, d = pair
    report = divergence_experiment(c, d, n_max, m_max)
    assert (tuple(report.rows()), report.observed_ratio_bound, report.power_growth_ok) == _divergence_by_products(
        c, d, n_max, m_max
    )


def test_divergence_rejects_commensurable():
    with pytest.raises(WordError):
        divergence_experiment(p("a"), p("a^2"), 3, 3)


def test_divergence_past_the_row_budget_builds_no_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a power past the row budget")

    monkeypatch.setattr(hypgeom, "ROW_BUDGET", 12)
    assert len(list(divergence_experiment(p("a"), p("b"), 3, 4).rows())) == 12
    monkeypatch.setattr(hypgeom, "_powers", refuse)
    with pytest.raises(BudgetExceeded, match="^divergence table of 13 x 1 rows exceeds the budget of 12 rows$"):
        divergence_experiment(p("a"), p("b"), 13, 1)
    # the input checks come first
    with pytest.raises(WordError, match="commensurable"):
        divergence_experiment(p("a"), p("a^2"), 10**9, 10**9)
    with pytest.raises(WordError, match="ranges must be >= 1"):
        divergence_experiment(p("a"), p("b"), 0, 10**9)


@pytest.mark.parametrize("n_max, m_max", [(10**6, 1), (1, 10**6), (1000, 1000)])
@pytest.mark.parametrize("c, d", [("ab", "aB"), ("b^3aB^3", "ab")])
def test_divergence_at_the_row_budget_builds_only_the_threshold_powers(monkeypatch, n_max, m_max, c, d):
    c, d = p(c), p(d)
    bound, n_top, m_top = _thresholds(c, d)
    built = []

    def powers(core, conj, k_max):
        pows = real(core, conj, k_max)
        built.append((k_max, max(map(len, pows))))
        return pows

    real = hypgeom._powers
    monkeypatch.setattr(hypgeom, "_powers", powers)
    start = time.perf_counter()
    report = divergence_experiment(c, d, n_max, m_max)
    rows = 0
    for rows, (n, m, length) in enumerate(report.rows(), 1):
        pass
    ratio = report.observed_ratio_bound
    assert time.perf_counter() - start < 5
    assert rows == n_max * m_max and (n, m) == (n_max, m_max)
    # the last row, against a product past the thresholds and the growth of |c^n| and |d^m|
    k, j = min(n_max, n_top + 1), min(m_max, m_top + 1)
    c_core, d_core = len(c.cyclic_reduce()[0]), len(d.cyclic_reduce()[0])
    assert length == len(c ** k * d ** j) + (n_max - k) * c_core + (m_max - j) * d_core
    assert 0 < ratio < 1
    # only c^-1 .. c^-N and d^1 .. d^M: each spells at most K + |t| + |core| letters
    assert sorted(k for k, _ in built) == sorted([min(n_top, n_max), min(m_top, m_max)])
    assert all(longest < 2 * bound for _, longest in built)


def test_divergence_csv_shape(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    cli.main(["divergence", "--c", "a", "--d", "b", "--n-max", "2", "--m-max", "2", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,length,ratio"
    assert len(lines) == 5


@pytest.mark.parametrize("alph, max_len", [(F2, 4), (F3, 3)])
def test_free_word_metric_equals_length_of_quotient(alph, max_len):
    words = list(enumerate_reduced(alph, max_len))
    for u in words:
        for v in words:
            assert free_word_metric(u, v) == len(u.inverse() * v)


def test_free_word_metric_rejects_mixed_alphabets():
    with pytest.raises(WordError):
        free_word_metric(p("ab"), p("ab", F3))
