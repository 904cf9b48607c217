"""Finite-sample hyperbolic geometry over free-group Cayley balls.

A ball is the set of reduced words of length at most its radius over the
standard basis, the vertices of the free group's Cayley tree near the
identity.  It stores no points: a sampled point is unranked from its index
in shortlex order straight into run-length syllables, distances are word
lengths computed when asked for, and the geodesic between two points is the
unique path in the tree, whose vertices are letter prefixes of its two ends.
No path is held whole: a geodesic is read one vertex at a time, each built
once from a slice of syllables (``Word.prefix``), and a thin triangle reads
its vertex pairs' distances off its three points, building no vertex.  The
validators (thin triangles, midpoints, quasi-geodesic concatenation) measure
quantities on finite data; a delta estimate is a lower bound for the ambient
space, never a certification.  Quasi-geodesic checks take plain vertex
sequences and measure them in the standard-basis word metric.
"""

from __future__ import annotations

import random
from functools import cached_property
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .words import Alphabet, BudgetExceeded, Word, WordError, _core_power, count_reduced, free_word_metric, reduced_count_exceeds
from .oracles import is_commensurable

# points a ball may hold: radius 10 at rank 2 (118,097 points) fits
BALL_CAP = 200_000
# rows n_max * m_max a divergence table may hold
ROW_BUDGET = 10**6


class FiniteMetricSpace:
    """The ball of ``radius`` over the standard basis of ``alphabet``.

    Its points are the reduced words of length at most ``radius``, in the
    order of ``enumerate_reduced``, and none of them is stored: ``point(i)``
    builds the i-th.  A word is a point iff it has the ball's alphabet and
    length at most ``radius``; the distance is the word metric, computed on
    demand.  Every space that ``hypgeom`` measures offers ``len``, ``point``,
    ``dist``, ``geodesic_vertex`` and ``side_gaps``, as the ball does.
    """

    def __init__(self, alphabet: Alphabet, radius: int) -> None:
        self.alphabet, self.radius = alphabet, radius

    @cached_property
    def _size(self) -> int:
        return count_reduced(self.alphabet.rank, self.radius)

    @cached_property
    def _place_values(self) -> tuple[int, ...]:
        """(2k - 1)^p for p < radius: how many reduced words of one length
        share all but their last p letters, at rank k >= 2."""
        branch = 2 * self.alphabet.rank - 1
        return tuple(branch**p for p in range(self.radius))

    def __len__(self) -> int:
        return self._size

    def point(self, i: int) -> Word:
        """The i-th point, built in O(radius) steps (O(1) at rank 1) and
        without building any other."""
        if not 0 <= i < self._size:
            raise IndexError(f"point index {i} out of range for a ball of {self._size} points")
        alph = self.alphabet
        if not i:
            return alph.identity()
        if alph.rank == 1:
            # the words of length n are a^n, then a^-n
            n = (i + 1) // 2
            return Word._reduced(alph, ((0, n if i % 2 else -n),), n)
        # skip the shorter words: 1 of length 0, 2k (2k - 1)^(n-1) of length n
        places, letters = self._place_values, 2 * alph.rank
        i, length = i - 1, 1
        while i >= letters * places[length - 1]:
            i -= letters * places[length - 1]
            length += 1
        # i spells a first letter of 2k, then each later letter one of the
        # 2k - 1 that do not cancel the one before, in letter order; letter c
        # is generator c // 2, inverted when c is odd.  A run of equal letters
        # is one syllable, and no two letters cancel, so the word is reduced.
        letter, i = divmod(i, places[length - 1])
        run, syllables = 1, []
        for place in reversed(places[:length - 1]):
            digit, i = divmod(i, place)
            if digit >= letter ^ 1:
                digit += 1
            if digit == letter:
                run += 1
            else:
                syllables.append((letter >> 1, -run if letter & 1 else run))
                letter, run = digit, 1
        syllables.append((letter >> 1, -run if letter & 1 else run))
        return Word._reduced(alph, tuple(syllables), length)

    def _require_points(self, *words: Word) -> None:
        alph, radius = self.alphabet, self.radius
        for w in words:
            if (w.alphabet is not alph and w.alphabet != alph) or w.length > radius:
                raise WordError(f"point {w} not in space")

    def dist(self, u: Word, v: Word) -> int:
        alph, radius = self.alphabet, self.radius
        # words of the ball's own alphabet object pass without another call
        if u.alphabet is not alph or v.alphabet is not alph or u.length > radius or v.length > radius:
            self._require_points(u, v)
        return free_word_metric(u, v)

    def geodesic_vertex(self, u: Word, v: Word, k: int) -> Word:
        """Vertex k of the geodesic from u to v, for 0 <= k <= d(u, v): it
        lies at distance k from u, one edge from vertex k - 1, and it is
        built without the others."""
        self._require_points(u, v)
        return free_tree_vertex(u, v, k)

    def side_gaps(self, a: Word, b: Word, c: Word) -> list[int]:
        """d(vertex k of [c, a], vertex k of [c, b]) for k = 0 ... (a|b)_c, in
        order, from three lengths and three distances, with no vertex built.

        Let X_i be the prefix of i letters of X, and p_XY = (|X| + |Y| -
        d(X, Y)) / 2 the common prefix length of X and Y (p_XX = |X|).  Vertex
        k of [c, a] is c_(|c| - k) for k <= |c| - p_ca, else a_(2 p_ca - |c| +
        k) (``free_tree_vertex``), and d(X_i, Y_j) = i + j - 2 min(i, j, p_XY).
        Proof: X_i and Y_j are reduced and share their first m letters iff
        m <= min(i, j, p_XY); a distance of reduced words is both lengths less
        twice their common prefix.  QED
        """
        self._require_points(c, a, b)
        lc = c.length
        p_ca = (lc + a.length - free_word_metric(c, a)) // 2
        p_cb = (lc + b.length - free_word_metric(c, b)) // 2
        p_ab = (a.length + b.length - free_word_metric(a, b)) // 2
        # common[on_a][on_b]: p_XY of the words X, Y the two vertices are cut from
        common, gaps = ((lc, p_cb), (p_ca, p_ab)), []
        for k in range(lc - p_ca - p_cb + p_ab + 1):  # (a|b)_c + 1 vertex pairs
            on_a, on_b = k > lc - p_ca, k > lc - p_cb
            i = 2 * p_ca - lc + k if on_a else lc - k
            j = 2 * p_cb - lc + k if on_b else lc - k
            gaps.append(i + j - 2 * min(i, j, common[on_a][on_b]))
        return gaps


def cayley_ball(alph: Alphabet, radius: int) -> FiniteMetricSpace:
    """The ball of ``radius`` over the standard basis of ``alph``, refused
    past ``BALL_CAP`` points, at one small count whatever the radius."""
    if radius < 0:
        raise WordError("radius must be >= 0")
    if reduced_count_exceeds(alph.rank, radius, BALL_CAP):
        raise BudgetExceeded(f"ball exceeds cap of {BALL_CAP} elements")
    return FiniteMetricSpace(alph, radius)


def free_tree_vertex(u: Word, v: Word, k: int) -> Word:
    """Vertex k of the unique geodesic from u to v over the standard basis,
    for 0 <= k <= d(u, v): the vertex at distance k from u, one edge from
    vertex k - 1.

    In the tree the path climbs from u to the longest common letter prefix
    p of u and v, then descends to v, where |p| = (|u| + |v| - d(u, v)) / 2:
    vertex k is the prefix of u of length |u| - k while k <= |u| - |p|, past
    that the prefix of v of length |p| + k - (|u| - |p|).  Only that vertex
    is built, as one ``Word.prefix``; no vertex is a product.
    """
    d = free_word_metric(u, v)
    if not 0 <= k <= d:
        raise IndexError(f"vertex {k} out of range for a geodesic of {d} edges")
    keep = (u.length + v.length - d) // 2
    climb = u.length - keep
    return u.prefix(u.length - k) if k <= climb else v.prefix(keep + k - climb)


class DeltaReport(NamedTuple):
    lower_bound: Fraction
    witness_triangle: Optional[tuple[Word, Word, Word]]
    samples: int


def delta_thin_report(sp: FiniteMetricSpace, samples: int, seed: int = 0) -> DeltaReport:
    """Max deviation of matched points on two triangle sides, with the
    witnessing triangle.

    Samples triangles (A, B, C) of points ``sp.point(i)``; ``sp.side_gaps``
    gives the distance of vertex k of [C,A] to vertex k of [C,B] for k up to
    (A,B)_C.  The first triangle to reach the maximum is its witness, and the
    maximum is a lower bound for the thinness constant of the ambient space.
    """
    rng = random.Random(seed)
    n = len(sp)
    best, witness = 0, None
    for _ in range(samples):
        a, b, c = (sp.point(rng.randrange(n)) for _ in range(3))
        for gap in sp.side_gaps(a, b, c):
            if gap > best:
                best = gap
                witness = (a, b, c)
    return DeltaReport(Fraction(best), witness, samples)


def quasigeodesic_slack(path: Sequence[Word], kappa: Fraction) -> Fraction:
    """The least slack d(ends) - length/kappa over the contiguous subpaths
    of a vertex path, with lengths in the standard-basis word metric.

    The path is a kappa-quasi-geodesic exactly when the slack is >= 0; a
    single vertex has no subpath and slack 0.
    """
    if kappa < 1:
        raise WordError(f"need kappa >= 1, got {kappa}")
    if not path:
        raise WordError("path needs at least one vertex")
    prefix = [0]
    for u, v in zip(path, path[1:]):
        prefix.append(prefix[-1] + free_word_metric(u, v))
    pairs = ((i, j) for i in range(len(path)) for j in range(i + 1, len(path)))
    return min(
        (free_word_metric(path[i], path[j]) - Fraction(prefix[j] - prefix[i]) / kappa for i, j in pairs),
        default=Fraction(0),
    )


def check_midpoint_inequality(
    sp: FiniteMetricSpace,
    a: Word,
    b: Word,
    c: Word,
    delta: Fraction,
) -> bool:
    """d(mid[A,C], mid[B,C]) <= d(A,B) + 2 delta, on the geodesics of ``sp``.

    The midpoint of a geodesic with k edges is the vertex at index
    floor(k/2) counted from the first-named endpoint; only the two
    midpoints are built (``geodesic_vertex``), not the sides.
    """
    mid_a = sp.geodesic_vertex(a, c, sp.dist(a, c) // 2)
    mid_b = sp.geodesic_vertex(b, c, sp.dist(b, c) // 2)
    return Fraction(sp.dist(mid_a, mid_b)) <= Fraction(sp.dist(a, b)) + 2 * delta


class ConcatenationReport(NamedTuple):
    hypotheses_ok: bool
    product_hypothesis_ok: bool
    length_hypothesis_ok: bool
    measured_epsilon0: Fraction


def check_concatenation_quasigeodesic(
    paths: Sequence[Sequence[Word]],
    delta: Fraction,
    kappa: Fraction,
    alpha: Fraction,
) -> ConcatenationReport:
    """Evaluate the chaining hypotheses and measure the actual constant.

    Each path is a vertex sequence in the standard-basis word metric.
    Hypotheses on a chain q_0 .. q_{m+1}: each joint has Gromov product
    below alpha, and every interior piece has endpoint distance at least
    2 alpha + 2 m^2 delta.  The measured epsilon is the smallest value
    making the whole concatenation a (kappa, epsilon)-quasi-geodesic.
    """
    if len(paths) < 2:
        raise WordError("need at least two paths")
    if not all(paths):
        raise WordError("path needs at least one vertex")
    for left, right in zip(paths, paths[1:]):
        if left[-1] != right[0]:
            raise WordError("consecutive paths do not share endpoints")
    dist = free_word_metric
    m = len(paths) - 2
    product_ok = all(
        Fraction(dist(p[-1], p[0]) + dist(p[-1], q[-1]) - dist(p[0], q[-1]), 2) < alpha
        for p, q in zip(paths, paths[1:])
    )
    length_ok = all(
        Fraction(dist(path[0], path[-1])) >= 2 * alpha + 2 * m * m * delta
        for path in paths[1:-1]
    )
    joined = list(paths[0])
    for piece in paths[1:]:
        joined.extend(piece[1:])
    measured = max(Fraction(0), -quasigeodesic_slack(joined, kappa))
    return ConcatenationReport(product_ok and length_ok, product_ok, length_ok, measured)


class DivergenceReport(NamedTuple):
    """The table of |c^n d^m| for 1 <= n <= ``n_max`` and 1 <= m <= ``m_max``,
    held in closed form.

    ``table`` holds the lengths for n <= N and m <= M, the thresholds of
    ``divergence_experiment``; past them the cancellation at the seam is
    constant, so |c^n d^m| is the entry at (min(n, N), min(m, M)) plus
    (n - N)|c_0| for n > N and (m - M)|d_0| for m > M, where c_0 and d_0
    are the cyclic cores.  No row is stored: ``rows`` yields them.
    """

    c: Word
    d: Word
    n_max: int
    m_max: int
    table: tuple[tuple[int, ...], ...]  # table[n - 1][m - 1] = |c^n d^m| for n <= N, m <= M
    c_core: int  # |c_0|, the growth of |c^n d^m| per n past N
    d_core: int  # |d_0|, the growth per m past M

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """The rows (n, m, |c^n d^m|), n-major, built one at a time by
        iterators over the table: row by row when rows are long, and by
        interleaving the columns when they are short, so at most
        min(n_max, m_max) <= 1000 iterators are set up."""
        if self.n_max <= self.m_max:
            return chain.from_iterable(map(self._row, range(1, self.n_max + 1)))
        return chain.from_iterable(zip(*map(self._column, range(1, self.m_max + 1))))

    def _row(self, n: int) -> Iterator[tuple[int, int, int]]:
        table = self.table
        # row n past N is row N, longer by c_core per step
        head = [length + max(n - len(table), 0) * self.c_core for length in table[min(n, len(table)) - 1]]
        return zip(repeat(n), range(1, self.m_max + 1), _line(head, self.d_core, self.m_max))

    def _column(self, m: int) -> Iterator[tuple[int, int, int]]:
        table, width = self.table, len(self.table[0])
        head = [row[min(m, width) - 1] + max(m - width, 0) * self.d_core for row in table]
        return zip(range(1, self.n_max + 1), repeat(m), _line(head, self.c_core, self.n_max))

    @property
    def observed_ratio_bound(self) -> Fraction:
        """The largest min(n, m) / |c^n d^m| over the rows, in one pass."""
        # a pair compared by cross-multiplication, and one Fraction at the
        # end; no length is 0, as c^n d^m = 1 is ruled out
        best_num, best_den = 0, 1
        for n, m, length in self.rows():
            low = n if n < m else m
            if low * best_den > best_num * length:
                best_num, best_den = low, length
        return Fraction(best_num, best_den)

    @property
    def power_growth_ok(self) -> bool:
        """The tree fact |w^k| >= k for cyclically reduced w, for c and d:
        |w^k| = 2|t| + k|w_0| with |w_0| >= 1."""
        return self.c_core >= 1 and self.d_core >= 1


def _line(head: list[int], step: int, count: int) -> Iterator[int]:
    """``count`` lengths: ``head``, then on from its last entry by ``step``."""
    last = head[-1]
    return chain(head, range(last + step, last + (count - len(head) + 1) * step, step))


def divergence_experiment(c: Word, d: Word, n_max: int, m_max: int) -> DivergenceReport:
    """Exact lengths |c^n d^m| over the standard basis, with the observed
    lower bound for the divergence constant, in closed form.

    Requires c and d non-commensurable, which also rules out c^n d^m = 1.
    A table of more than ``ROW_BUDGET`` rows is refused before any power
    is built.

    Write c = t_c c_0 t_c^-1 and d = t_d d_0 t_d^-1 with cyclically reduced
    cores (``cyclic_reduce``; the products are reduced as written), let
    K = 2 max(|t_c|, |t_d|) + |c_0| + |d_0| + 1 and N the least n >= 1 with
    |t_c| + n|c_0| >= K, capped at n_max, and M likewise for d.  Then
    |c^n d^m| = |c^-n| + |d^m| - 2 lam(n, m), lam being the common letter
    prefix of c^-n and d^m (``free_word_metric``), with |c^k| = 2|t_c| +
    k|c_0|; so only the N x M entries are measured, on c^-1 ... c^-N and
    d^1 ... d^M, and lam(n, m) = lam(min(n, N), min(m, M)).

    Proof.  c^-n = t_c c_0^-n t_c^-1 is reduced as written and spells the
    ray R_c = t_c c_0^-1 c_0^-1 ... for its first A_n = |t_c| + n|c_0|
    letters; likewise d^m spells R_d = t_d d_0 d_0 ... for its first
    B_m = |t_d| + m|d_0| letters.  Let T = max(|t_c|, |t_d|), p = |c_0|,
    q = |d_0|, and suppose R_c and R_d agree on T + p + q letters.  Past T
    both rays are periodic, with periods p and q, and they agree on p + q
    letters there, so by Fine and Wilf (1965) that stretch has period
    g = gcd(p, q), and the rays coincide.  With P their first T letters and
    w the next g, c^-1 = P w^(p/g) P^-1 and d = P w^(q/g) P^-1, so
    c^(-q/g) = d^(p/g): c and d would be commensurable.  Hence the rays
    share lam_inf < T + p + q letters.  Let n >= N, so A_n >= K > lam_inf.
    If B_m > lam_inf, c^-n and d^m part where the rays do, at lam_inf;
    otherwise d^m has only B_m + |t_d| <= lam_inf + |t_d| letters.  Either
    way lam(n, m) < K.  As c^-n and c^-N both spell R_c for their first
    A_N >= K letters, the prefix that d^m shares with them ends at the same
    place: lam(n, m) = lam(N, m).  With c and d exchanged, the same
    argument gives lam(n, m) = lam(n, M) for m >= M.  QED
    """
    if c.is_identity() or d.is_identity():
        raise WordError("divergence needs nonidentity elements")
    if is_commensurable(c, d) is not None:
        raise WordError("inputs are commensurable; divergence undefined")
    if n_max < 1 or m_max < 1:
        raise WordError("ranges must be >= 1")
    if n_max * m_max > ROW_BUDGET:
        raise BudgetExceeded(f"divergence table of {n_max} x {m_max} rows exceeds the budget of {ROW_BUDGET} rows")
    c_inv = c.inverse()
    (c_core, c_conj), (d_core, d_conj) = c_inv.cyclic_reduce(), d.cyclic_reduce()
    bound = 2 * max(c_conj.length, d_conj.length) + c_core.length + d_core.length + 1
    # the least k >= 1 with |t| + k |core| >= K, which K > |t| makes >= 1
    n_top = min(n_max, -(-(bound - c_conj.length) // c_core.length))
    m_top = min(m_max, -(-(bound - d_conj.length) // d_core.length))
    d_pows = _powers(d_core, d_conj, m_top)
    table = tuple(
        tuple([free_word_metric(c_inv_n, d_m) for d_m in d_pows]) for c_inv_n in _powers(c_core, c_conj, n_top)
    )
    return DivergenceReport(c, d, n_max, m_max, table, c_core.length, d_core.length)


def _powers(core: Word, conj: Word, k_max: int) -> list[Word]:
    """w^1, ..., w^k_max for w = conj core conj^-1 with ``core`` cyclically
    reduced, each from ``_core_power``."""
    return [_core_power(core, conj, k) for k in range(1, k_max + 1)]
