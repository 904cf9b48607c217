"""Finite-sample hyperbolic geometry over free-group Cayley balls.

A ball over the standard basis is the set of reduced words of length at
most the radius, and its distances are word lengths computed when asked
for.  A ball over any other finite generating set is built breadth-first,
with the word metric computed exactly inside a window of twice the
radius.  The validators (thin triangles, midpoints, quasi-geodesic
concatenation) measure quantities on finite data; a delta estimate is a
lower bound for the ambient space, never a certification.  Quasi-geodesic
checks take plain vertex sequences and measure them in the standard-basis
word metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .words import BudgetExceeded, Word, WordError, count_reduced, enumerate_reduced, format_word, free_word_metric
from .oracles import is_commensurable


class GeodesicOracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finitely many points with an exact integer metric.

    ``dist_matrix`` holds every pairwise distance, and ``index`` maps each
    point to its row.  Without a matrix the space is the ball of ``radius``
    over the standard basis: its points are ``enumerate_reduced(alphabet,
    radius)``, so a word is a point iff it has their alphabet and length at
    most ``radius``, and the distance is the word metric, computed on demand.
    """

    points: tuple[Word, ...]
    dist_matrix: Optional[tuple[tuple[int, ...], ...]] = None
    radius: Optional[int] = None
    index: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if (self.dist_matrix is None) == (self.radius is None):
            raise WordError("a space takes exactly one of a distance matrix and a radius")
        if self.dist_matrix is None:
            return
        n = len(self.points)
        object.__setattr__(self, "index", {pt: i for i, pt in enumerate(self.points)})
        for i in range(n):
            if self.dist_matrix[i][i] != 0:
                raise WordError("nonzero self-distance")
            for j in range(n):
                if self.dist_matrix[i][j] != self.dist_matrix[j][i]:
                    raise WordError("metric not symmetric")

    def __len__(self) -> int:
        return len(self.points)

    def dist(self, u: Word, v: Word) -> int:
        if self.dist_matrix is None:
            # points[0] is the identity, which carries the ball's alphabet
            alph, radius = self.points[0].alphabet, self.radius
            for w in (u, v):
                if (w.alphabet is not alph and w.alphabet != alph) or len(w) > radius:
                    raise WordError(f"point {w} not in space")
            return free_word_metric(u, v)
        try:
            i, j = self.index[u], self.index[v]
        except KeyError as missing:
            raise WordError(f"point {missing.args[0]} not in space") from None
        return self.dist_matrix[i][j]


def cayley_ball(gens: Sequence[Word], radius: int, cap: int = 200_000) -> FiniteMetricSpace:
    """Ball of the word metric over ``gens`` in the free group.

    Points are group elements (reduced words) within distance ``radius``
    of the identity, ordered by distance and then by ``Word.lex_key``.
    Over the standard basis they are the reduced words of length at most
    ``radius`` and distances are computed on demand; ``cap`` bounds their
    count.  Over any other generating set, distances come from a
    breadth-first search out to 2 * radius, which covers every pair inside
    the ball, and ``cap`` bounds the elements that search reaches.
    """
    if radius < 0:
        raise WordError("radius must be >= 0")
    if not gens:
        raise WordError("need at least one generator")
    alph = gens[0].alphabet
    for g in gens:
        if g.alphabet != alph:
            raise WordError("generators use mixed alphabets")
    if set(gens) == set(alph.generators()):
        if count_reduced(alph.rank, radius) > cap:
            raise BudgetExceeded(f"ball exceeds cap of {cap} elements")
        return FiniteMetricSpace(tuple(enumerate_reduced(alph, radius)), radius=radius)
    return _bfs_ball(gens, radius, cap)


def _bfs_ball(gens: Sequence[Word], radius: int, cap: int) -> FiniteMetricSpace:
    """The ball over ``gens`` with every distance found by breadth-first search."""
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
                    if len(distances) > cap:
                        raise BudgetExceeded(f"ball exceeds cap of {cap} elements")
        frontier = nxt
    points = tuple(sorted((w for w, d in distances.items() if d <= radius), key=lambda w: (distances[w], w.lex_key())))
    matrix = tuple(
        tuple(distances[u.inverse() * v] for v in points)
        for u in points
    )
    return FiniteMetricSpace(points, matrix)


def gromov_product(sp: FiniteMetricSpace, a: Word, b: Word, c: Word) -> Fraction:
    """(a, b)_c = (d(c,a) + d(c,b) - d(a,b)) / 2, exactly."""
    return Fraction(sp.dist(c, a) + sp.dist(c, b) - sp.dist(a, b), 2)


def free_tree_geodesic(u: Word, v: Word) -> list[Word]:
    """The unique geodesic between u and v over the standard basis."""
    # the 2 * rank one-letter words, built once, keyed by signed letter
    alph = u.alphabet
    steps = {sign * (gen + 1): Word.from_syllables(alph, [(gen, sign)]) for gen in range(alph.rank) for sign in (1, -1)}
    path = [u]
    for letter in (u.inverse() * v).letters():
        path.append(path[-1] * steps[letter])
    return path


GeodesicOracle = Callable[[Word, Word], Sequence[Word]]


def _validated_geodesic(sp: FiniteMetricSpace, oracle: GeodesicOracle, a: Word, b: Word) -> list[Word]:
    path = list(oracle(a, b))
    if not path or path[0] != a or path[-1] != b:
        raise GeodesicOracleError("oracle path has wrong endpoints")
    total = sum(sp.dist(path[i], path[i + 1]) for i in range(len(path) - 1))
    if total != sp.dist(a, b):
        raise GeodesicOracleError("oracle path is not geodesic")
    return path


@dataclass(frozen=True)
class DeltaReport:
    lower_bound: Fraction
    witness_triangle: Optional[tuple[Word, Word, Word]]
    samples: int

    def to_json_dict(self) -> dict:
        return {
            "delta_lower_bound": str(self.lower_bound),
            "witness_triangle": [format_word(w) for w in self.witness_triangle]
            if self.witness_triangle
            else None,
            "samples": self.samples,
        }


def delta_thin_report(
    sp: FiniteMetricSpace,
    geodesic_oracle: GeodesicOracle,
    samples: int,
    seed: int = 0,
) -> DeltaReport:
    """Max deviation of matched points on two triangle sides, with the
    witnessing triangle.

    Samples triangles (A, B, C); on the sides [C,A] and [C,B] every pair
    of vertices at equal distance from C, up to the Gromov product
    (A,B)_C, contributes its distance.  The maximum is a lower bound for
    the thinness constant of the ambient space.
    """
    rng = random.Random(seed)
    n = len(sp.points)
    if n < 3:
        return DeltaReport(Fraction(0), None, samples)
    best = Fraction(0)
    witness = None
    for _ in range(samples):
        a, b, c = (sp.points[rng.randrange(n)] for _ in range(3))
        product = gromov_product(sp, a, b, c)
        side_a = _validated_geodesic(sp, geodesic_oracle, c, a)
        side_b = _validated_geodesic(sp, geodesic_oracle, c, b)
        # side_b's vertices by their distance from C, in path order
        level: dict[int, list[Word]] = {}
        for pb in side_b:
            level.setdefault(sp.dist(c, pb), []).append(pb)
        for pa in side_a:
            da = sp.dist(c, pa)
            if da > product:
                continue
            for pb in level.get(da, ()):
                gap = Fraction(sp.dist(pa, pb))
                if gap > best:
                    best = gap
                    witness = (a, b, c)
    return DeltaReport(best, witness, samples)


@dataclass(frozen=True)
class QuasigeodesicVerdict:
    ok: bool
    worst_start: int
    worst_end: int
    worst_slack: Fraction

    def __bool__(self) -> bool:
        return self.ok


def is_quasigeodesic(path: Sequence[Word], kappa: Fraction) -> QuasigeodesicVerdict:
    """Check d(ends) >= length/kappa on every contiguous subpath of a
    vertex path, with lengths in the standard-basis word metric.

    Returns the subpath minimizing the slack, the first in (start, end)
    order among ties; on failure that is the witnessing violation.
    """
    if kappa < 1:
        raise WordError(f"need kappa >= 1, got {kappa}")
    if not path:
        raise WordError("path needs at least one vertex")
    prefix = [0]
    for u, v in zip(path, path[1:]):
        prefix.append(prefix[-1] + free_word_metric(u, v))
    pairs = ((i, j) for i in range(len(path)) for j in range(i + 1, len(path)))
    slack, start, end = min(
        ((free_word_metric(path[i], path[j]) - Fraction(prefix[j] - prefix[i]) / kappa, i, j) for i, j in pairs),
        default=(Fraction(0), 0, 0),
    )
    return QuasigeodesicVerdict(slack >= 0, start, end, slack)


def check_midpoint_inequality(
    sp: FiniteMetricSpace,
    a: Word,
    b: Word,
    c: Word,
    geo_ac: Sequence[Word],
    geo_bc: Sequence[Word],
    delta: Fraction,
) -> bool:
    """d(mid[A,C], mid[B,C]) <= d(A,B) + 2 delta.

    The midpoint of a geodesic with k edges is the vertex at index
    floor(k/2) counted from the first-named endpoint.
    """
    path_a = _validated_geodesic(sp, lambda *_: geo_ac, a, c)
    path_b = _validated_geodesic(sp, lambda *_: geo_bc, b, c)
    mid_a = path_a[(len(path_a) - 1) // 2]
    mid_b = path_b[(len(path_b) - 1) // 2]
    return Fraction(sp.dist(mid_a, mid_b)) <= Fraction(sp.dist(a, b)) + 2 * delta


@dataclass(frozen=True)
class ConcatenationReport:
    hypotheses_ok: bool
    product_hypothesis_ok: bool
    length_hypothesis_ok: bool
    measured_epsilon0: Fraction

    def to_json_dict(self) -> dict:
        return {
            "hypotheses_ok": self.hypotheses_ok,
            "product_hypothesis_ok": self.product_hypothesis_ok,
            "length_hypothesis_ok": self.length_hypothesis_ok,
            "measured_epsilon0": str(self.measured_epsilon0),
        }


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
    measured = max(Fraction(0), -is_quasigeodesic(joined, kappa).worst_slack)
    return ConcatenationReport(product_ok and length_ok, product_ok, length_ok, measured)


@dataclass(frozen=True)
class DivergenceReport:
    c: Word
    d: Word
    rows: tuple[tuple[int, int, int], ...]  # (n, m, |c^n d^m|)
    observed_ratio_bound: Fraction  # max of min(n,m) / |c^n d^m|
    power_growth_ok: bool  # |c^n| >= n for cyclically reduced c (and d)

    def to_json_dict(self) -> dict:
        return {
            "c": format_word(self.c),
            "d": format_word(self.d),
            "rows": [list(r) for r in self.rows],
            "observed_ratio_bound": str(self.observed_ratio_bound),
            "power_growth_ok": self.power_growth_ok,
        }

    def to_csv(self) -> str:
        lines = ["n,m,length,ratio"]
        for n, m, length in self.rows:
            lines.append(f"{n},{m},{length},{Fraction(min(n, m), length)}")
        return "\n".join(lines) + "\n"


def divergence_experiment(c: Word, d: Word, n_max: int, m_max: int) -> DivergenceReport:
    """Exact lengths |c^n d^m| over the standard basis, with the observed
    lower bound for the divergence constant.

    Requires c and d non-commensurable, which also rules out c^n d^m = 1.
    Inside the table the tree fact |w^n| >= n for cyclically reduced w is
    asserted for both inputs.  Each row is |c^n d^m| = d(c^-n, d^m), read
    at the seam by ``free_word_metric`` without building the product.
    """
    if c.is_identity() or d.is_identity():
        raise WordError("divergence needs nonidentity elements")
    if is_commensurable(c, d) is not None:
        raise WordError("inputs are commensurable; divergence undefined")
    if n_max < 1 or m_max < 1:
        raise WordError("ranges must be >= 1")
    c_pows = _powers(c.inverse(), n_max)
    d_pows = _powers(d, m_max)
    growth_ok = True
    for w, pows in ((c, c_pows), (d, d_pows)):
        if w.is_cyclically_reduced() and any(len(pows[k]) < k for k in range(1, len(pows))):
            growth_ok = False
    rows = []
    # the largest min(n, m) / |c^n d^m| so far, as a pair compared by
    # cross-multiplication; no length is 0, as c^n d^m = 1 is ruled out
    best_num, best_den = 0, 1
    for n in range(1, n_max + 1):
        c_inv_n = c_pows[n]
        for m in range(1, m_max + 1):
            length = free_word_metric(c_inv_n, d_pows[m])
            rows.append((n, m, length))
            if min(n, m) * best_den > best_num * length:
                best_num, best_den = min(n, m), length
    return DivergenceReport(c, d, tuple(rows), Fraction(best_num, best_den), growth_ok)


def _powers(w: Word, k_max: int) -> list[Word]:
    """w^0, w^1, ..., w^k_max, one product each."""
    pows = [w.alphabet.identity()]
    for _ in range(k_max):
        pows.append(pows[-1] * w)
    return pows
