"""Exact plane geometry for value-pair configurations.

A two-sequence combination a*x + b*y takes the value a*xi + b*eta on a
refined atom whose x-part has value xi and y-part has value eta. Counting
its accumulation points is therefore counting parallel lines: the functional
(a, b) groups the points (xi, eta) into level sets, one per line with normal
(a, b). Directions determined by at least two of the points are exactly the
candidates that can lower the count below the number of points.

``direction_census`` counts, in one pass over the integer points, the
parallel-line classes of every direction through two of them; the two-row
profile (``engine.profile``), ``pinchasi_search`` and ``escape`` all read
it. ``pinchasi_search`` returns a direction whose class count is maximal;
for a non-collinear m-point set that count always lies in
[floor((m+1)/2), m-1] (the lower bound is a published result on directions
determined by point sets; the upper bound holds because the two
determining points share a line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CollinearError,
    DegenerateError,
    EmptyInputError,
    InternalError,
    ShapeError,
    TooLargeError,
)
from .kernel import integer_vectors, normalize_primitive, rat
from .sequences import InfinitudeRelation, StepSequence

Point = tuple[Fraction, Fraction]

# Largest n for which the regular 2n-gon is built and its float census run.
# The census is cubic in the point count: at n = 100, construct plus verify
# took 2.0-2.4 s on Python 3.11 (2-core x86-64 VM).
POLYGON_CAP = 100
POLYGON_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Direction:
    """Primitive integer direction with canonical sign: a > 0, or a == 0 and b > 0."""

    a: int
    b: int

    @property
    def normal(self) -> tuple[Fraction, Fraction]:
        """Functional constant exactly on lines parallel to this direction."""
        return (Fraction(self.b), Fraction(-self.a))


@dataclass(frozen=True)
class PointConfig:
    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise ShapeError("need at least one point")
        if len(set(self.points)) != len(self.points):
            raise ShapeError("points must be pairwise distinct")

    @classmethod
    def of(cls, pts: Sequence[Sequence]) -> "PointConfig":
        return cls(tuple((rat(p[0]), rat(p[1])) for p in pts))

    def __len__(self) -> int:
        return len(self.points)


def _collinear(pts: list[tuple[int, int]]) -> bool:
    ox, oy = pts[0]
    dx, dy = None, None
    for x, y in pts[1:]:
        if dx is None:
            dx, dy = x - ox, y - oy
        elif dx * (y - oy) != dy * (x - ox):
            return False
    return True


def direction_census(points: Sequence[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Class count of every direction through two of the pairwise distinct
    integer ``points``: {(a, b): lines parallel to (a, b) through them}.

    A direction (a, b) is primitive with canonical sign (a > 0, or a == 0
    and b > 0). One pass over i collects the directions to the later points
    j > i; a line of s points gives s - 1 of its points a later one along
    it, so c(d) = N - #{i with a later point along d}. Keys are in order of
    each direction's lexicographically first pair (i, j)."""
    n = len(points)
    census: dict[tuple[int, int], int] = {}
    for i, (x0, y0) in enumerate(points):
        seen = set()
        for x1, y1 in points[i + 1:]:
            a, b = x1 - x0, y1 - y0
            g = math.gcd(a, b)
            if a < 0 or (a == 0 and b < 0):
                g = -g
            d = (a // g, b // g)
            if d not in seen:
                seen.add(d)
                census[d] = census.get(d, n) - 1
    return census


def collinear(config: PointConfig) -> bool:
    """Exact test; configurations of one or two points count as collinear."""
    return _collinear(integer_vectors(config.points))


def _search(pts: list[tuple[int, int]]) -> tuple[Direction, int]:
    """pinchasi_search on the integer points (``integer_vectors``) of a
    non-collinear config; a uniform scale keeps every direction and every
    class count."""
    census = direction_census(pts)
    best = max(sorted(census), key=census.__getitem__, default=None)
    m = len(pts)
    if best is None or not (m + 1) // 2 <= census[best] <= m - 1:
        raise InternalError(f"pinchasi_search: {best} breaks the bounds for {m} points")
    return Direction(*best), census[best]


def pinchasi_search(config: PointConfig) -> tuple[Direction, int]:
    """Direction determined by the points with the maximal parallel-line
    class count in ``direction_census``; ties broken by canonical direction
    order.

    Raises CollinearError when the configuration is collinear (then a single
    line covers everything and no bound below m-1 exists)."""
    pts = integer_vectors(config.points)
    if _collinear(pts):
        raise CollinearError("point configuration is collinear")
    return _search(pts)


@dataclass(frozen=True)
class EscapeWitness:
    """Coefficients (alpha, beta) whose combination realizes a class count
    outside the forbidden set, plus the data needed to re-check it."""

    alpha: Fraction
    beta: Fraction
    class_count: int
    forbidden: tuple[int, ...]
    points: tuple[Point, ...]


def escape(
    x: StepSequence,
    y: StepSequence,
    rel: InfinitudeRelation,
    forbidden,
) -> EscapeWitness | None:
    """Find (alpha, beta) with the accumulation-point count of
    alpha*x + beta*y outside ``forbidden``; None means not found.

    The value pairs over the declared-infinite atom pairs form a plane point
    set. Collinear along a line with normal (alpha, beta): that combination
    converges (count 1). Otherwise the maximal-count direction search gives a
    count in [floor(|P|+1)/2, |P|-1], which escapes whenever the forbidden
    set is sparse enough (k larger than twice the forbidden values)."""
    if rel.left.ids != x.partition.ids or rel.right.ids != y.partition.ids:
        raise ShapeError("relation does not match the sequences")
    forb = tuple(sorted(set(int(f) for f in forbidden)))
    # pairwise distinct points: a StepSequence's values are pairwise distinct
    pts = tuple(
        (x.values[i], y.values[j]) for i, j in sorted(rel.pairs)
    )
    ipts = integer_vectors(pts)
    if _collinear(ipts):
        # the census's single key is the line; a single point has none
        line = next(iter(direction_census(ipts)), None)
        if line:
            a, b = normalize_primitive(Direction(*line).normal)
        else:
            a, b = Fraction(1), Fraction(0)  # single value pair: x alone converges
        if len({a * px + b * py for px, py in ipts}) != 1:
            raise InternalError("escape: collinear points not on one level line")
        if 1 in forb:
            return None
        return EscapeWitness(a, b, 1, forb, pts)
    d, count = _search(ipts)
    if count in forb:
        return None
    a, b = normalize_primitive(d.normal)
    return EscapeWitness(a, b, count, forb, pts)


def approx_regular_polygon(n: int) -> tuple[tuple[float, float], ...]:
    """Float vertices of a regular 2n-gon, rotated so abscissas are pairwise
    distinct (checked against POLYGON_TOLERANCE); rotation search is
    deterministic."""
    m = 2 * n
    rot = 0.1
    golden = (math.sqrt(5) - 1) / 2
    for _ in range(1000):
        pts = tuple(
            (math.cos(2 * math.pi * k / m + rot), math.sin(2 * math.pi * k / m + rot))
            for k in range(m)
        )
        xs = sorted(p[0] for p in pts)
        if all(b - a > 10 * POLYGON_TOLERANCE for a, b in zip(xs, xs[1:])):
            return pts
        rot += golden
    raise InternalError("approx_regular_polygon: no rotation with distinct abscissas")


def approx_direction_census(
    points: Sequence[tuple[float, float]], tol: float = POLYGON_TOLERANCE
) -> tuple[int, ...]:
    """Achieved parallel-line class counts of a float point set.

    Every pair direction is censused with unit-normal functionals (value
    coincidence decided at ``tol``); the generic count len(points) is then
    verified with explicit directions rather than assumed. An empty or
    repeated point raises EmptyInputError or DegenerateError, more than
    2 * POLYGON_CAP points TooLargeError."""
    pts = [tuple(p) for p in points]
    m = len(pts)
    if not pts:
        raise EmptyInputError("need at least one point")
    if m > 2 * POLYGON_CAP:
        raise TooLargeError(f"{m} points exceeds the census cap {2 * POLYGON_CAP}")
    if len(set(pts)) != m:
        raise DegenerateError("points must be pairwise distinct")
    counts = set()
    for i in range(m):
        for j in range(i + 1, m):
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            norm = math.hypot(dx, dy)
            ux, uy = -dy / norm, dx / norm
            counts.add(_tol_count([ux * x + uy * y for x, y in pts], tol))
    phi = 0.123
    golden = (math.sqrt(5) - 1) / 2
    for _ in range(1000):
        ux, uy = math.cos(phi), math.sin(phi)
        if _tol_count([ux * x + uy * y for x, y in pts], tol) == m:
            counts.add(m)
            break
        phi += golden
    else:
        raise DegenerateError("no generic direction found (points closer than the tolerance)")
    return tuple(sorted(counts))


def _tol_count(values: list[float], tol: float) -> int:
    values = sorted(values)
    groups = 1
    for a, b in zip(values, values[1:]):
        if b - a > tol:
            groups += 1
    return groups
