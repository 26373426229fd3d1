import math
import random
from fractions import Fraction

import pytest

from limprof.errors import CollinearError, ShapeError
from limprof.geometry import (
    Direction,
    EscapeWitness,
    PointConfig,
    approx_direction_census,
    approx_regular_polygon,
    collinear,
    direction_census,
    escape,
    pinchasi_search,
)
from limprof.kernel import integer_vectors, normalize_primitive, rat
from limprof.sequences import InfinitudeRelation, combine, step_sequence

SQUARE = PointConfig.of([(0, 0), (1, 0), (0, 1), (1, 1)])


def pair_directions(config: PointConfig) -> list[Direction]:
    """All directions determined by two distinct points, sorted canonically:
    (dx, dy) // gcd on the integer points, sign made canonical (a > 0, or
    a == 0 and b > 0). The per-direction oracle of ``direction_census``."""
    pts = integer_vectors(config.points)
    dirs = set()
    for i, (x0, y0) in enumerate(pts):
        for x1, y1 in pts[i + 1:]:
            a, b = x1 - x0, y1 - y0
            g = math.gcd(a, b)
            if a < 0 or (a == 0 and b < 0):
                g = -g
            dirs.add((a // g, b // g))
    return [Direction(a, b) for a, b in sorted(dirs)]


def direction_classes(config: PointConfig, direction: Direction) -> int:
    """Number of lines parallel to ``direction`` needed to cover the points:
    the distinct values of b*x - a*y on the integer points."""
    return len({direction.b * x - direction.a * y for x, y in integer_vectors(config.points)})


def direction_of(dx, dy):
    """The Fraction construction of a pair direction before integer points:
    normalize_primitive of the rational difference."""
    n = normalize_primitive((rat(dx), rat(dy)))
    return Direction(int(n[0]), int(n[1]))


def test_direction_normalization():
    for (dx, dy), want in [((2, 4), Direction(1, 2)), ((-1, 2), Direction(1, -2)),
                           ((0, -3), Direction(0, 1)),
                           ((Fraction(1, 2), Fraction(1, 3)), Direction(3, 2))]:
        assert direction_of(dx, dy) == want
        assert pair_directions(PointConfig.of([(0, 0), (dx, dy)])) == [want]
        assert pair_directions(PointConfig.of([(dx, dy), (0, 0)])) == [want]


def test_point_config_validation():
    with pytest.raises(ShapeError):
        PointConfig.of([])
    with pytest.raises(ShapeError):
        PointConfig.of([(0, 0), (0, 0)])


def test_collinear_examples():
    assert collinear(PointConfig.of([(0, 0), (1, 1), (2, 2)]))
    assert not collinear(PointConfig.of([(0, 0), (1, 0), (0, 1)]))
    assert collinear(PointConfig.of([(5, 7)]))


def test_direction_classes_examples():
    assert direction_classes(SQUARE, Direction(1, 0)) == 2
    assert direction_classes(SQUARE, Direction(1, 1)) == 3
    line = PointConfig.of([(0, 0), (1, 1), (2, 2)])
    assert direction_classes(line, Direction(1, 1)) == 1


def test_direction_classes_affine_invariance():
    rng = random.Random(21)
    for _ in range(30):
        pts = set()
        while len(pts) < 5:
            pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        cfg = PointConfig.of(sorted(pts))
        d = direction_of(1, rng.randint(-3, 3))
        base = direction_classes(cfg, d)
        shift = PointConfig.of([(x + 7, y - 3) for x, y in cfg.points])
        scaled = PointConfig.of([(3 * x, 3 * y) for x, y in cfg.points])
        assert direction_classes(shift, d) == base
        assert direction_classes(scaled, d) == base


def test_pair_directions_square():
    dirs = pair_directions(SQUARE)
    assert Direction(1, 0) in dirs
    assert Direction(0, 1) in dirs
    assert Direction(1, 1) in dirs
    assert Direction(1, -1) in dirs
    assert len(dirs) == 4


def test_pinchasi_square():
    d, count = pinchasi_search(SQUARE)
    assert count == 3
    assert 2 <= count <= 3


def test_pinchasi_five_points():
    cfg = PointConfig.of([(0, 0), (0, 1), (0, 2), (1, 3), (1, 4)])
    # the direction through (0,0) and (1,3) covers the set with 3 lines
    assert direction_classes(cfg, direction_of(1, 3)) == 3
    d, count = pinchasi_search(cfg)
    assert 3 <= count <= 4
    # the maximal pair direction actually achieves 4 classes here
    assert count == 4
    assert direction_classes(cfg, d) == 4


def test_pinchasi_collinear_error():
    with pytest.raises(CollinearError):
        pinchasi_search(PointConfig.of([(0, 0), (1, 1), (2, 2)]))


def test_pinchasi_bound_random():
    rng = random.Random(22)
    done = 0
    while done < 200:
        m = rng.randint(3, 9)
        pts = set()
        while len(pts) < m:
            pts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        cfg = PointConfig.of(sorted(pts))
        if collinear(cfg):
            continue
        done += 1
        d, count = pinchasi_search(cfg)
        assert (m + 1) // 2 <= count <= m - 1


def make_nested(x_values, y_values, assignment):
    x = step_sequence((f"S{i}", v) for i, v in enumerate(x_values))
    y = step_sequence((f"T{j}", v) for j, v in enumerate(y_values))
    rel = InfinitudeRelation.nested(x.partition, y.partition, assignment)
    return x, y, rel


def test_escape_nested_example():
    x, y, rel = make_nested([0, 1], [0, 1, 2, 3, 4], [0, 0, 0, 1, 1])
    w = escape(x, y, rel, [2, 5])
    assert w is not None
    assert w.class_count not in (2, 5)
    z = combine([w.alpha, w.beta], [x, y], rel)
    assert z.num_atoms == w.class_count


def test_escape_collinear_case():
    x = step_sequence([("a", 0), ("b", 1)])
    y = step_sequence([("c", 0), ("d", 2)])
    rel = InfinitudeRelation(
        x.partition, y.partition, frozenset({(0, 0), (1, 1)})
    )
    w = escape(x, y, rel, [2])
    assert w is not None
    assert (w.alpha, w.beta) == (Fraction(2), Fraction(-1))
    assert w.class_count == 1
    z = combine([w.alpha, w.beta], [x, y], rel)
    assert z.num_atoms == 1


def test_escape_not_found_when_counts_covered():
    # square vertex data; every reachable count is forbidden
    x = step_sequence([("a", 1), ("b", 2), ("c", -1), ("d", -2)])
    y = step_sequence([("e", 2), ("f", -1), ("g", -2), ("h", 1)])
    rel = InfinitudeRelation(
        x.partition, y.partition,
        frozenset({(0, 0), (1, 1), (2, 2), (3, 3)}),
    )
    assert escape(x, y, rel, [2, 3, 4]) is None


def test_escape_respects_forbidden_one_in_collinear_case():
    x = step_sequence([("a", 0), ("b", 1)])
    y = step_sequence([("c", 0), ("d", 2)])
    rel = InfinitudeRelation(
        x.partition, y.partition, frozenset({(0, 0), (1, 1)})
    )
    assert escape(x, y, rel, [1]) is None


def test_escape_count_within_pair_bounds():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 4)
        k = rng.randint(n, 8)
        xv = rng.sample(range(-20, 20), n)
        yv = rng.sample(range(-20, 20), k)
        assignment = [rng.randrange(n) for _ in range(k)]
        for i in range(n):  # keep the relation covering
            assignment[i] = i
        x, y, rel = make_nested(xv, yv, assignment)
        w = escape(x, y, rel, [])
        assert w is not None
        lo = -(-max(n, k) // min(n, k))  # ceil
        assert lo <= w.class_count <= n * k


def test_approx_regular_polygon_distinct_abscissas():
    for n in (4, 5, 6, 7):
        pts = approx_regular_polygon(n)
        assert len(pts) == 2 * n
        xs = sorted(p[0] for p in pts)
        assert all(b - a > 1e-8 for a, b in zip(xs, xs[1:]))


def test_approx_census_matches_exact_square():
    pts = [(1.0, 2.0), (2.0, -1.0), (-1.0, -2.0), (-2.0, 1.0)]
    assert approx_direction_census(pts) == (2, 3, 4)


def fraction_search(cfg):
    """The Fraction search this module ran before integer points: one
    direction_of per point pair, sorted by (a, b), and classes
    counted as the distinct b*x + na*y with (b, na) the direction's normal.
    Returns the sorted directions, each one's class count, and the first
    direction with the maximal count."""
    pts = cfg.points
    dirs = sorted({direction_of(q[0] - p[0], q[1] - p[1])
                   for i, p in enumerate(pts) for q in pts[i + 1:]}, key=lambda d: (d.a, d.b))
    counts = []
    for d in dirs:
        b, na = d.normal
        counts.append(len({b * x + na * y for x, y in pts}))
    best = max(range(len(dirs)), key=lambda t: (counts[t], -t))
    return dirs, counts, (dirs[best], counts[best])


def seeded_configs(seed, count):
    """Non-collinear configurations of 3..18 points: negative coordinates,
    mixed denominators (some points integral, some over 2..12), and small
    grids, so that tied maxima are common."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = 3 + len(out) % 16
        span = rng.choice([2, 3, 9])
        pts = set()
        while len(pts) < m:
            pts.add(tuple(Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3, 4, 6, 12]))
                          for _ in range(2)))
        cfg = PointConfig(tuple(rng.sample(sorted(pts), m)))  # unsorted: pair signs vary
        if not collinear(cfg):
            out.append(cfg)
    return out


def test_integer_search_matches_fraction_oracle():
    """pair_directions, direction_classes and pinchasi_search on integer
    points give the Fraction oracle's directions, counts and witness, tie
    break included; direction_census gives the same directions and counts,
    keyed in the order of each direction's first pair (i, j)."""
    ties = 0
    for cfg in seeded_configs("pinchasi-oracle", 160):
        dirs, counts, best = fraction_search(cfg)
        assert pair_directions(cfg) == dirs
        assert [direction_classes(cfg, d) for d in dirs] == counts
        assert pinchasi_search(cfg) == best
        census = direction_census(integer_vectors(cfg.points))
        assert [Direction(a, b) for a, b in sorted(census)] == pair_directions(cfg)
        assert [census[d.a, d.b] for d in dirs] == [direction_classes(cfg, d) for d in dirs]
        pts = cfg.points
        first_pair_order = dict.fromkeys(direction_of(q[0] - p[0], q[1] - p[1])
                                         for i, p in enumerate(pts) for q in pts[i + 1:])
        assert [Direction(a, b) for a, b in census] == list(first_pair_order)
        ties += counts.count(best[1]) > 1
    assert ties >= 100  # the first-in-order rule is what picks the witness


def test_escape_matches_fraction_oracle():
    rng = random.Random("escape-oracle")
    done = 0
    while done < 150:
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        values = [Fraction(k, d) for k in range(-12, 13) for d in (1, 2, 3, 5)]
        xv, yv = rng.sample(values, a), rng.sample(values, b)
        if len(set(xv)) < a or len(set(yv)) < b:
            continue
        pairs = {(k % a, k % b) for k in range(max(a, b))}
        pairs |= {(rng.randrange(a), rng.randrange(b)) for _ in range(rng.randint(0, a * b))}
        x = step_sequence((f"x{i}", v) for i, v in enumerate(xv))
        y = step_sequence((f"y{j}", v) for j, v in enumerate(yv))
        rel = InfinitudeRelation(x.partition, y.partition, frozenset(pairs))
        pts = tuple((x.values[i], y.values[j]) for i, j in sorted(rel.pairs))
        if collinear(PointConfig(pts)):
            continue
        done += 1
        d, count = fraction_search(PointConfig(pts))[2]
        alpha, beta = normalize_primitive(d.normal)
        assert escape(x, y, rel, []) == EscapeWitness(alpha, beta, count, (), pts)
        assert escape(x, y, rel, [count]) is None
