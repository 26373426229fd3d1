import random
import time
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm
from operator import mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    RationalSpace,
    generic_point_oracle,
    left_mul_vec,
    matmul,
    nullspace_oracle,
    rref_oracle,
    solve_affine_oracle,
)
from limprof.errors import ShapeError, UnavoidableError
from limprof.kernel import (
    AffineSubspace,
    RatMatrix,
    _eliminate,
    generic_point,
    integer_multiple,
    integer_tuples,
    integer_vectors,
    normalize_primitive,
    nullspace,
    rat,
    rank_of_vectors,
    rat_str,
    solve_affine,
    vec,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)


def test_rat_coercions():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    for flag in (True, False):
        with pytest.raises(TypeError):
            rat(flag)


def test_rat_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rat(text)


def test_rat_refuses_exponent_notation_at_once():
    """Fraction reads "1e100000000" as a 10^(10^8) integer; rat refuses
    any exponent before Fraction sees it, and keeps the documented forms."""
    start = time.perf_counter()
    for text in ("1e100000000", "1E100000000", "-2e-5", "1.5e3", "3/4e2", "1e1000000"):
        with pytest.raises(ValueError, match="exponent"):
            rat(text)
    assert time.perf_counter() - start < 1.0
    assert rat("-2") == -2 and rat("3/4") == Fraction(3, 4) and rat(" 7/9 ") == Fraction(7, 9)


def test_normalize_primitive_zero_vector_raises_zero_direction_error():
    """Through the public names: a typed LimprofError with its own code,
    which the CLI reports as exit 2, not as malformed input."""
    import limprof

    for v in ((0,), (0, 0), (Fraction(0), Fraction(0), Fraction(0))):
        with pytest.raises(limprof.ZeroDirectionError) as info:
            limprof.normalize_primitive(v)
        assert info.value.code == "zero-direction" and info.value.exit_code == 2


def test_rat_str_roundtrip():
    for s in ("0", "5", "-3", "2/7", "-11/4"):
        assert rat_str(rat(s)) == s


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        RatMatrix.from_rows([])
    with pytest.raises(ShapeError):
        RatMatrix.from_rows([[1, 2], [3]])


def test_matrix_rank():
    assert RatMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert RatMatrix.from_rows([[1, 0], [0, 1]]).rank() == 2
    assert RatMatrix.from_rows([[0, 0], [0, 0]]).rank() == 0


def test_matmul_and_mul_vec():
    """The Fraction products the tests compute with (kernel_oracle)."""
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert matmul(a, b).entries == RatMatrix.from_rows([[2, 1], [4, 3]]).entries
    assert left_mul_vec(a, vec([1, 1])) == (Fraction(4), Fraction(6))


def mul_vec(rows, x) -> tuple:
    return tuple(sum(map(mul, r, x)) for r in rows)


# x + y = 2 has particular point (2, 0) (free variable zeroed) and kernel
# direction (-1, 1).
def test_solve_affine_line():
    space = solve_affine([[1, 1]], [2])
    assert space == AffineSubspace((2, 0), ((-1, 1),), 1)


def test_solve_affine_unique_and_infeasible():
    space = solve_affine([[1, 0], [0, 2]], [3, 4])
    assert space == AffineSubspace((3, 2), (), 1)
    # x = 1/2, y = 1/3: one common multiplier 6
    assert solve_affine([[2, 0], [0, 3]], [1, 1]) == AffineSubspace((3, 2), (), 6)
    # x + y = 0 and x + y = 1 cannot both hold
    assert solve_affine([[1, 1], [1, 1]], [0, 1]) is None
    # full column rank, yet x = 1, y = 1 and x + y = 1 have no solution
    assert solve_affine([[1, 0], [0, 1], [1, 1]], [1, 1, 1]) is None
    with pytest.raises(ShapeError):
        solve_affine([[1, 0]], [1, 2])


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_solve_affine_solutions_solve(rows, x):
    """Any consistent system is solved by the point over the multiplier,
    and the directions solve the homogeneous one."""
    b = mul_vec(rows, x)  # guaranteed consistent
    space = solve_affine(rows, b)
    assert space is not None and space.mult > 0
    assert all(type(v) is int for v in space.point + sum(space.basis, ()))
    assert mul_vec(rows, space.point) == tuple(space.mult * y for y in b)
    for direction in space.basis:
        assert not any(mul_vec(rows, direction))


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_nullspace_annihilates(rows):
    basis = nullspace(rows)
    assert len(basis) == 4 - RatMatrix.from_rows(rows).rank()
    for v in basis:
        assert all(type(x) is int for x in v)
        assert not any(mul_vec(rows, v))


def test_integer_tuples_scalar_order():
    first = []
    for t in integer_tuples(1):
        first.append(t[0])
        if len(first) == 5:
            break
    assert first == [0, 1, -1, 2, -2]


def integer_tuples_cube(dim, max_shell=1000):
    """The walk integer_tuples replaced, kept as its oracle: each shell s
    scans the whole (2s+1)^dim cube in lexicographic order and keeps the
    tuples of max-norm s."""
    if dim == 0:
        yield ()
        return
    yield (0,) * dim
    for s in range(1, max_shell + 1):
        scalars = [0] + [x for k in range(1, s + 1) for x in (k, -k)]
        for t in product(scalars, repeat=dim):
            if max(abs(x) for x in t) == s:
                yield t


@pytest.mark.parametrize("dim", range(5))
def test_integer_tuples_match_the_cube_scan(dim):
    assert list(islice(integer_tuples(dim), 20_000)) == \
        list(islice(integer_tuples_cube(dim), 20_000))
    for max_shell in (0, 1, 3):
        assert list(integer_tuples(dim, max_shell)) == \
            list(integer_tuples_cube(dim, max_shell))


def test_integer_tuples_2d_prefix():
    seen = []
    for t in integer_tuples(2):
        seen.append(t)
        if len(seen) == 9:
            break
    # shell 0 then the 8 max-norm-1 tuples in lexicographic (0,1,-1) order
    assert seen[0] == (0, 0)
    assert set(seen[1:9]) == {
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
    } - {(0, 0)}
    assert seen[1] == (0, 1)


def differences(columns) -> list[tuple]:
    """Every pairwise difference of the columns, as functionals."""
    return [tuple(map(sub, a, b)) for i, a in enumerate(columns) for b in columns[i + 1:]]


def assert_point_is_oracles(space, columns):
    """``generic_point`` on the columns is the Fraction oracle's point off
    their pairwise differences, over the space's multiplier, and raises
    UnavoidableError exactly where the oracle does."""
    try:
        expected = generic_point_oracle(scaled(space, space.mult), differences(columns))
    except UnavoidableError:
        with pytest.raises(UnavoidableError):
            generic_point(space, columns)
        return None
    got = generic_point(space, columns)
    assert all(type(x) is int for x in got)
    assert tuple(Fraction(x, space.mult) for x in got) == expected, (space, columns)
    return got


def test_generic_point_examples():
    plane = AffineSubspace(point=(0, 0), basis=((1, 0), (0, 1)))
    # columns that differ only in the first coordinate
    p = generic_point(plane, [(0, 0), (1, 0)])
    assert p == (1, 0) and all(type(x) is int for x in p)
    diag = AffineSubspace(point=(0, 0), basis=((1, 1),))
    assert generic_point(diag, [(1, 0), (0, 0)]) == (1, 1)
    # a space over a multiplier: the point is in the space's scale
    shifted = AffineSubspace(point=(1, 0), basis=((0, 2),), mult=2)
    assert generic_point(shifted, [(0, 1), (0, 0)]) == (1, 2)
    # dimension 0: the point itself, when it separates the columns
    single = AffineSubspace(point=(1, 2), basis=())
    assert generic_point(single, [(1, 0), (0, 1), (0, 0)]) == (1, 2)
    # no columns, or one, are separated anywhere: the first point
    assert generic_point(shifted) == generic_point(shifted, [(5, 7)]) == (1, 0)
    # off the origin: values 0, t, 1 - t and 1 + t need t outside {0, 1, -1}
    line = AffineSubspace(point=(0, 1), basis=((1, 0),))
    assert generic_point(line, [(0, 0), (1, 0), (-1, 1), (1, 1)]) == (2, 1)
    for space, columns in ((plane, [(0, 0), (1, 0)]), (diag, [(1, 0), (0, 0)]),
                           (shifted, [(0, 1), (0, 0)]), (single, [(1, 0), (0, 1), (0, 0)]),
                           (line, [(0, 0), (1, 0), (-1, 1), (1, 1)])):
        assert_point_is_oracles(space, columns)


def test_generic_point_unavoidable():
    diag = AffineSubspace(point=(0, 0), basis=((1, 1),))
    # (1, 0) and (0, 1) take equal values on the whole diagonal; off the
    # origin too, and at a point of dimension 0
    for space, columns in ((diag, [(1, 0), (0, 0), (0, 1)]),
                           (AffineSubspace((1, 1), ((1, 1),), 2), [(1, 0), (0, 1)]),
                           (AffineSubspace((1, 2), ()), [(2, 0), (0, 1)])):
        with pytest.raises(UnavoidableError):
            generic_point(space, columns)
        with pytest.raises(UnavoidableError):
            generic_point_oracle(scaled(space, space.mult), differences(columns))
    with pytest.raises(ShapeError):
        generic_point(diag, [(1, 0, 0)])


@given(
    st.lists(rationals, min_size=2, max_size=4).filter(lambda v: any(v)),
)
@settings(max_examples=80, deadline=None)
def test_normalize_primitive_properties(v):
    w = normalize_primitive(vec(v))
    # parallel to the input
    assert RatMatrix.from_rows([list(v), list(w)]).rank() == 1
    nums = [x.numerator for x in w]
    dens = [x.denominator for x in w]
    assert all(d == 1 for d in dens)
    from math import gcd
    assert gcd(*(abs(n) for n in nums)) if len(nums) == 2 else True
    first = next(x for x in w if x != 0)
    assert first > 0


# ---------------------------------------------------------------------------
# the kernel against the Fraction oracles of kernel_oracle.py


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=5):
    """Rational matrices with non-integer entries, zero entries and zero
    rows; as many or more rows than columns as often as fewer."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        m[i] = [Fraction(0)] * cols
    return m


EDGE_MATRICES = [
    [[Fraction(0)] * 3] * 2,  # the all-zero matrix
    [[Fraction(0), Fraction(1, 2)], [Fraction(0)] * 2, [Fraction(3, 4), Fraction(-5, 6)]],
    [[Fraction(1, 3)], [Fraction(-2, 7)], [Fraction(0)], [Fraction(5)]],  # tall
    [[Fraction(2, 3), Fraction(4, 9), Fraction(-1, 6)],
     [Fraction(1, 3), Fraction(2, 9), Fraction(-1, 12)]],  # proportional rows
]


def reduced_form(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form that ``_eliminate``'s integer rows stand
    for: row i over its pivot entry, then zero rows."""
    ints = [integer_multiple(r) for r in rows]
    pivots = _eliminate(ints)
    red = [[Fraction(x, row[pc]) for x in row] for row, pc in zip(ints, pivots)]
    return red + [[Fraction(0)] * len(r) for r in ints[len(pivots):]], pivots


def _edge_examples(test):
    for m in EDGE_MATRICES:
        test = example(m)(test)
    return test


@_edge_examples
@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_oracle(rows):
    expected = rref_oracle([list(r) for r in rows])
    assert reduced_form(rows) == expected
    assert RatMatrix.from_rows(rows).rank() == len(expected[1])
    assert rank_of_vectors(rows) == len(expected[1])


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def scaled(space, mult: int) -> RationalSpace:
    """An integer point and basis read over ``mult``, as Fractions."""
    return RationalSpace(tuple(Fraction(x, mult) for x in space.point),
                         tuple(tuple(Fraction(x, mult) for x in v) for v in space.basis))


@st.composite
def integer_or_rational_matrices(draw):
    """1-4 rows and 1-7 columns, integer or rational entries, zero rows
    included (``rational_matrices`` with integer entries half the time)."""
    rows = draw(rational_matrices(max_rows=4, max_cols=7))
    if draw(st.booleans()):
        rows = [[Fraction(round(x)) for x in r] for r in rows]
    return rows


def _assert_nullspace_is_multiple_of_oracle(rows):
    """The integer nullspace of the rows' integer multiples is the Fraction
    oracle's standard basis times its least common positive multiplier."""
    expected = nullspace_oracle(RatMatrix.from_rows(rows))
    ints = nullspace([integer_multiple(r) for r in rows])
    assert len(ints) == len(expected)
    assert all(type(x) is int for v in ints for x in v)
    if expected:
        mult = lcm(*(x.denominator for v in expected for x in v))
        assert ints == [tuple(x * mult for x in v) for v in expected]


@_edge_examples
@given(integer_or_rational_matrices())
@settings(max_examples=100, deadline=None)
def test_integer_nullspace_is_least_common_multiple_of_nullspace(rows):
    _assert_nullspace_is_multiple_of_oracle(rows)


@_edge_examples
@given(integer_or_rational_matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_fraction_oracle(rows):
    """The same check on the transpose: wide and tall shapes swap."""
    _assert_nullspace_is_multiple_of_oracle(transpose(rows))


def _integer_system(rows, b):
    """Each equation times the lcm of its denominators: the same solutions."""
    scaled_rows = [integer_multiple((*vec(r), Fraction(x))) for r, x in zip(rows, b)]
    return [r[:-1] for r in scaled_rows], [r[-1] for r in scaled_rows]


@given(rational_matrices(), st.lists(rationals, min_size=5, max_size=5), st.booleans())
@settings(max_examples=150, deadline=None)
@example([[1, 1], [1, 1]], [0, 1, 0, 0, 0], False)  # inconsistent
@example([[1, 0], [0, 1], [1, 1]], [1, 1, 1, 0, 0], False)  # full column rank
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1], [0, 0]],
         [1, 3, Fraction(1, 5), 0, 0], False)  # a zero row with a nonzero rhs
def test_solve_affine_matches_fraction_oracle(rows, x, consistent):
    """The integer solution over its multiplier is the oracle's point and
    basis, and None exactly when the oracle finds no solution."""
    a = RatMatrix.from_rows(rows)
    b = mul_vec(a.entries, x[: a.cols]) if consistent else tuple(x[: a.rows])
    got = solve_affine(*_integer_system(rows, b))
    expected = solve_affine_oracle(a, b)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.mult > 0 and scaled(got, got.mult) == expected
        values = (*got.point, *sum(got.basis, ()))
        assert all(type(v) is int for v in values)
        assert gcd(got.mult, *values) == 1  # the least common multiplier


@given(rational_matrices(max_cols=4), st.data())
@settings(max_examples=100, deadline=None)
def test_generic_point_matches_fraction_oracle(rows, data):
    """On the integer solution set of a rational system, often off the
    origin and over a multiplier, with rational columns times one common
    denominator, the point over the multiplier is the oracle's point off
    the Fraction columns' pairwise differences on the Fraction solution
    set."""
    a = RatMatrix.from_rows(rows)
    b = mul_vec(a.entries, data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols)))
    space = solve_affine(*_integer_system(rows, b))
    columns = data.draw(st.lists(st.lists(rationals, min_size=a.cols, max_size=a.cols),
                                 max_size=5))
    den = lcm(*(x.denominator for c in columns for x in c))
    int_columns = [tuple(int(x * den) for x in c) for c in columns]
    try:
        expected = generic_point_oracle(solve_affine_oracle(a, b), differences(columns))
    except UnavoidableError:
        with pytest.raises(UnavoidableError):
            generic_point(space, int_columns)
        return
    got = generic_point(space, int_columns)
    assert all(type(x) is int for x in got)
    assert tuple(Fraction(x, space.mult) for x in got) == expected


def test_generic_point_sparse_functionals_match_fraction_oracle():
    """{-1, 0, 1} columns often agree on every basis coordinate after some
    i < dim - 1, so the search prunes a prefix before its last coordinate
    is set; it must still return the oracle's first point off their
    pairwise differences, often from shell 2 or 3, on centred and
    non-centred spaces, over multipliers, and of dimension 0."""
    rng = random.Random(17)
    shells, early, dims = set(), 0, set()
    for _ in range(150):
        ambient = rng.randint(1, 4)
        if rng.random() < 0.5:
            basis = tuple(tuple(int(i == k) for i in range(ambient)) for k in range(ambient))
        else:
            basis = tuple(tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(ambient))
                          for _ in range(rng.randint(0, ambient)))
        point = tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(ambient))
        space = AffineSubspace(point, basis, rng.choice((1, 1, 2, 3)))
        columns = [tuple(rng.choice((-1, 0, 0, 1)) for _ in range(ambient))
                   for _ in range(rng.randint(0, 8))]
        proj = [tuple(sum(map(mul, c, v)) for v in basis) for c in columns]
        early += any(len({p[i + 1:] for p in proj}) < len(set(proj))
                     for i in range(len(basis) - 1))
        dims.add(len(basis))
        got = assert_point_is_oracles(space, columns)
        if got is not None:
            shells.add(max((abs(x) for x in got), default=0))
    assert {2, 3} <= shells and early > 30 and 0 in dims


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_integer_vectors_scale_by_the_common_denominator(vectors):
    """Every vector times the lcm of all denominators, as int tuples."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    got = integer_vectors(vectors)
    assert got == [tuple(int(x * den) for x in v) for v in vectors]
    assert all(type(x) is int for v in got for x in v)
