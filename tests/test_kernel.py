import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    generic_point_oracle,
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
    integer_nullspace,
    integer_tuples,
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
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert a.matmul(b).entries == RatMatrix.from_rows([[2, 1], [4, 3]]).entries
    assert a.mul_vec(vec([1, 1])) == (Fraction(3), Fraction(7))


# solve_affine oracle: x + y = 2 has particular point (2, 0) (free variable
# zeroed) and kernel direction (-1, 1).
def test_solve_affine_line():
    space = solve_affine(RatMatrix.from_rows([[1, 1]]), vec([2]))
    assert space is not None
    assert space.point == (Fraction(2), Fraction(0))
    assert space.basis == ((Fraction(-1), Fraction(1)),)
    assert not space.is_unique


def test_solve_affine_unique_and_infeasible():
    a = RatMatrix.from_rows([[1, 0], [0, 2]])
    space = solve_affine(a, vec([3, 4]))
    assert space is not None and space.is_unique
    assert space.point == (Fraction(3), Fraction(2))
    # x + y = 0 and x + y = 1 cannot both hold
    bad = solve_affine(RatMatrix.from_rows([[1, 1], [1, 1]]), vec([0, 1]))
    assert bad is None


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(rationals, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_solve_affine_solutions_solve(rows, x):
    """Any consistent system is actually solved by point + any basis combo."""
    a = RatMatrix.from_rows(rows)
    b = a.mul_vec(vec(x))  # guaranteed consistent
    space = solve_affine(a, b)
    assert space is not None
    assert a.mul_vec(space.point) == b
    for direction in space.basis:
        shifted = tuple(p + d for p, d in zip(space.point, direction))
        assert a.mul_vec(shifted) == b


@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_nullspace_annihilates(rows):
    a = RatMatrix.from_rows(rows)
    basis = nullspace(a)
    assert len(basis) == a.cols - a.rank()
    for v in basis:
        assert all(x == 0 for x in a.mul_vec(v))


def test_integer_tuples_scalar_order():
    first = []
    for t in integer_tuples(1):
        first.append(t[0])
        if len(first) == 5:
            break
    assert first == [0, 1, -1, 2, -2]


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


def test_generic_point_examples():
    plane = AffineSubspace(point=vec([0, 0]), basis=(vec([1, 0]), vec([0, 1])))
    # avoid the functional "first coordinate = 0"
    p = generic_point(plane, avoid=[vec([1, 0])])
    assert p == (Fraction(1), Fraction(0))
    diag = AffineSubspace(point=vec([0, 0]), basis=(vec([1, 1]),))
    p = generic_point(diag, avoid=[vec([1, 0])])
    assert p == (Fraction(1), Fraction(1))


def test_generic_point_unavoidable():
    diag = AffineSubspace(point=vec([0, 0]), basis=(vec([1, 1]),))
    # x - y vanishes identically on the diagonal
    with pytest.raises(UnavoidableError):
        generic_point(diag, avoid=[vec([1, -1])])


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


@_edge_examples
@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_fraction_oracle(rows):
    a = RatMatrix.from_rows(rows)
    assert nullspace(a) == nullspace_oracle(a)
    assert nullspace(a.transpose()) == nullspace_oracle(a.transpose())


@given(rational_matrices(), st.lists(rationals, min_size=5, max_size=5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_solve_affine_matches_fraction_oracle(rows, x, consistent):
    a = RatMatrix.from_rows(rows)
    b = a.mul_vec(x[: a.cols]) if consistent else tuple(x[: a.rows])
    assert solve_affine(a, b) == solve_affine_oracle(a, b)


@given(rational_matrices(max_cols=4), st.data())
@settings(max_examples=100, deadline=None)
def test_generic_point_matches_fraction_oracle(rows, data):
    a = RatMatrix.from_rows(rows)
    b = a.mul_vec(data.draw(st.lists(rationals, min_size=a.cols, max_size=a.cols)))
    space = solve_affine(a, b)
    avoid = data.draw(st.lists(st.lists(rationals, min_size=a.cols, max_size=a.cols),
                               max_size=4))
    try:
        expected = generic_point_oracle(space, avoid)
    except UnavoidableError:
        with pytest.raises(UnavoidableError):
            generic_point(space, avoid)
        return
    assert generic_point(space, avoid) == expected


def test_generic_point_sparse_functionals_match_fraction_oracle():
    """Sparse functionals, as pairwise differences of {0, 1} columns are,
    vanish on whole prefixes of the search; the pruned search must still
    return the oracle's first point, often from shell 2 or 3."""
    rng = random.Random(17)
    shells = set()
    for _ in range(150):
        ambient = rng.randint(1, 4)
        if rng.random() < 0.5:
            basis = tuple(tuple(Fraction(int(i == k)) for i in range(ambient))
                          for k in range(ambient))
        else:
            basis = tuple(tuple(Fraction(rng.choice((-1, 0, 0, 1, 2)))
                                for _ in range(ambient)) for _ in range(rng.randint(0, ambient)))
        point = tuple(Fraction(rng.choice((0, 0, 0, 1, -1))) for _ in range(ambient))
        space = AffineSubspace(point, basis)
        avoid = [tuple(Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(ambient))
                 for _ in range(rng.randint(0, 12))]
        try:
            expected = generic_point_oracle(space, avoid)
        except UnavoidableError:
            with pytest.raises(UnavoidableError):
                generic_point(space, avoid)
            continue
        assert generic_point(space, avoid) == expected, (space, avoid)
        shells.add(max((abs(x) for x in expected), default=0))
    assert {2, 3} <= shells


@st.composite
def integer_or_rational_matrices(draw):
    """1-4 rows and 1-7 columns, integer or rational entries, zero rows
    included (``rational_matrices`` with integer entries half the time)."""
    rows = draw(rational_matrices(max_rows=4, max_cols=7))
    if draw(st.booleans()):
        rows = [[Fraction(round(x)) for x in r] for r in rows]
    return rows


@_edge_examples
@given(integer_or_rational_matrices())
@settings(max_examples=100, deadline=None)
def test_integer_nullspace_is_least_common_multiple_of_nullspace(rows):
    a = RatMatrix.from_rows(rows)
    basis = nullspace(a)
    assert basis == nullspace_oracle(a)
    ints = integer_nullspace([integer_multiple(r) for r in rows])
    assert len(ints) == len(basis)
    assert all(type(x) is int for v in ints for x in v)
    if basis:
        mult = lcm(*(x.denominator for v in basis for x in v))
        assert ints == [tuple(x * mult for x in v) for v in basis]


@given(integer_or_rational_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_generic_point_of_ints_equals_generic_point_of_fractions(rows, data):
    """Integer point, basis and functionals give the Fraction inputs' point,
    as ints; an unavoidable functional raises on both."""
    ints = integer_nullspace([integer_multiple(r) for r in rows])
    start = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows[0]),
                               max_size=len(rows[0])))
    avoid = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=len(start),
                                        max_size=len(start)), max_size=6))
    int_space = AffineSubspace(tuple(start), tuple(ints))
    frac_space = AffineSubspace(vec(start), tuple(vec(v) for v in ints))
    try:
        expected = generic_point(frac_space, [vec(f) for f in avoid])
    except UnavoidableError:
        with pytest.raises(UnavoidableError):
            generic_point(int_space, avoid)
        return
    got = generic_point(int_space, avoid)
    assert got == expected and all(type(x) is int for x in got)
    assert all(type(x) is Fraction for x in expected)
