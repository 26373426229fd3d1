import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limprof import kernel
from limprof.errors import InternalError, ShapeError, UnavoidableError
from limprof.kernel import (
    AffineSubspace,
    RatMatrix,
    _rref,
    dot,
    generic_point,
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
# slow oracles: elimination and point search in Fraction arithmetic


def rref_oracle(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan on Fractions, in place.

    The same first-usable-pivot rule as the kernel: scan columns left to
    right, take the first row (top to bottom) with a nonzero entry.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols: list[int] = []
    pr = 0
    for c in range(n):
        sel = None
        for r in range(pr, m):
            if rows[r][c] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = rows[pr][c]
        rows[pr] = [x / inv for x in rows[pr]]
        for r in range(m):
            if r != pr and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        piv_cols.append(c)
        pr += 1
        if pr == m:
            break
    return rows, piv_cols


def generic_point_oracle(space: AffineSubspace, avoid) -> tuple[Fraction, ...]:
    """First tuple of ``integer_tuples`` whose point avoids every functional,
    with every value computed in Fractions."""
    reduced = []
    for f in avoid:
        c0 = dot(f, space.point)
        cs = tuple(dot(f, b) for b in space.basis)
        if c0 == 0 and all(c == 0 for c in cs):
            raise UnavoidableError("functional vanishes identically")
        reduced.append((c0, cs))
    for t in integer_tuples(space.dim):
        if all(c0 + sum((Fraction(x) * c for x, c in zip(t, cs)), Fraction(0)) != 0
               for c0, cs in reduced):
            return space.parameter_point(t)
    raise InternalError("exhausted search shells")


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


def _with_oracle(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_rref", rref_oracle)
        return fn(*args)


def _edge_examples(test):
    for m in EDGE_MATRICES:
        test = example(m)(test)
    return test


@_edge_examples
@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_oracle(rows):
    expected = rref_oracle([list(r) for r in rows])
    assert _rref([list(r) for r in rows]) == expected
    assert RatMatrix.from_rows(rows).rank() == len(expected[1])
    assert rank_of_vectors(rows) == len(expected[1])


@_edge_examples
@given(rational_matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_fraction_oracle(rows):
    a = RatMatrix.from_rows(rows)
    assert nullspace(a) == _with_oracle(nullspace, a)
    assert nullspace(a.transpose()) == _with_oracle(nullspace, a.transpose())


@given(rational_matrices(), st.lists(rationals, min_size=5, max_size=5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_solve_affine_matches_fraction_oracle(rows, x, consistent):
    a = RatMatrix.from_rows(rows)
    b = a.mul_vec(x[: a.cols]) if consistent else tuple(x[: a.rows])
    assert solve_affine(a, b) == _with_oracle(solve_affine, a, b)


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
