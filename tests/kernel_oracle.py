"""Slow exact oracles for the kernel, for tests only: elimination, solution
sets and point search done in Fraction arithmetic, as the kernel once did.

- ``rref_oracle`` is Gauss-Jordan on Fractions with the kernel's pivot rule.
- ``solve_affine_oracle`` and ``nullspace_oracle`` read the point and the
  standard basis off that reduced form, as Fractions.
- ``generic_point_oracle`` walks ``integer_tuples`` in order and tests each
  point in Fractions.
- ``dot``, ``RationalSpace.parameter_point``, ``left_mul_vec`` and
  ``matmul`` are the Fraction vector and matrix arithmetic the oracles and
  the tests share.
"""

from dataclasses import dataclass
from fractions import Fraction

from limprof.errors import InternalError, ShapeError, UnavoidableError
from limprof.kernel import RatMatrix, integer_tuples, rat

FracVec = tuple[Fraction, ...]


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ShapeError(f"dot: length mismatch {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@dataclass(frozen=True)
class RationalSpace:
    """A Fraction point plus a Fraction direction basis."""

    point: FracVec
    basis: tuple[FracVec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def parameter_point(self, params) -> FracVec:
        p = self.point
        for t, b in zip(params, self.basis):
            p = tuple(x + t * y for x, y in zip(p, b))
        return p


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


def solve_affine_oracle(a: RatMatrix, b) -> RationalSpace | None:
    """The solution set of A x = b read off ``rref_oracle`` of the augmented
    rows: the point sets every free variable to zero, the basis is the
    standard nullspace basis. None when there is no solution."""
    if len(b) != a.rows:
        raise ShapeError("solve_affine_oracle: rhs length != row count")
    n = a.cols
    red, pivots = rref_oracle([list(r) + [rat(x)] for r, x in zip(a.entries, b)])
    if n in pivots:
        return None
    point = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        point[pc] = red[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return RationalSpace(tuple(point), tuple(basis))


def nullspace_oracle(a: RatMatrix) -> tuple[FracVec, ...]:
    return solve_affine_oracle(a, [Fraction(0)] * a.rows).basis


def rank_oracle(a: RatMatrix) -> int:
    return len(rref_oracle([list(r) for r in a.entries])[1])


def generic_point_oracle(space: RationalSpace, avoid) -> FracVec:
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


def left_mul_vec(m: RatMatrix, a) -> FracVec:
    """Row vector times matrix, a^T M, in Fractions."""
    if len(a) != m.rows:
        raise ShapeError("left_mul_vec: length != row count")
    return tuple(dot(a, m.col(j)) for j in range(m.cols))


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ShapeError("matmul: inner dimension mismatch")
    return RatMatrix(tuple(tuple(dot(r, b.col(j)) for j in range(b.cols)) for r in a.entries))
