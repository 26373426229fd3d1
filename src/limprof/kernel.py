"""Exact rational linear algebra with deterministic pivoting and point search.

Inputs and outputs are ``fractions.Fraction`` (canonical p/q, reduced,
positive denominator), so every result here is exact and reproducible bit
for bit. Inside, elimination and the point search run on Python ints: each
row (or vector) is scaled once by the lcm of its denominators, which changes
neither the pivots, the reduced row echelon form nor which functionals
vanish, and only the entries a caller reads are turned back into Fractions.

Determinism contracts:

* Elimination always picks the first usable pivot in row-major order.
* ``generic_point`` enumerates integer parameter tuples shell by shell in
  increasing max-norm; inside a shell, tuples are ordered lexicographically
  with the per-coordinate order 0, 1, -1, 2, -2, ...  The first tuple whose
  point avoids every functional wins. The search is depth first in that
  order and tests a functional as soon as its last nonzero coefficient is
  set, so it skips every tuple of a failing prefix at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, ShapeError, UnavoidableError

Rat = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"refusing bool {x!r} as a rational")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass a string or int")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Canonical serialization: 'p/q', or just 'p' when the denominator is 1."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ShapeError(f"dot: length mismatch {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class RatMatrix:
    """Immutable exact rational matrix (tuple of row tuples)."""

    entries: tuple[Vec, ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ShapeError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        return cls(tuple(vec(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(self.col(j) for j in range(self.cols)))

    def mul_vec(self, x: Sequence[Fraction]) -> Vec:
        return tuple(dot(r, x) for r in self.entries)

    def left_mul_vec(self, a: Sequence[Fraction]) -> Vec:
        """Row vector times matrix: a^T M."""
        if len(a) != self.rows:
            raise ShapeError("left_mul_vec: length != row count")
        return tuple(dot(a, self.col(j)) for j in range(self.cols))

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError("matmul: inner dimension mismatch")
        return RatMatrix(
            tuple(
                tuple(dot(self.row(i), other.col(j)) for j in range(other.cols))
                for i in range(self.rows)
            )
        )

    def rank(self) -> int:
        return len(_eliminate([integer_multiple(r) for r in self.entries]))


def integer_multiple(v: Sequence[Fraction]) -> list[int]:
    """``v`` times the lcm of its denominators: its least integer multiple.

    Scaling by a positive integer keeps pivots, nullspaces and the sign of
    every dot product, so exact tests may run on the ints instead."""
    dens = [x.denominator for x in v]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in v]
    return [x.numerator * (den // d) for x, d in zip(v, dens)]


def _eliminate(rows: list[list[int]]) -> list[int]:
    """Gauss-Jordan elimination on integer rows in place; returns pivot columns.

    Pivot selection is deterministic: scan columns left to right, take the
    first row (top to bottom) with a nonzero entry. A row is cleared at a
    pivot by cross-multiplication, then divided by the gcd of its entries.
    Afterwards row i < rank is zero in every pivot column but its own,
    ``pivots[i]``, and the rows from rank on are zero; dividing row i by its
    pivot entry gives row i of the reduced row echelon form.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols: list[int] = []
    pr = 0
    for c in range(n):
        sel = None
        for r in range(pr, m):
            if rows[r][c]:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr]
        p = prow[c]
        for r in range(m):
            f = rows[r][c]
            if f and r != pr:
                new = [p * a - f * b for a, b in zip(rows[r], prow)]
                g = gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
        piv_cols.append(c)
        pr += 1
        if pr == m:
            break
    return piv_cols


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of rational rows; returns (matrix, pivot columns).

    The elimination runs on integer multiples of the rows (``_eliminate``);
    Fractions are built for the pivot rows only, the rest are zero.
    """
    ints = [integer_multiple(r) for r in rows]
    pivots = _eliminate(ints)
    red = [[Fraction(x, row[pc]) if x else _ZERO for x in row]
           for row, pc in zip(ints, pivots)]
    red += [[_ZERO] * len(row) for row in ints[len(pivots):]]
    return red, pivots


def rank_of_vectors(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a list of equal-length vectors (empty list has rank 0)."""
    return len(_eliminate([integer_multiple(v) for v in vectors]))


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set written as a particular point plus a direction basis.

    An empty basis means the subspace is a single point.
    """

    point: Vec
    basis: tuple[Vec, ...]

    @property
    def is_unique(self) -> bool:
        return not self.basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def parameter_point(self, params: Sequence[int]) -> Vec:
        p = self.point
        for t, b in zip(params, self.basis):
            if t:
                p = vadd(p, vscale(Fraction(t), b))
        return p


def solve_affine(a: RatMatrix, b: Sequence[Fraction]) -> AffineSubspace | None:
    """Exact solution set of A x = b, or None when the system is infeasible.

    The particular point sets every free variable to zero; the direction
    basis is the standard nullspace basis with free columns in increasing
    order. Both are deterministic.
    """
    if len(b) != a.rows:
        raise ShapeError(f"solve_affine: got {len(b)} rhs entries for {a.rows} rows")
    n = a.cols
    aug = [list(r) + [rat(x)] for r, x in zip(a.entries, b)]
    red, pivots = _rref(aug)
    if n in pivots:
        return None
    point = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        point[pc] = red[i][n]
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return AffineSubspace(tuple(point), tuple(basis))


def nullspace(a: RatMatrix) -> tuple[Vec, ...]:
    """Deterministic basis of {x : A x = 0}; count = cols - rank."""
    sol = solve_affine(a, [Fraction(0)] * a.rows)
    if sol is None:
        raise InternalError("nullspace: homogeneous system reported inconsistent")
    return sol.basis


def _scalars_up_to(s: int) -> list[int]:
    """Integers with |t| <= s in the canonical order 0, 1, -1, 2, -2, ..."""
    out = [0]
    for k in range(1, s + 1):
        out.append(k)
        out.append(-k)
    return out


def integer_tuples(dim: int, max_shell: int = 1000) -> Iterator[tuple[int, ...]]:
    """All integer tuples, in increasing max-norm shells.

    Inside shell s, tuples are in lexicographic order under the scalar order
    0 < 1 < -1 < 2 < -2 < ...; shell s contains exactly the tuples of
    max-norm s. dim == 0 yields the single empty tuple.
    """
    if dim == 0:
        yield ()
        return
    yield (0,) * dim
    from itertools import product

    for s in range(1, max_shell + 1):
        scalars = _scalars_up_to(s)
        for t in product(scalars, repeat=dim):
            if max(abs(x) for x in t) == s:
                yield t


def generic_point(space: AffineSubspace, avoid: Sequence[Sequence[Fraction]] = ()) -> Vec:
    """First point of ``space`` (in enumeration order) off every functional.

    ``avoid`` holds linear functionals on the ambient space, each required to
    be nonzero at the returned point. A functional identically zero on the
    whole subspace can never be avoided: that raises UnavoidableError.
    """
    # One common multiplier for the point and the basis, one per functional:
    # each value below is a nonzero integer multiple of the rational one.
    mult = lcm(*(x.denominator for v in (space.point, *space.basis) for x in v))
    point, *basis = (
        [x.numerator * (mult // x.denominator) for x in v]
        for v in (space.point, *space.basis)
    )
    dim = space.dim
    due: list[list] = [[] for _ in range(dim + 1)]  # by last nonzero coefficient
    for f in avoid:
        if len(f) != len(space.point):
            raise ShapeError("generic_point: functional has wrong length")
        f = integer_multiple(f)
        c0 = sum(a * b for a, b in zip(f, point))
        cs = [sum(a * b for a, b in zip(f, v)) for v in basis]
        last = max((q + 1 for q, c in enumerate(cs) if c), default=0)
        if c0 == 0 and not last:
            raise UnavoidableError("functional vanishes identically on the search space")
        due[last].append((c0, cs[:last]))  # due[0]: nonzero constants
    t = [0] * dim

    def extend(i: int, s: int, hit: bool) -> bool:
        # first completion of t[:i] in shell s; hit: some |t[q]| == s, q < i
        if i == dim:
            return hit
        for x in _scalars_up_to(s):
            if i == dim - 1 and not hit and abs(x) != s:
                continue
            t[i] = x
            if all(c0 + sum(map(mul, t, cs)) for c0, cs in due[i + 1]) \
                    and extend(i + 1, s, hit or abs(x) == s):
                return True
        return False

    for s in range(1001):  # the shells of integer_tuples
        if extend(0, s, s == 0):
            return space.parameter_point(t)
    raise InternalError("generic_point: exhausted search shells")


def normalize_primitive(v: Sequence[Fraction]) -> Vec:
    """Scale a nonzero rational vector to integer entries, gcd 1, first nonzero positive."""
    v = vec(v)
    if is_zero_vec(v):
        raise ValueError("cannot normalize the zero vector")
    mult = lcm(*(x.denominator for x in v)) if len(v) > 1 else v[0].denominator
    ints = [int(x * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(Fraction(x) for x in ints)
