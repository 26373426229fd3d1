"""Exact linear algebra on integer rows, with deterministic pivoting and
point search.

The solvers take integer rows and return integers: ``nullspace`` gives the
standard basis times its least common positive multiplier, ``solve_affine``
a point and a basis over one common positive multiplier, and
``generic_point`` an integer point. A positive multiplier changes no pivot,
no vanishing test and no sign, so callers scale rational data to integers
once (``integer_multiple`` for one vector, ``integer_vectors`` for a list
of them, such as a matrix's columns) and read exact answers. ``Fraction``s
appear only at the edges: ``rat`` and ``vec`` read them, ``RatMatrix``
stores them, and ``normalize_primitive`` returns its primitive integer
vector as Fractions.
``json_value``, ``json_object`` and ``json_rat`` read every file limprof
reads: a value they refuse is a ShapeError.

Determinism contracts:

* Elimination always picks the first usable pivot in row-major order.
* ``generic_point`` enumerates integer parameter tuples shell by shell in
  increasing max-norm; inside a shell, tuples are ordered lexicographically
  with the per-coordinate order 0, 1, -1, 2, -2, ...  The first tuple whose
  point gives the columns pairwise distinct values wins. The search is
  depth first in that order. Once t_i is set, two columns that agree on
  every basis coordinate after i have their final values, so they must
  already differ; it skips every tuple of a failing prefix at once. This is
  the search that avoids every pairwise difference of the columns as a
  functional, tested as soon as its last nonzero coefficient is set, and it
  returns the same point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, ShapeError, UnavoidableError, ZeroDirectionError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction.
    Strings with an exponent ('1e5') are refused with ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"refusing bool {x!r} as a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction reads exponents, and "1e100000000" would build a
        # 10^(10^8) integer before any cap could refuse it.
        if "e" in x or "E" in x:
            raise ValueError(f"exponent notation in {x!r}; write 'p/q' or an integer")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass a string or int")
    raise TypeError(f"cannot interpret a {type(x).__name__} as a rational")


def json_rat(value) -> Fraction:
    """``rat`` of a value read from outside JSON; one it refuses is a ShapeError."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ShapeError(str(exc)) from None


def json_value(value, kind: type):
    """``value`` if its type is exactly ``kind``: JSON true is no int, 1 no float."""
    if type(value) is not kind:
        raise ShapeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def json_object(value, keys: tuple[str, ...], exact: bool = True) -> list:
    """The values of ``keys`` in a JSON object with those keys (if ``exact``, no other)."""
    if type(value) is not dict or (value.keys() ^ keys if exact else set(keys) - value.keys()):
        raise ShapeError(f"expected an object with {'only ' * exact}the keys {', '.join(keys)}")
    return [value[k] for k in keys]


def rat_str(x: Fraction) -> str:
    """Canonical serialization: 'p/q', or just 'p' when the denominator is 1."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


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
        return list(zip(*self.entries))

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


def integer_vectors(vectors: Sequence[Sequence[Fraction]]) -> list[IntVec]:
    """Equal-length rational ``vectors`` (at least one) times one common
    denominator of all their entries: ``integer_multiple`` of the entries
    read in a row, cut back into vectors.

    One positive scale keeps every difference a nonzero multiple of the
    rational one, so coincidences, nullspaces and directions are unchanged."""
    flat = integer_multiple([x for v in vectors for x in v])
    return list(zip(*[iter(flat)] * len(vectors[0])))


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


def _basis(rows: list[list[int]], pivots: list[int], n: int) -> tuple[list[IntVec], int]:
    """Standard nullspace basis of the first ``n`` columns of rows that
    ``_eliminate`` returned ``pivots`` for, times its least common positive
    multiplier ``mult``, which is returned too.

    The basis vector of free column f is e_f minus, at each pivot column p,
    the reduced row's entry in column f; row i's entries in the free columns
    over its pivot entry need the multiplier |pivot| / gcd(row's pivot and
    free entries).
    """
    free = [c for c in range(n) if c not in pivots]
    mult = lcm(*(abs(row[pc]) // gcd(row[pc], *(row[c] for c in free))
                 for row, pc in zip(rows, pivots)))
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = mult
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = -row[fc] * mult // row[pc]
        basis.append(tuple(v))
    return basis, mult


def nullspace(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Basis of {x : A x = 0} for integer rows A (at least one), one vector
    per free column in increasing order: the standard basis times one
    common positive multiplier, the least that makes every entry an
    integer."""
    work = [list(r) for r in rows]
    return _basis(work, _eliminate(work), len(work[0]))[0]


def rank_of_vectors(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a list of equal-length vectors (empty list has rank 0)."""
    return len(_eliminate([integer_multiple(v) for v in vectors]))


@dataclass(frozen=True)
class AffineSubspace:
    """The points (point + sum of t_i * basis_i) / mult for rational t_i:
    an integer point and direction basis over one common positive
    multiplier. An empty basis means the subspace is a single point."""

    point: IntVec
    basis: tuple[IntVec, ...]
    mult: int = 1

    @property
    def dim(self) -> int:
        return len(self.basis)


def solve_affine(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> AffineSubspace | None:
    """Solution set of A x = b for integer rows A (at least one) and an
    integer b, or None when the system has no solution.

    x solves it exactly when (x, 1) is in the nullspace of the rows [r | -b].
    So the system is solvable when the last column has no pivot; its basis
    vector is then (point, 1) times the multiplier, where the point sets
    every free variable to zero, and the other basis vectors end in 0 and
    give the directions. Both are deterministic.
    """
    if len(rhs) != len(rows):
        raise ShapeError(f"solve_affine: got {len(rhs)} rhs entries for {len(rows)} rows")
    n = len(rows[0])
    work = [[*r, -x] for r, x in zip(rows, rhs)]
    pivots = _eliminate(work)
    if n in pivots:
        return None
    (*directions, point), mult = _basis(work, pivots, n + 1)
    return AffineSubspace(point[:n], tuple(v[:n] for v in directions), mult)


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
    max-norm s. dim == 0 yields the single empty tuple. Each shell is walked
    directly, one prefix of dim - 1 entries at a time: a prefix with an
    entry of norm s takes every last entry, any other prefix only s and -s.
    """
    if dim == 0:
        yield ()
        return
    yield (0,) * dim
    for s in range(1, max_shell + 1):
        scalars = _scalars_up_to(s)
        every = [(x,) for x in scalars]
        edge = every[-2:]
        for prefix in product(scalars, repeat=dim - 1):
            yield from map(prefix.__add__, every if s in prefix or -s in prefix else edge)


def generic_point(space: AffineSubspace, columns: Sequence[Sequence[int]] = ()) -> IntVec:
    """First point of ``space`` (in enumeration order) at which the integer
    ``columns`` take pairwise distinct values, as ints in the space's scale:
    point + sum of t_i * basis_i, to be read over ``space.mult``.

    Two columns that agree on the whole subspace can never be told apart:
    that raises UnavoidableError.
    """
    point, basis, dim, n = space.point, space.basis, space.dim, len(columns)
    if any(len(c) != len(point) for c in columns):
        raise ShapeError("generic_point: column has wrong length")
    values = [sum(map(mul, c, point)) for c in columns] if any(point) else [0] * n
    proj = [[sum(map(mul, c, v)) for c in columns] for v in basis]
    if len(set(zip(values, *proj))) < n:
        raise UnavoidableError("two columns agree on the whole search space")
    # due[i]: once t[i] is set, columns that agree on every basis coordinate
    # after i keep their values, so those must already differ. It holds
    # those coordinates, or None when no two columns agree on them, or ()
    # after the last coordinate, where every value must differ.
    due = []
    for i in range(dim):
        later = list(zip(*proj[i + 1:]))
        due.append(() if not later else None if len(set(later)) == n else later)
    t = [0] * dim

    def extend(i: int, s: int, hit: bool, values: list[int]) -> bool:
        # first completion of t[:i] in shell s; hit: some |t[q]| == s, q < i
        if i == dim:
            return hit
        keys, row = due[i], proj[i]
        for x in _scalars_up_to(s):
            if i == dim - 1 and not hit and abs(x) != s:
                continue
            t[i] = x
            new = [v + x * p for v, p in zip(values, row)] if x else values
            if (keys is None or len(set(zip(keys, new) if keys else new)) == n) \
                    and extend(i + 1, s, hit or abs(x) == s, new):
                return True
        return False

    for s in range(1001):  # the shells of integer_tuples
        if extend(0, s, s == 0, values):
            out = tuple(point)
            for x, v in zip(t, basis):
                if x:
                    out = tuple(a + x * b for a, b in zip(out, v))
            return out
    raise InternalError("generic_point: exhausted search shells")


def normalize_primitive(v: Sequence[Fraction]) -> Vec:
    """Scale a nonzero rational vector to integer entries, gcd 1, first nonzero positive."""
    ints = v if all(type(x) is int for x in v) else integer_multiple(vec(v))
    g = gcd(*ints)
    if not g:
        raise ZeroDirectionError("cannot normalize the zero vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)
