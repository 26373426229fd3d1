"""Multiplicity analysis of finite value matrices.

A value matrix M has one row per basis sequence and one column per atom of a
common partition; the combination with coefficient row a takes value
(a^T M)_j on atom j. Its multiplicity mu(a) is the number of distinct
entries of a^T M, i.e. the number of accumulation points of the combined
sequence. The multiplicity profile is {mu(a) : a != 0}, computed exactly by
enumerating coincidence patterns (set partitions of the columns) and
deciding each one with exact linear algebra.

For matrices with at most two rows an exact direction census is used
internally: every nonzero coefficient row either separates all columns or is
proportional to the normal of some column difference, so scanning column
pairs enumerates the whole profile. The result is identical to pattern
enumeration (property-tested) and much faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from .errors import (
    DuplicateColumnsError,
    InternalError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    ZeroDirectionError,
)
from .kernel import (
    AffineSubspace,
    RatMatrix,
    Vec,
    dot,
    generic_point,
    integer_multiple,
    integer_tuples,
    is_zero_vec,
    normalize_primitive,
    nullspace,
    rat_str,
    solve_affine,
    vec,
)
from .sequences import StepSequence

PROFILE_CAP = 12


# ---------------------------------------------------------------------------
# value matrices


def matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[rat_str(x) for x in row] for row in m.entries],
    }


def matrix_from_json(data: Mapping) -> RatMatrix:
    entries = data["entries"]
    mat = RatMatrix.from_rows(entries)
    if "rows" in data and int(data["rows"]) != mat.rows:
        raise ShapeError("declared row count does not match entries")
    if "cols" in data and int(data["cols"]) != mat.cols:
        raise ShapeError("declared column count does not match entries")
    return mat


def has_canonical_columns(m: RatMatrix) -> bool:
    """True when the columns are pairwise distinct."""
    cols = m.columns()
    return len(set(cols)) == len(cols)


def merge_columns(m: RatMatrix) -> tuple[RatMatrix, tuple[tuple[int, ...], ...]]:
    """Merge duplicate columns; returns the merged matrix and the groups of
    original column indices, in first-occurrence order."""
    groups: dict[Vec, list[int]] = {}
    order: list[Vec] = []
    for j, c in enumerate(m.columns()):
        if c not in groups:
            groups[c] = []
            order.append(c)
        groups[c].append(j)
    merged = RatMatrix(tuple(tuple(c[i] for c in order) for i in range(m.rows)))
    return merged, tuple(tuple(groups[c]) for c in order)


# ---------------------------------------------------------------------------
# coincidence patterns


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order.

    The first string is the single-block partition (all zeros), the last is
    the all-singleton partition (0, 1, ..., n-1).
    """
    if n <= 0:
        return

    def rec(i: int, mx: int, cur: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(cur)
            return
        for v in range(mx + 2):
            cur.append(v)
            yield from rec(i + 1, max(mx, v), cur)
            cur.pop()

    yield from rec(1, 0, [0])


def multiplicity(m: RatMatrix, alpha: Sequence) -> int:
    """Number of distinct entries of alpha^T M; alpha must be nonzero."""
    a = vec(alpha)
    if len(a) != m.rows:
        raise ShapeError("alpha length must equal the row count")
    if is_zero_vec(a):
        raise ZeroDirectionError("alpha must be nonzero")
    return len(set(m.left_mul_vec(a)))


def _integer_columns(m: RatMatrix) -> list[tuple[int, ...]]:
    """The columns of M times one common denominator of its entries.

    A common multiplier keeps every column difference a nonzero multiple of
    the rational one, so nullspaces and vanishing tests are unchanged."""
    mult = lcm(*(x.denominator for row in m.entries for x in row))
    return [
        tuple(x.numerator * (mult // x.denominator) for x in col) for col in m.columns()
    ]


def _feasible_blocks(
    cols: Sequence[tuple[int, ...]], blocks: Sequence[Sequence[int]]
) -> Vec | None:
    """Witness alpha != 0 whose coincidence pattern on the columns ``cols``
    (see ``_integer_columns``) is exactly ``blocks``, or None when no such
    alpha exists.

    Within-block equalities define a linear subspace; cross-block separations
    are checked as functionals not identically zero on it, then realized
    simultaneously by a deterministic generic point.
    """
    rows = len(cols[0])
    constraints = []
    for block in blocks:
        lead = cols[block[0]]
        for j in block[1:]:
            constraints.append(tuple(Fraction(a - b) for a, b in zip(cols[j], lead)))
    if constraints:
        basis = nullspace(RatMatrix(tuple(constraints)))
    else:
        basis = tuple(
            tuple(Fraction(int(i == k)) for i in range(rows)) for k in range(rows)
        )
    if not basis:
        return None  # only alpha = 0 satisfies the equalities
    int_basis = [integer_multiple(bv) for bv in basis]
    leaders = [block[0] for block in blocks]
    cross = []
    for s in range(len(leaders)):
        for t in range(s + 1, len(leaders)):
            f = tuple(a - b for a, b in zip(cols[leaders[s]], cols[leaders[t]]))
            if not any(sum(a * b for a, b in zip(f, bv)) for bv in int_basis):
                return None  # the pattern forces these two blocks to coincide
            cross.append(tuple(Fraction(a) for a in f))
    if not cross:
        return normalize_primitive(basis[0])
    origin = tuple(Fraction(0) for _ in range(rows))
    alpha = generic_point(AffineSubspace(origin, basis), cross)
    return normalize_primitive(alpha)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class MultiplicityProfile:
    """Achieved multiplicities plus one witness per achieved count."""

    achieved: tuple[int, ...]
    witnesses: Mapping[int, Vec]

    def min(self) -> int:
        return self.achieved[0]

    def max(self) -> int:
        return self.achieved[-1]

    def to_json(self) -> dict:
        return {
            "achieved": list(self.achieved),
            "witnesses": {
                str(k): [rat_str(x) for x in w] for k, w in sorted(self.witnesses.items())
            },
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiplicityProfile":
        achieved = tuple(int(k) for k in data["achieved"])
        witnesses = {int(k): vec(w) for k, w in data["witnesses"].items()}
        return cls(achieved, witnesses)


def _require_canonical(m: RatMatrix) -> None:
    if not has_canonical_columns(m):
        raise DuplicateColumnsError(
            "duplicate columns; merge_columns() first (values on merged atoms agree)"
        )


def _profile_by_patterns(m: RatMatrix) -> MultiplicityProfile:
    witnesses: dict[int, Vec] = {}
    cols = _integer_columns(m)
    for assignment in set_partitions(m.cols):
        b = max(assignment) + 1
        if b in witnesses:
            continue
        byblock: dict[int, list[int]] = {}
        for col, blk in enumerate(assignment):
            byblock.setdefault(blk, []).append(col)
        blocks = sorted((tuple(v) for v in byblock.values()), key=lambda x: x[0])
        w = _feasible_blocks(cols, blocks)
        if w is not None:
            witnesses[b] = w
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


def _profile_by_census(m: RatMatrix) -> MultiplicityProfile:
    """Exact profile for m.rows <= 2 via the direction census (see module doc)."""
    witnesses: dict[int, Vec] = {}
    n = m.cols
    if m.rows == 1:
        witnesses[n] = (Fraction(1),)
        return MultiplicityProfile((n,), witnesses)
    cols = m.columns()
    for i in range(n):
        for j in range(i + 1, n):
            d = (cols[i][0] - cols[j][0], cols[i][1] - cols[j][1])
            alpha = normalize_primitive((-d[1], d[0]))
            mu = multiplicity(m, alpha)
            if mu not in witnesses:
                witnesses[mu] = alpha
    if n not in witnesses:
        # generic direction separating every column pair
        singletons = [(j,) for j in range(n)]
        w = _feasible_blocks(_integer_columns(m), singletons)
        if w is None:
            raise InternalError("distinct columns admit no separating direction")
        witnesses[n] = w
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


def profile(m: RatMatrix) -> MultiplicityProfile:
    """Exact multiplicity profile {mu(alpha) : alpha != 0} with witnesses.

    Columns must be pairwise distinct (merge duplicates first). N is capped
    at PROFILE_CAP because pattern enumeration is Bell(N). Matrices with at
    most two rows take the direction census, the others pattern enumeration.
    """
    _require_canonical(m)
    if m.cols > PROFILE_CAP:
        raise TooLargeError(
            f"{m.cols} columns exceeds the profile cap {PROFILE_CAP}; "
            "use sample_profile for an under-approximation"
        )
    return _profile_by_census(m) if m.rows <= 2 else _profile_by_patterns(m)


def sample_profile(
    m: RatMatrix,
    max_norm: int = 3,
    extra: Sequence[Sequence] = (),
) -> MultiplicityProfile:
    """Under-approximation of the profile by scanning an integer grid of
    coefficient rows (max-norm shells up to ``max_norm``) plus any ``extra``
    rows. Sampling can only miss counts, never invent them."""
    _require_canonical(m)
    witnesses: dict[int, Vec] = {}
    for t in integer_tuples(m.rows, max_shell=max_norm):
        if max(abs(x) for x in t) > max_norm:
            break
        if all(x == 0 for x in t):
            continue
        a = vec(t)
        mu = multiplicity(m, a)
        if mu not in witnesses:
            witnesses[mu] = normalize_primitive(a)
    for a in extra:
        a = vec(a)
        if is_zero_vec(a):
            continue
        mu = multiplicity(m, a)
        if mu not in witnesses:
            witnesses[mu] = normalize_primitive(a)
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


# ---------------------------------------------------------------------------
# collapse and interval refutation


def collapse(m: RatMatrix, cols: Sequence[int]) -> tuple[Vec, Fraction]:
    """Nonzero alpha making a^T M constant on the chosen m.rows columns.

    Independent chosen columns: solve against the all-ones target (common
    value 1 before normalization). Dependent columns: take a kernel vector,
    common value 0. Returns (alpha, gamma) with alpha integer-primitive and
    gamma recomputed after normalization.
    """
    chosen = sorted(set(int(c) for c in cols))
    if len(chosen) != m.rows:
        raise ShapeError(f"need exactly {m.rows} distinct column indices")
    if chosen[0] < 0 or chosen[-1] >= m.cols:
        raise ShapeError("column index out of range")
    sub = RatMatrix(tuple(tuple(m.entries[i][j] for j in chosen) for i in range(m.rows)))
    if sub.rank() == m.rows:
        sol = solve_affine(sub.transpose(), [Fraction(1)] * m.rows)
        if sol is None or not sol.is_unique:
            raise InternalError("collapse: full-rank system has no unique solution")
        alpha = sol.point
    else:
        alpha = nullspace(sub.transpose())[0]
    alpha = normalize_primitive(alpha)
    gamma = dot(alpha, m.col(chosen[0]))
    if multiplicity(m, alpha) > m.cols - m.rows + 1:
        raise InternalError("collapse: witness separates more than N - rows + 1 values")
    return alpha, gamma


@dataclass(frozen=True)
class RefutationWitness:
    alpha: Vec
    multiplicity: int
    n: int
    d: int

    @property
    def escapes(self) -> bool:
        return self.multiplicity < self.n or self.multiplicity > self.n + self.d


def refute_interval(m: RatMatrix, n: int, d: int) -> RefutationWitness:
    """Witness that the span of M's rows realizes a multiplicity outside
    [n, n+d].

    With more than n+d distinct columns a generic row separates everything
    (mu = N > n+d). Otherwise collapsing the first min(d+2, N) columns costs
    at most d+1 linear conditions on at least d+2 unknowns, so a nonzero
    alpha exists with mu <= N-d-1 <= n-1.
    """
    if n < 2 or d < 0:
        raise ShapeError("need n >= 2 and d >= 0")
    if m.rows < d + 2:
        raise TooFewRowsError(f"need at least d+2 = {d + 2} rows, got {m.rows}")
    _require_canonical(m)
    if m.cols > n + d:
        singletons = [(j,) for j in range(m.cols)]
        alpha = _feasible_blocks(_integer_columns(m), singletons)
        if alpha is None:
            raise InternalError("distinct columns admit no separating direction")
    else:
        k = min(d + 2, m.cols)
        cols = m.columns()
        constraints = [
            tuple(a - b for a, b in zip(cols[j], cols[0])) for j in range(1, k)
        ]
        if constraints:
            alpha = nullspace(RatMatrix(tuple(constraints)))[0]
        else:
            alpha = tuple(
                Fraction(int(i == 0)) for i in range(m.rows)
            )  # N == 1: any nonzero row works
        alpha = normalize_primitive(alpha)
    w = RefutationWitness(alpha, multiplicity(m, alpha), n, d)
    if not w.escapes:
        raise InternalError(f"refute_interval: witness count {w.multiplicity} "
                            f"lies inside [{n}, {n + d}]")
    return w


# ---------------------------------------------------------------------------
# relation nesting and separation


@dataclass(frozen=True)
class NestingVerdict:
    nested: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]


def nesting_check(rel) -> NestingVerdict:
    """Nested means the pairs form a function right -> left: every right atom
    meets exactly one left atom infinitely (containment mod finite sets)."""
    byright: dict[int, list[int]] = {}
    for i, j in rel.pairs:
        byright.setdefault(j, []).append(i)
    violations = tuple(
        (j, tuple(sorted(ls))) for j, ls in sorted(byright.items()) if len(ls) > 1
    )
    return NestingVerdict(not violations, violations)


def separation_radius(x: StepSequence) -> Fraction | None:
    """Half the minimal gap between accumulation points; None (no constraint)
    for a single-atom sequence. Perturbations below this radius cannot merge
    accumulation points."""
    vals = sorted(x.values)
    if len(vals) == 1:
        return None
    best = min(b - a for a, b in zip(vals, vals[1:]))
    return best / 2
