"""Multiplicity analysis of finite value matrices.

A value matrix M has one row per basis sequence and one column per atom of a
common partition; the combination with coefficient row a takes value
(a^T M)_j on atom j. Its multiplicity mu(a) is the number of distinct
entries of a^T M, i.e. the number of accumulation points of the combined
sequence. The multiplicity profile is {mu(a) : a != 0}.

``profile`` computes it exactly by one depth-first walk that builds a
restricted growth string (a block label per column, blocks numbered by first
appearance) column by column, in lexicographic order, carrying the columns
projected onto the current flat of the arrangement a.(c_i - c_j) = 0
(Zaslavsky 1975; Orlik-Terao 1992) as integer coordinates. A column whose
projection equals a block leader's is forced into that block; joining another
block cuts the flat by one hyperplane (one integer elimination step); a
prefix is dropped once two leaders' projections coincide. The complete
strings are exactly the coincidence patterns that some a != 0 realizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Container, Iterator, Mapping, Sequence

from .errors import (
    DuplicateColumnsError,
    InternalError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    UnavoidableError,
    ZeroDirectionError,
)
from .kernel import (
    AffineSubspace,
    RatMatrix,
    Vec,
    dot,
    generic_point,
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


def merge_columns(m: RatMatrix) -> tuple[RatMatrix, tuple[tuple[int, ...], ...]]:
    """Merge duplicate columns; returns the merged matrix and the groups of
    original column indices, in first-occurrence order."""
    groups: dict[Vec, list[int]] = {}
    for j, c in enumerate(m.columns()):
        groups.setdefault(c, []).append(j)
    merged = RatMatrix(tuple(tuple(c[i] for c in groups) for i in range(m.rows)))
    return merged, tuple(tuple(g) for g in groups.values())


# ---------------------------------------------------------------------------
# coincidence patterns


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

    Within-block equalities define a linear subspace; a deterministic generic
    point of it separates the blocks, unless some cross-block difference
    vanishes on all of it (generic_point raises UnavoidableError).
    """
    rows = len(cols[0])
    def diff(i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(a - b) for a, b in zip(cols[i], cols[j]))
    constraints = [diff(j, block[0]) for block in blocks for j in block[1:]]
    # with no equalities, a zero row gives the standard basis
    basis = nullspace(RatMatrix(tuple(constraints or [(Fraction(0),) * rows])))
    if not basis:
        return None  # only alpha = 0 satisfies the equalities
    leaders = [block[0] for block in blocks]
    cross = [diff(s, t) for i, s in enumerate(leaders) for t in leaders[i + 1:]]
    if not cross:
        return normalize_primitive(basis[0])
    try:
        alpha = generic_point(AffineSubspace((Fraction(0),) * rows, basis), cross)
    except UnavoidableError:
        return None  # the pattern forces two blocks to coincide
    return normalize_primitive(alpha)


def _restrict(coords: list[list[int]], f: Sequence[int]) -> list[list[int]]:
    """Coordinates on the hyperplane f.t = 0 (coords[q][j]: coordinate q of
    column j): eliminate t_p for the smallest nonzero |f_p|, scale by f_p and
    divide each coordinate by its gcd, which rescales one direction."""
    p = min((q for q, c in enumerate(f) if c), key=lambda q: abs(f[q]))
    fp, pivot_row = f[p], coords[p]
    out = []
    for fq, row in zip(f[:p] + f[p + 1:], coords[:p] + coords[p + 1:]):
        if fq:
            row = [fp * a - fq * b for a, b in zip(row, pivot_row)]
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
        out.append(row)
    return out


def _patterns(cols: Sequence[tuple[int, ...]],
              settled: Container[int] = ()) -> Iterator[tuple[int, ...]]:
    """The module doc's walk over the integer columns ``cols``. It skips a
    prefix when every block count it can reach is in ``settled``, which the
    caller may grow between strings."""
    n = len(cols)
    labels = [0]

    def walk(j, leaders, coords, points):
        if j == n:
            yield tuple(labels)
            return
        x = points[j]
        blocks, left = len(leaders), n - j - 1
        block_of = {points[i]: b for b, i in enumerate(leaders)}
        if x in block_of:
            labels.append(block_of[x])
            yield from walk(j + 1, leaders, coords, points)
            labels.pop()
            return
        # a cut of a flat of dimension 1 leaves only a = 0
        if len(coords) > 1 and any(
                b not in settled for b in range(blocks, blocks + left + 1)):
            for b, lead in enumerate(leaders):
                cut = _restrict(coords, [u - v for u, v in zip(x, points[lead])])
                cut_points = list(zip(*cut))
                if len({cut_points[i] for i in leaders}) == blocks:
                    labels.append(b)
                    yield from walk(j + 1, leaders, cut, cut_points)
                    labels.pop()
        if any(b not in settled for b in range(blocks + 1, blocks + left + 2)):
            labels.append(blocks)
            yield from walk(j + 1, leaders + [j], coords, points)
            labels.pop()

    # shifting every column by c_0 shifts every value by one constant
    coords = [[c[q] - cols[0][q] for c in cols] for q in range(len(cols[0]))]
    yield from walk(1, [0], coords, list(zip(*coords)))


def _first_pair(rgs: Sequence[int]) -> tuple[int, ...]:
    """First pair (i, j), i < j, of columns sharing a block of ``rgs``."""
    return min(((rgs.index(b), j) for j, b in enumerate(rgs) if rgs.index(b) < j),
               default=(len(rgs),))


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
    if len(set(m.columns())) != m.cols:
        raise DuplicateColumnsError(
            "duplicate columns; merge_columns() first (values on merged atoms agree)"
        )


def profile(m: RatMatrix) -> MultiplicityProfile:
    """Exact multiplicity profile {mu(alpha) : alpha != 0} with witnesses.

    Columns must be pairwise distinct (merge duplicates first), at most
    PROFILE_CAP of them. A count's witness is ``_feasible_blocks`` on one
    walked pattern with that many blocks: with three or more rows the
    lexicographically first, so the walk skips prefixes whose reachable
    counts all have one; with at most two rows the one whose first shared
    column pair (i, j) comes first, which keeps the witnesses of the pair
    census earlier versions ran there (golden odd-2 pins them). Those walks
    are small and unpruned: a proper two-row flat is a line.
    """
    _require_canonical(m)
    if m.cols > PROFILE_CAP:
        raise TooLargeError(
            f"{m.cols} columns exceeds the profile cap {PROFILE_CAP}; "
            "`limprof profile --sample` (sample_profile) gives an under-approximation"
        )
    cols = _integer_columns(m)
    by_pair = m.rows <= 2
    chosen: dict[int, tuple[int, ...]] = {}
    for rgs in _patterns(cols, () if by_pair else chosen):
        b = max(rgs) + 1
        if b not in chosen or by_pair and _first_pair(rgs) < _first_pair(chosen[b]):
            chosen[b] = rgs
    witnesses = {b: _feasible_blocks(cols, [[j for j, c in enumerate(rgs) if c == k]
                                            for k in range(b)])
                 for b, rgs in sorted(chosen.items())}
    if None in witnesses.values():
        raise InternalError("profile: a walked pattern has no witness")
    return MultiplicityProfile(tuple(witnesses), witnesses)


def sample_profile(m: RatMatrix, max_norm: int = 3,
                   extra: Sequence[Sequence] = ()) -> MultiplicityProfile:
    """Under-approximation of the profile by scanning an integer grid of
    coefficient rows (max-norm shells up to ``max_norm``) plus any ``extra``
    rows. Sampling can only miss counts, never invent them."""
    _require_canonical(m)
    witnesses: dict[int, Vec] = {}
    for a in chain(integer_tuples(m.rows, max_shell=max_norm), extra):
        a = vec(a)
        if not is_zero_vec(a) and (mu := multiplicity(m, a)) not in witnesses:
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
        # N == 1: a zero row, whose first nullspace vector is e_0
        zero = [(Fraction(0),) * m.rows]
        alpha = normalize_primitive(nullspace(RatMatrix(tuple(constraints or zero)))[0])
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
