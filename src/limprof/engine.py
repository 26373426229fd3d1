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
prefix is dropped once two leaders' projections coincide. On a flat of
dimension 1 no cut is left, so the rest of the string is read off in one
pass. The complete strings are exactly the coincidence patterns that some
a != 0 realizes. The walk runs from three rows up. Two-row columns are
plane points, and their profile is N together with the class count of each
direction through two of them, which ``geometry.direction_census`` counts
in one pass; one row gives only N.

Every entry point scales M once, by ``kernel.integer_vectors`` on its
columns (M times one common denominator), and the witness search,
``collapse``, ``refute_interval`` and ``multiplicity`` run on those integer
columns: a witness comes from integer column differences, the kernel's
integer ``nullspace`` and ``solve_affine``, and ``generic_point`` on the
block leaders' columns, and only the primitive witness becomes Fractions;
a count is the number of values of an integer multiple of a on them. A
common positive multiplier changes no coincidence, so every witness and
count equals the rational one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul, sub
from typing import Mapping, Sequence

from .errors import (
    DuplicateColumnsError,
    InternalError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    UnavoidableError,
    ZeroDirectionError,
)
from .geometry import direction_census
from .kernel import (
    AffineSubspace,
    RatMatrix,
    Vec,
    generic_point,
    integer_multiple,
    integer_tuples,
    integer_vectors,
    json_object,
    json_rat,
    json_value,
    normalize_primitive,
    nullspace,
    rat_str,
    solve_affine,
    vec,
)
from .sequences import StepSequence

PROFILE_CAP = 12
# sample_profile's grid-walk tuples x columns, counting each max-norm shell s
# as its whole cube of (2s+1)^rows tuples. The walk visits only the tuples of
# max-norm s there, so the count is an upper bound on the tuples walked. The
# cost of a tuple grows with the rows, so one column is the slowest shape.
# At this cap the slowest admitted grids, 6 x 1 at max-norm 3 and 10 x 2 at
# max-norm 1, take 0.12-0.13 s and 0.10-0.12 s in-process on the int-tuple
# walk (Python 3.11, 2 CPUs, best of 5 on three seeded matrices with
# entries in [-50, 50]; {-1, 0, 1} 0.09-0.12 s). 11 x 1 at max-norm 1
# (177,148 tuples) takes about 0.35 s and is refused.
GRID_CAP = 150_000


# ---------------------------------------------------------------------------
# value matrices


def matrix_to_json(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[rat_str(x) for x in row] for row in m.entries],
    }


def matrix_from_json(data) -> RatMatrix:
    """The matrix of ``matrix_to_json``: an object whose "entries" is a list
    of row lists of rationals and whose "rows" and "cols", when present, are
    the integer counts of those rows and columns."""
    entries, = json_object(data, ("entries",), exact=False)
    mat = RatMatrix(tuple(tuple(map(json_rat, json_value(row, list)))
                          for row in json_value(entries, list)))
    for key, size in (("rows", mat.rows), ("cols", mat.cols)):
        if key in data and json_value(data[key], int) != size:
            raise ShapeError(f"declared {key} {data[key]!r} does not match the entries")
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
    """Number of distinct entries of alpha^T M; alpha must be nonzero.

    Counted on integer multiples of alpha and of M's columns, which scale
    every entry by one positive constant."""
    return _multiplicity(integer_vectors(m.columns()), alpha)


def _multiplicity(cols: Sequence[tuple[int, ...]], alpha: Sequence) -> int:
    """``multiplicity`` on the integer columns ``cols`` of M
    (``integer_vectors``), for callers that already hold them."""
    a = integer_multiple(vec(alpha))
    if len(a) != len(cols[0]):
        raise ShapeError("alpha length must equal the row count")
    if not any(a):
        raise ZeroDirectionError("alpha must be nonzero")
    return _distinct(cols, a)


def _distinct(cols: Sequence[tuple[int, ...]], a: Sequence[int]) -> int:
    """Distinct entries of a^T M on integer columns and an integer ``a``."""
    return len({sum(map(mul, a, c)) for c in cols})


def _feasible_blocks(
    cols: Sequence[tuple[int, ...]], blocks: Sequence[Sequence[int]]
) -> Vec | None:
    """Witness alpha != 0 whose coincidence pattern on the integer columns
    ``cols`` is exactly ``blocks``, or None when no such alpha exists.

    Within-block equalities define a linear subspace; a deterministic generic
    point of it gives the block leaders distinct values, unless two leaders
    agree on all of it (generic_point raises UnavoidableError). The search
    runs on integer differences and an integer basis, and only the
    primitive witness becomes Fractions.
    """
    rows = len(cols[0])
    constraints = [tuple(map(sub, cols[j], cols[block[0]]))
                   for block in blocks for j in block[1:]]
    # with no equalities, a zero row gives the standard basis
    basis = nullspace(constraints or [(0,) * rows])
    if not basis:
        return None  # only alpha = 0 satisfies the equalities
    if len(blocks) == 1:
        return normalize_primitive(basis[0])
    try:
        alpha = generic_point(AffineSubspace((0,) * rows, tuple(basis)),
                              [cols[block[0]] for block in blocks])
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


def _patterns(cols: Sequence[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """The module doc's walk over the integer columns ``cols``, and the
    lexicographically first pattern it reaches for each block count. It
    skips a prefix when every block count it can reach has its pattern."""
    n = len(cols)
    labels = [0]
    chosen: dict[int, tuple[int, ...]] = {}

    def open_counts(low: int, high: int) -> bool:
        return any(b not in chosen for b in range(low, high + 1))

    def walk(j, leaders, coords, points):
        block_of = {points[i]: b for b, i in enumerate(leaders)}
        if len(coords) == 1:
            # a cut of a flat of dimension 1 leaves only a = 0, so every
            # column joins the block of its point or opens a new one
            rest = [block_of.setdefault(x, len(block_of)) for x in points[j:]]
            chosen.setdefault(len(block_of), (*labels, *rest))
            return
        start = len(labels)
        while j < n and points[j] in block_of:
            labels.append(block_of[points[j]])
            j += 1
        blocks, left = len(leaders), n - j - 1
        if j == n:
            chosen.setdefault(blocks, tuple(labels))
        else:
            x = points[j]
            if open_counts(blocks, blocks + left):
                for b, lead in enumerate(leaders):
                    cut = _restrict(coords, [u - v for u, v in zip(x, points[lead])])
                    cut_points = list(zip(*cut))
                    if len({cut_points[i] for i in leaders}) == blocks:
                        labels.append(b)
                        walk(j + 1, leaders, cut, cut_points)
                        labels.pop()
            if open_counts(blocks + 1, blocks + left + 1):
                labels.append(blocks)
                walk(j + 1, leaders + [j], coords, points)
                labels.pop()
        del labels[start:]

    # shifting every column by c_0 shifts every value by one constant
    coords = [[c[q] - cols[0][q] for c in cols] for q in range(len(cols[0]))]
    walk(1, [0], coords, list(zip(*coords)))
    return chosen


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


def _canonical_columns(m: RatMatrix) -> list[tuple[int, ...]]:
    """M's integer columns (``integer_vectors``), which must be pairwise
    distinct."""
    cols = integer_vectors(m.columns())
    if len(set(cols)) != len(cols):
        raise DuplicateColumnsError(
            "duplicate columns; merge_columns() first (values on merged atoms agree)"
        )
    return cols


def profile(m: RatMatrix) -> MultiplicityProfile:
    """Exact multiplicity profile {mu(alpha) : alpha != 0} with witnesses.

    Columns must be pairwise distinct (merge duplicates first), at most
    PROFILE_CAP of them. With three or more rows a count's witness is
    ``_feasible_blocks`` on the lexicographically first walked pattern with
    that many blocks. With two rows the columns are plane points, and a
    nonzero alpha either separates them all or is normal to a direction
    through two of them: each count below N is read from
    ``geometry.direction_census``, and its witness is the primitive normal
    of the first direction in the census with that count (golden odd-2 pins
    them). With one row every alpha separates the columns. The count N's
    witness is ``_feasible_blocks`` on singletons.
    """
    if m.cols > PROFILE_CAP:
        raise TooLargeError(
            f"{m.cols} columns exceeds the profile cap {PROFILE_CAP}; "
            "`limprof profile --sample` (sample_profile) gives an under-approximation"
        )
    cols = _canonical_columns(m)
    if m.rows > 2:
        witnesses = {b: _feasible_blocks(cols, [[j for j, c in enumerate(rgs) if c == k]
                                                for k in range(b)])
                     for b, rgs in _patterns(cols).items()}
    else:
        witnesses = {}
        for (a, b), c in (direction_census(cols) if m.rows == 2 else {}).items():
            if c not in witnesses:
                witnesses[c] = normalize_primitive((b, -a))
        witnesses[m.cols] = _feasible_blocks(cols, [(j,) for j in range(m.cols)])
    if None in witnesses.values():
        raise InternalError("profile: a pattern has no witness")
    witnesses = dict(sorted(witnesses.items()))
    return MultiplicityProfile(tuple(witnesses), witnesses)


def sample_profile(m: RatMatrix, max_norm: int = 3,
                   extra: Sequence[Sequence] = ()) -> MultiplicityProfile:
    """Under-approximation of the profile by scanning an integer grid of
    coefficient rows (max-norm shells up to ``max_norm``) plus any ``extra``
    rows. Sampling can only miss counts, never invent them. The cap counts
    each shell s as a cube of (2s+1)^rows tuples, an upper bound on the
    tuples walked; past GRID_CAP counted tuples x columns it raises
    TooLargeError before any tuple."""
    walked = 1
    for s in range(1, max_norm + 1):  # no power of a huge row count
        walked += (2 * s + 1) ** min(m.rows, GRID_CAP.bit_length())
        if walked * m.cols > GRID_CAP:
            raise TooLargeError(
                f"the max-norm grid on a {m.rows} x {m.cols} matrix exceeds "
                f"the sampling cap of {GRID_CAP} tuples x columns"
            )
    cols = _canonical_columns(m)
    # grid tuples are ints already; only the extra rows are scaled
    grid = ((a, _distinct(cols, a))
            for a in integer_tuples(m.rows, max_shell=max_norm) if any(a))
    rows = ((a, _multiplicity(cols, a)) for a in map(vec, extra) if any(a))
    witnesses: dict[int, Vec] = {}
    for a, mu in chain(grid, rows):
        if mu not in witnesses:
            witnesses[mu] = normalize_primitive(a)
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


# ---------------------------------------------------------------------------
# collapse and interval refutation


def collapse(m: RatMatrix, cols: Sequence[int]) -> tuple[Vec, Fraction]:
    """Nonzero alpha making a^T M constant on the chosen m.rows columns.

    When the chosen columns fix alpha by c.alpha = 1 for each of them, take
    that alpha (common value 1 before normalization); otherwise take the
    first nullspace vector of the chosen columns, common value 0. Both are
    found on the integer columns. Returns (alpha, gamma) with alpha
    integer-primitive and gamma recomputed after normalization.
    """
    chosen = sorted(set(int(c) for c in cols))
    if len(chosen) != m.rows:
        raise ShapeError(f"need exactly {m.rows} distinct column indices")
    if chosen[0] < 0 or chosen[-1] >= m.cols:
        raise ShapeError("column index out of range")
    int_cols = integer_vectors(m.columns())
    rows = [int_cols[j] for j in chosen]
    sol = solve_affine(rows, [1] * m.rows)
    alpha = sol.point if sol is not None and not sol.basis else nullspace(rows)[0]
    alpha = normalize_primitive(alpha)
    gamma = sum(map(mul, alpha, m.col(chosen[0])), Fraction(0))
    if _multiplicity(int_cols, alpha) > m.cols - m.rows + 1:
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
    (mu = N > n+d): the blocks are N singletons. Otherwise the one block of
    the first min(d+2, N) columns costs at most d+1 linear conditions on at
    least d+2 unknowns, so a nonzero alpha exists with mu <= N-d-1 <= n-1.
    """
    if n < 2 or d < 0:
        raise ShapeError("need n >= 2 and d >= 0")
    if m.rows < d + 2:
        raise TooFewRowsError(f"need at least d+2 = {d + 2} rows, got {m.rows}")
    int_cols = _canonical_columns(m)
    if m.cols > n + d:
        blocks = [(j,) for j in range(m.cols)]
    else:
        blocks = [range(min(d + 2, m.cols))]
    alpha = _feasible_blocks(int_cols, blocks)
    if alpha is None:
        raise InternalError("refute_interval: the chosen blocks admit no witness")
    w = RefutationWitness(alpha, _multiplicity(int_cols, alpha), n, d)
    if not w.escapes:
        raise InternalError(f"refute_interval: witness count {w.multiplicity} "
                            f"lies inside [{n}, {n + d}]")
    return w


# ---------------------------------------------------------------------------
# separation


def separation_radius(x: StepSequence) -> Fraction | None:
    """Half the minimal gap between accumulation points; None (no constraint)
    for a single-atom sequence. Perturbations below this radius cannot merge
    accumulation points."""
    vals = sorted(x.values)
    if len(vals) == 1:
        return None
    best = min(b - a for a, b in zip(vals, vals[1:]))
    return best / 2
