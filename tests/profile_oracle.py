"""Reference implementations of the multiplicity profile, collapse and
interval refutation, for tests only.

These are the algorithms ``limprof.engine`` replaced, kept as slow exact
oracles, and the Fraction witness search they share:

- ``feasible_blocks`` is the engine's ``_feasible_blocks`` as it once was:
  column differences, the nullspace and the point search in Fractions,
  through ``kernel_oracle``'s Fraction elimination and point walk.
- ``profile_by_patterns`` enumerates every set partition of the columns
  (Bell(N) of them) and decides each with ``feasible_blocks``; the witness
  of a count is the lexicographically first feasible restricted growth
  string with that many blocks.
- ``profile_by_census`` (at most two rows) scans the column pairs, one
  ``multiplicity`` per pair: every nonzero direction either separates all
  columns or is proportional to the normal of some column difference. The
  witness of a count is the normal of the first pair that gives it, and a
  generic direction for count N. ``profile`` reads the same counts from
  ``geometry.direction_census`` in one pass.
- ``collapse_oracle`` and ``refute_oracle`` are ``collapse`` and
  ``refute_interval`` as they once were: the chosen columns' transpose
  solved against the all-ones target (or its first nullspace vector), and
  the first column differences' nullspace, all in Fractions.

``profile_oracle`` dispatches between the two profiles by row count, as
``profile`` does, so its output must equal ``profile``'s, witnesses
included.
"""

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from kernel_oracle import (
    RationalSpace,
    dot,
    generic_point_oracle,
    nullspace_oracle,
    rank_oracle,
    solve_affine_oracle,
)
from limprof.engine import MultiplicityProfile, RefutationWitness, multiplicity
from limprof.errors import (
    DuplicateColumnsError,
    ShapeError,
    TooFewRowsError,
    UnavoidableError,
)
from limprof.kernel import RatMatrix, Vec, normalize_primitive, vec

BELL_LIMIT = 8


def feasible_blocks(cols: Sequence[Vec], blocks: Sequence[Sequence[int]]) -> Vec | None:
    """Witness alpha != 0 whose coincidence pattern on the rational columns
    ``cols`` is exactly ``blocks``, or None when no such alpha exists."""
    rows = len(cols[0])

    def diff(i: int, j: int) -> Vec:
        return tuple(Fraction(a - b) for a, b in zip(cols[i], cols[j]))
    constraints = [diff(j, block[0]) for block in blocks for j in block[1:]]
    basis = nullspace_oracle(RatMatrix(tuple(constraints or [(Fraction(0),) * rows])))
    if not basis:
        return None
    leaders = [block[0] for block in blocks]
    cross = [diff(s, t) for i, s in enumerate(leaders) for t in leaders[i + 1:]]
    if not cross:
        return normalize_primitive(basis[0])
    try:
        alpha = generic_point_oracle(RationalSpace((Fraction(0),) * rows, basis), cross)
    except UnavoidableError:
        return None
    return normalize_primitive(alpha)


def profile_from_json(data: Mapping) -> MultiplicityProfile:
    """Inverse of ``MultiplicityProfile.to_json``."""
    achieved = tuple(int(k) for k in data["achieved"])
    witnesses = {int(k): vec(w) for k, w in data["witnesses"].items()}
    return MultiplicityProfile(achieved, witnesses)


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


def profile_by_patterns(m: RatMatrix) -> MultiplicityProfile:
    if m.cols > BELL_LIMIT:
        raise ValueError(f"Bell enumeration oracle is for N <= {BELL_LIMIT}")
    witnesses: dict[int, Vec] = {}
    cols = m.columns()
    for assignment in set_partitions(m.cols):
        b = max(assignment) + 1
        if b in witnesses:
            continue
        byblock: dict[int, list[int]] = {}
        for col, blk in enumerate(assignment):
            byblock.setdefault(blk, []).append(col)
        blocks = sorted((tuple(v) for v in byblock.values()), key=lambda x: x[0])
        w = feasible_blocks(cols, blocks)
        if w is not None:
            witnesses[b] = w
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


def profile_by_census(m: RatMatrix) -> MultiplicityProfile:
    if m.rows > 2:
        raise ValueError("the direction census is exact for at most two rows")
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
        singletons = [(j,) for j in range(n)]
        witnesses[n] = feasible_blocks(cols, singletons)
    return MultiplicityProfile(tuple(sorted(witnesses)), witnesses)


def profile_oracle(m: RatMatrix) -> MultiplicityProfile:
    return profile_by_census(m) if m.rows <= 2 else profile_by_patterns(m)


def collapse_oracle(m: RatMatrix, cols: Sequence[int]) -> tuple[Vec, Fraction]:
    chosen = sorted(set(int(c) for c in cols))
    if len(chosen) != m.rows:
        raise ShapeError(f"need exactly {m.rows} distinct column indices")
    if chosen[0] < 0 or chosen[-1] >= m.cols:
        raise ShapeError("column index out of range")
    transpose = RatMatrix(tuple(m.col(j) for j in chosen))
    if rank_oracle(transpose) == m.rows:
        alpha = solve_affine_oracle(transpose, [Fraction(1)] * m.rows).point
    else:
        alpha = nullspace_oracle(transpose)[0]
    alpha = normalize_primitive(alpha)
    return alpha, dot(alpha, m.col(chosen[0]))


def refute_oracle(m: RatMatrix, n: int, d: int) -> RefutationWitness:
    if n < 2 or d < 0:
        raise ShapeError("need n >= 2 and d >= 0")
    if m.rows < d + 2:
        raise TooFewRowsError(f"need at least d+2 = {d + 2} rows, got {m.rows}")
    cols = m.columns()
    if len(set(cols)) != len(cols):
        raise DuplicateColumnsError("duplicate columns")
    if m.cols > n + d:
        alpha = feasible_blocks(cols, [(j,) for j in range(m.cols)])
    else:
        k = min(d + 2, m.cols)
        constraints = [tuple(a - b for a, b in zip(cols[j], cols[0])) for j in range(1, k)]
        zero = [(Fraction(0),) * m.rows]
        alpha = normalize_primitive(nullspace_oracle(RatMatrix(tuple(constraints or zero)))[0])
    return RefutationWitness(alpha, len({dot(alpha, c) for c in cols}), n, d)
