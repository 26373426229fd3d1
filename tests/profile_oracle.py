"""Reference implementations of the multiplicity profile, for tests only.

These are the two algorithms ``limprof.engine.profile`` replaced, kept as
slow exact oracles, and the Fraction witness search they share:

- ``feasible_blocks`` is the engine's ``_feasible_blocks`` as it once was:
  column differences, the nullspace and the point search in Fractions.
  It reaches the kernel through this module's ``nullspace`` and
  ``generic_point``, so a test may swap in ``kernel_oracle``'s.
- ``profile_by_patterns`` enumerates every set partition of the columns
  (Bell(N) of them) and decides each with ``feasible_blocks``; the witness
  of a count is the lexicographically first feasible restricted growth
  string with that many blocks.
- ``profile_by_census`` (at most two rows) scans the column pairs: every
  nonzero direction either separates all columns or is proportional to the
  normal of some column difference. The witness of a count is the normal of
  the first pair that gives it, and a generic direction for count N.

``profile_oracle`` dispatches between them by row count, as ``profile``
once did, so its output must equal ``profile``'s, witnesses included.
"""

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from limprof.engine import MultiplicityProfile, multiplicity
from limprof.errors import UnavoidableError
from limprof.kernel import (
    AffineSubspace,
    RatMatrix,
    Vec,
    generic_point,
    normalize_primitive,
    nullspace,
    vec,
)

BELL_LIMIT = 8


def feasible_blocks(cols: Sequence[Vec], blocks: Sequence[Sequence[int]]) -> Vec | None:
    """Witness alpha != 0 whose coincidence pattern on the rational columns
    ``cols`` is exactly ``blocks``, or None when no such alpha exists."""
    rows = len(cols[0])

    def diff(i: int, j: int) -> Vec:
        return tuple(Fraction(a - b) for a, b in zip(cols[i], cols[j]))
    constraints = [diff(j, block[0]) for block in blocks for j in block[1:]]
    basis = nullspace(RatMatrix(tuple(constraints or [(Fraction(0),) * rows])))
    if not basis:
        return None
    leaders = [block[0] for block in blocks]
    cross = [diff(s, t) for i, s in enumerate(leaders) for t in leaders[i + 1:]]
    if not cross:
        return normalize_primitive(basis[0])
    try:
        alpha = generic_point(AffineSubspace((Fraction(0),) * rows, basis), cross)
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
