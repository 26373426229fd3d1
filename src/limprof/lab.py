"""Concrete index-level realizations of the symbolic constructions.

Symbolic atoms become explicit infinite subsets of the naturals, step
sequences become evaluable prefixes, and accumulation points become numeric
clusters in a prefix tail. Generators are pure functions of the index, so a
longer prefix always extends a shorter one verbatim.

Every generator lays its values on the dyadic atoms: index m lies in atom
j = nu_2(m+1) at rank i, where m + 1 = 2^j (2i + 1). The indices m < t of
atom j are exactly its ranks 0 .. _ranks_below(t, j) - 1, so an index range
[a, b) meets each atom in one run of consecutive ranks, and a generator can
list the values of a range atom by atom instead of index by index.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, attrgetter, le, sub, truediv
from typing import Callable, Iterable, Mapping, Sequence

from .builders import value_ladder
from .errors import DegenerateError, EmptyInputError, RangeError, ShapeError
from .kernel import rat
from .rationals import UnitRationalTable
from .sequences import exact_keys

# (numerators, denominators, multiplicity): the values numerators[i] /
# denominators[i], each taken multiplicity times.
Block = tuple[Iterable[int], Iterable[int], int]
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _atom(m: int) -> int:
    """The dyadic atom nu_2(m+1) of index m."""
    if m < 0:
        raise RangeError(f"index {m} is negative")
    t = m + 1
    return (t & -t).bit_length() - 1


def _ranks_below(t: int, j: int) -> int:
    """How many indices m < t lie in atom j: the odd numbers up to t >> j."""
    return ((t >> j) + 1) >> 1


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of (n, k) -> (n+k)(n+k+1)/2 + k; unpair(0) == (0, 0)."""
    w = (math.isqrt(8 * z + 1) - 1) // 2
    k = z - w * (w + 1) // 2
    return w - k, k


@dataclass(frozen=True)
class PrefixSequence:
    """Evaluable sequence prefix; value_at is a pure function of the index.

    blocks(a, b) lists the values over the indices in [a, b) in blocks of
    ints (numerators, denominators, multiplicity): the values
    numerators[i] / denominators[i], each taken multiplicity times. The
    denominators are positive, the multiplicities positive, and a pair need
    not be in lowest terms. The block walk, when given, is what blocks(a, b)
    returns for a valid range; the generators walk the dyadic atoms in
    ascending order, one block per atom the range meets, each atom's indices
    in rank order. Without a walk there is one block of value_at per index,
    in index order."""

    descriptor: str
    value_at: Callable[[int], Fraction]
    block_walk: Callable[[int, int], Iterable[Block]] | None = None

    def blocks(self, a: int, b: int) -> Iterable[Block]:
        if not 0 <= a <= b:
            raise RangeError(f"need 0 <= a <= b, got [{a}, {b})")
        if self.block_walk is None:
            values = list(map(self.value_at, range(a, b)))
            return ((list(map(_numerator, values)), list(map(_denominator, values)), 1),)
        return self.block_walk(a, b)


def _on_dyadic_atoms(descriptor: str, level: Callable[[int], Fraction]) -> PrefixSequence:
    """The sequence with value level(j) on all of atom j: one one-value
    block per atom, its multiplicity the atom's count in the range."""

    def block_walk(a: int, b: int):
        for j in range(b.bit_length()):
            k = _ranks_below(b, j) - _ranks_below(a, j)
            if k:
                v = level(j)
                yield (v.numerator,), (v.denominator,), k

    return PrefixSequence(descriptor, lambda m: level(_atom(m)), block_walk)


def gen_fq(q) -> PrefixSequence:
    """Value q^j on atom j: one sequence whose accumulation points are all
    powers of q together with their limit 0."""
    q = rat(q)
    if not 0 < q < 1:
        raise RangeError("need 0 < q < 1")
    return _on_dyadic_atoms(f"fq(q={q})", combo_values([1], [q]))


def combo_values(d: Sequence, q: Sequence) -> Callable[[int], Fraction]:
    """h_j = sum_t d_t * q_t^j with exact arithmetic and memoized levels."""
    ds = [rat(x) for x in d]
    qs = [rat(x) for x in q]
    if len(ds) != len(qs) or not ds:
        raise ShapeError("d and q must have equal nonzero length")
    if len(set(qs)) != len(qs):
        raise DegenerateError("ratios q must be pairwise distinct")
    for x in qs:
        if not 0 < x < 1:
            raise RangeError("need 0 < q < 1 for every ratio")
    # Term t at level j is dn_t p_t^j / (dd_t s_t^j) with d_t = dn_t/dd_t
    # and q_t = p_t/s_t. Levels are built in ascending j from the running
    # powers (p_t^j, s_t^j), summed over one common denominator.
    steps = [(x.numerator, x.denominator) for x in qs]
    terms = [(x.numerator, x.denominator) for x in ds]  # (dn_t p_t^j, dd_t s_t^j)
    levels: list[Fraction] = []

    def h(j: int) -> Fraction:
        nonlocal terms
        while len(levels) <= j:
            num, den = 0, 1
            for tn, td in terms:
                num, den = num * td + tn * den, den * td
            levels.append(Fraction(num, den))
            terms = [(tn * p, td * s) for (tn, td), (p, s) in zip(terms, steps)]
        return levels[j]

    return h


def gen_combo(d: Sequence, q: Sequence) -> PrefixSequence:
    """Value h_j = sum_t d_t q_t^j on atom j. Distinct ratios in (0, 1) give
    infinitely many distinct h_j, so prefixes keep sprouting new clusters."""
    return _on_dyadic_atoms(
        f"combo(d={[str(rat(x)) for x in d]},q={[str(rat(x)) for x in q]})",
        combo_values(d, q),
    )


@dataclass(frozen=True)
class HSequenceReport:
    values: tuple[Fraction, ...]
    repeats: tuple[tuple[Fraction, tuple[int, ...]], ...]

    @property
    def distinct_count(self) -> int:
        return len(set(exact_keys(self.values)))


def h_sequence(d: Sequence, q: Sequence, j_count: int) -> HSequenceReport:
    """First j_count exact level values plus a report of repeated values."""
    h = combo_values(d, q)
    values = tuple(h(j) for j in range(j_count))
    seen: dict[tuple[int, int], list[int]] = {}
    for j, key in enumerate(exact_keys(values)):
        seen.setdefault(key, []).append(j)
    repeats = tuple(
        (values[idx[0]], tuple(idx)) for idx in seen.values() if len(idx) > 1
    )
    return HSequenceReport(values, repeats)


def gen_rich(q) -> PrefixSequence:
    """Value q^j * r_i at the i-th index of atom j, where r_i = a_i/b_i is
    the i-th unit rational of the Calkin-Wilf tree: every scaled copy
    q^j * (0,1) fills in densely as the prefix grows. The table of r grows
    a tree level at a time, exactly as far as the indices asked for need. The
    block of atom j holds the integer pairs (p^j a_i, s^j b_i) for q = p/s
    over the atom's ranks i in the range, taken without a gcd."""
    q = rat(q)
    if not 0 < q < 1:
        raise RangeError("need 0 < q < 1")
    p, s = q.numerator, q.denominator
    table = UnitRationalTable()
    nums, dens = table.nums, table.dens  # r_i = nums[i] / dens[i]

    def value_at(m: int) -> Fraction:
        j = _atom(m)
        i = (m + 1) >> (j + 1)
        table.extend_to(i + 1)
        return Fraction(p**j * nums[i], s**j * dens[i])

    def block_walk(lo: int, hi: int):
        for j in range(hi.bit_length()):
            first, stop = _ranks_below(lo, j), _ranks_below(hi, j)
            if first < stop:
                table.extend_to(stop)
                yield (map((p**j).__mul__, nums[first:stop]),
                       map((s**j).__mul__, dens[first:stop]), 1)

    return PrefixSequence(f"rich(q={q})", value_at, block_walk)


def gen_spaceable(alpha: Sequence, n_max: int, k_max: int,
                  flavor: str = "dyadic") -> PrefixSequence:
    """Concrete combination of the disjointly supported rows: index m in
    block (r, t) carries alpha_r * a_t inside the truncation, 0 outside.
    Block (r, t) is the dyadic atom that cantor_unpair sends to (r, t)."""
    coeffs = [rat(a) for a in alpha]
    if len(coeffs) > n_max:
        raise ShapeError("more coefficients than rows")
    ladder = value_ladder(k_max, flavor)

    @functools.cache
    def level(j: int) -> Fraction:
        n, k = cantor_unpair(j)
        if n < len(coeffs) and k <= k_max:
            return coeffs[n] * ladder[k]
        return Fraction(0)

    return _on_dyadic_atoms(
        f"spaceable(alpha={[str(c) for c in coeffs]},n_max={n_max},"
        f"k_max={k_max},{flavor})",
        level,
    )


@dataclass(frozen=True)
class ClusterEstimate:
    """Single-linkage clusters of a prefix tail: sorted centers with their
    support counts. Centers are pairwise more than epsilon apart and counts
    sum to the tail length."""

    centers: tuple[tuple[float, int], ...]
    epsilon: float
    tail_fraction: float

    def to_json(self) -> dict:
        return {
            "centers": [[c, k] for c, k in self.centers],
            "epsilon": self.epsilon,
            "tail": self.tail_fraction,
        }


def _weighted_mean(group: Mapping[float, int]) -> tuple[float, int]:
    """The correctly rounded mean of the floats v of ``group``, each taken
    group[v] times, and the total count. Every float is an integer over a
    power of two, so the sum is exact over the largest of those
    denominators. The mean of one value is that value."""
    if len(group) == 1:
        (v, k), = group.items()
        return v, k
    ratios = [v.as_integer_ratio() for v in group]
    den = max(d for _, d in ratios)
    num = sum(n * (den // d) * k for (n, d), k in zip(ratios, group.values()))
    total = sum(group.values())
    return num / (den * total), total


def estimate_clusters(x: PrefixSequence, n: int, tail_fraction: float = 0.5,
                      epsilon: float | None = None) -> ClusterEstimate:
    """Merge the tail values of a prefix at radius epsilon.

    The floats of the tail's blocks (x.blocks) are sorted and split exactly
    at gaps > epsilon (single linkage), so the outcome is deterministic. A
    cluster's support is the number of tail indices in it and its center is
    the correctly rounded mean of its values' floats, weighted by
    multiplicity; a cluster of one float value has that value as its
    center. Both depend only on the multiset of tail values, not on how x
    groups them into blocks. The default epsilon is 1e-6 relative to the
    tail's sup value."""
    if n <= 0:
        raise EmptyInputError("need a nonempty prefix")
    if not 0 < tail_fraction <= 1:
        raise RangeError("tail_fraction must be in (0, 1]")
    if epsilon is not None and not 0 <= epsilon < math.inf:
        raise RangeError("epsilon must be finite and nonnegative")
    tail_len = min(n, max(1, math.ceil(n * tail_fraction)))
    # int true division is correctly rounded, so num / den is the float of
    # the exact value whether or not the pair is reduced. ``tail`` holds
    # each block's floats once; ``heavy`` the multiplicity beyond that copy
    # of the floats of blocks with multiplicity k > 1.
    tail: list[float] = []
    heavy: dict[float, int] = {}
    for nums, dens, k in x.blocks(n - tail_len, n):
        floats = list(map(truediv, nums, dens))
        tail += floats
        if k > 1:
            for f in floats:
                heavy[f] = heavy.get(f, 0) + k - 1
    tail.sort()
    if epsilon is None:
        sup = max(abs(tail[0]), abs(tail[-1]))
        epsilon = 1e-6 * sup if sup > 0 else 1e-6
    # Merged runs [lo, hi) of tail positions: tail[i - 1] and tail[i] merge
    # when their gap is at most epsilon, as equal floats always do. Every
    # float outside the runs is a cluster of one index, plus its heavy part.
    runs: list[list[int]] = []
    for i in compress(count(1), map(le, map(sub, tail[1:], tail), repeat(epsilon))):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])
    centers: list[tuple[float, int]] = []
    start = 0
    for lo, hi in runs + [[len(tail), len(tail)]]:
        singles = tail[start:lo]
        if heavy:
            centers += zip(singles, map(add, map(heavy.get, singles, repeat(0)), repeat(1)))
        else:
            centers += zip(singles, repeat(1))
        if lo < hi:
            group = Counter(tail[lo:hi])
            for v in heavy.keys() & group.keys():
                group[v] += heavy[v]
            centers.append(_weighted_mean(group))
        start = hi
    return ClusterEstimate(tuple(centers), epsilon, float(tail_fraction))
