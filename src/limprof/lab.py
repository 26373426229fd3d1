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
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Callable, Iterable, Sequence

from .builders import value_ladder
from .errors import DegenerateError, EmptyInputError, RangeError, ShapeError
from .kernel import rat
from .rationals import unit_rational_pairs


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
class AtomRealization:
    """A partition of the naturals into infinitely many infinite atoms.

    dyadic-valuation: index m belongs to atom nu_2(m+1); atom j is the set
    {2^j * (2i+1) - 1 : i >= 0}. pairing: the dyadic atom index is unpaired
    into a double label (n, k), so doubly-indexed families get one infinite
    atom per label."""

    scheme: str

    def label(self, m: int):
        j = _atom(m)
        if self.scheme == "dyadic-valuation":
            return j
        return cantor_unpair(j)

    def rank(self, m: int) -> int:
        """Position of m within its atom: m = 2^j(2i+1) - 1 has rank i."""
        return (m + 1) >> (_atom(m) + 1)

    def members(self, label, count: int) -> list[int]:
        """First ``count`` indices of the labeled atom, for tests and demos."""
        if self.scheme == "dyadic-valuation":
            j = int(label)
        else:
            n, k = label
            j = (n + k) * (n + k + 1) // 2 + k
        return [(2**j) * (2 * i + 1) - 1 for i in range(count)]


def realize_atoms(scheme: str) -> AtomRealization:
    if scheme not in ("dyadic-valuation", "pairing"):
        raise ShapeError(f"unknown scheme {scheme!r}")
    return AtomRealization(scheme)


@dataclass(frozen=True)
class PrefixSequence:
    """Evaluable sequence prefix; value_at is a pure function of the index.

    level_walk(a, b), when given, lists the values over the indices in
    [a, b) with their multiplicities, as value_at would give them, without
    visiting each index. It yields (numerator, denominator, multiplicity)
    int triples; a pair need not be in lowest terms."""

    descriptor: str
    value_at: Callable[[int], Fraction]
    level_walk: Callable[[int, int], Iterable[tuple[int, int, int]]] | None = None

    def evaluate(self, n: int) -> list[Fraction]:
        return [self.value_at(m) for m in range(n)]

    def integer_levels(self, a: int, b: int) -> Iterable[tuple[int, int, int]]:
        """The values over the indices in [a, b) as (numerator, denominator,
        multiplicity) int triples with positive denominators and positive
        multiplicities; the multiplicities sum to b - a. A value may appear
        in more than one triple, and a pair need not be reduced. Without a
        level walk every index is its own level."""
        if not 0 <= a <= b:
            raise RangeError(f"need 0 <= a <= b, got [{a}, {b})")
        if self.level_walk is None:
            return ((v.numerator, v.denominator, 1) for v in map(self.value_at, range(a, b)))
        return self.level_walk(a, b)

    def levels(self, a: int, b: int) -> Iterable[tuple[Fraction, int]]:
        """The exact values over the indices in [a, b), each paired with a
        positive multiplicity; the multiplicities sum to b - a. A value may
        appear in more than one pair."""
        return ((Fraction(num, den), k) for num, den, k in self.integer_levels(a, b))


def _on_dyadic_atoms(descriptor: str, level: Callable[[int], Fraction]) -> PrefixSequence:
    """The sequence with value level(j) on all of atom j."""

    def level_walk(a: int, b: int):
        for j in range(b.bit_length()):
            count = _ranks_below(b, j) - _ranks_below(a, j)
            if count:
                v = level(j)
                yield v.numerator, v.denominator, count

    return PrefixSequence(descriptor, lambda m: level(_atom(m)), level_walk)


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
        return len(set(self.values))


def h_sequence(d: Sequence, q: Sequence, j_count: int) -> HSequenceReport:
    """First j_count exact level values plus a report of repeated values."""
    h = combo_values(d, q)
    values = tuple(h(j) for j in range(j_count))
    seen: dict[Fraction, list[int]] = {}
    for j, v in enumerate(values):
        seen.setdefault(v, []).append(j)
    repeats = tuple(
        (v, tuple(idx)) for v, idx in seen.items() if len(idx) > 1
    )
    return HSequenceReport(values, repeats)


def gen_rich(q) -> PrefixSequence:
    """Value q^j * r_i at the i-th index of atom j, where r is a fixed
    enumeration of the rationals in (0, 1): every scaled copy q^j * (0,1)
    fills in densely as the prefix grows. Its levels are the integer pairs
    (p^j a, s^j b) for q = p/s and r_i = a/b, taken without a gcd."""
    q = rat(q)
    if not 0 < q < 1:
        raise RangeError("need 0 < q < 1")
    p, s = q.numerator, q.denominator
    nums: list[int] = []  # r_i = nums[i] / dens[i]
    dens: list[int] = []
    pairs = unit_rational_pairs()

    def enumerate_to(count: int) -> None:
        for a, b in islice(pairs, max(0, count - len(nums))):
            nums.append(a)
            dens.append(b)

    def value_at(m: int) -> Fraction:
        j = _atom(m)
        i = (m + 1) >> (j + 1)
        enumerate_to(i + 1)
        return Fraction(p**j * nums[i], s**j * dens[i])

    def level_walk(lo: int, hi: int):
        for j in range(hi.bit_length()):
            first, stop = _ranks_below(lo, j), _ranks_below(hi, j)
            enumerate_to(stop)
            yield from zip(map((p**j).__mul__, nums[first:stop]),
                           map((s**j).__mul__, dens[first:stop]), repeat(1))

    return PrefixSequence(f"rich(q={q})", value_at, level_walk)


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


def _weighted_mean(group: list[float], counts: dict[float, int]) -> tuple[float, int]:
    """The correctly rounded mean of the floats v, each taken counts[v]
    times, and the total count. Every float is an integer over a power of
    two, so the sum is exact over the largest of those denominators. The
    mean of one value is that value."""
    if len(group) == 1:
        v = group[0]
        return v, counts[v]
    ratios = [v.as_integer_ratio() for v in group]
    den = max(d for _, d in ratios)
    num = sum(n * (den // d) * counts[v] for v, (n, d) in zip(group, ratios))
    total = sum(counts[v] for v in group)
    return num / (den * total), total


def estimate_clusters(x: PrefixSequence, n: int, tail_fraction: float = 0.5,
                      epsilon: float | None = None) -> ClusterEstimate:
    """Merge the tail values of a prefix at radius epsilon.

    The tail's exact levels (x.integer_levels) are tallied by float value,
    sorted, and split exactly at gaps > epsilon (single linkage), so the
    outcome is deterministic. A cluster's support is the sum of its
    multiplicities and its center is the correctly rounded mean of its float
    values, weighted by multiplicity. Both depend only on the multiset of
    tail values, not on how x groups them into levels. The default epsilon
    is 1e-6 relative to the tail's sup value."""
    if n <= 0:
        raise EmptyInputError("need a nonempty prefix")
    if not 0 < tail_fraction <= 1:
        raise RangeError("tail_fraction must be in (0, 1]")
    if epsilon is not None and not 0 <= epsilon < math.inf:
        raise RangeError("epsilon must be finite and nonnegative")
    tail_len = min(n, max(1, math.ceil(n * tail_fraction)))
    # int true division is correctly rounded, so num / den is the float of
    # the exact value whether or not the pair is reduced.
    counts: dict[float, int] = {}
    for num, den, k in x.integer_levels(n - tail_len, n):
        f = num / den
        counts[f] = counts.get(f, 0) + k
    tail = sorted(counts)
    if epsilon is None:
        sup = max(abs(tail[0]), abs(tail[-1]))
        epsilon = 1e-6 * sup if sup > 0 else 1e-6
    centers = []
    start = 0
    for i in range(1, len(tail) + 1):
        if i == len(tail) or tail[i] - tail[i - 1] > epsilon:
            centers.append(_weighted_mean(tail[start:i], counts))
            start = i
    return ClusterEstimate(tuple(centers), epsilon, float(tail_fraction))
