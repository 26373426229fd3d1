"""Concrete index-level realizations of the symbolic constructions.

Symbolic atoms become explicit infinite subsets of the naturals, step
sequences become evaluable prefixes, and accumulation points become numeric
clusters in a prefix tail. Generators are pure functions of the index, so a
longer prefix always extends a shorter one verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .builders import value_ladder
from .errors import DegenerateError, EmptyInputError, RangeError, ShapeError
from .kernel import rat
from .rationals import unit_rationals


def _dyadic_valuation(t: int) -> int:
    v = 0
    while t % 2 == 0:
        t //= 2
        v += 1
    return v


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
        j = _dyadic_valuation(m + 1)
        if self.scheme == "dyadic-valuation":
            return j
        return cantor_unpair(j)

    def rank(self, m: int) -> int:
        """Position of m within its atom: m = 2^j(2i+1) - 1 has rank i."""
        j = _dyadic_valuation(m + 1)
        return (((m + 1) >> j) - 1) >> 1

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
    """Evaluable sequence prefix; value_at is a pure function of the index."""

    descriptor: str
    value_at: Callable[[int], Fraction]

    def evaluate(self, n: int) -> list[Fraction]:
        return [self.value_at(m) for m in range(n)]


# The single-index generators put level j on dyadic atom j.
_DYADIC = AtomRealization("dyadic-valuation")


def gen_fq(q) -> PrefixSequence:
    """Value q^j on atom j: one sequence whose accumulation points are all
    powers of q together with their limit 0."""
    q = rat(q)
    if not 0 < q < 1:
        raise RangeError("need 0 < q < 1")
    cache: dict[int, Fraction] = {}

    def value_at(m: int) -> Fraction:
        j = _DYADIC.label(m)
        if j not in cache:
            cache[j] = q**j
        return cache[j]

    return PrefixSequence(f"fq(q={q})", value_at)


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
    cache: dict[int, Fraction] = {}

    def h(j: int) -> Fraction:
        if j not in cache:
            cache[j] = sum((dt * qt**j for dt, qt in zip(ds, qs)), Fraction(0))
        return cache[j]

    return h


def gen_combo(d: Sequence, q: Sequence) -> PrefixSequence:
    """Value h_j = sum_t d_t q_t^j on atom j. Distinct ratios in (0, 1) give
    infinitely many distinct h_j, so prefixes keep sprouting new clusters."""
    h = combo_values(d, q)
    return PrefixSequence(
        f"combo(d={[str(rat(x)) for x in d]},q={[str(rat(x)) for x in q]})",
        lambda m: h(_DYADIC.label(m)),
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
    fills in densely as the prefix grows."""
    q = rat(q)
    if not 0 < q < 1:
        raise RangeError("need 0 < q < 1")
    rats: list[Fraction] = []
    it = unit_rationals()
    powers: dict[int, Fraction] = {}

    def value_at(m: int) -> Fraction:
        j = _DYADIC.label(m)
        if j not in powers:
            powers[j] = q**j
        i = _DYADIC.rank(m)
        while len(rats) <= i:
            rats.append(next(it))
        return powers[j] * rats[i]

    return PrefixSequence(f"rich(q={q})", value_at)


def gen_spaceable(alpha: Sequence, n_max: int, k_max: int,
                  flavor: str = "dyadic") -> PrefixSequence:
    """Concrete combination of the disjointly supported rows: index m in
    block (r, t) carries alpha_r * a_t inside the truncation, 0 outside."""
    coeffs = [rat(a) for a in alpha]
    if len(coeffs) > n_max:
        raise ShapeError("more coefficients than rows")
    ladder = value_ladder(k_max, flavor)
    r = realize_atoms("pairing")

    def value_at(m: int) -> Fraction:
        n, k = r.label(m)
        if n < len(coeffs) and k <= k_max:
            return coeffs[n] * ladder[k]
        return Fraction(0)

    return PrefixSequence(
        f"spaceable(alpha={[str(c) for c in coeffs]},n_max={n_max},"
        f"k_max={k_max},{flavor})",
        value_at,
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


def estimate_clusters(x: PrefixSequence, n: int, tail_fraction: float = 0.5,
                      epsilon: float | None = None) -> ClusterEstimate:
    """Evaluate the tail of a prefix, merge values at radius epsilon.

    The default epsilon is 1e-6 relative to the tail's sup value. Merging is
    single linkage on the sorted tail (split exactly at gaps > epsilon), so
    the outcome is deterministic; centers are group means."""
    if n <= 0:
        raise EmptyInputError("need a nonempty prefix")
    if not 0 < tail_fraction <= 1:
        raise RangeError("tail_fraction must be in (0, 1]")
    tail_len = max(1, math.ceil(n * tail_fraction))
    tail = sorted(float(x.value_at(m)) for m in range(n - tail_len, n))
    if epsilon is None:
        sup = max(abs(v) for v in tail)
        epsilon = 1e-6 * sup if sup > 0 else 1e-6
    centers = []
    start = 0
    for i in range(1, len(tail) + 1):
        if i == len(tail) or tail[i] - tail[i - 1] > epsilon:
            group = tail[start:i]
            centers.append((sum(group) / len(group), len(group)))
            start = i
    return ClusterEstimate(tuple(centers), epsilon, float(tail_fraction))
