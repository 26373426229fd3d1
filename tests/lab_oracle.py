"""Slow, direct versions of the lab's fast paths, kept as test oracles.

- ``calkin_wilf_pairs``: the Calkin-Wilf recurrence one term per step, on
  integer pairs; ``limprof.rationals`` builds the tree a level at a time.
- ``realize_atoms``: the dyadic and pairing partitions of the naturals,
  index by index; the generators find atoms with ``lab._atom``.
- ``evaluate``: a prefix, one ``value_at`` call per index.
- ``combo_levels_oracle``: the levels h_j = sum_t d_t q_t^j from running
  per-term (numerator, denominator) powers, each level summed over the
  product of the term denominators; ``combo_values`` works over one
  common denominator.
- ``triple_clusters``: ``estimate_clusters`` as it ran on one
  (numerator, denominator, multiplicity) triple at a time, tallied in a
  dict by float and split in a loop over the sorted floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from limprof.errors import ShapeError
from limprof.kernel import rat
from limprof.lab import ClusterEstimate, PrefixSequence, _atom, cantor_unpair


def calkin_wilf_pairs() -> Iterator[tuple[int, int]]:
    """Calkin-Wilf terms as coprime (numerator, denominator) pairs:
    a/b -> b / ((2*floor(a/b) + 1)*b - a)."""
    a, b = 1, 1
    while True:
        yield a, b
        a, b = b, (2 * (a // b) + 1) * b - a


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
        """First ``count`` indices of the labeled atom."""
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


def evaluate(seq: PrefixSequence, n: int) -> list[Fraction]:
    return [seq.value_at(m) for m in range(n)]


def combo_levels_oracle(d, q, count: int) -> list[Fraction]:
    """h_0 .. h_{count-1}: term t at level j is dn_t p_t^j / (dd_t s_t^j)
    for d_t = dn_t/dd_t and q_t = p_t/s_t, from the running powers."""
    steps = [(rat(x).numerator, rat(x).denominator) for x in q]
    terms = [(rat(x).numerator, rat(x).denominator) for x in d]
    levels = []
    for _ in range(count):
        num, den = 0, 1
        for tn, td in terms:
            num, den = num * td + tn * den, den * td
        levels.append(Fraction(num, den))
        terms = [(tn * p, td * s) for (tn, td), (p, s) in zip(terms, steps)]
    return levels


def triples(seq: PrefixSequence, a: int, b: int) -> Iterator[tuple[int, int, int]]:
    """The blocks of [a, b) one (numerator, denominator, multiplicity)
    triple per value."""
    for nums, dens, k in seq.blocks(a, b):
        for num, den in zip(nums, dens):
            yield num, den, k


def _weighted_mean(group: list[float], counts: dict[float, int]) -> tuple[float, int]:
    if len(group) == 1:
        v = group[0]
        return v, counts[v]
    ratios = [v.as_integer_ratio() for v in group]
    den = max(d for _, d in ratios)
    num = sum(n * (den // d) * counts[v] for v, (n, d) in zip(group, ratios))
    total = sum(counts[v] for v in group)
    return num / (den * total), total


def triple_clusters(levels: Iterable[tuple[int, int, int]], tail_fraction: float,
                    epsilon: float | None) -> ClusterEstimate:
    """The clusters of the multiset of values num / den, each taken k
    times, for the triples (num, den, k) of ``levels``."""
    counts: dict[float, int] = {}
    for num, den, k in levels:
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


def estimate_by_triples(seq: PrefixSequence, n: int, tail_fraction: float = 0.5,
                        epsilon: float | None = None) -> ClusterEstimate:
    tail_len = min(n, max(1, math.ceil(n * tail_fraction)))
    return triple_clusters(triples(seq, n - tail_len, n), tail_fraction, epsilon)
