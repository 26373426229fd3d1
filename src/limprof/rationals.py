"""Deterministic enumeration of rationals via the Calkin-Wilf recurrence.

q_0 = 1 and q_{t+1} = 1 / (2*floor(q_t) - q_t + 1) visits every positive
rational exactly once; restricting to values below 1 enumerates the
rationals of the open unit interval without repetition.

The walk runs on coprime integer pairs: q = a/b maps to
b / ((2*floor(a/b) + 1)*b - a), and gcd(b, (2*floor(a/b) + 1)*b - a) =
gcd(b, a) = 1, so every pair stays in lowest terms and no gcd is taken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator


def calkin_wilf_pairs() -> Iterator[tuple[int, int]]:
    """Calkin-Wilf terms as coprime (numerator, denominator) pairs."""
    a, b = 1, 1
    while True:
        yield a, b
        a, b = b, (2 * (a // b) + 1) * b - a


def calkin_wilf() -> Iterator[Fraction]:
    for a, b in calkin_wilf_pairs():
        yield Fraction(a, b)


def unit_rational_pairs() -> Iterator[tuple[int, int]]:
    """The terms of unit_rationals as coprime pairs (a, b) with a < b."""
    for a, b in calkin_wilf_pairs():
        if a < b:
            yield a, b


def unit_rationals() -> Iterator[Fraction]:
    """Rationals in (0, 1), each exactly once: 1/2, 1/3, 2/3, 1/4, 3/5, ..."""
    for a, b in unit_rational_pairs():
        yield Fraction(a, b)


def first_unit_rationals(count: int) -> tuple[Fraction, ...]:
    out = []
    it = unit_rationals()
    for _ in range(count):
        out.append(next(it))
    return tuple(out)
