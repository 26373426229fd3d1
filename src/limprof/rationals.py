"""Deterministic enumeration of rationals via the Calkin-Wilf recurrence.

q_0 = 1 and q_{t+1} = 1 / (2*floor(q_t) - q_t + 1) visits every positive
rational exactly once; restricting to values below 1 enumerates the
rationals of the open unit interval without repetition.

The walk runs on coprime integer pairs: q = a/b maps to
b / ((2*floor(a/b) + 1)*b - a), and gcd(b, (2*floor(a/b) + 1)*b - a) =
gcd(b, a) = 1, so every pair stays in lowest terms and no gcd is taken.

The rationals below 1 need no filter. The sequence q_t lists the Calkin-Wilf
tree level by level, left to right: the root is 1/1, and node a/b has left
child a/(a+b) < 1 and right child (a+b)/b > 1 (Calkin and Wilf, "Recounting
the rationals", Amer. Math. Monthly 107, 2000). So the terms below 1 are
exactly the left children. Level k+1 lists the children of level k in their
parents' order, left child first, and levels follow one another; so the
left children appear in the order of their parents, and the t-th term below
1 is the left child of q_t. For q_t = a/b that is a/(a+b), again in lowest
terms since gcd(a, a+b) = gcd(a, b) = 1. One step of the walk therefore
yields one unit rational, where filtering the walk takes two.
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
    """The terms of unit_rationals as coprime pairs (a, b) with a < b: the
    left child (a, a + b) of every Calkin-Wilf term (a, b), in order."""
    for a, b in calkin_wilf_pairs():
        yield a, a + b


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
