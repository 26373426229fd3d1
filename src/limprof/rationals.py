"""Deterministic enumeration of the rationals in (0, 1) from the Calkin-Wilf
tree, built one level at a time.

The root of the tree is 1/1, and node a/b has left child a/(a+b) < 1 and
right child (a+b)/b > 1; every positive rational appears exactly once, in
lowest terms (Calkin and Wilf, "Recounting the rationals", Amer. Math.
Monthly 107, 2000). Read level by level, left to right, the tree is the
sequence q_0 = 1, q_{t+1} = 1 / (2*floor(q_t) - q_t + 1).

The rationals below 1 are exactly the left children, in the order of their
parents, so the i-th of them is r_i = a_i/(a_i + b_i) for the i-th term
a_i/b_i of the tree; gcd(a, a+b) = gcd(a, b) = 1 keeps it in lowest terms.
Every term yields one unit rational, with no filter and no gcd.

UnitRationalTable lists them in two int lists, a level at a time. From the
numerators a and denominators b of a run of level k's terms, one
``map(add, a, b)`` gives the denominators a + b of their left children.
Level k+1 lists the children of level k's terms in their parents' order,
left child first, so once level k is read in full, two interleaving slice
assignments of a, a + b and b lay out level k+1: no step per term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


class UnitRationalTable:
    """The first unit rationals r_i = nums[i] / dens[i], in lowest terms,
    grown on demand. Besides the two lists it keeps only the tree level it
    has reached, whose left children it has copied in part or in full."""

    def __init__(self) -> None:
        self.nums: list[int] = []
        self.dens: list[int] = []
        self._level: tuple[list[int], list[int]] = ([1], [1])  # a, b of its terms a/b
        self._start = 0  # the table index of the level's first left child

    def extend_to(self, count: int) -> None:
        """Make the table hold at least ``count`` terms (exactly that many
        when it held fewer)."""
        nums, dens = self.nums, self.dens
        while len(nums) < count:
            a, b = self._level
            done = len(nums) - self._start
            if done == len(a):  # the next level, from this one's a, a + b and b
                s = dens[self._start:]
                left, right = s * 2, s * 2
                left[::2], left[1::2] = a, s
                right[::2], right[1::2] = s, b
                self._level, self._start = (left, right), len(nums)
                continue
            stop = min(len(a), done + count - len(nums))
            nums += a[done:stop]
            dens += map(add, a[done:stop], b[done:stop])


def first_unit_rationals(count: int) -> tuple[Fraction, ...]:
    table = UnitRationalTable()
    table.extend_to(count)
    return tuple(map(Fraction, table.nums[:max(count, 0)], table.dens))
