"""Closed dyadic cubes with exact integer/rational geometry predicates.

A cube is identified by a level k >= 0 and an integer index vector j, and
occupies 2**-k * (j + [0,1]**n).  All containment, adjacency and distance
predicates are evaluated in integer arithmetic after rescaling to a common
dyadic level.  The one array kernel, `box_point_d2`, is exact on integers;
on floats (the partition of unity, the Cantor-tube voxelizer) it rounds in
a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class DyadicCube:
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("dyadic level must be non-negative")
        if len(self.index) not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def corner_lo(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple(j * s for j in self.index)

    def corner_hi(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple((j + 1) * s for j in self.index)

    def center(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple((2 * j + 1) * s / 2 for j in self.index)

    def bounds_int(self, scale_level: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Corner coordinates as integers in units of 2**-scale_level."""
        if scale_level < self.level:
            raise ValueError("scale level coarser than cube level")
        f = 2 ** (scale_level - self.level)
        lo = tuple(j * f for j in self.index)
        hi = tuple((j + 1) * f for j in self.index)
        return lo, hi

    def children(self) -> list["DyadicCube"]:
        n = self.n
        kids = []
        for m in range(2**n):
            off = tuple((m >> d) & 1 for d in range(n))
            kids.append(
                DyadicCube(self.level + 1, tuple(2 * j + o for j, o in zip(self.index, off)))
            )
        return kids

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValueError("level-0 cube has no parent")
        return DyadicCube(self.level - 1, tuple(j >> 1 for j in self.index))

    def contains_cube(self, other: "DyadicCube") -> bool:
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return all((oj >> shift) == j for j, oj in zip(self.index, other.index))

    def contains_point(self, x, strict: bool = False) -> bool:
        """Membership of an exact (Fraction or int-valued) point."""
        lo, hi = self.corner_lo(), self.corner_hi()
        if strict:
            return all(a < Fraction(v) < b for v, a, b in zip(x, lo, hi))
        return all(a <= Fraction(v) <= b for v, a, b in zip(x, lo, hi))

    def face_adjacent(self, other: "DyadicCube") -> bool:
        """True when the closed cubes share a common face piece of positive
        (n-1)-measure, i.e. int(Q_i U Q_j) is connected."""
        s = max(self.level, other.level)
        alo, ahi = self.bounds_int(s)
        blo, bhi = other.bounds_int(s)
        touch = 0
        positive = 0
        for d in range(self.n):
            w = min(ahi[d], bhi[d]) - max(alo[d], blo[d])
            if w < 0:
                return False
            if w == 0:
                touch += 1
            else:
                positive += 1
        return touch == 1 and positive == self.n - 1

    def dilate(self, c: Fraction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Axis-aligned box c*Q about the center; exact for rational c."""
        c = Fraction(c)
        ctr = self.center()
        half = self.side * c / 2
        return tuple(x - half for x in ctr), tuple(x + half for x in ctr)


def box_box_dist2_int(alo, ahi, blo, bhi) -> int:
    """Squared distance between two integer boxes; plain arithmetic, so it
    is exact on Fraction boxes too."""
    d2 = 0
    for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
        if a1 < b0:
            d2 += (b0 - a1) ** 2
        elif b1 < a0:
            d2 += (a0 - b1) ** 2
    return d2


def box_point_d2(lo, hi, x):
    """Squared distances between the boxes [lo, hi] and the points x, given
    per axis as sequences whose entries broadcast together.  The per-axis
    gaps max(lo - x, 0) + max(x - hi, 0) are squared and summed from axis 0
    upward: exact on integers, and in that fixed order on floats."""
    d2 = 0
    for a, b, y in zip(lo, hi, x):
        gap = np.maximum(a - y, 0) + np.maximum(y - b, 0)
        d2 = d2 + gap * gap
    return d2
