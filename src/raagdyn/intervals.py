"""Exact finite unions of rational intervals with open/closed endpoints.

This is the set algebra behind fixed sets, supports, and the containment
checks: every operation is a decision on rational endpoint data, never an
approximation.  Degenerate closed intervals represent isolated points.
Circle subsets are kept in the fundamental domain [0, 1); the helpers at the
bottom implement wrapping, closure, and complement with the 0 ~ 1 gluing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

Part = tuple[Fraction, bool, Fraction, bool]  # (a, a_closed, b, b_closed)


def _nonempty(parts: Iterable[Part]) -> list[Part]:
    return [p for p in parts if p[0] < p[2] or (p[0] == p[2] and p[1] and p[3])]


def _start(p: Part):
    return (p[0], not p[1])


def _coalesce(parts: Iterable[Part]) -> tuple[Part, ...]:
    """Merge overlapping or touching neighbours of nonempty parts sorted by `_start`."""
    merged: list[Part] = []
    for a, ac, b, bc in parts:
        if merged:
            pa, pac, pb, pbc = merged[-1]
            if a < pb or (a == pb and (ac or pbc)):
                if pb < b or (pb == b and bc and not pbc):
                    merged[-1] = (pa, pac, b, bc)
                continue
        merged.append((a, ac, b, bc))
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    parts: tuple[Part, ...]

    @staticmethod
    def of(parts: Iterable[Part]) -> "IntervalSet":
        return IntervalSet(_coalesce(sorted(_nonempty(parts), key=_start)))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def open(a, b) -> "IntervalSet":
        return IntervalSet.of([(Fraction(a), False, Fraction(b), False)])

    @staticmethod
    def closed(a, b) -> "IntervalSet":
        return IntervalSet.of([(Fraction(a), True, Fraction(b), True)])

    @staticmethod
    def point(x) -> "IntervalSet":
        return IntervalSet.closed(x, x)

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x) -> bool:
        x = Fraction(x)
        for a, ac, b, bc in self.parts:
            if (a < x or (a == x and ac)) and (x < b or (x == b and bc)):
                return True
        return False

    def hull(self) -> Optional[tuple[Fraction, Fraction]]:
        if not self.parts:
            return None
        return (self.parts[0][0], self.parts[-1][2])

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(_coalesce(heapq.merge(self.parts, other.parts, key=_start)))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        # both part lists are sorted and pairwise separated, so one pass over
        # them meets every overlapping pair, and the overlaps come out sorted
        # and still separated
        out = []
        ps, qs = self.parts, other.parts
        i = j = 0
        while i < len(ps) and j < len(qs):
            a, ac, b, bc = ps[i]
            a2, ac2, b2, bc2 = qs[j]
            if a > a2:
                na, nac = a, ac
            elif a2 > a:
                na, nac = a2, ac2
            else:
                na, nac = a, ac and ac2
            if b < b2:
                nb, nbc = b, bc
                i += 1
            elif b2 < b:
                nb, nbc = b2, bc2
                j += 1
            else:
                nb, nbc = b, bc and bc2
                i += 1
                j += 1
            if na < nb or (na == nb and nac and nbc):
                out.append((na, nac, nb, nbc))
        return IntervalSet(tuple(out))

    def complement(self, lo, hi) -> "IntervalSet":
        """Complement within the ambient closed interval [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        inner = self.intersection(IntervalSet.closed(lo, hi))
        gaps = []
        cur, cur_closed = lo, True
        for a, ac, b, bc in inner.parts:
            gaps.append((cur, cur_closed, a, not ac))
            cur, cur_closed = b, not bc
        gaps.append((cur, cur_closed, hi, True))
        return IntervalSet(tuple(_nonempty(gaps)))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        # parts of other outside self's hull cannot meet self
        if not self.parts:
            return self
        return self.intersection(other.complement(self.parts[0][0] - 1, self.parts[-1][2] + 1))

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    def closure(self) -> "IntervalSet":
        return IntervalSet(_coalesce((a, True, b, True) for a, ac, b, bc in self.parts))

    def shift(self, k) -> "IntervalSet":
        k = Fraction(k)
        return IntervalSet(tuple((a + k, ac, b + k, bc) for a, ac, b, bc in self.parts))

    def map_endpoints(self, f: Callable[[Fraction], Fraction]) -> "IntervalSet":
        """Image under a strictly increasing map given by its endpoint action."""
        return IntervalSet.of([(f(a), ac, f(b), bc) for a, ac, b, bc in self.parts])


# ---------------------------------------------------------------------------
# Circle subsets: canonical representatives inside [0, 1).

FULL_CIRCLE = IntervalSet((
    (Fraction(0), True, Fraction(1), False),
))


def unit_canon(s: IntervalSet) -> IntervalSet:
    """Reduce an arbitrary line set modulo 1 into the fundamental domain."""
    # shifted to start in [0, 1), a part meets the circle in its pieces on
    # [0, 1) and on [1, 2); one that reaches past 2 covers [1, 2) whole
    line = IntervalSet.of((a - (k := math.floor(a)), ac, b - k, bc) for a, ac, b, bc in s.parts)
    return line.intersection(FULL_CIRCLE).union(line.intersection(FULL_CIRCLE.shift(1)).shift(-1))


def circle_closure(s: IntervalSet) -> IntervalSet:
    """Closure on the circle of a bounded line set."""
    return unit_canon(s.closure())


def circle_complement(s: IntervalSet) -> IntervalSet:
    """Complement on the circle of a set inside [0, 1)."""
    return s.complement(0, 1).intersection(FULL_CIRCLE)
