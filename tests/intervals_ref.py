"""Reference interval-set algebra, written the plain way on part tuples.

`raagdyn.intervals` intersects two sets with one merge pass and unions them
by merging their sorted part lists.  These are the forms it replaced: a
double loop over every pair of parts and a sort of the concatenated parts,
each followed by the full sort-and-coalesce normalizer.  Tests compare the
two for equal part tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction


def normalize(parts) -> tuple:
    kept = []
    for a, ac, b, bc in parts:
        if a > b:
            continue
        if a == b and not (ac and bc):
            continue
        kept.append((a, ac, b, bc))
    kept.sort(key=lambda p: (p[0], not p[1]))
    merged = []
    for a, ac, b, bc in kept:
        if merged:
            pa, pac, pb, pbc = merged[-1]
            if a < pb or (a == pb and (ac or pbc)):
                if pb < b or (pb == b and bc and not pbc):
                    merged[-1] = (pa, pac, b, bc)
                continue
        merged.append((a, ac, b, bc))
    return tuple(merged)


def union(p, q) -> tuple:
    return normalize(tuple(p) + tuple(q))


def intersection(p, q) -> tuple:
    out = []
    for a, ac, b, bc in p:
        for a2, ac2, b2, bc2 in q:
            if a2 > b or a > b2:
                continue
            if a > a2:
                na, nac = a, ac
            elif a2 > a:
                na, nac = a2, ac2
            else:
                na, nac = a, ac and ac2
            if b < b2:
                nb, nbc = b, bc
            elif b2 < b:
                nb, nbc = b2, bc2
            else:
                nb, nbc = b, bc and bc2
            out.append((na, nac, nb, nbc))
    return normalize(out)


def complement(p, lo, hi) -> tuple:
    lo, hi = Fraction(lo), Fraction(hi)
    gaps = []
    cur, cur_closed = lo, True
    for a, ac, b, bc in intersection(p, normalize([(lo, True, hi, True)])):
        gaps.append((cur, cur_closed, a, not ac))
        cur, cur_closed = b, not bc
    gaps.append((cur, cur_closed, hi, True))
    return normalize(gaps)


def difference(p, q) -> tuple:
    if not p:
        return tuple(p)
    lo = min(p[0][0], q[0][0]) if q else p[0][0]
    hi = max(p[-1][2], q[-1][2]) if q else p[-1][2]
    return intersection(p, complement(q, lo - 1, hi + 1))


def is_subset_of(p, q) -> bool:
    return not difference(p, q)


def closure(p) -> tuple:
    return normalize([(a, True, b, True) for a, _, b, _ in p])


def shift(p, k) -> tuple:
    return tuple((a + k, ac, b + k, bc) for a, ac, b, bc in p)


FULL_CIRCLE = ((Fraction(0), True, Fraction(1), False),)


def unit_canon(p) -> tuple:
    out = []
    for a, ac, b, bc in p:
        if b - a > 1 or (b - a == 1 and (ac or bc)):
            return FULL_CIRCLE
        k = math.floor(a)
        a, b = a - k, b - k
        if b < 1 or (b == 1 and not bc):
            out.append((a, ac, b, bc))
        elif b == 1:
            out.append((a, ac, Fraction(1), False))
            out.append((Fraction(0), True, Fraction(0), True))
        else:
            out.append((a, ac, Fraction(1), False))
            out.append((Fraction(0), True, b - 1, bc))
    return normalize(out)


def circle_closure(p) -> tuple:
    spread = closure(union(union(shift(p, -1), p), shift(p, 1)))
    return unit_canon(intersection(spread, normalize([(Fraction(0), True, Fraction(1), True)])))


def circle_complement(p) -> tuple:
    out = []
    for a, ac, b, bc in complement(p, 0, 1):
        if a == 1:
            continue
        if b == 1 and bc:
            out.append((a, ac, b, False))
        else:
            out.append((a, ac, b, bc))
    return normalize(out)
