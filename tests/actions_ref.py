"""Reference power kernels, as they stood before plans and maps shared one.

`_bumps_power` stepped integer plans and reduced each step with one gcd of
the whole pair; `_map_power` stepped materialized maps on `Fraction`s.
`raagdyn.plmaps.bumps_power` replaced both.  Tests compare it against them:
`_bumps_power` for the very same (num, den) pairs, `_map_power` for the same
values.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd

from raagdyn.plmaps import PLMapInterval


def _bumps_power(bumps, e: int, x: tuple[int, int]) -> tuple[int, int]:
    """x = (num, den) under the e-th power of a left-to-right bump family."""
    num, den = x
    for d, xs, ys in bumps:
        nd = num * d
        if nd <= xs[0] * den:
            break
        if nd >= xs[-1] * den:
            continue
        if e < 0:
            xs, ys, e = ys, xs, -e
        while e:
            i = 1
            while nd > xs[i] * den:
                i += 1
            if nd == xs[i] * den:  # on a corner
                num, den = ys[i], d
                e -= 1
            else:
                x0, y0, x1, y1 = xs[i - 1], ys[i - 1], xs[i], ys[i]
                c = y0 - x0
                if c == y1 - x1:  # translation by c / d: jump over every step it stays on
                    j = min(e, (x1 * den - nd if c > 0 else nd - x0 * den) // (abs(c) * den) + 1)
                    num, den = nd + j * c * den, d * den
                    e -= j
                else:
                    dx = x1 - x0
                    num, den = y0 * dx * den + (y1 - y0) * (nd - x0 * den), d * dx * den
                    e -= 1
                g = gcd(num, den)
                num, den = num // g, den // g
            nd = num * d
        return num, den
    return x


def _map_power(m: PLMapInterval, e: int, x: Fraction) -> Fraction:
    """x under m^e: one affine step at a time, one jump across a slope-1 piece."""
    xs, ys = [p[0] for p in m.points], [p[1] for p in m.points]
    xs, ys = (xs, ys) if e > 0 else (ys, xs)
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"point {x} outside [{xs[0]}, {xs[-1]}]")
    e, last = abs(e), len(xs) - 2
    while e:
        i = min(bisect_right(xs, x) - 1, last)
        x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
        c = y0 - x0
        if c == y1 - x1:
            if not c:
                return x
            j = min(e, (x1 - x if c > 0 else x - x0) // abs(c) + 1)
            x += j * c
            e -= j
        else:
            y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            if y == x:
                return x
            x = y
            e -= 1
    return x

