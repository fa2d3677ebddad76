"""Reference PL kernel pieces, written on Fraction the plain way.

`compose_lifts`, `rotation_number` and `fixed_set` are the Fraction merge
sweep, the F^q loop and the sign analysis that raagdyn.plmaps replaced with
integer numerators and denominators.  Tests compare the integer code against
them for exact equality: the same breakpoints in the same order, the same
rotation result, the same fixed-set parts.

`check_strictly_increasing` then `canonical`, `eval_pl` and `invert_lift`
are the two-pass breakpoint check, the interpolator on separate abscissa and
value lists, and the inversion with its own seam interpolation, verbatim but
for their names, that raagdyn.plmaps folded into one checker and one reader;
`power_stepwise` is the one-composition-at-a-time power that repeated
squaring replaced.  Tests compare against them for the same tuples, values
and error messages.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import intervals_ref
from raagdyn.plmaps import PLMapCircle, RotationResult, compose, invert


def canonical(points: list[tuple[Fraction, Fraction]]):
    # drop interior breakpoints where consecutive slopes agree
    out = [points[0]]
    for i in range(1, len(points) - 1):
        x0, y0 = out[-1]
        x1, y1 = points[i]
        x2, y2 = points[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        out.append(points[i])
    out.append(points[-1])
    return tuple(out)


def check_strictly_increasing(points):
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= x0:
            raise ValueError(f"breakpoint abscissae not increasing at x={x1}")
        if y1 <= y0:
            raise ValueError(f"breakpoint values not increasing at x={x1}")


def eval_pl(xs, ys, x: Fraction) -> Fraction:
    i = bisect_right(xs, x) - 1
    if i < 0 or x > xs[-1]:
        raise ValueError(f"point {x} outside [{xs[0]}, {xs[-1]}]")
    if i >= len(xs) - 1:
        i = len(xs) - 2
    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[i], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def invert_lift(pts) -> list[tuple[Fraction, Fraction]]:
    inv = [(y, x) for x, y in pts]
    if inv[0][0] == 0:
        return inv
    i = next(i for i, (u, _) in enumerate(inv) if u >= 1)
    (u0, v0), (u1, v1) = inv[i - 1], inv[i]
    seam = v0 + (v1 - v0) * (1 - u0) / (u1 - u0)
    return (
        [(Fraction(0), seam - 1)]
        + [(u - 1, v - 1) for u, v in inv[i:] if u > 1]
        + inv[1:i]
        + [(Fraction(1), seam)]
    )


def power_stepwise(f, n: int):
    """f^n as |n| compositions, one factor at a time."""
    if n < 0:
        return power_stepwise(invert(f), -n)
    out = f.identity()
    for _ in range(n):
        out = compose(out, f)
    return out


def compose_lifts(fpts, gpts) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints of the lift x -> F(G(x)) over [0, 1]; neither lift need be normalized."""
    k = math.floor(gpts[0][1])
    fb = [(x + k, y + k) for x, y in fpts[:-1]]
    fb += [(x + k + 1, y + k + 1) for x, y in fpts]
    out = []
    j = 0  # fb[j] is F's last breakpoint at or below the current value of G
    for (x0, y0), (x1, y1) in zip(gpts, gpts[1:]):
        while fb[j + 1][0] <= y0:
            j += 1
        (u0, v0), (u1, v1) = fb[j], fb[j + 1]
        out.append((x0, v0 if u0 == y0 else v0 + (v1 - v0) * (y0 - u0) / (u1 - u0)))
        while fb[j + 1][0] < y1:
            j += 1
            u, v = fb[j]
            out.append((x0 + (x1 - x0) * (u - y0) / (y1 - y0), v))
    out.append((gpts[-1][0], out[0][1] + 1))
    return out


def rotation_number(f, q_max: int = 64) -> RotationResult:
    """Exact p/q from the first F^q with F^q(x) = x + p solvable, else bounds at q_max."""
    pts = list(f.points)
    for q in range(1, q_max + 1):
        if q > 1:
            pts = compose_lifts(f.points, pts)
        diffs = [y - x for x, y in pts]
        hits = list(range(math.ceil(min(diffs)), math.floor(max(diffs)) + 1))
        if hits:
            if len(hits) != 1:
                raise AssertionError("lift displacement spans two integers")
            v = Fraction(hits[0], q)
            return RotationResult("exact", value=v - math.floor(v))
    f0 = pts[0][1]
    return RotationResult("bounds", lo=(f0 - 1) / q_max, hi=(f0 + 1) / q_max)


def fixed_set(f) -> tuple:
    """Parts of the solutions of F(x) = x + m, on the circle reduced into [0, 1)."""
    pts = f.points
    diffs = [y - x for x, y in pts]
    parts = []
    for m in range(math.ceil(min(diffs)), math.floor(max(diffs)) + 1):
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            d0, d1 = y0 - x0 - m, y1 - x1 - m
            if d0 == 0 and d1 == 0:
                parts.append((x0, True, x1, True))
            elif d0 == 0:
                parts.append((x0, True, x0, True))
            elif d1 == 0:
                parts.append((x1, True, x1, True))
            elif (d0 < 0) != (d1 < 0):
                s = (y1 - y0) / (x1 - x0)
                root = (y0 - m - s * x0) / (1 - s)
                parts.append((root, True, root, True))
    parts = intervals_ref.normalize(parts)
    return intervals_ref.unit_canon(parts) if isinstance(f, PLMapCircle) else parts


def support(f) -> tuple:
    if isinstance(f, PLMapCircle):
        return intervals_ref.circle_complement(fixed_set(f))
    return intervals_ref.complement(fixed_set(f), 0, 1)


def periodic_points(rng, p: int, q: int) -> list[tuple[Fraction, Fraction]]:
    """Circle lift cycling q marked points by p steps, linear between them.

    F^q moves every marked point by p and is linear on each gap, so
    F^q(x) = x + p: the rotation number is p/q by construction.
    """
    zs = [Fraction(0)] + [Fraction(k, 4 * q) for k in sorted(rng.sample(range(1, 4 * q), q - 1))]

    def z(i):
        return zs[i % q] + i // q

    return [(zs[i], z(i + p)) for i in range(q)] + [(Fraction(1), z(q + p))]
