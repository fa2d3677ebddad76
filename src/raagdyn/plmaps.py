"""Exact piecewise-linear orientation-preserving homeomorphisms of I and S1.

Both kinds store one period of a lift: breakpoints on [0,1] with
F(1) = F(0)+1.  A circle map is normalized so F(0) lies in [0,1); an interval
map is the lift pinned at F(0) = 0.  One kernel serves both: composition is
a single merge sweep over the two breakpoint lists, run on integer
numerators and denominators, and inversion swaps the pairs and rotates the
period back onto [0,1].  All arithmetic is rational; equality of maps is
equality of canonical breakpoint lists.  Powers x -> f^e(x), of integer
plans and of interval maps alike, have one kernel: `bumps_power`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .intervals import IntervalSet, circle_closure, circle_complement, unit_canon


class DomainMismatchError(ValueError):
    pass


Points = tuple[tuple[Fraction, Fraction], ...]

_IDENTITY: Points = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))

_X = itemgetter(0)  # a breakpoint's abscissa, the key the breakpoint bisections search on


def _canonical(points: list[tuple[Fraction, Fraction]]) -> Points:
    """The breakpoints as a tuple less interior ones where slopes agree; ValueError at the first pair not increasing."""
    out = [points[0]]
    for i in range(1, len(points)):
        (x1, y1), (x2, y2) = points[i - 1], points[i]
        if x2 <= x1:
            raise ValueError(f"breakpoint abscissae not increasing at x={x2}")
        if y2 <= y1:
            raise ValueError(f"breakpoint values not increasing at x={x2}")
        # keep an interior (x1, y1) unless it is collinear with the last kept point and the next one
        x0, y0 = out[-1]
        if i > 1 and (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            out.append(points[i - 1])
    out.append(points[-1])
    return tuple(out)


def _eval_pl(pts, x: Fraction) -> Fraction:
    """The PL function through `pts` at x, for x within their abscissae."""
    i = min(bisect_right(pts, x, key=_X), len(pts) - 1) - 1  # the last piece holds its right end
    if i < 0 or x > pts[-1][0]:
        raise ValueError(f"point {x} outside [{pts[0][0]}, {pts[-1][0]}]")
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _lerp(an, ad, bn, bd, cn, cd, dn, dd, tn, td):
    """b + (d - b)(t - a)/(c - a) in lowest terms, for a < c; each value is n/d, d > 0."""
    p = (tn * ad - an * td) * cd
    q = td * (cn * ad - an * cd)
    num = bn * dd * q + (dn * bd - bn * dd) * p
    den = bd * dd * q
    g = math.gcd(num, den)
    return num // g, den // g


def _sweep(fq, gq):
    """`_compose_lifts` on (xn, xd, yn, yd) quads in lowest terms, xd, yd > 0."""
    # comparisons cross-multiply; only `_lerp`'s coordinates are new, so only they need a gcd
    k = gq[0][2] // gq[0][3]
    fb = [(xn + k * xd, xd, yn + k * yd, yd) for xn, xd, yn, yd in fq[:-1]]
    k += 1
    fb += [(xn + k * xd, xd, yn + k * yd, yd) for xn, xd, yn, yd in fq]
    out = []
    j = 0  # fb[j] is F's last breakpoint at or below the current value of G
    for (xn0, xd0, yn0, yd0), (xn1, xd1, yn1, yd1) in zip(gq, gq[1:]):
        while fb[j + 1][0] * yd0 <= yn0 * fb[j + 1][1]:
            j += 1
        un, ud, vn, vd = fb[j]
        if un != yn0 or ud != yd0:
            vn, vd = _lerp(*fb[j], *fb[j + 1], yn0, yd0)
        out.append((xn0, xd0, vn, vd))
        while fb[j + 1][0] * yd1 < yn1 * fb[j + 1][1]:
            j += 1
            un, ud, vn, vd = fb[j]
            out.append(_lerp(yn0, yd0, xn0, xd0, yn1, yd1, xn1, xd1, un, ud) + (vn, vd))
    vn, vd = out[0][2:]
    out.append(gq[-1][:2] + (vn + vd, vd))
    return out


def _quads(pts):
    return [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in pts]


def _displacements(quads):
    """Displacements y - x as (n, d) pairs, d > 0, and the least and greatest integer between them."""
    dis = [(yn * xd - xn * yd, xd * yd) for xn, xd, yn, yd in quads]
    # floor and ceiling are monotone, so the integers in [min, max] of the
    # displacements run from the least ceiling to the greatest floor
    return dis, min(-(-n // d) for n, d in dis), max(n // d for n, d in dis)


def _compose_lifts(fpts, gpts) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints of the lift x -> F(G(x)) over [0, 1].

    Both arguments are one period of a lift over [0, 1]; neither needs to be
    normalized, and the result keeps the integer shift of F(G(0)).  G carries
    [0, 1] onto [g0, g0+1], which F's breakpoints shifted by floor(g0) and
    floor(g0)+1 cover, so one pointer walks them alongside G's segments.
    """
    out = _sweep(_quads(fpts), _quads(gpts))
    return [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in out]


def _invert_lift(pts) -> list[tuple[Fraction, Fraction]]:
    """One period over [0, 1] of the inverse of the lift with period `pts`.

    `pts` is normalized, F(0) in [0, 1).  The swapped pairs are the inverse
    lift over [F(0), F(0)+1]; the part past 1 moves down by one period,
    joined at the seam value F^-1(1).
    """
    inv = [(y, x) for x, y in pts]
    if inv[0][0] == 0:
        return inv
    i = bisect_left(inv, 1, key=_X)
    seam = _eval_pl(inv, Fraction(1))
    return (
        [(Fraction(0), seam - 1)]
        + [(u - 1, v - 1) for u, v in inv[i:] if u > 1]
        + inv[1:i]
        + [(Fraction(1), seam)]
    )


class Bump(NamedTuple):
    """Graph corners (xs[i] / den, ys[i] / den), fixed at the two ends only; identity off [xs[0], xs[-1]]."""

    den: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]


def bumps_power(bumps, e: int, x: tuple[int, int]) -> tuple[int, int]:
    """x = (num, den) under the e-th power of a left-to-right bump family.

    A step onto a corner gives its bump's (ys[i], den) as it stands, any other
    step lowest terms; a slope-1 piece takes one jump, and a fixed x returns at once.
    """
    num, den = x
    for d, xs, ys in bumps:
        nd = num * d
        if nd <= xs[0] * den:
            break
        if nd >= xs[-1] * den:
            continue
        if e < 0:
            xs, ys, e = ys, xs, -e
        entered, i = True, 1
        while e:
            while nd <= xs[i - 1] * den:  # an orbit inside a bump is monotone: i moves one way
                i -= 1
            while nd > (v := xs[i] * den):
                i += 1
            if nd == v:  # on a corner
                num, den = ys[i], d
                e -= 1
            else:
                if entered:  # lowest terms once: later steps give lowest terms or a corner
                    g = math.gcd(num, den)
                    num, den, nd, entered = num // g, den // g, nd // g, False
                x0, y0, x1, y1 = xs[i - 1], ys[i - 1], xs[i], ys[i]
                r, s, j = y1 - y0, x1 - x0, 1  # slope r / s, j steps
                if r == s:  # translation by c / d: jump over every step it stays on
                    c = y0 - x0
                    j = min(e, (x1 * den - nd if c > 0 else nd - x0 * den) // (abs(c) * den) + 1)
                e -= j
                new = (y0 * s - r * x0) * j * den + r * nd  # x is now new / (d * s * den)
                # lowest terms without a gcd of two long numbers: num/den is in
                # lowest terms (or den is d, after a corner), so new shares
                # exactly gcd(den, r * d) with den, and the rest of den nothing
                g = math.gcd(den, r * d)
                new, m = new // g, den // g
                g = math.gcd(new, d * s)
                new, m = new // g, d * s // g * m
                if new == num and m == den:  # x is a fixed point inside the piece
                    break
                num, den = new, m
            nd = num * d
        return num, den
    return x


@dataclass(frozen=True)
class PLMap:
    """One period of a lift over [0, 1] with F(1) = F(0) + 1.

    Subclasses fix the domain: `PLMapInterval` (F(0) = 0) and `PLMapCircle`
    (F(0) in [0, 1)).  Each names it in `DOMAIN` and owns every rule that
    depends on it: `evaluate`, `image`, `closure`, `fixed_set` and `support`
    act on the subclass's own space.
    """

    points: Points

    @classmethod
    def from_points(cls, points: Iterable):
        pts = cls._normalize([(Fraction(x), Fraction(y)) for x, y in points])
        return cls(_canonical(pts))

    @classmethod
    def identity(cls):
        return cls(_IDENTITY)

    def evaluate_lift(self, x) -> Fraction:
        x = Fraction(x)
        k = math.floor(x)
        return _eval_pl(self.points, x - k) + k

    def is_identity(self) -> bool:
        return self.points == _IDENTITY

    def fixed_set(self) -> IntervalSet:
        """Exact solutions in [0, 1] of F(x) = x + m over the integers m reached."""
        pts = self.points
        quads = _quads(pts)
        dis, lo, hi = _displacements(quads)
        parts = []
        for m in range(lo, hi + 1):
            sign = [n - m * d for n, d in dis]  # sign of F(x) - x - m at each breakpoint
            for i in range(len(pts) - 1):
                s0, s1 = sign[i], sign[i + 1]
                if s0 == 0 and s1 == 0:
                    parts.append((pts[i][0], True, pts[i + 1][0], True))
                elif s0 == 0:
                    parts.append((pts[i][0], True, pts[i][0], True))
                elif s1 == 0:
                    parts.append((pts[i + 1][0], True, pts[i + 1][0], True))
                elif (s0 < 0) != (s1 < 0):
                    # the root is where the displacement, linear in x, reaches m
                    k, l = (i, i + 1) if s0 < 0 else (i + 1, i)
                    root = Fraction(*_lerp(*dis[k], *quads[k][:2], *dis[l], *quads[l][:2], m, 1))
                    parts.append((root, True, root, True))
        return IntervalSet.of(parts)


class PLMapInterval(PLMap):
    DOMAIN = "I"

    @staticmethod
    def _normalize(pts):
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise ValueError("interval map must run from (0,0) to (1,1)")
        return pts

    def evaluate(self, x) -> Fraction:
        return _eval_pl(self.points, Fraction(x))

    def image(self, s: IntervalSet) -> IntervalSet:
        """Exact image of a set inside [0, 1]."""
        return s.map_endpoints(self.evaluate)

    @staticmethod
    def closure(s: IntervalSet) -> IntervalSet:
        return s.closure()

    def evaluate_power(self, x, e: int) -> Fraction:
        """x under the e-th power of the map, e of either sign."""
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"point {x} outside [0, 1]")
        return Fraction(*bumps_power(self._bumps, e, (x.numerator, x.denominator)))

    @cached_property
    def _bumps(self) -> tuple[Bump, ...]:
        """The map as a bump family: each run of corners between two fixed corners, over its lcm denominator."""
        pts = self.points
        ends = [i for i, (x, y) in enumerate(pts) if x == y]
        runs = [pts[i:k + 1] for i, k in zip(ends, ends[1:]) if k > i + 1]
        dens = [math.lcm(*(v.denominator for p in run for v in p)) for run in runs]
        return tuple(Bump(d, *(tuple(int(v * d) for v in col) for col in zip(*run))) for d, run in zip(dens, runs))

    def support(self) -> IntervalSet:
        return self.fixed_set().complement(0, 1)


class PLMapCircle(PLMap):
    DOMAIN = "S1"

    @staticmethod
    def _normalize(pts):
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("circle lift must cover abscissae [0, 1]")
        if pts[-1][1] != pts[0][1] + 1:
            raise ValueError("circle lift must satisfy F(1) = F(0) + 1")
        shift = math.floor(pts[0][1])
        return [(x, y - shift) for x, y in pts] if shift else pts

    @staticmethod
    def rotation(angle) -> "PLMapCircle":
        a = Fraction(angle)
        return PLMapCircle.from_points([(0, a), (1, a + 1)])

    def evaluate(self, x) -> Fraction:
        """The circle point f(x) in [0, 1), for x read modulo 1."""
        v = self.evaluate_lift(x)
        return v - math.floor(v)

    def image(self, s: IntervalSet) -> IntervalSet:
        """Exact image, inside [0, 1), of a line set read modulo 1."""
        return unit_canon(s.map_endpoints(self.evaluate_lift))

    @staticmethod
    def closure(s: IntervalSet) -> IntervalSet:
        return circle_closure(s)

    def fixed_set(self) -> IntervalSet:
        """Circle points with F(x) - x integral, in the fundamental domain."""
        return unit_canon(super().fixed_set())

    def support(self) -> IntervalSet:
        return circle_complement(self.fixed_set())


def require_same_domain(*maps: PLMap):
    first = type(maps[0])
    for m in maps[1:]:
        if type(m) is not first:
            raise DomainMismatchError(
                f"cannot mix {first.__name__} with {type(m).__name__}"
            )


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition f after g."""
    require_same_domain(f, g)
    return type(f).from_points(_compose_lifts(f.points, g.points))


def invert(f: PLMap) -> PLMap:
    return type(f).from_points(_invert_lift(f.points))


def power(f: PLMap, n: int) -> PLMap:
    """f^n by repeated squaring: at most 2 floor(log2 |n|) compositions, one inversion for n < 0."""
    if n < 0:
        f, n = invert(f), -n
    if n <= 1:
        return f if n else f.identity()
    half = power(compose(f, f), n // 2)
    return compose(half, f) if n & 1 else half


def commutator(f: PLMap, g: PLMap) -> PLMap:
    """[f, g] = f g f^-1 g^-1."""
    return compose(compose(f, g), compose(invert(f), invert(g)))


@dataclass(frozen=True)
class RotationResult:
    kind: str  # "exact" | "bounds"
    value: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    def is_exact(self) -> bool:
        return self.kind == "exact"


def _lift_orbit(quads, n: int) -> tuple[int, int]:
    """F^n(0), n >= 1, as (num, den) in lowest terms, for F the lift with period `quads`, one point at a time."""
    num, den = quads[0][2:]
    last = len(quads) - 2  # the last piece holds its right end
    for _ in range(n - 1):
        k = num // den
        num -= k * den
        lo, hi = 0, last  # the piece of num/den in [0, 1): the last breakpoint at or below it
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if quads[mid][0] * den <= num * quads[mid][1]:
                lo = mid
            else:
                hi = mid - 1
        yn, yd = _lerp(*quads[lo], *quads[lo + 1], num, den)
        num, den = yn + k * yd, yd
    return num, den


def rotation_number(f: PLMapCircle, q_max: int = 64) -> RotationResult:
    """Exact rotation number when some f^q has a periodic lift, q <= q_max, else bounds.

    F^q(x) = x + p is decided by the displacements of the lift F^q at its
    breakpoints; a hit yields rot f = p/q.  The q tried are those of the
    Stern-Brocot mediants: rot f lies strictly between Farey neighbours a/b
    and c/d, every rational between them has a denominator of at least b + d,
    and F^(b+d) = F^b F^d, one sweep, either hits a + c or lies on one side
    of it, which then moves to the mediant.  With no mediant left within
    q_max, the interval [(F^n(0) - 1)/n, (F^n(0) + 1)/n] at n = q_max, F^n(0)
    taken from the orbit of 0, encloses the true value.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    fq = _quads(f.points)
    # a/b < rot F < c/d, holding F^b and F^d; F^n is under test.  F itself
    # goes first: F(0) in [0, 1), so without an integer displacement its
    # displacements lie in (0, 1), below a + c = 1, and the bracket stands
    a, b, fb, c, d, fd = 0, 1, fq, 1, 1, fq
    n, fn = 1, fq
    while True:
        _, lo, hi = _displacements(fn)
        if lo < hi:
            raise AssertionError("lift displacement spans two integers")
        if lo == hi:  # F^n(x) = x + lo somewhere, and lo = a + c past n = 1
            v = Fraction(lo, n)
            return RotationResult("exact", value=v - math.floor(v))
        if lo > a + c:  # F^n(x) - x > a + c everywhere: the mediant is the new left end
            a, b, fb = a + c, n, fn
        else:  # F^n(x) - x < a + c everywhere: the mediant is the new right end
            c, d, fd = a + c, n, fn
        if b + d > q_max:
            break
        n, fn = b + d, _sweep(fb, fd)
    f0 = Fraction(*_lift_orbit(fq, q_max))
    return RotationResult("bounds", lo=(f0 - 1) / q_max, hi=(f0 + 1) / q_max)
