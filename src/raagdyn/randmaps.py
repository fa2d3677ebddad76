"""Seeded random PL maps for property suites and CLI verification runs.

Generators take an explicit random.Random so identical seeds reproduce
identical maps.  Interval maps mix freely-placed breakpoints with pinned
(fixed) ones so fixed sets contain both isolated points and flat stretches.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .plmaps import PLMapCircle, PLMapInterval, compose, invert

_DENOMS = (16, 24, 32, 48, 64)


def random_increasing(rng: Random, lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """Strictly increasing rationals strictly between lo and hi."""
    if count <= 0:
        return []
    grid = 4 * (count + 1)
    ks = sorted(rng.sample(range(1, grid), count))
    return [lo + (hi - lo) * Fraction(k, grid) for k in ks]


def _random_points(rng: Random, max_breaks: int, pin_prob: float | None):
    """Breakpoints of a random lift of [0, 1] on a grid of step 1/d.

    Each grid x is pinned (y = x) with probability pin_prob, and the points
    between two pins get random increasing values.  pin_prob None pins
    nothing and draws the value at 0 from the grid instead of taking 0.
    """
    d = rng.choice(_DENOMS)
    count = rng.randint(0, max_breaks)
    xs = [Fraction(k, d) for k in sorted(rng.sample(range(1, d), count))]
    if pin_prob is None:
        base = Fraction(rng.randint(0, d - 1), d)
        pinned = [False] * len(xs)
    else:
        base = Fraction(0)
        pinned = [rng.random() < pin_prob for _ in xs]

    pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), base)]
    pending: list[Fraction] = []

    def flush(anchor_x: Fraction, anchor_y: Fraction):
        ys = random_increasing(rng, pts[-1][1], anchor_y, len(pending))
        pts.extend(zip(pending, ys))
        pts.append((anchor_x, anchor_y))
        pending.clear()

    for x, pin in zip(xs, pinned):
        if pin:
            flush(x, x)  # pins are y = x, always above the previous anchor
        else:
            pending.append(x)
    flush(Fraction(1), base + 1)
    return pts


def random_interval_map(
    rng: Random, max_breaks: int = 5, pin_prob: float = 0.35
) -> PLMapInterval:
    return PLMapInterval.from_points(_random_points(rng, max_breaks, pin_prob))


def random_bump(rng: Random, lo, hi, max_breaks: int = 3) -> PLMapInterval:
    """Nontrivial map supported inside (lo, hi), identity elsewhere; needs 0 < lo < hi < 1."""
    lo, hi = Fraction(lo), Fraction(hi)
    inner = random_interval_map(rng, max_breaks=max_breaks, pin_prob=0.15)
    while inner.is_identity():
        inner = random_interval_map(rng, max_breaks=max(max_breaks, 1), pin_prob=0.15)
    pts = [(Fraction(0), Fraction(0)), (lo, lo)]
    for x, y in inner.points[1:-1]:
        pts.append((lo + (hi - lo) * x, lo + (hi - lo) * y))
    pts.extend([(hi, hi), (Fraction(1), Fraction(1))])
    return PLMapInterval.from_points(pts)


def random_circle_map(
    rng: Random, max_breaks: int = 4, grounded: bool = False
) -> PLMapCircle:
    return PLMapCircle.from_points(_random_points(rng, max_breaks, 0.3 if grounded else None))


def random_rotation_conjugate(
    rng: Random, max_q: int = 8
) -> tuple[PLMapCircle, Fraction]:
    """Conjugate of a rigid rational rotation; returns (map, rotation number)."""
    q = rng.randint(1, max_q)
    p = rng.randint(0, q - 1)
    h = random_circle_map(rng, grounded=rng.random() < 0.5)
    rot = PLMapCircle.rotation(Fraction(p, q))
    return compose(compose(h, rot), invert(h)), Fraction(p, q)


def random_disjoint_pair(rng: Random):
    """Two interval maps c, d with disjoint supports split around a random point."""
    d16 = rng.randint(5, 11)
    split = Fraction(d16, 16)
    pad = Fraction(1, 32)
    c = random_bump(rng, pad, split - pad)
    d = random_bump(rng, split + pad, 1 - pad)
    return c, d


def _bump_to_circle(m: PLMapInterval) -> PLMapCircle:
    return PLMapCircle.from_points(m.points)


def random_pair(rng: Random, domain: str = "I"):
    if domain == "S1":
        return (
            random_circle_map(rng, grounded=rng.random() < 0.6),
            random_circle_map(rng, grounded=rng.random() < 0.6),
        )
    return random_interval_map(rng), random_interval_map(rng)


def _crossing_bump(rng: Random, c, d) -> PLMapInterval:
    """Wide bump sending the middle of supp d into supp c."""
    ca, cb_ = c.support().hull()
    da, db_ = d.support().hull()
    z = (ca + cb_) / 2
    w = (da + db_) / 2
    lo = z * Fraction(rng.randint(1, 3), 4)
    hi = w + (1 - w) * Fraction(rng.randint(1, 3), 4)
    pts = [(Fraction(0), Fraction(0)), (lo, lo), (w, z), (hi, hi), (Fraction(1), Fraction(1))]
    return PLMapInterval.from_points(pts)


def random_phi_triple(rng: Random, domain: str = "I"):
    """(b, c, d) with supp c and supp d disjoint, b unconstrained.

    Two thirds of the draws force b to interact: either a bump throwing
    supp d across into supp c, or a wide bump straddling the split, so the
    commutator [c, b d b^-1] is mostly nontrivial.
    """
    ci, di = random_disjoint_pair(rng)
    c, d = (_bump_to_circle(ci), _bump_to_circle(di)) if domain == "S1" else (ci, di)
    mode = rng.random()
    if mode < 0.34:
        b = _crossing_bump(rng, ci, di)
    elif mode < 0.67:
        b = random_bump(
            rng,
            Fraction(rng.randint(1, 4), 64),
            1 - Fraction(rng.randint(1, 4), 64),
            max_breaks=4,
        )
    else:
        b = random_interval_map(rng) if domain != "S1" else None
    if domain == "S1":
        b = random_circle_map(rng, grounded=True) if b is None else _bump_to_circle(b)
    return b, c, d
