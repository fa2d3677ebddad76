"""Lamplighter certificates on the interval.

A pair (g, u) is certified when the closed hull K of supp g sits inside
(0,1), u throws inf K past sup K, and u never moves points left of themselves
from inf K on.  These conditions force u^j K to stay pairwise disjoint and
disjoint from K for every j >= 1, so g and all its u-conjugates commute and
the pair generates a copy of the wreath product of Z by Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .plmaps import PLMapInterval, compose, invert


class IdentityInputError(ValueError):
    pass


@dataclass(frozen=True)
class LamplighterCertificate:
    g: PLMapInterval
    u: PLMapInterval
    hull: tuple[Fraction, Fraction]  # closed convex hull K of supp g
    j_checked: int


def lamplighter_certificate(
    g: PLMapInterval, u: PLMapInterval, j_checked: int = 20
) -> Optional[LamplighterCertificate]:
    """Certificate that <g, u> is a lamplighter group, or None.

    The sufficient conditions are checked exactly on the PL data; when they
    hold, the commutation relations [g, u^j g u^-j] = 1 and the disjointness
    u^j(K) against K are additionally verified for j up to j_checked.
    """
    if g.is_identity():
        raise IdentityInputError("g must not be the identity")
    hull = g.support().hull()
    lo, hi = hull
    if not (0 < lo and hi < 1):
        return None
    # u(x) >= x on [lo, 1]: u(lo) > hi >= lo, and linear pieces make breakpoint checks sufficient
    if u.evaluate(lo) <= hi or any(y < x for x, y in u.points if x >= lo):
        return None

    # conj = u^j g u^-j is built one conjugation at a time: it stays supported
    # on u^j(K), while u^j itself gains breakpoints as j grows
    u_inv = invert(u)
    conj = g
    image_lo = lo
    for j in range(1, j_checked + 1):
        image_lo = u.evaluate(image_lo)
        if image_lo <= hi:
            raise AssertionError(f"certificate conditions violated at j={j}")
        conj = compose(compose(u, conj), u_inv)
        if compose(g, conj) != compose(conj, g):
            raise AssertionError(f"commutation [g, u^{j} g u^-{j}] failed")
    return LamplighterCertificate(g, u, hull, j_checked)


def certified_pair_disjointness(cert: LamplighterCertificate, j: int) -> bool:
    """Exact check that u^j maps the hull K of supp g off of K."""
    lo, hi = cert.hull
    return cert.u.evaluate_power(lo, j) > hi
