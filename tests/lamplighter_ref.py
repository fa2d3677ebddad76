"""Reference lamplighter certificate loop, written the plain way.

For every j it builds u^j, conjugates g by it and takes the full commutator
[g, u^j g u^-j].  `raagdyn.lamplighter` replaced this with one conjugation
by u per step and a commutation test; tests compare the two for equal
certificates and equal refusals.
"""

from __future__ import annotations

from raagdyn.lamplighter import IdentityInputError, LamplighterCertificate
from raagdyn.plmaps import PLMapInterval, commutator, compose, invert


def lamplighter_certificate(g, u, j_checked: int = 20):
    if g.is_identity():
        raise IdentityInputError("g must not be the identity")
    hull = g.support().hull()
    lo, hi = hull
    if not (0 < lo and hi < 1):
        return None
    if u.evaluate(lo) <= hi:
        return None
    # u(x) >= x on [lo, 1]: u is linear between breakpoints, so lo and the
    # breakpoints at or right of lo are the points to check
    if u.evaluate(lo) < lo or any(u.evaluate(x) < x for x, _ in u.points if x >= lo):
        return None
    uj = PLMapInterval.identity()
    for j in range(1, j_checked + 1):
        uj = compose(uj, u)
        if uj.evaluate(lo) <= hi:
            raise AssertionError(f"certificate conditions violated at j={j}")
        conj = compose(compose(uj, g), invert(uj))
        if not commutator(g, conj).is_identity():
            raise AssertionError(f"commutation [g, u^{j} g u^-{j}] failed")
    return LamplighterCertificate(g, u, hull, j_checked)
