"""Exact checkers for the commutator-support containments and jump data.

The first two containments hold for arbitrary homeomorphisms, so a False
return flags a bug rather than a counterexample.  The third assumes C^1
regularity, which PL maps lack; it reports the offending set instead of
asserting.  All set arithmetic is exact on rational interval unions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .intervals import IntervalSet
from .plmaps import PLMap, commutator, compose, invert, require_same_domain


class HypothesisViolatedError(ValueError):
    pass


def check_commutator_support(f: PLMap, g: PLMap) -> bool:
    """closure(supp [f,g]) inside supp f + supp g + closure(supp f meet supp g)."""
    sf, sg = f.support(), g.support()
    lhs = f.closure(commutator(f, g).support())
    rhs = sf.union(sg).union(f.closure(sf.intersection(sg)))
    return lhs.is_subset_of(rhs)


def _phi(b: PLMap, b_inv: PLMap, c: PLMap, d: PLMap) -> PLMap:
    return commutator(c, compose(compose(b, d), b_inv))


def _cd_supports(c: PLMap, d: PLMap) -> tuple[IntervalSet, IntervalSet]:
    """supp c and supp d, which the phi checks require to be disjoint."""
    sc, sd = c.support(), d.support()
    if not sc.intersection(sd).is_empty():
        raise HypothesisViolatedError("supports of c and d intersect")
    return sc, sd


def check_phi_support(b: PLMap, c: PLMap, d: PLMap) -> bool:
    """supp [c, b d b^-1] inside supp b + cb(supp b meet supp d) + db^-1(supp b meet supp c).

    Requires supp c and supp d disjoint; holds for all homeomorphisms.
    """
    require_same_domain(b, c, d)
    sc, sd = _cd_supports(c, d)
    sb, b_inv = b.support(), invert(b)
    phi = _phi(b, b_inv, c, d)
    rhs = (
        sb
        .union(compose(c, b).image(sb.intersection(sd)))
        .union(compose(d, b_inv).image(sb.intersection(sc)))
    )
    return phi.support().is_subset_of(rhs)


@dataclass(frozen=True)
class C1ContainmentReport:
    holds: bool
    violating: IntervalSet  # closure(supp phi - supp b) minus (supp c + supp d)


def check_c1_containment(b: PLMap, c: PLMap, d: PLMap) -> C1ContainmentReport:
    """Report whether closure(supp phi - supp b) lies in supp c + supp d.

    True for C^1 triples; PL maps may legitimately violate it, so the
    offending set is returned rather than asserted away.
    """
    require_same_domain(b, c, d)
    sc, sd = _cd_supports(c, d)
    phi = _phi(b, invert(b), c, d)
    lhs = b.closure(phi.support().difference(b.support()))
    rhs = sc.union(sd)
    violating = lhs.difference(rhs)
    return C1ContainmentReport(violating.is_empty(), violating)


@dataclass(frozen=True)
class TwoJumpsReport:
    valid: bool
    gaps: tuple[Fraction, ...]  # |g(y_i) - f(y_i)| per triple
    failures: tuple[int, ...]  # indices of triples matching neither pattern


def check_two_jumps_prefix(
    f: PLMap, g: PLMap, triples: Iterable[tuple[Fraction, Fraction, Fraction]]
) -> TwoJumpsReport:
    """Verify each triple (s, t, y) matches one of the two crossing configurations.

    Configuration (i): f(y) <= s = g(s) < y < t = f(t) <= g(y); configuration
    (ii) swaps the roles.  Only the finite prefix is checked; the regularity
    conclusion needs infinite sequences and is not drawn here.
    """
    require_same_domain(f, g)
    gaps = []
    failures = []
    for i, (s, t, y) in enumerate(triples):
        fy, gy = f.evaluate(y), g.evaluate(y)
        fs, gs = f.evaluate(s), g.evaluate(s)
        ft, gt = f.evaluate(t), g.evaluate(t)
        cond_i = fy <= s and gs == s and s < y < t and ft == t and t <= gy
        cond_ii = gy <= t and ft == t and t < y < s and gs == s and s <= fy
        gaps.append(abs(gy - fy))
        if not (cond_i or cond_ii):
            failures.append(i)
    return TwoJumpsReport(not failures, tuple(gaps), tuple(failures))
