"""Exact checkers for the commutator-support containments and jump data.

The first two containments hold for arbitrary homeomorphisms, so a False
return flags a bug rather than a counterexample.  The third assumes C^1
regularity, which PL maps lack; it reports the offending set instead of
asserting.  All set arithmetic is exact on rational interval unions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .intervals import IntervalSet, circle_closure, unit_canon
from .plmaps import PLMap, PLMapCircle, commutator, compose, invert, require_same_domain


class HypothesisViolatedError(ValueError):
    pass


def _closure(f: PLMap, s: IntervalSet) -> IntervalSet:
    if isinstance(f, PLMapCircle):
        return circle_closure(s)
    return s.closure()


def _image(f: PLMap, s: IntervalSet) -> IntervalSet:
    """Exact image of an interval-union set under f."""
    if isinstance(f, PLMapCircle):
        return unit_canon(s.map_endpoints(f.evaluate_lift))
    return s.map_endpoints(f.evaluate)


def check_commutator_support(f: PLMap, g: PLMap) -> bool:
    """closure(supp [f,g]) inside supp f + supp g + closure(supp f meet supp g)."""
    require_same_domain(f, g)
    sf, sg = f.support(), g.support()
    lhs = _closure(f, commutator(f, g).support())
    rhs = sf.union(sg).union(_closure(f, sf.intersection(sg)))
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
        .union(_image(compose(c, b), sb.intersection(sd)))
        .union(_image(compose(d, b_inv), sb.intersection(sc)))
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
    lhs = _closure(b, phi.support().difference(b.support()))
    rhs = sc.union(sd)
    violating = lhs.difference(rhs)
    return C1ContainmentReport(violating.is_empty(), violating)


@dataclass(frozen=True)
class TwoJumpsData:
    f: PLMap
    g: PLMap
    triples: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (s_i, t_i, y_i)

    @staticmethod
    def of(f, g, triples) -> "TwoJumpsData":
        return TwoJumpsData(
            f, g, tuple((Fraction(s), Fraction(t), Fraction(y)) for s, t, y in triples)
        )


@dataclass(frozen=True)
class TwoJumpsReport:
    valid: bool
    gaps: tuple[Fraction, ...]  # |g(y_i) - f(y_i)| per triple
    failures: tuple[int, ...]  # indices of triples matching neither pattern


def _value(m: PLMap, x: Fraction) -> Fraction:
    if isinstance(m, PLMapCircle):
        return m.evaluate_circle(x)
    return m.evaluate(x)


def check_two_jumps_prefix(data: TwoJumpsData) -> TwoJumpsReport:
    """Verify each triple matches one of the two crossing configurations.

    Configuration (i): f(y) <= s = g(s) < y < t = f(t) <= g(y); configuration
    (ii) swaps the roles.  Only the finite prefix is checked; the regularity
    conclusion needs infinite sequences and is not drawn here.
    """
    require_same_domain(data.f, data.g)
    gaps = []
    failures = []
    for i, (s, t, y) in enumerate(data.triples):
        fy, gy = _value(data.f, y), _value(data.g, y)
        fs, gs = _value(data.f, s), _value(data.g, s)
        ft, gt = _value(data.f, t), _value(data.g, t)
        cond_i = fy <= s and gs == s and s < y < t and ft == t and t <= gy
        cond_ii = gy <= t and ft == t and t < y < s and gs == s and s <= fy
        gaps.append(abs(gy - fy))
        if not (cond_i or cond_ii):
            failures.append(i)
    return TwoJumpsReport(not failures, tuple(gaps), tuple(failures))
