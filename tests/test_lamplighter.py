import dataclasses
from fractions import Fraction
from random import Random

import pytest

import lamplighter_ref as ref
import raagdyn.lamplighter
from raagdyn.lamplighter import (
    IdentityInputError,
    certified_pair_disjointness,
    lamplighter_certificate,
)
from raagdyn.plmaps import PLMapInterval, commutator, compose, invert, power
from test_acceptance import _certified_pair

F = Fraction


def bump_on_eighth_quarter():
    return PLMapInterval.from_points(
        [(0, 0), (F(1, 8), F(1, 8)), (F(3, 16), F(15, 64)), (F(1, 4), F(1, 4)), (1, 1)]
    )


def throwing_map():
    # u(1/8) = 1/2 and u(x) >= x beyond 1/8
    return PLMapInterval.from_points([(0, 0), (F(1, 8), F(1, 2)), (1, 1)])


class TestCertificate:
    def test_documented_example_certifies(self):
        cert = lamplighter_certificate(bump_on_eighth_quarter(), throwing_map())
        assert cert is not None
        assert cert.hull == (F(1, 8), F(1, 4))
        assert cert.j_checked == 20

    def test_identity_g_rejected(self):
        with pytest.raises(IdentityInputError):
            lamplighter_certificate(PLMapInterval.identity(), throwing_map())

    def test_identity_u_yields_none(self):
        assert lamplighter_certificate(bump_on_eighth_quarter(), PLMapInterval.identity()) is None

    def test_insufficient_throw_yields_none(self):
        u = PLMapInterval.from_points([(0, 0), (F(1, 8), F(3, 16)), (1, 1)])
        assert lamplighter_certificate(bump_on_eighth_quarter(), u) is None

    def test_backslide_yields_none(self):
        # u throws inf K far enough but dips below the diagonal later
        u = PLMapInterval.from_points(
            [(0, 0), (F(1, 8), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)]
        )
        assert lamplighter_certificate(bump_on_eighth_quarter(), u) is None

    def test_hull_touching_boundary_yields_none(self):
        g = PLMapInterval.from_points([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (1, 1)])
        assert g.support().hull()[0] == 0
        assert lamplighter_certificate(g, throwing_map()) is None

    def test_certified_relations_hold_exactly(self):
        cert = lamplighter_certificate(bump_on_eighth_quarter(), throwing_map(), j_checked=8)
        g, u = cert.g, cert.u
        for j in (1, 3, 8, 12):
            conj = compose(compose(power(u, j), g), invert(power(u, j)))
            assert commutator(g, conj).is_identity()
            assert certified_pair_disjointness(cert, j)


def _criterion_8_pairs(n=25, seed=808):
    """Criterion 8's certified pairs, each with variants that get refused or certified anew."""
    rng = Random(seed)
    pairs = [_certified_pair(rng) for _ in range(n)]
    out = []
    for (g, u), (g2, u2) in zip(pairs, pairs[1:] + pairs[:1]):
        out += [(g, u), (g, invert(u)), (g, compose(u, u)), (g2, u), (compose(g, g2), u2), (u, g)]
    return out


class TestAgainstReferenceLoop:
    """Certificates and refusals as the loop that rebuilt u^j for every j gave them."""

    def test_certificates_and_refusals_match(self):
        outcomes = set()
        for g, u in _criterion_8_pairs():
            for j_checked in (1, 20):
                want = ref.lamplighter_certificate(g, u, j_checked)
                assert lamplighter_certificate(g, u, j_checked) == want
                outcomes.add(want is None)
        assert outcomes == {True, False}  # both certified pairs and refusals were compared

    def test_broken_commutation_still_raises(self, monkeypatch):
        g, u = bump_on_eighth_quarter(), throwing_map()
        real = raagdyn.lamplighter.compose
        # g after conj becomes g conj g, which differs from conj g unless g is the identity
        monkeypatch.setattr(
            raagdyn.lamplighter, "compose", lambda f, h: real(real(f, h), f) if f is g else real(f, h)
        )
        with pytest.raises(AssertionError, match=r"commutation \[g, u\^1 g u\^-1\] failed"):
            lamplighter_certificate(g, u)

    def test_disjointness_point_matches_power(self):
        """u^j(inf K) is exactly power(u, j)(inf K): a hull ending there is not cleared."""
        for g, u in _criterion_8_pairs(n=10):
            cert = lamplighter_certificate(g, u, j_checked=1)
            if cert is None:
                continue
            lo = cert.hull[0]
            for j in range(-2, 21):
                x = power(u, j).evaluate(lo)
                for hi in (x, x - F(1, 10**9)):
                    probe = dataclasses.replace(cert, hull=(lo, hi))
                    assert certified_pair_disjointness(probe, j) == (x > hi)

