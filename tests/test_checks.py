from fractions import Fraction
from random import Random

import pytest

from raagdyn.checks import (
    HypothesisViolatedError,
    check_c1_containment,
    check_commutator_support,
    check_phi_support,
    check_two_jumps_prefix,
)
from raagdyn.plmaps import DomainMismatchError, PLMapCircle, PLMapInterval, commutator
from raagdyn.randmaps import (
    random_circle_map,
    random_disjoint_pair,
    random_interval_map,
    random_phi_triple,
)

F = Fraction


class TestCommutatorSupport:
    def test_disjoint_supports(self):
        rng = Random(1)
        c, d = random_disjoint_pair(rng)
        assert commutator(c, d).is_identity()
        assert check_commutator_support(c, d)

    def test_equal_maps(self):
        rng = Random(2)
        f = random_interval_map(rng)
        assert check_commutator_support(f, f)

    def test_random_batch_interval(self):
        rng = Random(101)
        for _ in range(100):
            assert check_commutator_support(
                random_interval_map(rng), random_interval_map(rng)
            )

    def test_random_batch_circle(self):
        rng = Random(102)
        for _ in range(40):
            f = random_circle_map(rng, grounded=rng.random() < 0.7)
            g = random_circle_map(rng, grounded=rng.random() < 0.7)
            assert check_commutator_support(f, g)


class TestPhiSupport:
    def test_identity_d(self):
        rng = Random(3)
        b = random_interval_map(rng)
        c = random_interval_map(rng)
        assert check_phi_support(b, c, PLMapInterval.identity())

    def test_overlap_rejected(self):
        rng = Random(4)
        b = random_interval_map(rng)
        bump = PLMapInterval.from_points(
            [(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (1, 1)]
        )
        with pytest.raises(HypothesisViolatedError):
            check_phi_support(b, bump, bump)

    def test_random_batch(self):
        rng = Random(105)
        for i in range(100):
            domain = "S1" if i % 4 == 3 else "I"
            b, c, d = random_phi_triple(rng, domain)
            assert check_phi_support(b, c, d)


class TestC1Containment:
    def test_identity_d_holds(self):
        rng = Random(6)
        b = random_interval_map(rng)
        c = random_interval_map(rng)
        report = check_c1_containment(b, c, PLMapInterval.identity())
        assert report.holds and report.violating.is_empty()

    def test_gentle_triple_holds(self):
        # b smooth-ish, supports overlapping mildly: containment holds here
        b = PLMapInterval.from_points([(0, 0), (F(1, 2), F(5, 8)), (1, 1)])
        c = PLMapInterval.from_points(
            [(0, 0), (F(1, 8), F(1, 8)), (F(1, 4), F(5, 16)), (F(3, 8), F(3, 8)), (1, 1)]
        )
        d = PLMapInterval.from_points(
            [(0, 0), (F(1, 2), F(1, 2)), (F(5, 8), F(11, 16)), (F(3, 4), F(3, 4)), (1, 1)]
        )
        report = check_c1_containment(b, c, d)
        assert report.holds

    def test_hypothesis_guard(self):
        bump = PLMapInterval.from_points(
            [(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (1, 1)]
        )
        with pytest.raises(HypothesisViolatedError):
            check_c1_containment(bump, bump, bump)

    def test_report_never_asserts(self):
        # PL triples may violate the containment; the report must stay
        # consistent either way over a random batch
        rng = Random(77)
        holds, fails = 0, 0
        for _ in range(60):
            b, c, d = random_phi_triple(rng)
            report = check_c1_containment(b, c, d)
            if report.holds:
                holds += 1
                assert report.violating.is_empty()
            else:
                fails += 1
                assert not report.violating.is_empty()
        assert holds > 0  # the benign cases certainly occur


class TestPreconditionOrder:
    """Mixed domains are refused before the support hypothesis is tested."""

    def test_mixed_domains_before_overlap(self):
        b = PLMapCircle.from_points([(0, F(1, 3)), (1, F(4, 3))])
        bump = PLMapInterval.from_points(
            [(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (1, 1)]
        )
        for check in (check_phi_support, check_c1_containment):
            with pytest.raises(DomainMismatchError):
                check(b, bump, bump)

    def test_two_jumps_mixed_domains(self):
        rng = Random(9)
        with pytest.raises(DomainMismatchError):
            check_two_jumps_prefix(random_interval_map(rng), random_circle_map(rng), [])


def three_block_crossing():
    """f fixes t_i, g fixes s_i, and both throw y_i across, in shrinking blocks."""
    blocks = [(F(1, 8), F(1, 8)), (F(3, 8), F(1, 16)), (F(5, 8), F(1, 32))]
    f_pts = [(F(0), F(0))]
    g_pts = [(F(0), F(0))]
    triples = []
    for a, w in blocks:
        s, y, t = a + w / 4, a + w / 2, a + 3 * w / 4
        f_pts += [(a, a), (y, s), (t, t), (a + w, a + w)]
        g_pts += [(a, a), (s, s), (y, t), (a + w, a + w)]
        triples.append((s, t, y))
    f_pts.append((F(1), F(1)))
    g_pts.append((F(1), F(1)))
    f = PLMapInterval.from_points(f_pts)
    g = PLMapInterval.from_points(g_pts)
    return f, g, triples


class TestTwoJumps:
    def test_empty_is_valid(self):
        rng = Random(8)
        report = check_two_jumps_prefix(random_interval_map(rng), random_interval_map(rng), [])
        assert report.valid and report.gaps == ()

    def test_hand_built_blocks(self):
        f, g, triples = three_block_crossing()
        report = check_two_jumps_prefix(f, g, triples)
        assert report.valid
        assert list(report.gaps) == [F(1, 16), F(1, 32), F(1, 64)]
        assert all(g1 > g2 for g1, g2 in zip(report.gaps, report.gaps[1:]))

    def test_violating_triple_detected(self):
        f, g, triples = three_block_crossing()
        bad = list(triples)
        s, t, y = bad[1]
        bad[1] = (s + F(1, 256), t, y)  # s no longer fixed by g
        report = check_two_jumps_prefix(f, g, bad)
        assert not report.valid and report.failures == (1,)

    def test_swapped_configuration(self):
        # mirror-image data matches pattern (ii)
        f, g, triples = three_block_crossing()
        swapped = [(t, s, y) for s, t, y in triples]
        report = check_two_jumps_prefix(g, f, swapped)
        assert report.valid
