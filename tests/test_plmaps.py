import functools
import hashlib
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import plmaps_ref as ref
import raagdyn.plmaps
from raagdyn.actions import build_separating_action
from raagdyn.intervals import IntervalSet
from raagdyn.plmaps import (
    DomainMismatchError,
    PLMapCircle,
    PLMapInterval,
    _canonical,
    _compose_lifts,
    _invert_lift,
    commutator,
    compose,
    invert,
    power,
    rotation_number,
)
from raagdyn.randmaps import (
    random_circle_map,
    random_disjoint_pair,
    random_interval_map,
    random_pair,
    random_phi_triple,
    random_rotation_conjugate,
)

F = Fraction


@st.composite
def interval_maps(draw):
    d = draw(st.sampled_from([8, 12, 16, 24]))
    count = draw(st.integers(0, 4))
    xs = sorted(draw(st.lists(st.integers(1, d - 1), min_size=count, max_size=count, unique=True)))
    ys = sorted(draw(st.lists(st.integers(1, 4 * d - 1), min_size=count, max_size=count, unique=True)))
    pts = [(F(0), F(0))]
    pts += [(F(x, d), F(y, 4 * d)) for x, y in zip(xs, ys)]
    pts.append((F(1), F(1)))
    return PLMapInterval.from_points(pts)


@st.composite
def circle_maps(draw):
    """Grounded lifts (F(0) = 0) and lifts with F(0) in (0, 1)."""
    d = draw(st.sampled_from([8, 12, 16, 24]))
    f0 = F(draw(st.integers(0, d - 1)), d)
    count = draw(st.integers(0, 4))
    xs = sorted(draw(st.lists(st.integers(1, d - 1), min_size=count, max_size=count, unique=True)))
    ys = sorted(draw(st.lists(st.integers(1, 4 * d - 1), min_size=count, max_size=count, unique=True)))
    pts = [(F(0), f0)]
    pts += [(F(x, d), f0 + F(y, 4 * d)) for x, y in zip(xs, ys)]
    pts.append((F(1), f0 + 1))
    return PLMapCircle.from_points(pts)


@st.composite
def points01(draw):
    return F(draw(st.integers(0, 48)), 48)


# interval maps are checked through `evaluate`, circle maps through their lifts
DOMAINS = pytest.mark.parametrize(
    "maps, ev",
    [(interval_maps, "evaluate"), (circle_maps, "evaluate_lift")],
    ids=["I", "S1"],
)


def _wide_map(rng, f0):
    """A lift with 500 interior breakpoints and F(0) = f0."""
    xs = sorted(rng.sample(range(1, 1000), 500))
    ys = sorted(rng.sample(range(1, 4000), 500))
    pts = [(F(0), f0)] + [(F(x, 1000), f0 + F(y, 4000)) for x, y in zip(xs, ys)]
    return pts + [(F(1), f0 + 1)]


class TestConstruction:
    def test_requires_corner_pins(self):
        with pytest.raises(ValueError):
            PLMapInterval.from_points([(0, 0), (1, F(1, 2))])
        with pytest.raises(ValueError):
            PLMapInterval.from_points([(0, F(1, 8)), (1, 1)])

    def test_requires_monotone(self):
        with pytest.raises(ValueError):
            PLMapInterval.from_points([(0, 0), (F(1, 2), F(3, 4)), (F(1, 2), F(7, 8)), (1, 1)])
        with pytest.raises(ValueError):
            PLMapInterval.from_points([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (1, 1)])

    def test_collinear_points_dropped(self):
        m = PLMapInterval.from_points([(0, 0), (F(1, 4), F(1, 4)), (1, 1)])
        assert m == PLMapInterval.identity()

    def test_circle_lift_normalized(self):
        m = PLMapCircle.from_points([(0, F(7, 3)), (1, F(10, 3))])
        assert m.points[0][1] == F(1, 3)
        assert m == PLMapCircle.rotation(F(1, 3))

    def test_shifted_identity_lift_is_identity(self):
        m = PLMapCircle.from_points([(0, 2), (1, 3)])
        assert m.is_identity()

    def test_circle_seam_condition(self):
        with pytest.raises(ValueError):
            PLMapCircle.from_points([(0, 0), (1, F(3, 2))])
        for pts in ([(0, 0)], [(0, 0), (F(1, 2), 1)], [(F(1, 4), 0), (1, 1)]):
            with pytest.raises(ValueError, match=r"must cover abscissae \[0, 1\]"):
                PLMapCircle.from_points(pts)


class TestGroupStructure:
    @DOMAINS
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), x=points01())
    def test_compose_evaluates_pointwise(self, maps, ev, data, x):
        # a normalized circle composite may drop F(G(0)) by an integer; pinned
        # interval maps have every term at 0 equal to 0
        f, g = data.draw(maps()), data.draw(maps())
        h = compose(f, g)

        def fg(x):
            return getattr(f, ev)(getattr(g, ev)(x))

        assert getattr(h, ev)(x) - getattr(h, ev)(0) == fg(x) - fg(0)

    @DOMAINS
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_inverse_identities(self, maps, ev, data):
        f = data.draw(maps())
        assert compose(invert(f), f).is_identity()
        assert compose(f, invert(f)).is_identity()

    @DOMAINS
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_associativity(self, maps, ev, data):
        f, g, h = data.draw(maps()), data.draw(maps()), data.draw(maps())
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @pytest.mark.parametrize(
        "pts, inv",
        [
            # F(1/2) = 1: the breakpoint lands exactly on the seam
            ([(0, F(1, 4)), (F(1, 2), 1), (1, F(5, 4))],
             [(0, F(1, 2)), (F(1, 4), 1), (1, F(3, 2))]),
            # grounded: no rotation of the swapped pairs
            ([(0, 0), (F(1, 4), F(1, 2)), (1, 1)],
             [(0, 0), (F(1, 2), F(1, 4)), (1, 1)]),
            # the inverse has its seam value strictly inside a segment
            ([(0, F(1, 2)), (F(1, 2), F(3, 4)), (1, F(3, 2))],
             [(0, F(2, 3)), (F(1, 2), 1), (F(3, 4), F(3, 2)), (1, F(5, 3))]),
        ],
        ids=["seam-breakpoint", "grounded", "seam-inside-segment"],
    )
    def test_circle_inverse_edge_cases(self, pts, inv):
        f = PLMapCircle.from_points(pts)
        assert invert(f) == PLMapCircle.from_points(inv)
        assert compose(f, invert(f)).is_identity()
        assert compose(invert(f), f).is_identity()

    @settings(max_examples=60, deadline=None)
    @given(circle_maps(), st.integers(2, 6), points01())
    @example(
        PLMapCircle.from_points([(0, F(7, 8)), (F(1, 2), F(3, 2)), (1, F(15, 8))]),
        5,
        F(1, 3),
    )
    def test_unnormalized_iterates_match_lift(self, f, q, x):
        # rotation_number's F^q keeps its integer shift, so G(0) reaches 1 and beyond
        pts = f.points
        for _ in range(q - 1):
            pts = _compose_lifts(f.points, pts)
        want = x
        for _ in range(q):
            want = f.evaluate_lift(want)
        assert PLMapCircle(tuple(pts)).evaluate_lift(x) == want

    @pytest.mark.parametrize(
        "kind, f0, g0", [(PLMapInterval, 0, 0), (PLMapCircle, F(1, 3), F(5, 7))], ids=["I", "S1"]
    )
    def test_wide_compose_matches_at_every_cut(self, kind, f0, g0):
        rng = Random(500)
        f = kind.from_points(_wide_map(rng, f0))
        g = kind.from_points(_wide_map(rng, g0))
        h = compose(f, g)
        cuts = _compose_lifts(f.points, g.points)
        assert len(cuts) > len(g.points) > 400
        shift = h.evaluate_lift(0) - cuts[0][1]
        for x, y in cuts:
            assert y == f.evaluate_lift(g.evaluate_lift(x))
            assert h.evaluate_lift(x) == y + shift

    @settings(max_examples=50, deadline=None)
    @given(interval_maps())
    def test_commutator_with_identity(self, f):
        assert commutator(f, PLMapInterval.identity()).is_identity()

    def test_disjoint_supports_commute(self):
        rng = Random(12)
        for _ in range(25):
            c, d = random_disjoint_pair(rng)
            assert commutator(c, d).is_identity()

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            compose(PLMapInterval.identity(), PLMapCircle.identity())

    def test_power_agrees_with_composition(self):
        rng = Random(3)
        f = random_interval_map(rng)
        assert power(f, 0).is_identity()
        assert power(f, 3) == compose(f, compose(f, f))
        assert power(f, -2) == invert(compose(f, f))

    def test_circle_group_ops(self):
        rng = Random(44)
        for _ in range(15):
            f = random_circle_map(rng, grounded=rng.random() < 0.5)
            g = random_circle_map(rng, grounded=rng.random() < 0.5)
            assert compose(invert(f), f).is_identity()
            x = F(rng.randint(0, 15), 16)
            assert compose(f, g).evaluate(x) == f.evaluate(g.evaluate(x))

    def test_inversion_is_an_involution(self):
        rng = Random(45)
        for _ in range(20):
            f = random_interval_map(rng)
            assert invert(invert(f)) == f
            c = random_circle_map(rng, grounded=rng.random() < 0.5)
            assert invert(invert(c)) == c


class TestSupport:
    def test_identity_support_empty(self):
        assert PLMapInterval.identity().support().is_empty()

    def test_single_bump_support(self):
        m = PLMapInterval.from_points(
            [(0, 0), (F(1, 4), F(1, 4)), (F(3, 8), F(7, 16)), (F(1, 2), F(1, 2)), (1, 1)]
        )
        assert m.support() == IntervalSet.open(F(1, 4), F(1, 2))

    def test_fixed_set_mixes_intervals_and_points(self):
        # identity on [0, 1/4], then a diagonal crossing at x = 4/5
        m = PLMapInterval.from_points(
            [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(3, 4)), (F(7, 8), F(13, 16)), (1, 1)]
        )
        fix = m.fixed_set()
        assert fix.contains(F(1, 8)) and fix.contains(F(1, 4))
        assert fix.contains(F(4, 5)) and fix.contains(1)
        assert not fix.contains(F(3, 8)) and not fix.contains(F(7, 8))

    def test_support_equivariance(self):
        rng = Random(7)
        for _ in range(40):
            f = random_interval_map(rng)
            g = random_interval_map(rng)
            conj = compose(compose(g, f), invert(g))
            assert conj.support() == f.support().map_endpoints(g.evaluate)

    def test_support_of_inverse_and_powers(self):
        rng = Random(8)
        for _ in range(30):
            f = random_interval_map(rng)
            supp = f.support()
            assert invert(f).support() == supp
            for n in (2, 3):
                assert power(f, n).support().is_subset_of(supp)

    def test_circle_support_wraps(self):
        # fixed exactly at 1/2: support is the single wrapped arc
        m = PLMapCircle.from_points(
            [(0, F(1, 16)), (F(1, 2), F(1, 2)), (1, F(17, 16))]
        )
        supp = m.support()
        assert supp.contains(0) and not supp.contains(F(1, 2))

    def test_support_of_map_fixed_only_at_0_is_invariant(self):
        # on the lift the support (0, 1) has length exactly 1
        f = PLMapCircle.from_points([(0, 0), (F(1, 2), F(5, 8)), (1, 1)])
        assert f.support() == IntervalSet.open(0, 1)
        assert f.image(f.support()) == f.support()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), domain=st.sampled_from(["I", "S1"]))
    def test_support_is_invariant(self, seed, domain):
        rng = Random(seed)
        if domain == "I":
            f = random_interval_map(rng)
        else:
            f = random_circle_map(rng, grounded=rng.random() < 0.5)
        assert f.image(f.support()) == f.support()


class TestGrounded:
    """A map is grounded when it has a fixed point, i.e. a nonempty fixed set."""

    def test_interval_always(self):
        rng = Random(1)
        assert random_interval_map(rng).fixed_set().contains(0)

    def test_rotation_not_grounded(self):
        assert PLMapCircle.rotation(F(1, 3)).fixed_set().is_empty()

    def test_circle_with_fixed_zero(self):
        m = PLMapCircle.from_points([(0, 0), (F(1, 2), F(5, 8)), (1, 1)])
        assert m.fixed_set().contains(0)


class TestRotationNumber:
    def test_rigid_rotations(self):
        for p, q in ((1, 3), (2, 5), (0, 1), (5, 7)):
            res = rotation_number(PLMapCircle.rotation(F(p, q)))
            assert res.is_exact() and res.value == F(p, q)

    def test_fixed_point_gives_zero(self):
        m = PLMapCircle.from_points([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
        res = rotation_number(m)
        assert res.is_exact() and res.value == 0

    def test_grounded_iff_zero(self):
        rng = Random(21)
        for _ in range(40):
            f = random_circle_map(rng, grounded=rng.random() < 0.5)
            res = rotation_number(f, q_max=12)
            if res.is_exact():
                assert (res.value == 0) == (not f.fixed_set().is_empty())

    def test_remark_composition(self):
        b = PLMapCircle.rotation(F(1, 4))
        c = PLMapCircle.from_points(
            [(0, 0), (F(1, 8), F(1, 4)), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)),
             (F(5, 8), F(3, 4)), (F(3, 4), F(7, 8)), (1, 1)]
        )
        assert rotation_number(compose(b, c)).value == F(1, 3)

    def test_conjugation_invariance(self):
        rng = Random(5)
        for _ in range(20):
            f, rot = random_rotation_conjugate(rng, max_q=6)
            res = rotation_number(f, q_max=8)
            assert res.is_exact() and res.value == rot

    def test_bounds_contain_true_value(self):
        f = PLMapCircle.rotation(F(1, 101))
        res = rotation_number(f, q_max=30)
        assert not res.is_exact()
        assert res.lo <= F(1, 101) <= res.hi
        assert res.hi - res.lo == F(2, 30)

    def test_qmax_validation(self):
        with pytest.raises(ValueError):
            rotation_number(PLMapCircle.identity(), q_max=0)


def _mediant_walk(rot, q_max):
    """How many Stern-Brocot mediants, of denominator at most q_max, the descent to rot in (0, 1) meets."""
    (a, b), (c, d) = (0, 1), (1, 1)
    walk = 0
    while b + d <= q_max:
        walk += 1
        m = F(a + c, b + d)
        if m == rot:
            break
        if m < rot:
            a, b = a + c, b + d
        else:
            c, d = a + c, b + d
    return walk


def _edge_maps():
    """(map, q_max, exact) for rigid rotations and seeded periodic maps by p/q, q = q_max and q_max + 1, p = 1 and q - 1."""
    out = []
    for q_max in (1, 2, 5, 64):
        for q in (q_max, q_max + 1):
            for p in sorted({1, q - 1}):
                rng = Random(1000 * q + p)
                maps = {"rigid": PLMapCircle.rotation(F(p, q)),
                        "periodic": PLMapCircle.from_points(ref.periodic_points(rng, p, q))}
                out += [pytest.param(f, q_max, q <= q_max, id=f"{kind}-{p}/{q}-qmax{q_max}")
                        for kind, f in maps.items()]
    return out


class TestSternBrocotDescent:
    """`rotation_number` sweeps once per mediant on the Stern-Brocot path, and gives the F^q loop's results."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = raagdyn.plmaps._sweep

        def counted(fq, gq):
            calls.append(None)
            return sweep(fq, gq)

        monkeypatch.setattr(raagdyn.plmaps, "_sweep", counted)
        return calls

    @pytest.mark.parametrize("rot", [F(1, 3), F(5, 7), F(34, 67), F(1, 67)])
    def test_rigid_rotation_sweeps(self, sweeps, rot):
        res = rotation_number(PLMapCircle.rotation(rot), 64)
        assert res.is_exact() == (rot.denominator <= 64)
        assert len(sweeps) == _mediant_walk(rot, 64)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_67_point_periodic_map_sweeps(self, sweeps, seed):
        rng = Random(seed)
        p = rng.randrange(1, 67)
        f = PLMapCircle.from_points(ref.periodic_points(rng, p, 67))
        assert not rotation_number(f, 64).is_exact()
        assert len(sweeps) == _mediant_walk(F(p, 67), 64)

    def test_all_rotations_by_p_over_67(self, sweeps):
        """66 descents of 992 sweeps in all, where the F^q loop takes 63 each (4,158)."""
        for p in range(1, 67):
            rotation_number(PLMapCircle.rotation(F(p, 67)), 64)
        assert len(sweeps) == sum(_mediant_walk(F(p, 67), 64) for p in range(1, 67)) == 992

    def test_fixed_point_takes_no_sweep(self, sweeps):
        m = PLMapCircle.from_points([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
        assert rotation_number(m).value == 0
        assert sweeps == []

    @pytest.mark.parametrize("f, q_max, exact", _edge_maps())
    def test_edges_match_reference(self, f, q_max, exact):
        res = rotation_number(f, q_max)
        assert res.is_exact() == exact
        assert res == ref.rotation_number(f, q_max)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), q=st.integers(1, 100), q_max=st.integers(1, 100))
    def test_periodic_maps_match_reference(self, seed, q, q_max):
        rng = Random(seed)
        f = PLMapCircle.from_points(ref.periodic_points(rng, rng.randrange(q), q))
        assert rotation_number(f, q_max) == ref.rotation_number(f, q_max)


@functools.cache
def _deep_iterates():
    """(kind, unnormalized F^64 lift) for maps whose 64th iterates pass 300-bit denominators."""
    maps = [random_interval_map(Random(seed), max_breaks=3, pin_prob=0) for seed in (5, 7)]
    maps += [random_circle_map(Random(seed), max_breaks=3) for seed in (7, 33)]
    out = []
    for f in maps:
        pts = f.points
        for _ in range(63):
            pts = ref.compose_lifts(f.points, pts)
        out.append((type(f), pts))
    return out


@st.composite
def slope_one_maps(draw, circle):
    """Lifts whose pieces often have slope 1, on or off the diagonal or an integer shift of it."""
    d = 24
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), max_size=5, unique=True)))
    xs = [0] + cuts + [d]
    ones = [draw(st.booleans()) for _ in cuts + [d]]
    free = [x1 - x0 for (x0, x1), one in zip(zip(xs, xs[1:]), ones) if not one]
    weights = [draw(st.integers(1, 6)) for _ in free]
    y = F(draw(st.integers(0, d - 1)), d) if circle else F(0)
    pts = [(F(0), y)]
    k = 0
    for (x0, x1), one in zip(zip(xs, xs[1:]), ones):
        if one:
            y += F(x1 - x0, d)
        else:
            y += F(sum(free), d) * F(weights[k], sum(weights))
            k += 1
        pts.append((F(x1, d), y))
    return (PLMapCircle if circle else PLMapInterval).from_points(pts)


class TestAgainstFractionReference:
    """Integer code gives the Fraction code's breakpoints, rotation results and fixed sets exactly."""

    @DOMAINS
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.integers(1, 5), q=st.integers(1, 5))
    def test_compose_lifts_on_unnormalized_iterates(self, maps, ev, data, p, q):
        f, g = data.draw(maps()), data.draw(maps())
        fpts, gpts = f.points, g.points
        for _ in range(p - 1):
            fpts = ref.compose_lifts(f.points, fpts)
        for _ in range(q - 1):
            gpts = ref.compose_lifts(g.points, gpts)
        assert _compose_lifts(fpts, gpts) == ref.compose_lifts(fpts, gpts)

    def test_deep_iterates_are_deep(self):
        for _, pts in _deep_iterates():
            assert max(max(x.denominator, y.denominator) for x, y in pts).bit_length() >= 300
        assert max(pts[0][1] for _, pts in _deep_iterates()) > 36  # G(0) past 1 as well

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_compose_lifts_on_deep_iterates(self, data):
        kind, big = data.draw(st.sampled_from(_deep_iterates()))
        f = data.draw(interval_maps() if kind is PLMapInterval else circle_maps())
        for a, b in ((f.points, big), (big, f.points), (big, big)):
            assert _compose_lifts(a, b) == ref.compose_lifts(a, b)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), q=st.integers(1, 12), q_max=st.integers(1, 12))
    def test_rotation_on_periodic_maps(self, seed, q, q_max):
        rng = Random(seed)
        f = PLMapCircle.from_points(ref.periodic_points(rng, rng.randrange(q), q))
        assert rotation_number(f, q_max) == ref.rotation_number(f, q_max)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_rotation_on_67_point_periodic_maps(self, seed):
        rng = Random(seed)
        f = PLMapCircle.from_points(ref.periodic_points(rng, rng.randrange(1, 67), 67))
        res = rotation_number(f, 64)
        assert not res.is_exact()
        assert res == ref.rotation_number(f, 64)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), grounded=st.booleans(), q_max=st.integers(1, 64))
    def test_rotation_on_random_circle_maps(self, seed, grounded, q_max):
        f = random_circle_map(Random(seed), grounded=grounded)
        assert rotation_number(f, q_max) == ref.rotation_number(f, q_max)

    @staticmethod
    def assert_fixed_set_matches(f):
        assert f.fixed_set().parts == ref.fixed_set(f)
        assert f.support().parts == ref.support(f)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), circle=st.booleans(), n=st.integers(1, 3))
    def test_fixed_set_on_slope_one_pieces(self, data, circle, n):
        f = data.draw(slope_one_maps(circle))
        self.assert_fixed_set_matches(power(f, n))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), domain=st.sampled_from(["I", "S1"]))
    def test_fixed_set_on_phi_maps_and_iterates(self, seed, domain):
        rng = Random(seed)
        f, g = random_pair(rng, domain)
        b, c, d = random_phi_triple(rng, domain)
        phi = commutator(c, compose(compose(b, d), invert(b)))
        for m in (f, g, commutator(f, g), phi, power(phi, 2), power(f, 3)):
            self.assert_fixed_set_matches(m)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), q=st.integers(1, 9))
    def test_fixed_set_on_periodic_iterates(self, seed, q):
        rng = Random(seed)
        f = PLMapCircle.from_points(ref.periodic_points(rng, rng.randrange(q), q))
        for n in (1, q, q + 1):  # f^q is an integer shift of the identity on the lift
            self.assert_fixed_set_matches(power(f, n))


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def raw_breakpoints(draw):
    """(map class, point list): increasing lists, lists with collinear runs, lists with pairs that do not increase."""
    kind = draw(st.sampled_from([PLMapInterval, PLMapCircle]))
    d = draw(st.sampled_from([4, 8, 12]))
    f0 = F(draw(st.integers(0, d - 1)), d) if kind is PLMapCircle else F(0)
    count = draw(st.integers(0, d - 1))
    xs = sorted(draw(st.lists(st.integers(1, d - 1), min_size=count, max_size=count, unique=True)))
    ys = sorted(draw(st.lists(st.integers(1, 4 * d - 1), min_size=count, max_size=count, unique=True)))
    pts = [(F(0), f0)] + [(F(x, d), f0 + F(y, 4 * d)) for x, y in zip(xs, ys)] + [(F(1), f0 + 1)]
    out = [pts[0]]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):  # runs of 0 to 2 points inside a segment
        k = draw(st.integers(0, 2))
        out += [(x0 + (x1 - x0) * j / (k + 1), y0 + (y1 - y0) * j / (k + 1)) for j in range(1, k + 1)]
        out.append((x1, y1))
    for _ in range(draw(st.integers(0, 2)) if len(out) > 2 else 0):
        # one interior coordinate repeats a neighbour's or passes it
        i = draw(st.integers(1, len(out) - 2))
        c = draw(st.integers(0, 1))
        step = draw(st.sampled_from([0, F(1, 4 * d), F(1, 2)]))
        j = draw(st.sampled_from([i - 1, i + 1]))
        v = out[j][c] + (step if j > i else -step)
        out[i] = (v, out[i][1]) if c == 0 else (out[i][0], v)
    return kind, out


def _reference_value(m, x, lift):
    """The parent's `evaluate_lift` (lift true) or interval `evaluate` at x, through the reference interpolator."""
    xs, ys = [p[0] for p in m.points], [p[1] for p in m.points]
    if not lift:
        return ref.eval_pl(xs, ys, x)
    k = math.floor(x)
    return ref.eval_pl(xs, ys, x - k) + k


def _seeded_maps():
    """`_wide_map` lifts of both kinds and seeded interval and circle maps."""
    rng = Random(97)
    maps = [PLMapInterval.from_points(_wide_map(rng, F(0))), PLMapCircle.from_points(_wide_map(rng, F(2, 7)))]
    maps += [random_interval_map(Random(seed)) for seed in range(12)]
    return maps + [random_circle_map(Random(seed), grounded=seed % 2 == 0) for seed in range(12)]


@st.composite
def seam_circle_maps(draw, on_breakpoint):
    """Circle maps with F(0) in (0, 1) whose F^-1(1) is a breakpoint, or falls strictly inside a segment."""
    d = 24
    f0 = F(draw(st.integers(1, d - 1)), d)
    below = [F(v, 4 * d) for v in draw(st.lists(st.integers(int(4 * d * f0) + 1, 4 * d - 1), max_size=3, unique=True))]
    above = [F(v, 4 * d) for v in draw(st.lists(st.integers(4 * d + 1, int(4 * d * (f0 + 1)) - 1),
                                               max_size=3, unique=True))]
    ys = sorted(below) + ([F(1)] if on_breakpoint else []) + sorted(above)
    xs = sorted(draw(st.lists(st.integers(1, d - 1), min_size=len(ys), max_size=len(ys), unique=True)))
    f = PLMapCircle.from_points([(F(0), f0)] + [(F(x, d), y) for x, y in zip(xs, ys)] + [(F(1), f0 + 1)])
    assume(any(y == 1 for _, y in f.points) == on_breakpoint)  # a collinear breakpoint at 1 is dropped
    return f


class TestBreakpointReader:
    """The one-pass checker, the bisecting reader and the inverse's seam match the parent code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(raw_breakpoints())
    @example((PLMapInterval, [(F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 4)), (F(1), F(1))]))
    def test_canonical_matches_two_pass_check(self, raw):
        kind, pts = raw

        def two_pass(pts):
            pts = kind._normalize(pts)
            ref.check_strictly_increasing(pts)
            return ref.canonical(pts)

        want = _outcome(two_pass, list(pts))
        assert _outcome(lambda pts: _canonical(kind._normalize(pts)), list(pts)) == want
        assert _outcome(lambda pts: kind.from_points(pts).points, pts) == want

    @pytest.mark.parametrize("m", _seeded_maps(), ids=lambda m: f"{m.DOMAIN}-{len(m.points)}")
    def test_evaluate_matches_reference(self, m):
        xs = [p[0] for p in m.points]
        probes = xs + [F(0), F(1), xs[-1], F(-1, 3), F(-2), F(4, 3), F(7, 2), F(1, 3), F(999, 1000)]
        for x in probes:
            assert _outcome(m.evaluate_lift, x) == _outcome(_reference_value, m, x, True)
            if m.DOMAIN == "I":
                assert _outcome(m.evaluate, x) == _outcome(_reference_value, m, x, False)
            else:
                v = _reference_value(m, x, True)
                assert m.evaluate(x) == v - math.floor(v)

    @pytest.mark.parametrize("on_breakpoint", [True, False], ids=["seam-on-breakpoint", "seam-in-segment"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_invert_at_the_seam(self, on_breakpoint, data):
        f = data.draw(seam_circle_maps(on_breakpoint))
        assert _invert_lift(f.points) == ref.invert_lift(f.points)
        g = invert(f)
        assert compose(f, g).is_identity() and compose(g, f).is_identity()


class TestPower:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stepwise_product(self, seed):
        rng = Random(seed)
        for f in (random_interval_map(rng), random_circle_map(rng, grounded=seed % 2 == 1)):
            for n in range(-9, 21):
                assert power(f, n) == ref.power_stepwise(f, n)

    @pytest.mark.parametrize("n", [*range(-9, 21), 64, 255, 1000, -1023])
    def test_composes_at_most_twice_log_n(self, monkeypatch, n):
        calls = {"compose": 0, "invert": 0}
        for name in calls:
            real = getattr(raagdyn.plmaps, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(raagdyn.plmaps, name, counted)
        f = random_circle_map(Random(n % 7), grounded=True)
        power(f, n)
        assert calls["compose"] <= (2 * (abs(n).bit_length() - 1) if n else 0)
        assert calls["invert"] == (n < 0)

    def test_thousandth_power_of_a_plan_map(self):
        a = build_separating_action("a t").a
        for n in (1000, -1000):
            an = power(a, n)
            for x in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
                assert an.evaluate(x) == a.evaluate_power(x, n)


class TestRandomMapStreams:
    def test_points_per_seed_are_pinned(self):
        """Seeded draws stay the same maps: CLI `verify --seed` output hangs on them."""
        h = hashlib.sha256()
        for seed in range(200):
            rng = Random(seed)
            maps = [*random_pair(rng, "I"), *random_pair(rng, "S1"),
                    *random_phi_triple(rng, "I"), *random_phi_triple(rng, "S1")]
            m, rot = random_rotation_conjugate(rng)
            for f in maps + [m]:
                h.update(f"{type(f).__name__}:{f.points};".encode())
            h.update(f"{rot}\n".encode())
        assert h.hexdigest() == "3576aa654108a9412fe089913e641e71b594e4d9ad344041e05989ec6fd45c0e"
