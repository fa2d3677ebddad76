from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import intervals_ref as ref
from raagdyn.intervals import (
    FULL_CIRCLE,
    IntervalSet,
    circle_closure,
    circle_complement,
    unit_canon,
)

F = Fraction


def random_set(rng: Random, grid=8) -> IntervalSet:
    parts = []
    for _ in range(rng.randint(0, 3)):
        a, b = sorted(rng.sample(range(0, grid + 1), 2))
        parts.append((F(a, grid), rng.random() < 0.5, F(b, grid), rng.random() < 0.5))
    if rng.random() < 0.3:
        p = F(rng.randint(0, grid), grid)
        parts.append((p, True, p, True))
    return IntervalSet.of(parts)


class TestNormalization:
    def test_empty_open_degenerate_dropped(self):
        assert IntervalSet.of([(F(1, 2), False, F(1, 2), False)]).is_empty()
        assert IntervalSet.of([(F(1, 2), True, F(1, 2), False)]).is_empty()

    def test_point_kept(self):
        s = IntervalSet.point(F(1, 2))
        assert s.contains(F(1, 2)) and not s.contains(F(1, 3))

    def test_closed_touch_merges(self):
        s = IntervalSet.of([(F(0), False, F(1, 2), True), (F(1, 2), False, F(1), False)])
        assert len(s.parts) == 1

    def test_open_touch_stays_split(self):
        s = IntervalSet.of([(F(0), False, F(1, 2), False), (F(1, 2), False, F(1), False)])
        assert len(s.parts) == 2
        assert not s.contains(F(1, 2))

    def test_point_glues_open_gap(self):
        s = IntervalSet.open(0, F(1, 2)).union(IntervalSet.point(F(1, 2))).union(
            IntervalSet.open(F(1, 2), 1)
        )
        assert s.parts == ((F(0), False, F(1), False),)


class TestOperations:
    def test_complement_flags(self):
        s = IntervalSet.open(F(1, 4), F(1, 2))
        c = s.complement(0, 1)
        assert c.parts == (
            (F(0), True, F(1, 4), True),
            (F(1, 2), True, F(1), True),
        )

    def test_difference_and_subset(self):
        a = IntervalSet.closed(0, 1)
        b = IntervalSet.open(F(1, 4), F(1, 2))
        d = a.difference(b)
        assert d.contains(F(1, 4)) and d.contains(F(1, 2))
        assert not d.contains(F(3, 8))
        assert b.is_subset_of(a) and not a.is_subset_of(b)

    def test_closure_joins_at_shared_endpoint(self):
        s = IntervalSet.open(0, F(1, 2)).union(IntervalSet.open(F(1, 2), 1))
        assert s.closure().parts == ((F(0), True, F(1), True),)

    def test_hull(self):
        s = IntervalSet.open(F(1, 8), F(1, 4)).union(IntervalSet.point(F(3, 4)))
        assert s.hull() == (F(1, 8), F(3, 4))
        assert IntervalSet.empty().hull() is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 32))
    def test_boolean_logic_by_membership(self, seed, probe_num):
        rng = Random(seed)
        a, b = random_set(rng), random_set(rng)
        x = F(probe_num, 32)
        in_a, in_b = a.contains(x), b.contains(x)
        assert a.union(b).contains(x) == (in_a or in_b)
        assert a.intersection(b).contains(x) == (in_a and in_b)
        assert a.difference(b).contains(x) == (in_a and not in_b)
        assert a.complement(0, 1).contains(x) == (not in_a)


class TestCircle:
    def test_unit_canon_wraps(self):
        s = IntervalSet.open(F(7, 8), F(9, 8))
        w = unit_canon(s)
        assert w.contains(0) and w.contains(F(15, 16)) and w.contains(F(1, 16))
        assert not w.contains(F(1, 2))

    def test_unit_canon_open_period_misses_its_end(self):
        assert unit_canon(IntervalSet.open(-1, 0)) == IntervalSet.open(0, 1)
        assert unit_canon(IntervalSet.open(F(1, 3), F(4, 3))) == IntervalSet.of(
            [(F(0), True, F(1, 3), False), (F(1, 3), False, F(1), False)]
        )

    def test_unit_canon_full(self):
        assert unit_canon(IntervalSet.open(F(1, 3), F(4, 3) + 1)) == FULL_CIRCLE
        assert unit_canon(IntervalSet.of([(F(0), True, F(1), False)])) == FULL_CIRCLE

    def test_circle_closure_glues_seam(self):
        s = IntervalSet.open(F(7, 8), F(1)).union(
            IntervalSet.of([(F(0), True, F(1, 8), False)])
        )
        c = circle_closure(s)
        assert c.contains(F(7, 8)) and c.contains(F(1, 8)) and c.contains(0)

    def test_circle_closure_keeps_gap(self):
        s = IntervalSet.open(F(1, 4), F(1, 2))
        c = circle_closure(s)
        assert c.contains(F(1, 4)) and c.contains(F(1, 2)) and not c.contains(0)

    def test_circle_complement(self):
        assert circle_complement(FULL_CIRCLE).is_empty()
        assert circle_complement(IntervalSet.empty()) == FULL_CIRCLE
        s = IntervalSet.of([(F(0), True, F(1, 2), False)])
        c = circle_complement(s)
        assert c.contains(F(1, 2)) and c.contains(F(3, 4)) and not c.contains(0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 31))
    def test_circle_complement_membership(self, seed, probe_num):
        rng = Random(seed)
        s = unit_canon(random_set(rng))
        x = F(probe_num, 32)
        assert circle_complement(s).contains(x) == (not s.contains(x))


# quarter points on [-1, 2]: parts share endpoints often, reach past [0, 1]
# and cross the circle's seam
_ENDS = st.sampled_from([F(k, 4) for k in range(-4, 9)])
_RAW_PART = st.tuples(_ENDS, st.booleans(), _ENDS, st.booleans())
_PART = _RAW_PART.map(lambda p: (min(p[0], p[2]), p[1], max(p[0], p[2]), p[3])) | _ENDS.map(
    lambda x: (x, True, x, True)
)
_PARTS = st.lists(_PART, max_size=6)


class TestAgainstReference:
    """Linear merges against the double loop and the sort-based normalizer."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_RAW_PART, max_size=6))
    def test_of_normalizes_like_reference(self, parts):
        assert IntervalSet.of(parts).parts == ref.normalize(parts)

    @settings(max_examples=500, deadline=None)
    @given(_PARTS, _PARTS)
    def test_set_operations(self, p, q):
        s, t = IntervalSet.of(p), IntervalSet.of(q)
        sp, tp = s.parts, t.parts
        assert s.union(t).parts == ref.union(sp, tp)
        assert s.intersection(t).parts == ref.intersection(sp, tp)
        assert s.intersection(s).parts == sp
        for lo, hi in ((0, 1), (-1, 2), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))):
            assert s.complement(lo, hi).parts == ref.complement(sp, lo, hi)
        assert s.difference(t).parts == ref.difference(sp, tp)
        assert s.is_subset_of(t) == ref.is_subset_of(sp, tp)
        assert t.is_subset_of(s) == ref.is_subset_of(tp, sp)
        assert s.closure().parts == ref.closure(sp)

    @settings(max_examples=500, deadline=None)
    @given(_PARTS)
    def test_circle_operations(self, p):
        s = IntervalSet.of(p)
        c = unit_canon(s)
        assert c.parts == ref.unit_canon(s.parts)
        assert circle_closure(c).parts == ref.circle_closure(c.parts)
        assert circle_complement(c).parts == ref.circle_complement(c.parts)
