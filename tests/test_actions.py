import hashlib
import itertools
from fractions import Fraction
from random import Random

import pytest
import raagdyn.plmaps
from hypothesis import given, settings
from hypothesis import strategies as st

from raagdyn.actions import (
    ActionAssignment,
    build_faithful_on,
    build_separating_action,
    evaluate_word,
    evaluate_word_at,
    materialize_plan,
    plan_apply_word,
    plan_separating_action,
)
from raagdyn.plmaps import Bump, PLMapInterval, bumps_power, compose, invert
from raagdyn.words import AB, T, FreeProductWord, TrivialWordError, parse_word

import actions_ref

F = Fraction


def random_word(rng: Random, max_len=6, emax=2) -> FreeProductWord:
    syls = []
    kind = rng.choice((AB, T))
    for _ in range(rng.randint(1, max_len)):
        if kind == AB:
            while True:
                m, n = rng.randint(-emax, emax), rng.randint(-emax, emax)
                if (m, n) != (0, 0):
                    break
            syls.append((AB, m, n))
            kind = T
        else:
            r = rng.choice([e for e in range(-emax, emax + 1) if e])
            syls.append((T, r))
            kind = AB
    return FreeProductWord(tuple(syls))


def random_conjugate(rng: Random, word_len: int, conj_len: int) -> FreeProductWord:
    """c w c^-1, drawing w (exponents up to 40) before c (exponents up to 9)."""
    w = random_word(rng, word_len, 40)
    c = random_word(rng, conj_len, 9)
    return c * w * c.inverse()


def zone_points(rng: Random, plan):
    """A random rational inside each piece of every bump: expanding, translation, contracting."""
    for bp in plan.bumps["a"] + plan.bumps["b"] + plan.bumps["t"]:
        for x0, x1 in zip(bp.xs, bp.xs[1:]):
            yield F(x0, bp.den) + F(x1 - x0, bp.den) * F(rng.randint(1, 63), 64)


def _apply_power(m: PLMapInterval, e: int, x: Fraction) -> Fraction:
    step = m if e > 0 else invert(m)
    for _ in range(abs(e)):
        x = step.evaluate(x)
    return x


def stepwise_word_at(asg: ActionAssignment, word: FreeProductWord, x) -> Fraction:
    """Reference evaluator: one map step per unit of exponent."""
    x = Fraction(x)
    for s in reversed(word.syllables):
        if s[0] == T:
            x = _apply_power(asg.t, s[1], x)
        else:
            x = _apply_power(asg.b, s[2], x)
            x = _apply_power(asg.a, s[1], x)
    return x


@st.composite
def maps_with_slope_one_pieces(draw):
    """Interval maps on a grid of 1/d with both slope-1 pieces and other pieces."""
    d = draw(st.sampled_from([8, 12, 16]))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=5, unique=True)))
    xs = [0] + cuts + [d]
    widths = [x1 - x0 for x0, x1 in zip(xs, xs[1:])]
    n = len(widths)
    unit = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda u: any(u) and not all(u)))
    rest = sum(w for w, u in zip(widths, unit) if not u)  # height left to the other pieces
    weights = [draw(st.integers(1, 6)) for _ in widths]
    total = sum(wt for wt, u in zip(weights, unit) if not u)
    heights = [F(w) if u else F(rest * wt, total) for w, wt, u in zip(widths, weights, unit)]
    ys = [F(0)]
    for h in heights:
        ys.append(ys[-1] + h)
    return PLMapInterval.from_points([(F(x, d), y / d) for x, y in zip(xs, ys)])


@st.composite
def bump_families(draw):
    """Left-to-right bumps, each over its own denominator, with slope-1 pieces and pieces crossing the diagonal."""
    k = draw(st.integers(1, 3))
    bumps = []
    for b in range(k):  # bump b spans [b/k, (b+1)/k]
        q = draw(st.integers(3, 30))
        lo, hi = b * q, (b + 1) * q
        vs = draw(st.lists(st.integers(lo + 1, hi - 1), min_size=2, max_size=min(8, q - 1), unique=True))
        kind = draw(st.sampled_from(["shift", "chain", "split"]))
        if kind == "shift":  # every inner piece translates by c
            c = draw(st.integers(1, q - 2)) * draw(st.sampled_from([1, -1]))
            xs = sorted(draw(st.lists(st.integers(lo + 1 + max(0, -c), hi - 1 - max(0, c)),
                                      min_size=1, max_size=4, unique=True)))
            ys = [x + c for x in xs]
        elif kind == "chain":  # each inner corner maps to the next one, as in a chain bump
            xs, ys = sorted(vs)[:-1], sorted(vs)[1:]
        else:  # inner corners split between abscissae and values, so none is fixed
            vs = vs[:len(vs) // 2 * 2]
            xs, ys = sorted(vs[0::2]), sorted(vs[1::2])
        if draw(st.booleans()):
            xs, ys = ys, xs
        bumps.append(Bump(k * q, (lo, *xs, hi), (lo, *ys, hi)))
    return tuple(bumps)


@st.composite
def maps_with_inner_fixed_point(draw):
    """Interval maps with one piece crossing the diagonal at p, and p."""
    p = F(draw(st.integers(5, 10)), 16)
    a, b = F(draw(st.integers(1, 4)), 64), F(draw(st.integers(1, 4)), 64)
    r = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(3, 2), F(2), F(3)]))
    pts = [(0, 0), (p - a, p - r * a), (p + b, p + r * b), (1, 1)]
    if draw(st.booleans()):  # a second run past a fixed corner
        pts[-1:] = [(F(7, 8), F(7, 8)), (F(15, 16), F(29, 32)), (1, 1)]
    return PLMapInterval.from_points(pts), p


class TestPowerKernel:
    """`bumps_power` against the two kernels it replaced (tests/actions_ref.py)."""

    @settings(max_examples=300, deadline=None)
    @given(fams=st.lists(bump_families(), min_size=1, max_size=3), data=st.data())
    def test_pairs_match_reference_bumps_power(self, fams, data):
        # entry states: any pair in [0, 1], maybe not in lowest terms, and corner pairs of other families
        den = data.draw(st.integers(1, 60))
        pairs = [(data.draw(st.integers(0, den)) * m, den * m) for m in (1, data.draw(st.integers(2, 5)))]
        pairs += [(v, d) for d, xs, ys in fams[-1] for v in xs + ys]
        for d, xs, ys in fams[0]:
            for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
                k = (x1 - x0) - (y1 - y0)
                if (y0 - x0) * (y1 - x1) < 0:  # the piece meets the diagonal at (y0 x1 - x0 y1) / (k d)
                    pairs.append(((y0 * x1 - x0 * y1) * k, k * k * d))
        x = data.draw(st.sampled_from(pairs))
        for fam in [fams[0], *data.draw(st.lists(st.sampled_from(fams), max_size=5))]:
            # a walk: each output enters the next family
            e = data.draw(st.integers(-12, 12))
            y = bumps_power(fam, e, x)
            assert y == actions_ref._bumps_power(fam, e, x)
            x = y

    @settings(max_examples=80, deadline=None)
    @given(m=maps_with_slope_one_pieces(), e=st.integers(-60, 60), x=st.integers(0, 48))
    def test_map_power_on_slope_one_pieces(self, m, e, x):
        assert m.evaluate_power(F(x, 48), e) == actions_ref._map_power(m, e, F(x, 48))

    @settings(max_examples=60, deadline=None)
    @given(mp=maps_with_inner_fixed_point(), e=st.integers(-50, 50), x=st.integers(0, 64))
    def test_map_power_with_inner_fixed_point(self, mp, e, x):
        m, p = mp
        assert m.evaluate_power(F(x, 64), e) == actions_ref._map_power(m, e, F(x, 64))
        for e in (10 ** 6, -10 ** 6):  # returns at once: the first step leaves p fixed
            assert m.evaluate_power(p, e) == p == actions_ref._map_power(m, e, p)

    @pytest.mark.parametrize("e", [1000, -1500, 3000])
    def test_map_power_on_contracting_runs(self, e):
        rng = Random(e)
        w = parse_word("a^40 t^-30 b^7 t")
        asg = build_separating_action(w)
        for m in (asg.a, asg.b, asg.t):
            for x in [F(rng.randint(1, 63), 64) for _ in range(3)] + [asg.basepoint]:
                y = m.evaluate_power(x, e)
                assert y == actions_ref._map_power(m, e, x)
                assert y == x or m.evaluate_power(y, -e) == x

    def test_evaluate_power_rejects_points_outside(self):
        m = build_separating_action("t").t
        for x in (F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError, match="outside"):
                m.evaluate_power(x, 3)


class TestSeparatingAction:
    def test_single_t_moves_basepoint_right(self):
        asg = build_separating_action("t")
        assert asg.t.evaluate(asg.basepoint) > asg.basepoint
        asg.validate()

    def test_a_then_t(self):
        w = parse_word("a t")
        asg = build_separating_action(w)
        assert evaluate_word_at(asg, w, asg.basepoint) > asg.basepoint

    def test_trivial_word_rejected(self):
        with pytest.raises(TrivialWordError):
            build_separating_action("a b a^-1 b^-1")
        with pytest.raises(TrivialWordError):
            build_separating_action("")

    def test_invariants_on_random_words(self):
        rng = Random(2024)
        for _ in range(60):
            w = random_word(rng)
            asg = build_separating_action(w)
            asg.validate()
            y = evaluate_word_at(asg, w, asg.basepoint)
            assert y != asg.basepoint

    def test_large_exponents_use_finer_grid(self):
        w = parse_word("a^3 t^-5")
        asg = build_separating_action(w)
        asg.validate()
        assert evaluate_word_at(asg, w, asg.basepoint) != asg.basepoint

    def test_plan_matches_materialized_maps(self):
        rng = Random(7)
        conjugated = [parse_word(s) for s in ("a^5 t a^5 t a^-5", "t^3 b^-7 a^2 t^-3", "b^40 t^-1 a^-40")]
        words = [random_word(rng) for _ in range(40)] + [random_word(rng, 6, 40) for _ in range(25)]
        words += conjugated + [random_conjugate(rng, 3, 2) for _ in range(10)]
        for w in words:
            if w.is_identity():
                continue
            plan = plan_separating_action(w)
            asg = materialize_plan(plan)
            asg.validate()
            # the integer plan path, the PL map path and one map step per unit
            # of exponent agree pointwise; the first two share one power kernel
            num, den = plan_apply_word(plan, w, plan.base_num, plan.base_den)
            b = plan.basepoint()
            assert F(num, den) == evaluate_word_at(asg, w, b) == stepwise_word_at(asg, w, b)
            xs = [F(rng.randint(0, 16), 16)] + list(zone_points(rng, plan))
            for x in xs:
                num, den = plan_apply_word(plan, w, x.numerator, x.denominator)
                assert F(num, den) == evaluate_word_at(asg, w, x) == stepwise_word_at(asg, w, x)

    def test_bump_size_does_not_grow_with_steps(self):
        plan = plan_separating_action("a^1000000 t^-999999 b^3 t")
        for bp in plan.bumps["a"] + plan.bumps["b"] + plan.bumps["t"]:
            assert len(bp.xs) == len(bp.ys) <= 4

    def test_million_step_plan_matches_map_path(self):
        w = parse_word("a^1000000 t^-1000000")
        plan = plan_separating_action(w)
        num, den = plan_apply_word(plan, w, plan.base_num, plan.base_den)
        y = evaluate_word_at(materialize_plan(plan), w, plan.basepoint())
        assert F(num, den) == y != plan.basepoint()

    @settings(max_examples=80, deadline=None)
    @given(
        maps=st.tuples(*[maps_with_slope_one_pieces()] * 3),
        exps=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=4),
        x=st.integers(0, 48),
    )
    def test_word_at_matches_stepwise_iteration(self, maps, exps, x):
        asg = ActionAssignment(*maps, basepoint=F(0))
        syls = [(T, m) if k % 2 else (AB, m, n) for k, (m, n) in enumerate(exps)]
        w = FreeProductWord(tuple(syls))
        assert evaluate_word_at(asg, w, F(x, 48)) == stepwise_word_at(asg, w, F(x, 48))


class TestEvaluateWord:
    def test_empty_word_is_identity(self):
        asg = build_separating_action("t")
        assert evaluate_word(asg, FreeProductWord.identity()).is_identity()

    def test_single_t_syllable(self):
        asg = build_separating_action("t")
        assert evaluate_word(asg, parse_word("t")) == asg.t

    def test_homomorphism_property(self):
        rng = Random(5)
        asg = build_separating_action(parse_word("a^2 t a^-1 t^2 b t^-1"))
        for _ in range(15):
            w1, w2 = random_word(rng, 3), random_word(rng, 3)
            lhs = evaluate_word(asg, w1 * w2)
            rhs = compose(evaluate_word(asg, w1), evaluate_word(asg, w2))
            assert lhs == rhs

    def test_word_times_inverse_is_identity(self):
        rng = Random(6)
        asg = build_separating_action(parse_word("b t"))
        for _ in range(15):
            w = random_word(rng, 6)
            assert evaluate_word(asg, w * w.inverse()).is_identity()

    def test_map_agrees_with_pointwise(self):
        rng = Random(8)
        w = parse_word("a t^-2 b^2 t")
        asg = build_separating_action(w)
        m = evaluate_word(asg, w)
        for _ in range(20):
            x = F(rng.randint(0, 32), 32)
            assert m.evaluate(x) == evaluate_word_at(asg, w, x)


class TestFaithfulOn:
    def test_single_word(self):
        fa = build_faithful_on(["t"])
        x = fa.witnesses[0]
        assert evaluate_word_at(fa.assignment, fa.words[0], x) != x

    def test_rejects_trivial_entries(self):
        with pytest.raises(TrivialWordError):
            build_faithful_on(["t", "a a^-1"])
        with pytest.raises(ValueError):
            build_faithful_on([])

    def test_all_short_words_act_nontrivially(self):
        ab_opts = [(AB, m, n) for m in (-1, 0, 1) for n in (-1, 0, 1) if (m, n) != (0, 0)]
        t_opts = [(T, r) for r in (-1, 1)]
        words = []
        for length in range(1, 4):
            for start in (AB, T):
                kinds = [AB if (i % 2 == 0) == (start == AB) else T for i in range(length)]
                for combo in itertools.product(*[ab_opts if k == AB else t_opts for k in kinds]):
                    words.append(FreeProductWord(combo))
        fa = build_faithful_on(words)
        fa.assignment.validate()
        for w, x in zip(fa.words, fa.witnesses):
            assert evaluate_word_at(fa.assignment, w, x) != x

    def test_million_step_words_move_their_witnesses(self):
        fa = build_faithful_on(["a^1000000 t", "b^-1000000 t^-1"])
        for w, x in zip(fa.words, fa.witnesses):
            assert evaluate_word_at(fa.assignment, w, x) != x

    def test_power_reads_one_bump(self, monkeypatch):
        """Every power at a witness of a 200-word action hands the kernel one bump, not the family."""
        rng = Random(19)
        fa = build_faithful_on([random_word(rng, 4, 3) for _ in range(200)])
        asg = fa.assignment
        assert min(len(asg.a._bumps), len(asg.t._bumps)) >= 200  # b takes only syllables without a
        passed = []

        def counting(bumps, e, x):
            passed.append(len(bumps))
            return bumps_power(bumps, e, x)

        monkeypatch.setattr(raagdyn.plmaps, "bumps_power", counting)
        for w, x in zip(fa.words, fa.witnesses):
            assert evaluate_word_at(asg, w, x) != x
        assert passed and max(passed) <= 1

    def test_power_matches_whole_family(self):
        rng = Random(20)
        asg = build_faithful_on([random_word(rng, 4, 3) for _ in range(30)]).assignment
        for m in (asg.a, asg.b, asg.t):
            ends = [F(0), F(1)] + [F(xs[k], d) for d, xs, _ in m._bumps for k in (0, -1)]
            for x in ends + [F(rng.randint(0, 10**6), 10**6) for _ in range(50)]:
                e = rng.choice((-3, -1, 1, 2, 5))
                assert m.evaluate_power(x, e) == F(*bumps_power(m._bumps, e, (x.numerator, x.denominator)))

    def test_blocks_preserve_disjointness(self):
        fa = build_faithful_on(["a t", "b t^-1", "t a^-1"])
        fa.assignment.validate()
        # witnesses sit in disjoint blocks
        n = len(fa.words)
        for k, x in enumerate(fa.witnesses):
            assert F(k, n + 1) < x < F(k + 1, n + 1)


def _c6_words(max_len):
    """Criterion 6's reduced words: alternating syllables, exponents in [-2, 2]."""
    ab_opts = [(AB, m, n) for m in range(-2, 3) for n in range(-2, 3) if (m, n) != (0, 0)]
    t_opts = [(T, r) for r in range(-2, 3) if r]
    for length in range(1, max_len + 1):
        for start in (AB, T):
            kinds = [AB if (i % 2 == 0) == (start == AB) else T for i in range(length)]
            for combo in itertools.product(*[ab_opts if k == AB else t_opts for k in kinds]):
                yield FreeProductWord(combo)


def _plan_fields(plan) -> str:
    """Every field of a plan as plain integers and syllable values, one line."""
    def syllables(w):
        return " ".join(".".join(map(str, s)) for s in w.syllables)

    bumps = "/".join(
        ",".join(f"{d}:{' '.join(map(str, xs))}:{' '.join(map(str, ys))}" for d, xs, ys in fam)
        for fam in (plan.bumps["a"], plan.bumps["b"], plan.bumps["t"])
    )
    return (f"{plan.scale}|{bumps}|{plan.base_num}/{plan.base_den}|"
            f"{syllables(plan.standard)}|{syllables(plan.conjugator)}\n")


class TestPlanPinned:
    def test_plan_fields_are_pinned(self):
        """Plans of every criterion-6 word of length <= 4 and of conjugated words stay the same."""
        rng = Random(41)
        words = list(_c6_words(4))
        assert len(words) == 21340
        words += [random_conjugate(rng, 4, 3) for _ in range(300)]
        words += ["a^5 t a^5 t a^-5", "t^3 b^-7 a^2 t^-3", "b^40 t^-1 a^-40", "t^2 a t^-2", "a b^2 t a^-1"]
        words += [FreeProductWord(((AB, 1, 0), (AB, 0, 1), (T, 0), (T, 2), (AB, -1, 0)))]
        h = hashlib.sha256()
        conjugated = 0
        for w in words:
            plan = plan_separating_action(w)
            conjugated += not plan.conjugator.is_identity()
            h.update(_plan_fields(plan).encode())
        assert conjugated > len(words) // 2
        assert h.hexdigest() == "faf60ca5cff460df3e83d3a7bd8d4616d186d8c7f706dc461c3d453664187390"
