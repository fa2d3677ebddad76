import hashlib
import itertools
from fractions import Fraction
from random import Random

import pytest
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
    plan_supports_disjoint,
)
from raagdyn.plmaps import PLMapInterval, compose
from raagdyn.words import AB, T, FreeProductWord, TrivialWordError, parse_word

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


def zone_points(rng: Random, plan):
    """A random rational inside each piece of every bump: expanding, translation, contracting."""
    for bp in plan.a_bumps + plan.b_bumps + plan.t_bumps:
        for x0, x1 in zip(bp.xs, bp.xs[1:]):
            yield F(x0, bp.den) + F(x1 - x0, bp.den) * F(rng.randint(1, 63), 64)


def _apply_power(m: PLMapInterval, e: int, x: Fraction) -> Fraction:
    for _ in range(abs(e)):
        x = m.evaluate(x) if e > 0 else m.evaluate_inverse(x)
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
        words += conjugated + [random_word(rng, 3, 40).conjugate_by(random_word(rng, 2, 9)) for _ in range(10)]
        for w in words:
            if w.is_identity():
                continue
            plan = plan_separating_action(w)
            asg = materialize_plan(plan)
            assert plan_supports_disjoint(plan)
            # the integer fast path and the PL map path agree pointwise
            num, den = plan_apply_word(plan, w, plan.base_num, plan.base_den)
            assert F(num, den) == evaluate_word_at(asg, w, plan.basepoint())
            xs = [F(rng.randint(0, 16), 16)] + list(zone_points(rng, plan))
            for x in xs:
                num, den = plan_apply_word(plan, w, x.numerator, x.denominator)
                assert F(num, den) == evaluate_word_at(asg, w, x)

    def test_bump_size_does_not_grow_with_steps(self):
        plan = plan_separating_action("a^1000000 t^-999999 b^3 t")
        for bp in plan.a_bumps + plan.b_bumps + plan.t_bumps:
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
        for fam in (plan.a_bumps, plan.b_bumps, plan.t_bumps)
    )
    return (f"{plan.scale}|{bumps}|{plan.base_num}/{plan.base_den}|"
            f"{syllables(plan.standard)}|{syllables(plan.conjugator)}\n")


class TestPlanPinned:
    def test_plan_fields_are_pinned(self):
        """Plans of every criterion-6 word of length <= 4 and of conjugated words stay the same."""
        rng = Random(41)
        words = list(_c6_words(4))
        assert len(words) == 21340
        words += [random_word(rng, 4, 40).conjugate_by(random_word(rng, 3, 9)) for _ in range(300)]
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
