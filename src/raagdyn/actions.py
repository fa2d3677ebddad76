"""Constructive interval actions of Z^2 * Z separating given reduced words.

For a cyclically reduced word g_l t^{r_l} ... g_1 t^{r_1} the construction
lays out, left to right in (0,1): a basepoint x0, then one closed block per
pair, each split into an a-half and a b-half.  The factor with nonzero
exponent in g_i acts on its half of block i by a chain bump that moves a
marked point x_i to a target G_i in exactly |exponent| steps (reversing the
bump's direction when the exponent is negative, the "opposite action"
device).  t acts on interleaved intervals L_i by chain bumps carrying
G_{i-1} to x_i in |r_i| steps, so the whole word marches x0 rightward to
G_l.  Supports of a and b stay disjoint by construction, which also makes
them commute.

All block corners live on an integer grid; plans keep that integer data so
large enumerations can be checked with pure integer arithmetic, while
`build_separating_action` materializes exact PL maps from the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Union

from .plmaps import PLMapInterval, commutator, compose, power
from .words import (
    AB,
    T,
    FreeProductWord,
    TrivialWordError,
    cyclic_normalize,
    is_reduced,
    parse_word,
)


@dataclass(frozen=True)
class Bump:
    """One PL bump: graph points (xs, ys) on [lo, hi], identity outside."""

    lo: int
    hi: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]


@dataclass(frozen=True)
class ActionPlan:
    scale: int  # every Bump coordinate is k / scale
    a_bumps: tuple[Bump, ...]
    b_bumps: tuple[Bump, ...]
    t_bumps: tuple[Bump, ...]
    base_num: int
    base_den: int
    standard: FreeProductWord
    conjugator: FreeProductWord

    def basepoint(self) -> Fraction:
        return Fraction(self.base_num, self.base_den)


@lru_cache(maxsize=4096)
def _chain_bump(lo: int, hi: int, start: int, end: int, steps: int, forward: bool) -> Bump:
    """Bump on [lo, hi] whose `steps`-th power (or inverse power) sends start to end."""
    assert lo < start < end < hi and (end - start) % steps == 0
    gap = end - start
    ws = [start + gap * k // steps for k in range(steps + 1)]
    if forward:
        xs, ys = [lo] + ws[:-1] + [hi], [lo] + ws[1:] + [hi]
    else:
        xs, ys = [lo] + ws[1:] + [hi], [lo] + ws[:-1] + [hi]
    return Bump(lo, hi, tuple(xs), tuple(ys))


def plan_separating_action(word: Union[FreeProductWord, str]) -> ActionPlan:
    if isinstance(word, str):
        word = parse_word(word)
    elif not is_reduced(word.syllables):
        word = FreeProductWord.of(word.syllables)
    if word.is_identity():
        raise TrivialWordError("word reduces to the identity")
    std, conj = cyclic_normalize(word)

    # refine the grid so every chain subdivision lands on integers
    u = 1
    for s in std.syllables:
        for e in s[1:]:
            if e:
                u = u * abs(e) // gcd(u, abs(e))

    a_bumps: list[Bump] = []
    b_bumps: list[Bump] = []
    t_bumps: list[Bump] = []

    if len(std) == 1 and std.syllables[0][0] == T:
        r = std.syllables[0][1]
        scale = 12 * u
        t_bumps.append(_chain_bump(2 * u, 10 * u, 4 * u, 8 * u, abs(r), r > 0))
        base = 4 * u
    elif len(std) == 1:
        _, m, n = std.syllables[0]
        scale = 28 * u
        s = (2 if m != 0 else 14) * u
        e = m if m != 0 else n
        bump = _chain_bump(s, s + 12 * u, s + 2 * u, s + 8 * u, abs(e), e > 0)
        (a_bumps if m != 0 else b_bumps).append(bump)
        base = s + 2 * u
    else:
        syl = std.syllables
        assert len(syl) % 2 == 0 and syl[0][0] == AB and syl[-1][0] == T
        pairs = [(syl[k], syl[k + 1]) for k in range(0, len(syl), 2)]
        pairs.reverse()  # pairs[i] = (g_{i+1}, t^{r_{i+1}}); index 0 acts first
        scale = (28 * len(pairs) + 4) * u
        prev = 4 * u  # point carried forward: x0, then each G_i
        prev_s = 0
        for i, ((_, m, n), (_, r)) in enumerate(pairs):
            p = (6 + 28 * i) * u
            s = p if m != 0 else p + 12 * u
            e = m if m != 0 else n
            x_i, d_i, g_i = s + 2 * u, s + 4 * u, s + 8 * u
            c_i = 2 * u if i == 0 else prev_s + 6 * u
            bump = _chain_bump(s, s + 12 * u, x_i, g_i, abs(e), e > 0)
            (a_bumps if m != 0 else b_bumps).append(bump)
            t_bumps.append(_chain_bump(c_i, d_i, prev, x_i, abs(r), r > 0))
            prev = g_i
            prev_s = s
        base = 4 * u

    plan = ActionPlan(
        scale=scale,
        a_bumps=tuple(a_bumps),
        b_bumps=tuple(b_bumps),
        t_bumps=tuple(t_bumps),
        base_num=base,
        base_den=scale,
        standard=std,
        conjugator=conj,
    )
    if not conj.is_identity():
        num, den = plan_apply_word(plan, conj, plan.base_num, plan.base_den)
        plan = ActionPlan(
            plan.scale, plan.a_bumps, plan.b_bumps, plan.t_bumps,
            num, den, std, conj,
        )
    return plan


def _bumps_apply(bumps, scale: int, num: int, den: int, inverse: bool) -> tuple[int, int]:
    """Apply the bump family (or its inverse) to num/den; identity off-bump."""
    nsc = num * scale
    for bp in bumps:
        if nsc <= bp.lo * den:
            return num, den
        if nsc >= bp.hi * den:
            continue
        xs, ys = (bp.ys, bp.xs) if inverse else (bp.xs, bp.ys)
        i = 0
        while nsc > xs[i + 1] * den:
            i += 1
        if nsc == xs[i + 1] * den:
            return ys[i + 1], scale
        dx = xs[i + 1] - xs[i]
        n2 = ys[i] * dx * den + (ys[i + 1] - ys[i]) * (nsc - xs[i] * den)
        d2 = scale * dx * den
        g = gcd(n2, d2)
        return n2 // g, d2 // g
    return num, den


def _plan_apply_power(bumps, scale, e: int, num: int, den: int) -> tuple[int, int]:
    for _ in range(abs(e)):
        num, den = _bumps_apply(bumps, scale, num, den, inverse=e < 0)
    return num, den


def plan_apply_word(plan: ActionPlan, word: FreeProductWord, num: int, den: int) -> tuple[int, int]:
    """Evaluate the word at num/den through the plan, rightmost syllable first."""
    for s in reversed(word.syllables):
        if s[0] == T:
            num, den = _plan_apply_power(plan.t_bumps, plan.scale, s[1], num, den)
        else:
            num, den = _plan_apply_power(plan.b_bumps, plan.scale, s[2], num, den)
            num, den = _plan_apply_power(plan.a_bumps, plan.scale, s[1], num, den)
    return num, den


def plan_supports_disjoint(plan: ActionPlan) -> bool:
    spans = sorted(
        [(bp.lo, bp.hi, "a") for bp in plan.a_bumps]
        + [(bp.lo, bp.hi, "b") for bp in plan.b_bumps]
    )
    for (lo1, hi1, g1), (lo2, hi2, g2) in zip(spans, spans[1:]):
        if g1 != g2 and lo2 < hi1:
            return False
    return True


def _glue(points: Iterable[tuple[Fraction, Fraction]]) -> PLMapInterval:
    """Interval map through `points`, laid left to right, from (0,0) to (1,1)."""
    pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    for pt in points:
        if pt != pts[-1]:
            pts.append(pt)
    if pts[-1] != (1, 1):
        pts.append((Fraction(1), Fraction(1)))
    return PLMapInterval.from_points(pts)


def _materialize(bumps: Iterable[Bump], scale: int) -> PLMapInterval:
    return _glue(
        (Fraction(x, scale), Fraction(y, scale))
        for bp in sorted(bumps, key=lambda b: b.lo)
        for x, y in zip(bp.xs, bp.ys)
    )


@dataclass(frozen=True)
class ActionAssignment:
    """Maps for the generators a, b, t plus a marked basepoint.

    Invariants: a and b commute exactly and have disjoint open supports.
    """

    a: PLMapInterval
    b: PLMapInterval
    t: PLMapInterval
    basepoint: Fraction

    def map_for(self, gen: str) -> PLMapInterval:
        return {"a": self.a, "b": self.b, "t": self.t}[gen]

    def validate(self) -> None:
        if not commutator(self.a, self.b).is_identity():
            raise ValueError("generators a and b do not commute")
        if not self.a.support().intersection(self.b.support()).is_empty():
            raise ValueError("supports of a and b are not disjoint")


def materialize_plan(plan: ActionPlan) -> ActionAssignment:
    return ActionAssignment(
        a=_materialize(plan.a_bumps, plan.scale),
        b=_materialize(plan.b_bumps, plan.scale),
        t=_materialize(plan.t_bumps, plan.scale),
        basepoint=plan.basepoint(),
    )


def build_separating_action(word: Union[FreeProductWord, str]) -> ActionAssignment:
    """Action of Z^2 * Z on [0,1] under which the given word moves the basepoint."""
    return materialize_plan(plan_separating_action(word))


def _syllable_map(asg: ActionAssignment, s) -> PLMapInterval:
    if s[0] == T:
        return power(asg.t, s[1])
    return compose(power(asg.a, s[1]), power(asg.b, s[2]))


def evaluate_word(asg: ActionAssignment, word: FreeProductWord) -> PLMapInterval:
    """Map of the word under the assignment; leftmost syllable acts last."""
    out = PLMapInterval.identity()
    for s in word.syllables:
        out = compose(out, _syllable_map(asg, s))
    return out


def _apply_power(m: PLMapInterval, e: int, x: Fraction) -> Fraction:
    for _ in range(abs(e)):
        x = m.evaluate(x) if e > 0 else m.evaluate_inverse(x)
    return x


def evaluate_word_at(asg: ActionAssignment, word: FreeProductWord, x) -> Fraction:
    x = Fraction(x)
    for s in reversed(word.syllables):
        if s[0] == T:
            x = _apply_power(asg.t, s[1], x)
        else:
            x = _apply_power(asg.b, s[2], x)
            x = _apply_power(asg.a, s[1], x)
    return x


@dataclass(frozen=True)
class FaithfulAction:
    assignment: ActionAssignment
    words: tuple[FreeProductWord, ...]
    witnesses: tuple[Fraction, ...]  # point moved by the matching word


def build_faithful_on(words: Iterable[Union[FreeProductWord, str]]) -> FaithfulAction:
    """One action on [0,1] moving a point for every word in the list.

    Each word's separating action is rescaled into its own block
    [k/(N+1), (k+1)/(N+1)]; disjoint blocks keep the a/b invariants.
    """
    parsed = [parse_word(w) if isinstance(w, str) else FreeProductWord.of(w.syllables) for w in words]
    if not parsed:
        raise ValueError("empty word list")
    for w in parsed:
        if w.is_identity():
            raise TrivialWordError("word reduces to the identity")
    blocks = [build_separating_action(w) for w in parsed]
    den = len(blocks) + 1
    maps = {
        gen: _glue(
            ((k + x) / den, (k + y) / den)
            for k, asg in enumerate(blocks)
            for x, y in asg.map_for(gen).points
        )
        for gen in ("a", "b", "t")
    }
    witnesses = tuple((k + asg.basepoint) / den for k, asg in enumerate(blocks))
    assignment = ActionAssignment(**maps, basepoint=witnesses[0])
    return FaithfulAction(assignment, tuple(parsed), witnesses)
