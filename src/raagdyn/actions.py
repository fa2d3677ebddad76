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

Block corners are integers over the plan's scale.  A chain bump is kept in
closed form: between its inner corners start and end - d it translates by
d = (end - start) / steps, so its graph is the corners (lo, lo),
(start, start + d), (end - d, end), (hi, hi), with x and y swapped for a
backward bump, as integers over scale * steps.  Plans keep that integer
data so large enumerations can be checked with pure integer arithmetic,
while `build_separating_action` materializes exact PL maps from the same
plan.  One walker, `_act`, applies a word to integer points, to rational
points and to maps; every power at a point, of a plan or of a map, is
taken by one kernel, `plmaps.bumps_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .plmaps import Bump, PLMapInterval, bumps_power, commutator, compose, power
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
class ActionPlan:
    scale: int  # block corners are k / scale; a bump of s steps has den scale * s
    a_bumps: tuple[Bump, ...]  # each family listed left to right
    b_bumps: tuple[Bump, ...]
    t_bumps: tuple[Bump, ...]
    base_num: int
    base_den: int
    standard: FreeProductWord
    conjugator: FreeProductWord

    def basepoint(self) -> Fraction:
        return Fraction(self.base_num, self.base_den)


def _chain_bump(scale: int, lo: int, hi: int, start: int, end: int, steps: int, forward: bool) -> Bump:
    """Bump on [lo, hi] / scale whose `steps`-th power (or inverse power) sends start to end."""
    if not lo < start < end < hi:
        raise AssertionError(f"chain bump corners out of order: {lo}, {start}, {end}, {hi}")
    k, gap = steps, end - start
    if k == 1:  # the two inner corners coincide
        xs, ys = (lo, start, hi), (lo, end, hi)
    else:
        xs, ys = (lo * k, start * k, end * k - gap, hi * k), (lo * k, start * k + gap, end * k, hi * k)
    return Bump(scale * k, xs, ys) if forward else Bump(scale * k, ys, xs)


def plan_separating_action(word: Union[FreeProductWord, str]) -> ActionPlan:
    if isinstance(word, str):
        word = parse_word(word)
    elif not is_reduced(word.syllables):
        word = FreeProductWord.of(word.syllables)
    if word.is_identity():
        raise TrivialWordError("word reduces to the identity")
    std, conj = cyclic_normalize(word)
    syl = std.syllables
    a_bumps: list[Bump] = []
    b_bumps: list[Bump] = []
    t_bumps: list[Bump] = []

    if len(syl) == 1 and syl[0][0] == T:
        r = syl[0][1]
        scale, base = 12, 4
        t_bumps.append(_chain_bump(scale, 2, 10, 4, 8, abs(r), r > 0))
    elif len(syl) == 1:
        _, m, n = syl[0]
        scale, s, e = 28, (2 if m else 14), m or n
        (a_bumps if m else b_bumps).append(_chain_bump(scale, s, s + 12, s + 2, s + 8, abs(e), e > 0))
        base = s + 2
    else:
        if len(syl) % 2 or syl[0][0] != AB or syl[-1][0] != T:
            raise AssertionError("cyclic normal form must alternate AB, T syllables")
        scale, base = 14 * len(syl) + 4, 4
        prev, c = 4, 2  # point carried forward (x0, then each G_i); next t bump's lo
        for i, k in enumerate(range(len(syl) - 2, -1, -2)):  # pair i acts i-th
            (_, m, n), (_, r) = syl[k], syl[k + 1]
            s, e = 6 + 28 * i + (0 if m else 12), m or n
            (a_bumps if m else b_bumps).append(_chain_bump(scale, s, s + 12, s + 2, s + 8, abs(e), e > 0))
            t_bumps.append(_chain_bump(scale, c, s + 4, prev, s + 2, abs(r), r > 0))
            prev, c = s + 8, s + 6

    fams = {"a": tuple(a_bumps), "b": tuple(b_bumps), "t": tuple(t_bumps)}
    num, den = (base, scale) if conj.is_identity() else _walk_bumps(fams, conj, base, scale)
    return ActionPlan(scale, fams["a"], fams["b"], fams["t"], num, den, std, conj)


def _act(word: FreeProductWord, x, power):
    """Apply the word to x: rightmost syllable first, b before a.

    `power(gen, e, x)` applies gen^e to x, whatever x is: an integer pair
    num/den, a point or a map.
    """
    for s in reversed(word.syllables):
        if s[0] == T:
            if s[1]:
                x = power("t", s[1], x)
        else:
            if s[2]:
                x = power("b", s[2], x)
            if s[1]:
                x = power("a", s[1], x)
    return x


def _walk_bumps(fams: dict, word: FreeProductWord, num: int, den: int) -> tuple[int, int]:
    """num/den under the word, with `fams` mapping "a", "b", "t" to their bump families."""
    return _act(word, (num, den), lambda g, e, x: bumps_power(fams[g], e, x))


def plan_apply_word(plan: ActionPlan, word: FreeProductWord, num: int, den: int) -> tuple[int, int]:
    """Evaluate the word at num/den through the plan, rightmost syllable first."""
    return _walk_bumps({"a": plan.a_bumps, "b": plan.b_bumps, "t": plan.t_bumps}, word, num, den)


def _materialize(bumps: Iterable[Bump]) -> PLMapInterval:
    """Interval map of bumps laid left to right, identity between them."""
    pts = [(0, 0)]
    for d, xs, ys in bumps:
        pts += [(Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys)]
    pts.append((1, 1))
    return PLMapInterval.from_points(pts)


@dataclass(frozen=True)
class ActionAssignment:
    """Maps for the generators a, b, t plus a marked basepoint.

    Invariants: a and b commute exactly and have disjoint open supports.
    """

    a: PLMapInterval
    b: PLMapInterval
    t: PLMapInterval
    basepoint: Fraction

    def validate(self) -> None:
        if not commutator(self.a, self.b).is_identity():
            raise ValueError("generators a and b do not commute")
        if not self.a.support().intersection(self.b.support()).is_empty():
            raise ValueError("supports of a and b are not disjoint")


def materialize_plan(plan: ActionPlan) -> ActionAssignment:
    return ActionAssignment(
        a=_materialize(plan.a_bumps),
        b=_materialize(plan.b_bumps),
        t=_materialize(plan.t_bumps),
        basepoint=plan.basepoint(),
    )


def build_separating_action(word: Union[FreeProductWord, str]) -> ActionAssignment:
    """Action of Z^2 * Z on [0,1] under which the given word moves the basepoint."""
    return materialize_plan(plan_separating_action(word))


def evaluate_word(asg: ActionAssignment, word: FreeProductWord) -> PLMapInterval:
    """Map of the word under the assignment; leftmost syllable acts last."""
    return _act(word, PLMapInterval.identity(), lambda g, e, m: compose(power(getattr(asg, g), e), m))


def evaluate_word_at(asg: ActionAssignment, word: FreeProductWord, x) -> Fraction:
    return _act(word, Fraction(x), lambda g, e, y: getattr(asg, g).evaluate_power(y, e))


@dataclass(frozen=True)
class FaithfulAction:
    assignment: ActionAssignment
    words: tuple[FreeProductWord, ...]
    witnesses: tuple[Fraction, ...]  # point moved by the matching word


def build_faithful_on(words: Iterable[Union[FreeProductWord, str]]) -> FaithfulAction:
    """One action on [0,1] moving a point for every word in the list.

    Each word's separating plan is placed into its own block
    [k/(N+1), (k+1)/(N+1)]; disjoint blocks keep the a/b invariants.
    """
    parsed = [parse_word(w) if isinstance(w, str) else FreeProductWord.of(w.syllables) for w in words]
    if not parsed:
        raise ValueError("empty word list")
    plans = [plan_separating_action(w) for w in parsed]
    n = len(plans) + 1
    maps = {
        gen: _materialize(
            Bump(d * n, tuple(k * d + x for x in xs), tuple(k * d + y for y in ys))
            for k, plan in enumerate(plans)
            for d, xs, ys in getattr(plan, gen + "_bumps")
        )
        for gen in "abt"
    }
    witnesses = tuple((k + plan.basepoint()) / n for k, plan in enumerate(plans))
    assignment = ActionAssignment(**maps, basepoint=witnesses[0])
    return FaithfulAction(assignment, tuple(parsed), witnesses)
