"""Reduced words in Z^2 * Z over generators a, b (commuting) and t.

A word is a tuple of syllables, leftmost applied last.  Syllables are either
("ab", m, n) for a^m b^n in the abelian factor or ("t", r) for t^r; reduced
words have no zero syllable and no two adjacent syllables in the same factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

AB = "ab"
T = "t"

Syllable = tuple  # ("ab", m, n) | ("t", r)


class TrivialWordError(ValueError):
    pass


class WordParseError(ValueError):
    """Text that `parse_word` cannot read as a word."""


def _is_zero(s: Syllable) -> bool:
    return not s[1] and (s[0] == T or not s[2])


def _merge(s1: Syllable, s2: Syllable) -> Syllable:
    if s1[0] == AB:
        return (AB, s1[1] + s2[1], s1[2] + s2[2])
    return (T, s1[1] + s2[1])


def reduce_syllables(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Merge same-factor neighbours and drop vanishing syllables, to a fixpoint."""
    stack: list[Syllable] = []
    for s in syllables:
        if _is_zero(s):
            continue
        while stack and stack[-1][0] == s[0]:
            s = _merge(stack.pop(), s)
            if _is_zero(s):
                s = None
                break
        if s is not None:
            stack.append(s)
    return tuple(stack)


def is_reduced(syllables: Iterable[Syllable]) -> bool:
    prev_kind = None
    for s in syllables:
        if _is_zero(s) or s[0] == prev_kind:
            return False
        prev_kind = s[0]
    return True


@dataclass(frozen=True)
class FreeProductWord:
    """Reduced word; construct via `of` or `parse_word` unless known-reduced."""

    syllables: tuple[Syllable, ...]

    @staticmethod
    def of(syllables: Iterable[Syllable]) -> "FreeProductWord":
        return FreeProductWord(reduce_syllables(syllables))

    @staticmethod
    def identity() -> "FreeProductWord":
        return FreeProductWord(())

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "FreeProductWord") -> "FreeProductWord":
        return FreeProductWord.of(self.syllables + other.syllables)

    def inverse(self) -> "FreeProductWord":
        inv = []
        for s in reversed(self.syllables):
            if s[0] == AB:
                inv.append((AB, -s[1], -s[2]))
            else:
                inv.append((T, -s[1]))
        return FreeProductWord(tuple(inv))


_TOKEN = re.compile(r"^([abt])(?:\^(-?\d+))?$")


def parse_word(text: str) -> FreeProductWord:
    """Parse "a^2 b^-1 t^3" style strings; "" and "1" denote the identity."""
    text = text.strip()
    if text in ("", "1"):
        return FreeProductWord.identity()
    syllables = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise WordParseError(f"cannot parse token {token!r}")
        gen = m.group(1)
        try:
            exp = int(m.group(2) or 1)
        except ValueError as e:  # more digits than the interpreter's int-to-str limit
            raise WordParseError(f"exponent too long in token {token[:20]!r}...") from e
        if gen == "a":
            syllables.append((AB, exp, 0))
        elif gen == "b":
            syllables.append((AB, 0, exp))
        else:
            syllables.append((T, exp))
    return FreeProductWord.of(syllables)


def _power_token(gen: str, e: int) -> str:
    return gen if e == 1 else f"{gen}^{e}"


def format_word(w: FreeProductWord) -> str:
    if w.is_identity():
        return "1"
    out = []
    for s in w.syllables:
        if s[0] == AB:
            if s[1]:
                out.append(_power_token("a", s[1]))
            if s[2]:
                out.append(_power_token("b", s[2]))
        else:
            out.append(_power_token("t", s[1]))
    return " ".join(out)


def cyclic_normalize(
    w: FreeProductWord,
) -> tuple[FreeProductWord, FreeProductWord]:
    """Write w = c * s * c^-1 with s cyclically reduced in standard shape.

    The standard shape is a single syllable, or an even alternating word whose
    leftmost syllable lies in Z^2 and rightmost is a power of t.  Returns
    (standard, conjugator).
    """
    cur = list(w.syllables)
    conj: list[Syllable] = []
    while len(cur) >= 2 and cur[0][0] == cur[-1][0]:
        head = cur.pop(0)
        conj.append(head)
        merged = _merge(cur.pop(), head)
        if not _is_zero(merged):
            cur.append(merged)
    if len(cur) >= 2 and cur[0][0] == T:
        head = cur.pop(0)
        conj.append(head)
        cur.append(head)
    return FreeProductWord(tuple(cur)), FreeProductWord(tuple(conj))
