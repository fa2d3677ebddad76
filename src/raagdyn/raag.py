"""Word reduction in right-angled Artin groups over a defining graph.

A word is a sequence of (vertex, +1/-1) letters.  Two letters commute exactly
when their vertices coincide or are adjacent in the graph.  A word represents
the identity iff it can be emptied by repeatedly deleting a letter pair
x ... x^-1 whose in-between letters all commute with x; a word with no such
pair has minimal length, so reduction decides the word problem.
"""

from __future__ import annotations

import re

from .graphs import SimplicialGraph

Letter = tuple[str, int]


_TOKEN = re.compile(r"^([^\s^]+)(?:\^(-?\d+))?$")


def parse_letters(text: str) -> list[Letter]:
    """Parse "d a d^-1" style words into letter lists; "" is the empty word.

    Generator names are arbitrary vertex identifiers, so no name doubles as
    an identity shorthand here.
    """
    text = text.strip()
    if not text:
        return []
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"cannot parse letter {token!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        sign = 1 if exp > 0 else -1
        letters.extend([(name, sign)] * abs(exp))
    return letters


def format_letters(letters: list[Letter]) -> str:
    out = []
    for name, sign in letters:
        out.append(name if sign > 0 else f"{name}^-1")
    return " ".join(out)


def invert_letters(letters: list[Letter]) -> list[Letter]:
    return [(name, -sign) for name, sign in reversed(letters)]


def reduce_word(g: SimplicialGraph, letters: list[Letter]) -> list[Letter]:
    """Cancel each letter against an inverse it commutes past, else append it.

    The kept word has no cancellable pair after each step, so the result's
    length is minimal.
    """
    word: list[Letter] = []
    for v, s in letters:
        g.index(v)  # raises on unknown generator
        i = len(word) - 1
        while i >= 0 and word[i][0] != v and g.adjacent(word[i][0], v):
            i -= 1
        if i >= 0 and word[i] == (v, -s):
            del word[i]
        else:
            word.append((v, s))
    return word


def is_identity_word(g: SimplicialGraph, letters: list[Letter]) -> bool:
    return not reduce_word(g, letters)


def letters_commute(g: SimplicialGraph, w1: list[Letter], w2: list[Letter]) -> bool:
    """Whether [w1, w2] = 1 in the RAAG on g."""
    comm = w1 + w2 + invert_letters(w1) + invert_letters(w2)
    return is_identity_word(g, comm)
