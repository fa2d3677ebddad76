import itertools
from collections import deque

import pytest

from raagdyn.graphs import path_graph
from raagdyn.raag import (
    format_letters,
    invert_letters,
    is_identity_word,
    letters_commute,
    parse_letters,
    reduce_word,
)

P4 = path_graph("abcd")


def bfs_is_identity(g, letters, max_states=200000):
    """Ground truth: empty word reachable via commuting swaps and cancellations."""
    start = tuple(letters)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        if not w:
            return True
        for i in range(len(w) - 1):
            (u, su), (v, sv) = w[i], w[i + 1]
            candidates = []
            if u == v and su == -sv:
                candidates.append(w[:i] + w[i + 2 :])
            if u == v or g.adjacent(u, v):
                candidates.append(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
            for nw in candidates:
                if nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
        if len(seen) > max_states:
            raise RuntimeError("BFS state explosion")
    return False


def test_parse_and_format():
    w = parse_letters("d a d^-1")
    assert w == [("d", 1), ("a", 1), ("d", -1)]
    assert format_letters(w) == "d a d^-1"
    assert format_letters([]) == ""
    assert parse_letters("a^2 b^-2") == [("a", 1), ("a", 1), ("b", -1), ("b", -1)]
    assert parse_letters("") == []
    with pytest.raises(ValueError):
        parse_letters("a^x")


def test_simple_reductions():
    assert reduce_word(P4, parse_letters("a a^-1")) == []
    # b commutes with a, so the pair cancels across it
    assert reduce_word(P4, parse_letters("a b a^-1")) == [("b", 1)]
    # c and d are adjacent, so the conjugation collapses
    assert reduce_word(P4, parse_letters("d c d^-1")) == [("c", 1)]
    # b and d do not commute, blocking the cancellation
    assert reduce_word(P4, parse_letters("b d b^-1")) == parse_letters("b d b^-1")


def test_unknown_generator():
    with pytest.raises(Exception):
        reduce_word(P4, [("z", 1)])


def test_inverse_gives_identity():
    for text in ("d a d^-1", "a b c", "c b a^-1 d"):
        w = parse_letters(text)
        assert is_identity_word(P4, w + invert_letters(w))


def test_reduction_matches_bfs_exhaustively():
    gens = [(v, s) for v in P4.vertices for s in (1, -1)]
    for length in range(5):
        for combo in itertools.product(gens, repeat=length):
            word = list(combo)
            assert is_identity_word(P4, word) == bfs_is_identity(P4, word)


def test_reduction_matches_bfs_on_longer_samples():
    from random import Random

    rng = Random(4242)
    gens = [(v, s) for v in P4.vertices for s in (1, -1)]
    for _ in range(300):
        word = [rng.choice(gens) for _ in range(rng.randint(5, 7))]
        assert is_identity_word(P4, word) == bfs_is_identity(P4, word)


def test_commutation_in_p4():
    a, b, c, d = ([(v, 1)] for v in "abcd")
    dad = parse_letters("d a d^-1")
    assert letters_commute(P4, a, b)
    assert letters_commute(P4, b, c)
    assert not letters_commute(P4, a, c)
    assert not letters_commute(P4, a, dad)
    assert not letters_commute(P4, b, dad)
    assert not letters_commute(P4, c, dad)
