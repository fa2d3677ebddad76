import itertools
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagdyn.words import (
    AB,
    T,
    FreeProductWord,
    cyclic_normalize,
    format_word,
    is_reduced,
    parse_word,
    reduce_syllables,
)


@st.composite
def syllable_lists(draw):
    n = draw(st.integers(0, 8))
    out = []
    for _ in range(n):
        if draw(st.booleans()):
            out.append((AB, draw(st.integers(-2, 2)), draw(st.integers(-2, 2))))
        else:
            out.append((T, draw(st.integers(-2, 2))))
    return out


class TestReduce:
    def test_z2_relation_vanishes(self):
        w = parse_word("a b a^-1 b^-1")
        assert w.is_identity()

    def test_t_cancellation_keeps_order(self):
        w = parse_word("t a t^-1 t")
        assert w.syllables == ((T, 1), (AB, 1, 0))
        assert format_word(w) == "t a"

    def test_powers_cancel(self):
        assert parse_word("a^2 a^-2").is_identity()

    def test_mixed_merge(self):
        w = parse_word("a^2 b^-1 t^3")
        assert w.syllables == ((AB, 2, -1), (T, 3))

    @settings(max_examples=300, deadline=None)
    @given(syllable_lists())
    def test_reduce_is_idempotent_and_reduced(self, syls):
        once = reduce_syllables(syls)
        assert is_reduced(once)
        assert reduce_syllables(once) == once

    @settings(max_examples=300, deadline=None)
    @given(syllable_lists())
    def test_word_times_inverse_vanishes(self, syls):
        w = FreeProductWord.of(syls)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()

    def test_exhaustive_small_inverses(self):
        # every word of up to 8 syllables over a small exponent alphabet
        opts = [(AB, 1, 0), (AB, 0, -1), (T, 1), (T, -1)]
        for n in range(9):
            for combo in itertools.product(opts, repeat=n):
                w = FreeProductWord.of(combo)
                assert (w * w.inverse()).is_identity()
                assert reduce_syllables(w.syllables) == w.syllables


class TestParseFormat:
    def test_identity_forms(self):
        assert parse_word("").is_identity()
        assert parse_word("1").is_identity()
        assert format_word(FreeProductWord.identity()) == "1"

    def test_roundtrip(self):
        rng = Random(9)
        for _ in range(100):
            syls = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.5:
                    syls.append((AB, rng.randint(-3, 3), rng.randint(-3, 3)))
                else:
                    syls.append((T, rng.randint(-3, 3)))
            w = FreeProductWord.of(syls)
            assert parse_word(format_word(w)) == w

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_word("x^2")
        with pytest.raises(ValueError):
            parse_word("a^")


class TestCyclicNormalize:
    @settings(max_examples=300, deadline=None)
    @given(syllable_lists())
    def test_reassembly_and_shape(self, syls):
        w = FreeProductWord.of(syls)
        std, conj = cyclic_normalize(w)
        assert conj * std * conj.inverse() == w
        if len(std) >= 2:
            assert len(std) % 2 == 0
            assert std.syllables[0][0] == AB
            assert std.syllables[-1][0] == T
            assert is_reduced(std.syllables)

    def test_collapse_to_single_syllable(self):
        std, conj = cyclic_normalize(parse_word("t a t^-1"))
        assert std == parse_word("a")
        assert conj == parse_word("t")

    def test_rotation_only(self):
        std, conj = cyclic_normalize(parse_word("t^2 a t"))
        assert std.syllables == ((AB, 1, 0), (T, 3))
        assert conj * std * conj.inverse() == parse_word("t^2 a t")

    def test_long_conjugator_is_linear(self):
        """(a t)^k b (t^-1 a^-1)^k at k = 100,000: one pass over the 200,000-syllable conjugator."""
        k = 100_000
        syls = [(AB, 1, 0), (T, 1)] * k + [(AB, 0, 1)] + [(T, -1), (AB, -1, 0)] * k
        w = FreeProductWord(tuple(syls))
        t0 = time.monotonic()
        std, conj = cyclic_normalize(w)
        assert time.monotonic() - t0 < 2.0
        assert std == parse_word("b")
        assert len(conj) == 2 * k and conj.syllables[:2] == ((AB, 1, 0), (T, 1))
