"""Batched SeedSequence hash against numpy's own SeedSequence.

Every noise realization is seeded through this copy, so a numpy release
that changes SeedSequence fails here instead of silently moving every
realization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim import noise, seeding
from kljnsim.protocol import derive_seed

# Masters of one to five uint32 words.
MASTERS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**160 - 1),
)

# Seeds with one to four significant words: a derived seed with a zero
# top word has probability 2**-32, so it never comes up by chance.
CRAFTED_SEEDS = [0, 1, 2**32, 2**64 + 1, 2**96 - 1, 2**128 - 1]


def as_state(seed):
    """A seed below 2**128 as the 4-word row ``pcg64_words`` reads."""
    words = seeding.int_words(seed)
    return np.array([words + [0] * (4 - len(words))], np.uint32)


@settings(max_examples=60, deadline=None)
@given(
    master=MASTERS,
    keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 4)),
                  min_size=1, max_size=6),
)
def test_derived_states_match_seed_sequence(master, keys):
    slots, purposes = zip(*keys)
    states = seeding.derive_states(master, slots, purposes)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint32
    for row, (slot, purpose) in zip(states, keys):
        ref = np.random.SeedSequence([master, slot, purpose]).generate_state(4, np.uint32)
        np.testing.assert_array_equal(row, ref)
        assert int.from_bytes(row.tobytes(), "little") == derive_seed(master, slot, purpose)


@settings(max_examples=40, deadline=None)
@given(
    entropy=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
    n_words=st.integers(1, 9),
)
def test_seed_state_matches_generate_state(entropy, n_words):
    got = seeding.seed_state(np.array([entropy], np.uint32), n_words)
    ref = np.random.SeedSequence(entropy).generate_state(n_words, np.uint32)
    np.testing.assert_array_equal(got[0], ref)


@pytest.mark.parametrize("seed", CRAFTED_SEEDS)
def test_pcg64_words_and_lines_match_default_rng(seed):
    words = seeding.pcg64_words(as_state(seed))
    np.testing.assert_array_equal(
        words[0], np.random.SeedSequence(seed).generate_state(4, np.uint64))
    assert (np.random.PCG64(seed).state
            == seeding.generator(words[0]).bit_generator.state)
    np.testing.assert_array_equal(noise._draw_lines(seeding.generator(words[0]), 256),
                                  noise._lines(seed, 256))


@pytest.mark.parametrize("master, columns", [
    (-1, ([1], [0])),
    (0, ([-1], [0])),
    (0, ([2**32], [0])),
])
def test_negative_or_wide_keys_rejected(master, columns):
    with pytest.raises(ValueError):
        seeding.derive_states(master, *columns)


def test_int_words_rejects_negative():
    # a plain 32-bit split of -1 would hash as 2**32 - 1
    with pytest.raises(ValueError, match="non-negative"):
        seeding.int_words(-1)
    assert seeding.int_words(0) == [0]
    assert seeding.int_words(2**64 + 5) == [5, 0, 1]


@pytest.mark.parametrize("seed", [3.5, 3.0, "3"])
def test_non_integer_seed_rejected(seed):
    # a float seed is not truncated to the int below it
    with pytest.raises(TypeError):
        seeding.int_words(seed)
    with pytest.raises(TypeError):
        derive_seed(seed, 1)


@pytest.mark.parametrize("words", [np.zeros(3, np.uint64), np.zeros((1, 4), np.uint64)])
def test_generator_checks_its_row(words):
    # generator seeds one stream, so it checks its row itself; the
    # seed object behind it hands any row over unchecked
    with pytest.raises(ValueError, match="4 uint64 words"):
        seeding.generator(words)
