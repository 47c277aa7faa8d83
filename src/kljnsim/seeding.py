"""numpy's ``SeedSequence`` hash, run over many seeds at once.

Every noise realization is seeded through two ``SeedSequence`` hashes:
``protocol.derive_seed`` hashes (master seed, slot, purpose) to a 128-bit
seed, and ``np.random.default_rng`` hashes that seed to the four words
PCG64 starts from.  One seed at a time the two hashes cost more than
drawing the noise lines.  This module runs the same published algorithm
(``mix_entropy`` and ``generate_state`` of ``numpy.random.SeedSequence``)
in uint32 arithmetic over rows, so a run hashes all its seeds in two
passes and every generator is bitwise the one ``default_rng`` builds.
``tests/test_seeding.py`` holds it to numpy's own ``SeedSequence``.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def int_words(n: int) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from a non-negative int,
    least significant first (one zero word for 0)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed keys must be non-negative, got {n}")
    words = [n & _MASK]
    n >>= 32
    while n:
        words.append(n & _MASK)
        n >>= 32
    return words


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constants init, init * mult, ... (n + 1 of them), as a column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of ``values`` once per hash constant in turn:
    row k of the result is ``values`` xored with ``consts[k]`` and
    multiplied by ``consts[k + 1]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``np.random.SeedSequence(row).generate_state(n_words, np.uint32)``
    for every row of ``entropy``, an (n, L) array of uint32 words.

    Returns an (n, n_words) uint32 array.  The pool is held as
    (_POOL_SIZE, n): numpy's loops hash one pool word at a time, but a
    source word's hashes into the other pool words are independent of
    each other, so each source word is one vectorized step.
    """
    entropy = np.asarray(entropy, dtype=np.uint32).T
    length, rows = entropy.shape
    extra = max(length - _POOL_SIZE, 0)
    consts = _chain(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)

    # mix_entropy: a pool longer than the entropy is filled with hashed zeros
    pool = np.zeros((_POOL_SIZE, rows), np.uint32)
    pool[:length] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], consts[k : k + len(dst) + 1])
        pool[dst] = _mix(pool[dst], hashed)
        k += len(dst)
    for src in range(_POOL_SIZE, length):
        hashed = _hashmix(entropy[src], consts[k : k + _POOL_SIZE + 1])
        pool = _mix(pool, hashed)
        k += _POOL_SIZE

    # generate_state cycles through the pool
    words = np.arange(n_words) % _POOL_SIZE
    return np.ascontiguousarray(_hashmix(pool[words], _chain(_INIT_B, _MULT_B, n_words)).T)


def derive_states(master: int, *columns) -> np.ndarray:
    """The 128-bit seeds ``protocol.derive_seed(master, c1[i], c2[i], ...)``
    returns, one per row, as (n, 4) uint32 words, least significant first.

    Every column entry must fit one uint32 word, so that each row hashes
    the same number of words.
    """
    cols = np.column_stack([np.asarray(c, dtype=np.int64) for c in columns])
    if cols.size and (cols.min() < 0 or cols.max() > _MASK):
        raise ValueError("seed keys after the master must lie in [0, 2**32)")
    head = int_words(master)
    entropy = np.empty((len(cols), len(head) + cols.shape[1]), np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, len(head):] = cols
    return seed_state(entropy, 4)


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """The words ``np.random.default_rng(seed)`` starts its PCG64 from, for
    each 128-bit seed given as a row of 4 uint32 words (``derive_states``).

    Returns an (n, 4) uint64 array.  ``SeedSequence`` reads a seed whose
    top words are zero as fewer words; with no spawn key, an entropy
    shorter than the pool is filled with the same hashed zeros that zero
    words give, so the full 4-word row hashes the same.
    """
    state = seed_state(seeds, 8)
    # numpy pairs the uint32 words little-endian into its uint64 state
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _DerivedSeed(ISeedSequence):
    """Hands PCG64 one seed's state words already derived by ``pcg64_words``.

    ``words`` must be a C-contiguous uint64 row of 4 words, the state PCG64
    asks for: it is handed over as it is, with no conversion or check, so
    a caller seeding many streams checks their array once (``generator``
    checks its one row; ``noise.draw_lines`` its whole batch).
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The ``default_rng(seed)`` generator, given the seed's ``pcg64_words`` row."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape != (4,):
        raise ValueError(f"a PCG64 seed is 4 uint64 words, got shape {words.shape}")
    return np.random.Generator(np.random.PCG64(_DerivedSeed(words)))
