"""Deterministic sub-stream derivation for all randomness in a run.

Every consumer of randomness gets its own generator derived from the master
seed through a fixed spawn key, so streams never alias: training directions
are keyed by (step, direction-slot), the mechanism's noise/coin stream is
sequential, and design sampling is keyed per attempt.  A run's directions
come from ``directions``, which hashes the keys of every step in one pass.
"""

from __future__ import annotations

import functools

import numpy as np

# Fixed tags keeping the sub-streams disjoint.
DIRECTIONS_STREAM = 101
MECHANISM_STREAM = 102
DESIGN_STREAM = 103
SECRET_STREAM = 104
TRIAL_STREAM = 105

# NumPy's SeedSequence hash (NEP 19; numpy/random/bit_generator.pyx): a pool
# of four uint32 words, mixed with these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of one word, or of a uint32 array of words;
    returns the hashed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word (either may be
    an array)."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def direction_words(seed: int, t: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The state words ``SeedSequence(seed, spawn_key=(DIRECTIONS_STREAM, t,
    slot)).generate_state(4, np.uint64)`` of every (t, slot) pair of two
    uint32 arrays that broadcast together, in an array of their broadcast
    shape + (4,).  The seed and the stream tag are hashed once as Python
    ints; t and slot enter as arrays, so each later hash step is one
    operation over every pair."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if t.dtype != np.uint32 or slot.dtype != np.uint32:
        raise ValueError("t and slot must be uint32 arrays, one key word each")
    seed_words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        seed_words.append(seed & _MASK32)
    # a spawn key pads the run entropy to the pool size with zeros, so the
    # entropy always outnumbers the pool
    entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + [DIRECTIONS_STREAM, t, slot]
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    state, hash_const = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value)
    # pairs of uint32 words read as little-endian uint64, as generate_state does
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """A seed sequence whose four uint64 state words are already hashed.
    Built on first use, so that importing paczero does not load
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            words = self.words
            if not (n_words == 4 and dtype is np.uint64 and words.dtype == np.uint64
                    and words.shape == (4,) and words.flags.c_contiguous):
                raise ValueError("expected one direction's four contiguous uint64 state words")
            return words

    return StateWords


def direction(words: np.ndarray, dim: int) -> np.ndarray:
    """Standard-normal probe direction seeded by one (t, slot)'s state words,
    a row of ``direction_words``: the draw of the generator
    ``substream(seed, DIRECTIONS_STREAM, t, slot)``, public given the seed."""
    seeded = np.random.PCG64(_state_words_type()(words))
    return np.random.Generator(seeded).standard_normal(dim)


def directions(seed: int, t_total: int, k: int, dim: int):
    """The k directions of each step 1..t_total in turn, one list per step,
    from one hashing pass over the run's keys."""
    if not (1 <= t_total < 2**32 and 1 <= k < 2**32):
        raise ValueError("t_total and k must lie in [1, 2**32), one key word each")
    words = direction_words(
        seed,
        np.arange(1, t_total + 1, dtype=np.uint32)[:, None],
        np.arange(k, dtype=np.uint32)[None, :],
    )
    return ([direction(w, dim) for w in step] for step in words)
