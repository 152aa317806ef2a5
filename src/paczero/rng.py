"""Deterministic sub-stream derivation for all randomness in a run.

Every consumer of randomness gets its own generator derived from the master
seed through a fixed spawn key, so streams never alias: training directions
are keyed by (step, direction-slot), the mechanism's noise/coin stream is
sequential, and design sampling is keyed per attempt.  A run's directions
come from ``directions``, which takes the pool of (seed, directions stream)
from NumPy's SeedSequence, hashes the keys of every step in one pass and
draws every direction in place into one array.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# Fixed tags keeping the sub-streams disjoint.
DIRECTIONS_STREAM = 101
MECHANISM_STREAM = 102
DESIGN_STREAM = 103
SECRET_STREAM = 104
TRIAL_STREAM = 105
# The most (step, slot) keys one run draws (32 MiB of state words), and the
# most floats of its directions (128 MiB).
_MAX_KEYS, _MAX_FLOATS = 2**20, 2**24

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


def _mix(x, y):
    """SeedSequence's mix of pool words with hashed words, as uint32 arrays
    (whose arithmetic already wraps)."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _hash_constants(hash_const: int, n: int, mult: int) -> list[int]:
    """The n + 1 hash constants that n successive hashmix calls step through."""
    consts = [hash_const]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix_stacked(words: np.ndarray, consts: list[int]) -> np.ndarray:
    """The hashmix of each uint32 array words[i] with the i-th of
    len(consts) - 1 successive calls; words of length 1 on axis 0 are
    hashed by every call."""
    c = np.array(consts, dtype=np.uint32).reshape((-1,) + (1,) * (words.ndim - 1))
    value = (words ^ c[:-1]) * c[1:]
    return value ^ (value >> 16)


# The constants of the hashmix of each of the eight output words.
_OUTPUT_CONSTS = _hash_constants(_INIT_B, 2 * _POOL_SIZE, _MULT_B)


def direction_words(seed: int, t: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The state words ``SeedSequence(seed, spawn_key=(DIRECTIONS_STREAM, t,
    slot)).generate_state(4, np.uint64)`` of every (t, slot) pair of two
    uint32 arrays that broadcast together, in an array of their broadcast
    shape + (4,).  The pool of the seed and the stream tag is NumPy's own
    SeedSequence's, made once.  Each of t and slot is hashed into the four
    pool words in one operation over a stacked (4, ...) array, since the
    hash constants are known in advance, and the eight output words come
    from one (8, ...) pass."""
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed, spawn_key=(DIRECTIONS_STREAM,)).pool
    if t.dtype != np.uint32 or slot.dtype != np.uint32:
        raise ValueError("t and slot must be uint32 arrays, one key word each")
    # the pool took four hashmix calls per entropy word: the seed's 32-bit
    # words padded to the pool size, then the stream tag
    n_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 4 * n_words + 4, 2**32) & _MASK32
    # t and slot with one number of axes, so that both broadcast along the
    # pool's axis 0
    ndim = max(t.ndim, slot.ndim)
    pool = pool.reshape((_POOL_SIZE,) + (1,) * ndim)
    for word in (t, slot):
        consts = _hash_constants(hash_const, _POOL_SIZE, _MULT_A)
        word = word.reshape((1,) * (1 + ndim - word.ndim) + word.shape)
        pool = _mix(pool, _hashmix_stacked(word, consts))
        hash_const = consts[-1]
    state = _hashmix_stacked(np.concatenate([pool, pool]), _OUTPUT_CONSTS)
    # pairs of uint32 words read as little-endian uint64, as generate_state does
    state = np.moveaxis(state, 0, -1).astype("<u4", order="C")
    return state.view("<u8").astype(np.uint64)


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


def direction(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard-normal probe direction seeded by one (t, slot)'s state words,
    a row of ``direction_words``, drawn in place into the contiguous float
    array ``out`` and returned: the draw of the generator
    ``substream(seed, DIRECTIONS_STREAM, t, slot)``, public given the seed."""
    seeded = np.random.PCG64(_state_words_type()(words))
    return np.random.Generator(seeded).standard_normal(out=out)


def directions(seed: int, t_total: int, k: int, dim: int) -> np.ndarray:
    """Every step's k directions in one (t_total, k, dim) array, row t - 1
    step t's, from one hashing pass over the run's keys: at most
    ``_MAX_KEYS`` of them, which keeps each of t_total and k one key word,
    and at most ``_MAX_FLOATS`` floats, both checked before any allocation."""
    if not (t_total >= 1 and k >= 1 and t_total * k <= _MAX_KEYS):
        raise ValueError(
            f"t_total and k must be positive with t_total * k <= {_MAX_KEYS} (one key word "
            f"each), got {t_total} and {k}"
        )
    if t_total * k * dim > _MAX_FLOATS:
        raise ValueError(f"t_total * k * dim must be <= {_MAX_FLOATS}, got {t_total * k * dim}")
    words = direction_words(
        seed,
        np.arange(1, t_total + 1, dtype=np.uint32)[:, None],
        np.arange(k, dtype=np.uint32)[None, :],
    )
    out = np.empty((t_total, k, dim))
    for w, row in zip(words.reshape(-1, 4), out.reshape(-1, dim)):
        direction(w, row)
    return out
