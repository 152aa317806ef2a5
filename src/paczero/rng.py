"""Deterministic sub-stream derivation for all randomness in a run.

Every consumer of randomness gets its own generator derived from the master
seed through a fixed spawn key, so streams never alias: training directions
are keyed by (step, direction-slot) and are therefore random-access (no
stream replay needed to reproduce step t), the mechanism's noise/coin stream
is sequential, and design sampling is keyed per attempt.
"""

from __future__ import annotations

import numpy as np

# Fixed tags keeping the sub-streams disjoint.
DIRECTIONS_STREAM = 101
MECHANISM_STREAM = 102
DESIGN_STREAM = 103
SECRET_STREAM = 104
TRIAL_STREAM = 105


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def direction(seed: int, t: int, slot: int, dim: int) -> np.ndarray:
    """Standard-normal probe direction for step ``t``, addressable without
    replaying any stream; public given the seed."""
    return substream(seed, DIRECTIONS_STREAM, t, slot).standard_normal(dim)
