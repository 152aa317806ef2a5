"""Bayes-optimal membership inference against released transcripts.

The attacker knows everything public: the record universe, the candidate
subsets, the probe directions (seeded), the training configuration, and the
released values including the pre-quantization observations and their noise
levels.  From these it can rebuild the exact parameter trajectory, recompute
every candidate's sign at every step, and hold the same posterior over the
secret index that the mechanism maintained internally.  Membership of a
record is then its posterior-weighted frequency across candidate subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .accounting import mia_posterior_bound
from .engine import (
    TrainConfig,
    Transcript,
    _two_point_all,
    public_trajectory,
    train,
)
from .mechanism import (
    BRANCH_DISAGREEMENT,
    MechanismSpec,
    Posterior,
    SubsetDesign,
    build_balanced_design,
    subset_signs,
)
from .tasks import LossTask

__all__ = [
    "replay_posterior",
    "membership_attack",
    "MiaExperimentResult",
    "empirical_mia_experiment",
]


# Disagreement records whose losses, candidate signs and posterior updates
# one block evaluates.
_SIGN_BLOCK = 64


def replay_posterior(
    transcript: Transcript, design: SubsetDesign, task: LossTask | None = None
) -> np.ndarray:
    """Reconstruct the observer's posterior over the secret index from
    public information only.

    Folds the Bayes updates the noisy releases induce, in record order,
    recomputing the candidate sign vectors only on disagreement records.
    Record i is probed at theta after i // k steps along slot i % k's
    direction, so the rows of each block of ``_SIGN_BLOCK`` such records are
    taken from ``public_trajectory``'s arrays by index; a block gets its
    probe losses from one ``_two_point_all`` call, its signs from one
    ``subset_signs`` call and its updates from one
    ``Posterior.updated_by_observation`` call.  Reads the records checked
    when the transcript was built.  Matches the mechanism's internal
    posterior bit for bit on an honest transcript.
    """
    header = transcript.header
    spec = header.mechanism
    if spec.variant == "surrogate":
        raise ValueError("surrogate releases have no calibrated posterior to replay")
    if design.content_hash() != header.design_hash:
        raise ValueError("design does not match the transcript's design hash")
    if task is None:
        task = header.task

    thetas, directions = public_trajectory(transcript, task)
    records = transcript.records
    i = np.flatnonzero([rec.branch == BRANCH_DISAGREEMENT for rec in records])
    t, slot = np.divmod(i, spec.k)
    y_tilde = np.array([records[n].y_tilde for n in i])
    sigma = np.array([records[n].sigma for n in i])
    posterior = Posterior.uniform(design.n_subsets)
    for start in range(0, len(i), _SIGN_BLOCK):
        rows = slice(start, start + _SIGN_BLOCK)
        scalars = _two_point_all(
            task, thetas[t[rows]], directions[t[rows], slot[rows]], header.train.smoothing
        )
        posterior = posterior.updated_by_observation(
            y_tilde[rows], subset_signs(scalars, design, spec.clip), sigma[rows]
        )
    return posterior.probabilities()


def membership_attack(
    posterior_probs: np.ndarray, design: SubsetDesign, record_index: int
) -> tuple[float, bool]:
    """Posterior membership probability of one record and the Bayes guess
    (ties guess member, since the prior is exactly one half)."""
    if not 0 <= record_index < design.n_records:
        raise IndexError(f"record index {record_index} outside the universe")
    probs = np.asarray(posterior_probs, dtype=float)
    if probs.shape != (design.n_subsets,):
        raise ValueError("posterior shape does not match the design")
    p_member = float(probs @ design.weights[record_index])
    return p_member, p_member >= 0.5


@dataclass
class MiaExperimentResult:
    trials: int
    successes: int
    empirical_rate: float
    bound: float
    prior: float
    standard_error: float  # conservative binomial half-width, 0.5/sqrt(trials)

    def sound(self, z: float = 3.0) -> bool:
        return self.empirical_rate <= self.bound + z * self.standard_error


def empirical_mia_experiment(
    task: LossTask,
    mech_spec: MechanismSpec,
    train_config: TrainConfig,
    trials: int,
    seed: int,
) -> MiaExperimentResult:
    """Monte-Carlo success rate of the Bayes-optimal membership attacker.

    Every trial draws a fresh design and secret, trains, replays the
    posterior from the public transcript, and attacks one uniformly chosen
    record.  The empirical success rate is compared against the posterior
    bound implied by the run's total information budget at prior 1/2.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    n_subsets = mech_spec.resolved_subsets()
    successes = 0
    for trial in range(trials):
        streams = rngmod.substream(seed, rngmod.TRIAL_STREAM, trial)
        design_seed = int(streams.integers(2**63))
        run_seed = int(streams.integers(2**63))
        secret = int(streams.integers(n_subsets))
        target = int(streams.integers(task.n_records))
        design = build_balanced_design(task.n_records, n_subsets, design_seed)
        config = replace(train_config, seed=run_seed)
        result = train(task, config, mech_spec, design=design, secret_index=secret)
        probs = replay_posterior(result.transcript, design, task)
        _, guess = membership_attack(probs, design, target)
        truth = bool(design.membership[target, secret])
        successes += guess == truth
    rate = successes / trials
    return MiaExperimentResult(
        trials=trials,
        successes=successes,
        empirical_rate=rate,
        bound=mia_posterior_bound(mech_spec.effective_budget(), 0.5),
        prior=0.5,
        standard_error=0.5 / math.sqrt(trials),
    )
