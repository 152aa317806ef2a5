"""Zeroth-order training loop over the release mechanism.

The optimizer never sees per-sample gradients: each step draws public
random directions, measures symmetric finite differences of every record's
loss along them, hands the resulting scalar vectors to the mechanism, and
moves the parameters by the released values times the directions.  The
probe directions are a deterministic function of (seed, step, slot) and
carry no information about the secret subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Annotated

import numpy as np

from . import _fields, rng as rngmod
from .mechanism import (
    MechanismSpec,
    ReleaseMechanism,
    StepRecord,
    SubsetDesign,
    build_balanced_design,
)
from .tasks import LossTask, make_task

__all__ = [
    "TrainConfig",
    "TranscriptHeader",
    "Transcript",
    "TrainResult",
    "TwoPointNumericsError",
    "step_update",
    "public_trajectory",
    "train",
]


class TwoPointNumericsError(ArithmeticError):
    """A probed loss came back non-finite."""

    def __init__(self, record_index: int, theta_norm: float):
        self.record_index = record_index
        self.theta_norm = theta_norm
        super().__init__(
            f"non-finite two-point estimate for record {record_index} "
            f"at |theta| = {theta_norm:.6g}"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run, built from checked fields (``_fields``)."""

    steps: Annotated[int, _fields.POSITIVE] = 500
    learning_rate: Annotated[float, _fields.FINITE, _fields.POSITIVE] = 0.05
    lr_decay: Annotated[float, _fields.FINITE, _fields.NONNEGATIVE] = 0.0
    weight_decay: Annotated[float, _fields.FINITE, _fields.NONNEGATIVE] = 0.0
    smoothing: Annotated[float, _fields.FINITE, _fields.POSITIVE] = 1e-3  # probe half-width mu
    seed: Annotated[int, _fields.NONNEGATIVE] = 0
    dev_eval_interval: Annotated[int, _fields.POSITIVE] = 25
    load_best_dev: bool = True

    def __post_init__(self):
        _fields.check(TrainConfig, vars(self))

    def eta(self, t: int | np.ndarray) -> float | np.ndarray:
        return self.learning_rate / (1.0 + self.lr_decay * (t - 1))


def _two_point_all(task: LossTask, theta, z, mu: float) -> np.ndarray:
    """Symmetric-difference estimates of every record's directional
    derivative at theta along z.  A (B, dim) block of thetas and one of
    directions give a (B, n_records) block, each row bit for bit its own
    pair's; a non-finite estimate raises for the first bad record of the
    first bad row, with that row's |theta|, as the row alone would.  The
    probe offset mu * z is formed once, both probes of every row go to the
    task as one block (each row's losses are its own, bit for bit), and the
    bad record is looked for only after one finiteness test over all
    estimates has failed."""
    if not mu > 0.0:
        raise ValueError("smoothing mu must be positive")
    offset = mu * z
    probes = np.empty((2,) + offset.shape)
    np.add(theta, offset, out=probes[0])
    np.subtract(theta, offset, out=probes[1])
    losses = task.per_sample_losses(probes.reshape(-1, offset.shape[-1]))
    up, down = losses.reshape(probes.shape[:-1] + losses.shape[-1:])
    values = (up - down) / (2.0 * mu)
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        # (record,) for one theta, (row, record) for a block
        index = np.argwhere(~np.isfinite(values))[0]
        raise TwoPointNumericsError(
            int(index[-1]), float(np.linalg.norm(theta[tuple(index[:-1])]))
        )
    return values


def step_update(
    theta: np.ndarray, config: TrainConfig, t: int, ys: list[float], directions: list
) -> np.ndarray:
    """Step t of the trajectory, pure: decay theta and move it against the
    mean of the released values times their directions, one per value.
    Without decay the factor 1 - eta * 0 is exactly 1, and with one value
    the divisor is 1 (x / 1 is x for every double), so each is skipped."""
    moved = directions[0] * ys[0]
    for y, z in zip(ys[1:], directions[1:], strict=True):
        moved = moved + y * z
    eta, theta = config.eta(t), np.asarray(theta, dtype=float)
    if config.weight_decay:
        theta = (1.0 - eta * config.weight_decay) * theta
    return theta - eta * (moved / len(ys) if len(ys) > 1 else moved)


def public_trajectory(transcript: Transcript, task: LossTask):
    """Rebuild the parameter trajectory from the transcript alone, as
    arrays: ``thetas`` (t_total + 1, dim), whose row t holds theta after t
    steps, and the seeded ``directions`` (t_total, k, dim), whose row t - 1
    holds step t's.

    Every step's move is formed in one pass per slot over all steps, with
    ``step_update``'s operations in its order (the slots' y * z summed, then
    / k, then eta_t *).  Without weight decay every factor 1 - eta_t * 0 is
    exactly 1, so the rows are one running difference of theta_0 and the
    moves; only a decay runs step by step.  Matches training bit for bit on
    an honest transcript.  Memory grows as t_total * k * dim, which
    ``rng.directions`` bounds.
    """
    header, config = transcript.header, transcript.header.train
    k, t_total = header.mechanism.k, header.t_total
    directions = rngmod.directions(config.seed, t_total, k, task.dim)
    ys = np.array([rec.y for rec in transcript.records]).reshape(t_total, k, 1)
    moved = directions[:, 0] * ys[:, 0]
    for slot in range(1, k):
        moved = moved + ys[:, slot] * directions[:, slot]
    etas = config.eta(np.arange(1, t_total + 1))
    thetas = np.empty((t_total + 1, task.dim))
    thetas[0] = task.init_params()
    np.multiply(etas[:, None], moved / k, out=thetas[1:])
    if config.weight_decay == 0.0:
        return np.subtract.accumulate(thetas, out=thetas), directions
    for theta, after, eta in zip(thetas, thetas[1:], etas.tolist()):
        np.subtract((1.0 - eta * config.weight_decay) * theta, after, out=after)
    return thetas, directions


@dataclass(frozen=True)
class TranscriptHeader:
    """Everything public needed to replay a run: the task, both configs,
    and the seed and content hash of the subset design (the design itself
    is regenerated from its seed on load and checked against the hash)."""

    task_name: str
    task_params: dict
    train: TrainConfig
    mechanism: MechanismSpec
    design_seed: int
    design_hash: str

    @property
    def t_total(self) -> int:
        return self.train.steps

    @cached_property
    def task(self) -> LossTask:
        """The task built from ``task_name`` and ``task_params``, once."""
        return make_task(self.task_name, **self.task_params)


@dataclass(frozen=True)
class Transcript:
    """Public record of a run: header plus one line per released bit, the
    running totals the last record's.  Building one checks, once, that the
    records are t_total x k in (t, slot) order, each shaped as a release of
    the variant (``StepRecord.shape_fault``), else ValueError names the
    first record that is not.  Record i is step i // k + 1, slot i % k."""

    header: TranscriptHeader
    records: tuple[StepRecord, ...]
    dev_evals: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        records, k = tuple(self.records), self.header.mechanism.k
        expected = self.header.t_total * k
        if len(records) != expected:
            t, slot = divmod(min(len(records), expected), k)
            raise ValueError(
                f"record at step {t + 1} slot {slot}: expected {expected} release "
                f"records, found {len(records)}"
            )
        private = self.header.mechanism.variant != "surrogate"
        for i, rec in enumerate(records):
            t, slot = divmod(i, k)
            fault = rec.shape_fault(private)
            if fault is None and (rec.t != t + 1 or rec.slot != slot):
                fault = f"out of order (t={rec.t}, slot={rec.slot})"
            if fault is not None:
                raise ValueError(f"record at step {t + 1} slot {slot}: {fault}")
        object.__setattr__(self, "records", records)

    @property
    def cum_mi(self) -> float:
        return self.records[-1].cum_mi if self.records else 0.0

    @property
    def unanimity_bits(self) -> int:
        return self.records[-1].unanimity_count if self.records else 0

    @property
    def total_bits(self) -> int:
        return len(self.records)

    def free_fraction(self) -> float:
        return self.unanimity_bits / self.total_bits if self.total_bits else 0.0


@dataclass
class TrainResult:
    params: np.ndarray
    transcript: Transcript
    design: SubsetDesign
    secret_index: int
    dev_best_step: int
    dev_best_metric: float
    final_params: np.ndarray
    final_posterior: np.ndarray | None = None


def train(
    task: LossTask,
    config: TrainConfig,
    mech_spec: MechanismSpec,
    design: SubsetDesign | None = None,
    secret_index: int | None = None,
) -> TrainResult:
    """Run the full release-and-update loop.

    The design and secret index are derived from the run seed when not
    supplied.  Returns the chosen parameters (best-dev checkpoint when
    configured, else final), the public transcript, and the run's secrets
    for evaluation by the harness.
    """
    if design is None:
        design = build_balanced_design(
            task.n_records, mech_spec.resolved_subsets(),
            seed=int(rngmod.substream(config.seed, rngmod.DESIGN_STREAM).integers(2**63)),
        )
    if design.n_records != task.n_records:
        raise ValueError("design and task disagree on the number of records")
    if secret_index is None:
        secret_index = int(
            rngmod.substream(config.seed, rngmod.SECRET_STREAM).integers(design.n_subsets)
        )

    mech_rng = rngmod.substream(config.seed, rngmod.MECHANISM_STREAM)
    mechanism = ReleaseMechanism(
        mech_spec, design, horizon=config.steps, rng=mech_rng, secret_index=secret_index
    )

    theta = task.init_params()
    records: list[StepRecord] = []
    dev_evals: list[tuple[int, float]] = []
    best_metric, best_step, best_theta = -math.inf, 0, theta.copy()

    seeded = rngmod.directions(config.seed, config.steps, mech_spec.k, task.dim)
    for t, directions in enumerate(seeded, start=1):
        scalars = [
            _two_point_all(task, theta, z, config.smoothing) for z in directions
        ]
        ys, step_records = mechanism.step(t, scalars)
        records.extend(step_records)
        theta = step_update(theta, config, t, ys, directions)
        if t % config.dev_eval_interval == 0 or t == config.steps:
            metric = task.eval_metric(theta, "dev")
            dev_evals.append((t, metric))
            if metric > best_metric:
                best_metric, best_step, best_theta = metric, t, theta.copy()

    header = TranscriptHeader(
        task_name=task.name,
        task_params=task.spec_dict(),
        train=config,
        mechanism=mech_spec,
        design_seed=design.seed,
        design_hash=design.content_hash(),
    )
    transcript = Transcript(header=header, records=records, dev_evals=dev_evals)
    chosen = best_theta if config.load_best_dev else theta
    internal = (
        None if mech_spec.variant == "surrogate"
        else mechanism.posterior.probabilities()
    )
    return TrainResult(
        params=chosen,
        transcript=transcript,
        design=design,
        secret_index=secret_index,
        dev_best_step=best_step,
        dev_best_metric=best_metric,
        final_params=theta,
        final_posterior=internal,
    )
