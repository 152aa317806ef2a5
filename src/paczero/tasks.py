"""Desk-scale training tasks with per-record losses.

All tasks expose the same surface: a fixed public record universe, a
deterministic per-record loss, vectorized evaluation over all records, and
accuracy-style metrics on held-out dev/test splits drawn from the same
distribution under disjoint sub-seeds.  Everything is reproducible from the
task seed alone; parameters are plain float64 vectors.
"""

from __future__ import annotations

import math
from typing import Annotated

import numpy as np

from . import _fields
from .rng import substream

__all__ = ["LossTask", "BlobsTask", "XorMlpTask", "QuadraticTask", "make_task"]

_TRAIN_SPLIT, _DEV_SPLIT, _TEST_SPLIT = 0, 1, 2
_GEOMETRY_KEY, _INIT_KEY = 10, 11
_MAX_DRAWS = 1000  # draws of one Blobs sample before its geometry is rejected
# Records, inputs, hidden units and parameters of a task, and the floats
# (records times parameters) that one loss evaluation reads or forms, at most
# these many: a size past them overflows an index or asks for more memory
# than a run has.
_MAX_SIZE, _MAX_WORK = 2**20, 2**24
_SIZE = _fields.at_most(_MAX_SIZE)


def _check_sizes(n_records: int, dim: int) -> None:
    """Hold the sizes that a task's fields derive to their bounds."""
    work = n_records * dim
    for name, size, bound in ("dim", dim, _MAX_SIZE), ("n_records * dim", work, _MAX_WORK):
        if size > bound:
            raise ValueError(f"{name} must be <= {bound}, got {size}")


class LossTask:
    """Interface shared by the toy tasks."""

    name: str = "base"
    dim: int
    n_records: int

    def per_sample_losses(self, theta: np.ndarray) -> np.ndarray:
        """Loss of every training record at theta, shape (n_records,); a
        (B, dim) block of thetas gives (B, n_records), each row bit for bit
        its own theta's.  Both forms are one expression: its products are
        stacked ``np.matmul`` calls, which make one BLAS call per theta,
        and one theta is the block of one; a 2-d ``xs @ thetas.T`` or
        ``einsum`` adds in another order."""
        raise NotImplementedError

    def eval_metric(self, theta: np.ndarray, split: str = "dev") -> float:
        """Evaluation score in [0, 1] on a held-out split."""
        raise NotImplementedError

    def init_params(self) -> np.ndarray:
        raise NotImplementedError

    def spec_dict(self) -> dict:
        """Constructor arguments, sufficient to rebuild the task; every task
        keeps each argument under its own name."""
        return {name: getattr(self, name) for name in _fields.fields(type(self))}

    def _split(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """Inputs and labels of the dev or test split, for tasks that hold
        labelled samples."""
        return {"dev": (self.x_dev, self.y_dev), "test": (self.x_test, self.y_test)}[split]

    def _check_theta(self, theta: np.ndarray, block: bool = False) -> np.ndarray:
        """theta as a float array of shape (dim,), or with ``block`` also a
        (B, dim) block; raises ValueError otherwise."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,) and not (
            block and theta.ndim == 2 and theta.shape[1] == self.dim
        ):
            expected = f"({self.dim},) or (B, {self.dim})" if block else f"({self.dim},)"
            raise ValueError(f"theta must have shape {expected}, got {theta.shape}")
        return theta


class BlobsTask(LossTask):
    """Binary logistic regression on two Gaussian clusters in R^10.

    The clusters sit at +-(separation/2) along a hidden unit direction and
    are strictly separable: every sample is redrawn until its projection on
    that direction clears the margin, a ValueError after ``_MAX_DRAWS``
    draws.  Within-class noise is tight along the separating direction and
    wide orthogonal to it, so a trained separator scores near 1.0 while a
    random parameter vector scores near chance.  Parameters are (weights,
    bias), dim = input_dim + 1.
    """

    name = "blobs"

    def __init__(
        self,
        n_records: Annotated[int, _fields.POSITIVE, _SIZE] = 128,
        input_dim: Annotated[int, _fields.POSITIVE, _SIZE] = 10,
        seed: Annotated[int, _fields.NONNEGATIVE] = 7,
        separation: Annotated[float, _fields.FINITE] = 3.0,
        margin: Annotated[float, _fields.FINITE, _fields.POSITIVE] = 0.5,
        axis_noise: Annotated[float, _fields.FINITE] = 0.3,
        perp_noise: Annotated[float, _fields.FINITE] = 1.5,
    ):
        if n_records % 4:
            raise ValueError(f"n_records must be a multiple of 4, got {n_records!r}")
        if separation / 2.0 < margin:  # the clusters must be separable
            raise ValueError(f"separation must be >= 2 * margin {margin!r}, got {separation!r}")
        self.n_records = n_records
        self.input_dim = input_dim
        self.dim = input_dim + 1
        _check_sizes(n_records, self.dim)
        self.seed = seed
        self.separation = separation
        self.margin = margin
        self.axis_noise = axis_noise
        self.perp_noise = perp_noise

        g = substream(seed, _GEOMETRY_KEY).standard_normal(input_dim)
        self.axis = g / np.linalg.norm(g)
        self.x_train, self.y_train = self._sample(n_records, _TRAIN_SPLIT)
        self._negated_labels = -self.y_train  # negation is exact, so once is enough
        self.x_dev, self.y_dev = self._sample(n_records // 4, _DEV_SPLIT)
        self.x_test, self.y_test = self._sample(n_records // 2, _TEST_SPLIT)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite sample raises below
    def _sample(self, count: int, split: int) -> tuple[np.ndarray, np.ndarray]:
        rng = substream(self.seed, split)
        labels = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        xs = np.empty((count, self.input_dim))
        for i, label in enumerate(labels):
            for _ in range(_MAX_DRAWS):
                noise = rng.standard_normal(self.input_dim)
                along = float(noise @ self.axis)
                perp = noise - along * self.axis
                x = (
                    label * (self.separation / 2.0) * self.axis
                    + self.axis_noise * along * self.axis
                    + self.perp_noise * perp
                )
                projection = float(x @ self.axis)
                if not math.isfinite(projection):  # as it is if any of x is (inf * 0 is NaN)
                    raise ValueError(
                        f"{self.name}: separation {self.separation!r}, axis_noise "
                        f"{self.axis_noise!r} and perp_noise {self.perp_noise!r} give a "
                        "non-finite sample"
                    )
                if label * projection >= self.margin:
                    xs[i] = x
                    break
            else:
                raise ValueError(f"no sample cleared margin {self.margin!r} in {_MAX_DRAWS} draws")
        return xs, labels

    def per_sample_losses(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_theta(theta, block=True)
        scores = np.matmul(self.x_train, theta[..., :-1, None])[..., 0] + theta[..., -1:]
        # softplus(-margin), stable at both tails
        return np.logaddexp(0.0, self._negated_labels * scores)

    def eval_metric(self, theta: np.ndarray, split: str = "dev") -> float:
        xs, ys = self._split(split)
        theta = self._check_theta(theta)
        scores = xs @ theta[:-1] + theta[-1]
        predicted = np.where(scores >= 0.0, 1.0, -1.0)
        return float(np.mean(predicted == ys))

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)


class XorMlpTask(LossTask):
    """Two-layer tanh network (10 -> hidden -> 1) on a noisy XOR layout.

    The first two input coordinates carry the checkerboard signal (label is
    the sign of x1*x2), the rest are distractor noise.  Logistic loss on
    the network output.
    """

    name = "xor_mlp"

    def __init__(
        self,
        n_records: Annotated[int, _fields.at_least(8), _SIZE] = 128,
        input_dim: Annotated[int, _fields.at_least(2), _SIZE] = 10,  # the two signal coordinates
        hidden: Annotated[int, _fields.POSITIVE, _SIZE] = 16,
        seed: Annotated[int, _fields.NONNEGATIVE] = 11,
        corner_noise: Annotated[float, _fields.FINITE] = 0.3,
    ):
        if n_records % 4:
            raise ValueError(f"n_records must be a multiple of 4, got {n_records!r}")
        self.n_records = n_records
        self.input_dim = input_dim
        self.hidden = hidden
        self.seed = seed
        self.corner_noise = corner_noise
        self.dim = input_dim * hidden + hidden + hidden + 1
        _check_sizes(n_records, self.dim)

        self.x_train, self.y_train = self._sample(n_records, _TRAIN_SPLIT)
        self._negated_labels = -self.y_train  # negation is exact, so once is enough
        self.x_dev, self.y_dev = self._sample(max(4, n_records // 4), _DEV_SPLIT)
        self.x_test, self.y_test = self._sample(max(4, n_records // 2), _TEST_SPLIT)

    def _sample(self, count: int, split: int):
        rng = substream(self.seed, split)
        corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        idx = np.arange(count) % 4
        xy = corners[idx] + self.corner_noise * rng.standard_normal((count, 2))
        rest = rng.standard_normal((count, self.input_dim - 2))
        xs = np.concatenate([xy, rest], axis=1)
        labels = np.where(xy[:, 0] * xy[:, 1] > 0.0, 1.0, -1.0)
        return xs, labels

    def _forward(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Network output on every row of xs, for one checked theta or for
        each theta of a block."""
        d, h = self.input_dim, self.hidden
        dh = d * h
        w1 = theta[..., :dh].reshape(theta.shape[:-1] + (d, h))
        hidden = np.tanh(np.matmul(xs, w1) + theta[..., None, dh : dh + h])
        out = np.matmul(hidden, theta[..., dh + h : dh + 2 * h, None])
        return out[..., 0] + theta[..., -1:]

    def per_sample_losses(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_theta(theta, block=True)
        return np.logaddexp(0.0, self._negated_labels * self._forward(theta, self.x_train))

    def eval_metric(self, theta: np.ndarray, split: str = "dev") -> float:
        xs, ys = self._split(split)
        predicted = np.where(self._forward(self._check_theta(theta), xs) >= 0.0, 1.0, -1.0)
        return float(np.mean(predicted == ys))

    def init_params(self) -> np.ndarray:
        rng = substream(self.seed, _INIT_KEY)
        d, h = self.input_dim, self.hidden
        w1 = rng.standard_normal((d, h)) / math.sqrt(d)
        w2 = rng.standard_normal(h) / math.sqrt(h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2, np.zeros(1)])


class QuadraticTask(LossTask):
    """Per-record quadratic bowls: loss_i(theta) = 0.5 * ||theta - a_i||^2.

    The two-point derivative estimator is exact here (no curvature error in
    the symmetric difference), which makes this the oracle task for
    estimator and update arithmetic.  With identical targets every subset
    agrees at every step, forcing unanimity.
    """

    name = "quadratic"

    def __init__(
        self,
        n_records: Annotated[int, _fields.POSITIVE, _SIZE] = 16,
        dim: Annotated[int, _fields.POSITIVE, _SIZE] = 10,
        seed: Annotated[int, _fields.NONNEGATIVE] = 3,
        target_spread: Annotated[float, _fields.FINITE] = 1.0,
        identical_targets: bool = False,
    ):
        _check_sizes(n_records, dim)
        self.n_records = n_records
        self.dim = dim
        self.seed = seed
        self.target_spread = target_spread
        self.identical_targets = identical_targets
        rng = substream(seed, _GEOMETRY_KEY)
        if identical_targets:
            shared = rng.standard_normal(dim) * target_spread
            self.targets = np.tile(shared, (n_records, 1))
        elif target_spread == 0.0:
            self.targets = np.zeros((n_records, dim))
        else:
            self.targets = rng.standard_normal((n_records, dim)) * target_spread

    def per_sample_losses(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_theta(theta, block=True)
        diffs = theta[..., None, :] - self.targets
        return 0.5 * np.sum(diffs * diffs, axis=-1)

    def eval_metric(self, theta: np.ndarray, split: str = "dev") -> float:
        # squashed mean loss; monotone in distance to the target cloud
        return 1.0 / (1.0 + float(np.mean(self.per_sample_losses(self._check_theta(theta)))))

    def init_params(self) -> np.ndarray:
        return np.ones(self.dim)


_TASKS = {"blobs": BlobsTask, "xor_mlp": XorMlpTask, "quadratic": QuadraticTask}


def make_task(name: str, **params) -> LossTask:
    """The named task built from ``params``.  Raises ValueError unless
    ``name`` is a task, ``params`` pass ``_fields.check`` against it and they
    meet the rules that tie them together, TypeError for a key it does not take."""
    if not isinstance(name, str) or name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; available: {sorted(_TASKS)}")
    _fields.check(_TASKS[name], params)
    return _TASKS[name](**params)
