"""Per-step release mechanism.

Each training step reduces the per-sample derivative estimates to one sign
bit per candidate subset, then releases a single value whose information
about the secret subset index is either exactly zero (unanimity across
candidates, or a fair coin) or exactly the calibrated budget for that step
(sign plus Gaussian noise at the noise level that makes the channel carry
beta_t nats).

The Bayes posterior over the candidate index that an observer of the
releases can hold is maintained here in log-space and is part of the
mechanism state: the budget allocator reads the current agreement
probability from it, and the noisy releases update it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Annotated, NamedTuple

import numpy as np

from . import _fields
from .binary_channel import binary_entropy, invert_channel_mi
from .rng import substream

__all__ = [
    "DesignError",
    "MechanismSpec",
    "SubsetDesign",
    "Posterior",
    "BudgetLedger",
    "StepRecord",
    "build_balanced_design",
    "subset_signs",
    "agreement_probability",
    "agreed_sign",
    "surrogate_release",
    "ReleaseMechanism",
]

TAU_DEFAULT = 1e-12
ENTROPY_CAP_FACTOR = 0.999
# Allocations at or below this are numerically indistinguishable from an
# exhausted budget; the step degenerates to a fair coin (sigma -> infinity).
MIN_CALIBRATABLE_MI = 1e-15
# sub-seeds a balanced design draws before it gives up on leaving no subset empty
_DESIGN_ATTEMPTS = 100
_DESIGN_MAX_CELLS = 2**24

VARIANTS = ("paczero_mi", "paczero_zpl", "surrogate", "k_aggregate")
INNER_VARIANTS = ("paczero_mi", "paczero_zpl")
SURROGATE_MODES = ("raw_full", "quant_full", "raw_half", "quant_half", "random_sign")

BRANCH_UNANIMITY = "unanimity"
BRANCH_DISAGREEMENT = "disagreement"
BRANCH_COIN = "zpl_coin"
BRANCH_SURROGATE = "surrogate"
_PRIVATE_BRANCHES = (BRANCH_UNANIMITY, BRANCH_COIN, BRANCH_DISAGREEMENT)


class DesignError(ValueError):
    """Subset design could not be sampled under its constraints."""


@dataclass(frozen=True)
class SubsetDesign:
    """Public candidate subsets of the record universe.

    ``membership[i, m]`` says whether record i belongs to subset m.  Every
    record sits in exactly half of the subsets, which pins the prior
    membership probability of any single record at 1/2.  The secret index
    (which subset actually trains) is held by the experiment harness, not
    by release logic.
    """

    membership: np.ndarray
    seed: int

    def __post_init__(self):
        m = self.membership
        if m.ndim != 2 or m.dtype != np.bool_:
            raise ValueError("membership must be a 2-d boolean array")
        n, k = m.shape
        if n < 1:
            raise ValueError("need at least one record")
        if k < 2 or k % 2 != 0:
            raise ValueError(f"number of subsets must be even and >= 2, got {k}")
        row_sums = m.sum(axis=1)
        if not np.all(row_sums == k // 2):
            raise ValueError("every record must belong to exactly half the subsets")
        if np.any(m.sum(axis=0) == 0):
            raise ValueError("empty subset in design")

    @property
    def n_records(self) -> int:
        return self.membership.shape[0]

    @property
    def n_subsets(self) -> int:
        return self.membership.shape[1]

    def subset_members(self, m: int) -> np.ndarray:
        """Indices of subset m's records, ascending."""
        return np.flatnonzero(self.membership[:, m])

    @cached_property
    def weights(self) -> np.ndarray:
        """``membership`` as a read-only float64 0/1 matrix, built once."""
        w = self.membership.astype(np.float64)
        w.flags.writeable = False
        return w

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_records}x{self.n_subsets}:".encode())
        h.update(np.packbits(self.membership, axis=None).tobytes())
        return h.hexdigest()


def build_balanced_design(n_records: int, n_subsets: int, seed: int) -> SubsetDesign:
    """Sample a design where each record joins a uniformly random half of
    the subsets; resample (next sub-seed) while any subset is empty."""
    if n_subsets < 2 or n_subsets % 2 != 0:
        raise ValueError(f"number of subsets must be even and >= 2, got {n_subsets}")
    if n_records < 1:
        raise ValueError("need at least one record")
    if n_records * n_subsets > _DESIGN_MAX_CELLS:  # the draws, sort and membership are this size
        raise ValueError(f"n_records * n_subsets must be <= {_DESIGN_MAX_CELLS}, "
                         f"got {n_records * n_subsets}")
    half = n_subsets // 2
    for attempt in range(_DESIGN_ATTEMPTS):
        rng = substream(seed, attempt)
        # argsort of iid uniforms = uniformly random half per row
        order = np.argsort(rng.random((n_records, n_subsets)), axis=1)
        membership = np.zeros((n_records, n_subsets), dtype=bool)
        rows = np.repeat(np.arange(n_records), half)
        membership[rows, order[:, :half].ravel()] = True
        if np.all(membership.sum(axis=0) > 0):
            return SubsetDesign(membership=membership, seed=seed)
    raise DesignError(
        f"no design with all {n_subsets} subsets nonempty over {n_records} "
        f"records after {_DESIGN_ATTEMPTS} attempts"
    )


def _logsumexp(a: np.ndarray) -> float:
    # the array methods make the same reductions as np.max and np.sum,
    # without their Python-level dispatch
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(a - m).sum()))


@dataclass(frozen=True)
class Posterior:
    """Distribution over candidate subset indices, kept in log-space so
    support only shrinks by genuine underflow, never by hard zeroing."""

    log_weights: np.ndarray

    @classmethod
    def uniform(cls, n_candidates: int) -> "Posterior":
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        return cls(np.full(n_candidates, -math.log(n_candidates)))

    @property
    def n_candidates(self) -> int:
        return self.log_weights.shape[0]

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def updated_by_observation(self, y_tilde, signs: np.ndarray, sigma) -> "Posterior":
        """Bayes update after seeing y_tilde = sign + N(0, sigma^2); the
        Gaussian normalizer is common to all candidates and drops out.

        Arrays of B observations and noise levels, with a (B, n_candidates)
        block of signs, fold the B updates in order, bit for bit as B single
        updates: every penalty (y_tilde - sign)^2 / (2 sigma^2) in one pass,
        each 2 sigma^2 taken on a Python float as the single update takes it
        (``square`` may round otherwise than ``pow``), then one
        normalisation per observation.  A single observation is the block of
        one: one finite y_tilde, one finite positive sigma and an integer
        (n_candidates,) sign vector take those operations, in that order,
        without the block's wrapping; any other single input is wrapped as a
        block of one.  Raises ValueError unless every sigma is finite and
        positive and every y_tilde finite."""
        lw = self.log_weights
        if (isinstance(sigma, float) and isinstance(y_tilde, float)
                and isinstance(signs, np.ndarray) and signs.shape == lw.shape
                and signs.dtype.kind in "biu"):
            y, s = float(y_tilde), float(sigma)
            if 0.0 < s < math.inf and math.isfinite(y):
                lw = lw - (y - signs) ** 2 / (2.0 * s**2)
                return Posterior(lw - _logsumexp(lw))
        if isinstance(sigma, np.ndarray):
            y_tilde = np.asarray(y_tilde, dtype=float)
        else:
            y_tilde, signs, sigma = np.array([y_tilde]), signs[None], np.array([sigma])
        if not (y_tilde.ndim == 1 and sigma.shape == y_tilde.shape
                and signs.shape == y_tilde.shape + (self.n_candidates,)):
            raise ValueError(
                f"expected equal-length y_tilde and sigma and a (B, {self.n_candidates}) "
                f"sign block, got {y_tilde.shape}, {sigma.shape} and {signs.shape}"
            )
        sigmas = sigma.tolist()
        if not (all(0.0 < s < math.inf for s in sigmas)
                and all(math.isfinite(y) for y in y_tilde.tolist())):
            raise ValueError(
                "observation update needs finite y_tilde and finite sigma > 0, "
                f"got y_tilde={y_tilde}, sigma={sigma}"
            )
        scale = np.array([2.0 * s**2 for s in sigmas])
        penalties = (y_tilde[:, None] - signs) ** 2 / scale[:, None]
        for penalty in penalties:
            lw = lw - penalty
            lw = lw - _logsumexp(lw)
        return Posterior(lw)


class StepRecord(NamedTuple):
    """Public per-release line of the transcript, made by
    ``BudgetLedger.charge`` or loaded from a release line.  One record per
    released bit: ``slot`` is 0 for the base variants and indexes the
    aggregated directions otherwise; ``cum_mi`` and ``unanimity_count`` are
    the ledger's running totals after this bit.  A tuple, so immutable and
    without an instance dict; ``Transcript`` checks each record's shape as
    it is built."""

    t: int
    slot: int
    branch: str
    q_plus: float | None
    sigma: float | None
    y: float
    y_tilde: float | None
    beta_t: float
    beta_used: float
    cum_mi: float
    unanimity_count: int

    def shape_fault(self, private: bool) -> str | None:
        """Why this record cannot be a private (else surrogate) release at
        all, on field types and presence alone (NaN is a value); else None."""
        if not (type(self.t) is int and type(self.slot) is int
                and type(self.unanimity_count) is int):
            return "t, slot and unanimity_count must be integers"
        if not (isinstance(self.y, float) and isinstance(self.beta_t, float)
                and isinstance(self.beta_used, float) and isinstance(self.cum_mi, float)):
            return "y, beta_t, beta_used and cum_mi must be floats"
        if not private:
            if self.branch != BRANCH_SURROGATE or self.q_plus is not None:
                return "surrogate record carries private release fields"
        elif self.branch not in _PRIVATE_BRANCHES:
            return f"branch {self.branch!r} is not a private release"
        elif not (isinstance(self.q_plus, float) and 0.0 <= self.q_plus <= 1.0):
            return f"agreement probability {self.q_plus!r} is not a float in [0, 1]"
        elif self.y not in (-1.0, 1.0):
            return f"released bit {self.y!r} is not a sign"
        if self.branch != BRANCH_DISAGREEMENT:
            if self.sigma is not None or self.y_tilde is not None:
                return f"{self.branch} release carries noise fields"
            return None
        if not (isinstance(self.sigma, float) and 0.0 < self.sigma < math.inf
                and isinstance(self.y_tilde, float) and math.isfinite(self.y_tilde)):
            return "disagreement needs a finite positive sigma and a finite y_tilde"
        if self.y != (1.0 if self.y_tilde >= 0.0 else -1.0):
            return "released sign mismatches the pre-quantized value"
        return None


@dataclass
class BudgetLedger:
    """Running account of allocated vs consumed information, and the one
    budget walk that the mechanism and the validator both make.

    ``open_step`` fixes a step's allocation and unspent remainder,
    ``decide`` gives each of its bits their share and release branch and
    ``charge`` books a bit and makes its record.  ``mi_spent`` is the
    ordered float sum of consumed budgets, so a validator replaying the same
    charges in the same order reproduces every allocation bit for bit.
    ``tau`` is the unanimity tolerance.
    """

    mi_total: float
    horizon: int
    k: int
    tau: float
    mi_spent: float = 0.0
    unanimity_bits: int = 0
    _beta_step: float = field(default=0.0, init=False, repr=False)
    _step_left: float = field(default=0.0, init=False, repr=False)

    def remaining(self) -> float:
        return max(0.0, self.mi_total - self.mi_spent)

    def open_step(self, t: int) -> None:
        """Fix step t's allocation, the unspent budget spread evenly over the
        steps left in the horizon, and its unspent remainder."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"step {t} outside horizon 1..{self.horizon}")
        self._step_left = self.remaining()
        self._beta_step = self._step_left / (self.horizon - t + 1)

    def decide(self, q_plus: float) -> tuple[float, str]:
        """Allocation and branch of the open step's next bit, whose agreement
        probability is ``q_plus``.  The allocation is the step allocation
        split over its k directions, capped below the sign entropy so the
        channel inversion stays feasible and by the budget still unspent in
        this step, then stepped down past float rounding so that
        ``mi_spent + beta`` never exceeds ``mi_total``.  The branch is
        unanimity within ``tau`` of agreement, a fair coin when the
        allocation is too small to calibrate, else the noisy sign."""
        spent, total = self.mi_spent, self.mi_total
        beta = max(0.0, min(
            self._beta_step / self.k, ENTROPY_CAP_FACTOR * binary_entropy(q_plus),
            self._step_left,
        ))
        if spent + beta > total:
            beta = max(0.0, min(beta, total - spent))
        while beta > 0.0 and spent + beta > total:
            beta = math.nextafter(beta, 0.0)
        if q_plus <= self.tau or q_plus >= 1.0 - self.tau:
            return beta, BRANCH_UNANIMITY
        if beta <= MIN_CALIBRATABLE_MI:
            return beta, BRANCH_COIN
        return beta, BRANCH_DISAGREEMENT

    def charge(
        self, t: int, slot: int, branch: str, q_plus: float | None, sigma: float | None,
        y: float, y_tilde: float | None, beta_t: float,
    ) -> StepRecord:
        """Book one released bit and return its ``StepRecord``, the tuple a
        loaded release line also builds: only a noisy sign consumes its
        allocation, and the running totals are the ledger's after this bit."""
        beta_used = beta_t if branch == BRANCH_DISAGREEMENT else 0.0
        self.mi_spent += beta_used
        self._step_left = max(0.0, self._step_left - beta_used)
        if branch == BRANCH_UNANIMITY:
            self.unanimity_bits += 1
        return StepRecord(
            t, slot, branch, q_plus, sigma, y, y_tilde, beta_t, beta_used,
            self.mi_spent, self.unanimity_bits,
        )


@dataclass(frozen=True)
class MechanismSpec:
    """What to release each step and under which information contract; built
    from checked fields (``_fields``) that meet the variant's rules."""

    variant: Annotated[str, _fields.one_of(VARIANTS)] = "paczero_mi"
    mi_total: Annotated[float, _fields.FINITE, _fields.NONNEGATIVE] = 0.0
    n_subsets: Annotated[
        int | None, _fields.at_least(2), _fields.at_most(2**20), _fields.EVEN
    ] = None
    clip: Annotated[float, _fields.POSITIVE] = math.inf  # may be inf
    unanimity_tolerance: Annotated[float, ("in (0, 0.5)", lambda v: 0.0 < v < 0.5)] = TAU_DEFAULT
    surrogate_mode: Annotated[str | None, _fields.one_of(SURROGATE_MODES)] = None
    k: Annotated[int, _fields.POSITIVE] = 1
    inner_variant: Annotated[str, _fields.one_of(INNER_VARIANTS)] = "paczero_mi"

    def __post_init__(self):
        _fields.check(MechanismSpec, vars(self))
        if (self.variant == "surrogate") != (self.surrogate_mode is not None):
            raise ValueError("surrogate_mode must be set for the surrogate variant only, "
                             f"got {self.surrogate_mode!r}")
        if self.bit_rule() == "mi" and self.mi_total == 0.0:
            raise ValueError(f"mi_total must be positive for an MI variant, got {self.mi_total!r}")
        if self.variant != "k_aggregate" and self.k != 1:
            raise ValueError(f"k must be 1 outside k_aggregate, got {self.k!r}")

    def bit_rule(self) -> str:
        v = self.inner_variant if self.variant == "k_aggregate" else self.variant
        if v == "paczero_mi":
            return "mi"
        if v == "paczero_zpl":
            return "zpl"
        return "surrogate"

    def effective_budget(self) -> float:
        """Total information the run may spend: the MI budget, else zero
        (a ZPL run is an MI run whose every allocation is zero)."""
        return self.mi_total if self.bit_rule() == "mi" else 0.0

    def resolved_subsets(self) -> int:
        if self.n_subsets is not None:
            return self.n_subsets
        return 126 if self.bit_rule() == "zpl" else 128


def subset_signs(scalars: np.ndarray, design: SubsetDesign, clip: float) -> np.ndarray:
    """Clip each per-sample scalar to [-clip, clip], average over every
    subset's members in ascending index order, and take signs (sign(0)=+1).
    Takes one vector of n_records scalars, giving n_subsets signs, or a
    (B, n_records) block of them, giving (B, n_subsets) signs, each row the
    signs of its vector alone.  Two products give every subset's sum s and
    absolute sum a.  Summing n floats in any order lands within gamma_n * A
    of the exact sum (Higham 2002, sec. 4.2), so where
    |s| > 4 n eps a + 1e-300 (eps = 2**-52) and a < 2**1020 (no order
    overflows), s and a per-subset sum share one nonzero sign, and the floor
    keeps that sum over the size from rounding to -0.0.  Every other
    subset, NaN and inf included, is summed alone; a call whose subsets are
    all certified returns the signs of the products.  The clip is
    ``minimum(maximum(x, -clip), clip)``, which keeps NaN, signed zeros and
    infinities as ``np.clip`` does, without its Python-level wrapper."""
    scalars = np.asarray(scalars, dtype=float)
    if scalars.ndim not in (1, 2) or scalars.shape[-1] != design.n_records:
        raise ValueError(
            f"expected {design.n_records} scalars per row, got shape {scalars.shape}"
        )
    if not clip > 0.0:
        raise ValueError("clip must be positive (may be inf)")
    clipped = np.minimum(np.maximum(scalars, -clip), clip)
    w = design.weights
    s, a = clipped @ w, np.abs(clipped) @ w
    signs = np.where(s >= 0.0, 1, -1)
    certain = (np.abs(s) > 2.0**-50 * design.n_records * a + 1e-300) & (a < 2.0**1020)
    if certain.all():
        return signs
    for index in zip(*(~certain).nonzero()):
        # index is (m,) for a vector and (row, m) for a block
        members = design.subset_members(index[-1])
        row = clipped[index[:-1]]
        signs[index] = 1 if row[members].sum() / members.size >= 0.0 else -1
    return signs


def agreement_probability(posterior: Posterior, signs: np.ndarray) -> float:
    """Posterior probability that the secret subset's sign is +1."""
    if signs.shape[0] != posterior.n_candidates:
        raise ValueError("signs and posterior disagree on candidate count")
    # normalized weights can land an ulp outside [0, 1] after exp-summing
    return float(min(max(posterior.probabilities()[signs > 0].sum(), 0.0), 1.0))


def agreed_sign(q_plus: float) -> int:
    return 1 if q_plus >= 0.5 else -1


def _fair_coin(rng: np.random.Generator) -> float:
    return -1.0 if rng.integers(2) == 0 else 1.0


def surrogate_release(
    mode: str,
    scalars: np.ndarray,
    design: SubsetDesign,
    secret_index: int,
    clip: float,
    rng: np.random.Generator,
) -> float:
    """Non-private ablation releases; no information accounting applies."""
    if mode not in SURROGATE_MODES:
        raise ValueError(f"unknown surrogate mode {mode!r}")
    if mode == "random_sign":
        return _fair_coin(rng)
    clipped = np.clip(np.asarray(scalars, dtype=float), -clip, clip)
    if mode in ("raw_full", "quant_full"):
        value = float(clipped.sum() / clipped.size)
    else:
        members = design.subset_members(secret_index)
        value = float(clipped[members].sum() / members.size)
    if mode.startswith("quant"):
        return 1.0 if value >= 0.0 else -1.0
    return value


class ReleaseMechanism:
    """Stateful per-run wrapper: owns the posterior, the ledger, and the
    noise stream, and turns per-direction scalar vectors into releases."""

    def __init__(
        self,
        spec: MechanismSpec,
        design: SubsetDesign,
        horizon: int,
        rng: np.random.Generator,
        secret_index: int,
    ):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= secret_index < design.n_subsets:
            raise ValueError("secret index outside the design")
        if spec.resolved_subsets() != design.n_subsets:
            raise ValueError(
                f"spec expects {spec.resolved_subsets()} subsets, design has "
                f"{design.n_subsets}"
            )
        self.spec = spec
        self.design = design
        self.rng = rng
        self.secret_index = secret_index
        self.posterior = Posterior.uniform(design.n_subsets)
        self.ledger = BudgetLedger(spec.effective_budget(), horizon, spec.k, spec.unanimity_tolerance)

    def step(self, t: int, scalars_per_slot: list[np.ndarray]) -> tuple[list[float], list[StepRecord]]:
        """Release one bit per slot, as its ledger decision says: unanimity
        releases the agreed sign for free; an allocation too small to
        calibrate (zero under ZPL) releases a fair coin; otherwise the
        secret subset's sign goes out through Gaussian noise carrying
        exactly beta_t nats, and the posterior absorbs the pre-quantization
        observation.  Only that noisy branch reads the secret index."""
        if len(scalars_per_slot) != self.spec.k:
            raise ValueError(
                f"expected {self.spec.k} scalar vectors, got {len(scalars_per_slot)}"
            )
        if self.spec.variant == "surrogate":
            y = surrogate_release(
                self.spec.surrogate_mode, scalars_per_slot[0], self.design,
                self.secret_index, self.spec.clip, self.rng,
            )
            return [y], [self.ledger.charge(t, 0, BRANCH_SURROGATE, None, None, y, None, 0.0)]

        self.ledger.open_step(t)
        records: list[StepRecord] = []
        for slot, scalars in enumerate(scalars_per_slot):
            signs = subset_signs(scalars, self.design, self.spec.clip)
            q_plus = agreement_probability(self.posterior, signs)
            beta_t, branch = self.ledger.decide(q_plus)
            sigma = y_tilde = None
            if branch == BRANCH_UNANIMITY:
                y = float(agreed_sign(q_plus))
            elif branch == BRANCH_COIN:
                y = _fair_coin(self.rng)
            else:
                sigma = invert_channel_mi(q_plus, beta_t)
                noise = sigma * float(self.rng.standard_normal())
                y_tilde = float(signs[self.secret_index]) + noise
                y = 1.0 if y_tilde >= 0.0 else -1.0
                self.posterior = self.posterior.updated_by_observation(y_tilde, signs, sigma)
            records.append(
                self.ledger.charge(t, slot, branch, q_plus, sigma, y, y_tilde, beta_t)
            )
        return [rec.y for rec in records], records
