"""Information-to-attack-success arithmetic and transcript validation.

The privacy contract is a bound on membership-inference success: if the
releases carry at most `mi` nats about the secret, any attacker's success
probability p obeys kl(p || prior) <= mi (binary KL, nats).  This module
inverts that bound, converts DP parameters to the same currency for
reference, and audits finished transcripts by re-deriving every budget
decision from public information alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binary_channel import binary_entropy, channel_mi
from .engine import Transcript
from .mechanism import (
    BRANCH_DISAGREEMENT,
    BRANCH_SURROGATE,
    BRANCH_UNANIMITY,
    BudgetLedger,
    agreed_sign,
)

__all__ = [
    "kl_binary",
    "mia_posterior_bound",
    "dp_eps_to_mia_bound",
    "matched_mi_for_dp",
    "ValidationReport",
    "validate_transcript",
]

_PROB_CEILING = 1.0 - 1e-15
_BISECT_TOL = 1e-12
# Budget re-derivation must reproduce the mechanism's arithmetic; any
# daylight beyond accumulated rounding is a violation.
_REPLAY_TOL = 1e-12
_CALIBRATION_TOL = 1e-9


def kl_binary(p: float, q: float) -> float:
    """KL(Bernoulli(p) || Bernoulli(q)) in nats; 0*log(0) = 0; divergence
    against a degenerate q is signaled as inf."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q!r}")
    if q == 0.0 or q == 1.0:
        return 0.0 if p == q else math.inf
    terms = 0.0
    if p > 0.0:
        terms += p * math.log(p / q)
    if p < 1.0:
        terms += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return terms


def mia_posterior_bound(mi: float, prior: float) -> float:
    """Largest attack success probability consistent with `mi` nats.

    Solves kl(p || prior) = mi for p on [prior, 1) by bisection (kl is
    increasing there); saturates at 1 when even near-certainty is allowed.
    Absolute tolerance 1e-12 on the returned probability.
    """
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must lie strictly inside (0, 1): {prior!r}")
    if not mi >= 0.0:
        raise ValueError(f"information must be nonnegative: {mi!r}")
    if mi == 0.0:
        return prior
    if mi >= kl_binary(_PROB_CEILING, prior):
        return 1.0
    lo, hi = prior, _PROB_CEILING
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if kl_binary(mid, prior) < mi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dp_eps_to_mia_bound(eps: float, delta: float) -> float:
    """Reference conversion: the classical MIA ceiling e^eps/(1+e^eps) + delta
    for an (eps, delta)-DP mechanism, clamped to 1."""
    if not eps >= 0.0:
        raise ValueError(f"eps must be nonnegative: {eps!r}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1): {delta!r}")
    return min(1.0, 1.0 / (1.0 + math.exp(-eps)) + delta)


def matched_mi_for_dp(eps: float, delta: float, prior: float) -> float:
    """Information budget whose posterior bound equals the DP MIA ceiling.

    This is an attack-success match only, not a DP guarantee; a saturated
    ceiling (bound = 1) has no finite match and is signaled as inf.
    """
    if not 0.0 < prior < 1.0:
        raise ValueError(f"prior must lie strictly inside (0, 1): {prior!r}")
    bound = dp_eps_to_mia_bound(eps, delta)
    if bound >= 1.0:
        return math.inf
    return kl_binary(bound, prior)


# StepRecord fields the audit re-derives from the public prefix, and those
# it takes as recorded (y is re-derived on unanimity and bound to y_tilde's
# sign on a disagreement, but a coin's y is trusted).
REDERIVED_FIELDS = (
    "t", "slot", "branch", "sigma", "beta_t", "beta_used", "cum_mi", "unanimity_count",
)
TRUSTED_FIELDS = ("q_plus", "y", "y_tilde")


@dataclass
class ValidationReport:
    """Verdict of a transcript audit.  A failed audit re-derives no totals,
    so its ``cum_mi`` and ``residual_tolerance_mi`` are None."""

    ok: bool
    variant: str
    message: str
    first_violation: str | None
    bits_checked: int
    cum_mi: float | None
    recorded_cum_mi: float
    mi_total: float
    unanimity_bits: int
    residual_tolerance_mi: float | None
    non_private: bool = False
    rederived: tuple[str, ...] = REDERIVED_FIELDS
    trusted: tuple[str, ...] = TRUSTED_FIELDS

    def __str__(self) -> str:
        status = "OK" if self.ok else "VIOLATION"
        return f"[{status}] {self.message}"


def _same(recorded, expected) -> bool:
    """Fail-closed equality: a float within _REPLAY_TOL of a float, anything
    else equal and of the same type."""
    if isinstance(expected, float):
        return isinstance(recorded, float) and abs(recorded - expected) <= _REPLAY_TOL
    return type(recorded) is type(expected) and recorded == expected


def validate_transcript(transcript: Transcript) -> ValidationReport:
    """Audit a finished run from its public transcript.

    The record layout and shapes were checked when the transcript was
    built (``Transcript``).  Each record must equal, failing closed, the
    one its public prefix implies: branch, allocation, consumption and (on
    unanimity) the agreed sign re-derived through the same ``BudgetLedger``
    walk (``open_step``, ``decide``, ``charge``) the mechanism makes,
    running totals as charged.  Each noise level must carry its allocation
    and the total spend must fit the budget.  ZPL is audited as MI with a
    zero budget, a surrogate run for carrying no accounting.  Unanimity
    under the tolerance rather than exact agreement adds a residual entropy
    term, reported apart from the cumulative total.
    """
    spec = transcript.header.mechanism
    mi_total = spec.effective_budget()
    non_private = spec.variant == "surrogate"
    n_records = len(transcript.records)

    def fail(where: str, detail: str) -> ValidationReport:
        return ValidationReport(
            ok=False, variant=spec.variant,
            message=f"{where}: {detail}", first_violation=where,
            bits_checked=n_records, cum_mi=None,
            recorded_cum_mi=transcript.cum_mi, mi_total=mi_total,
            unanimity_bits=transcript.unanimity_bits,
            residual_tolerance_mi=None,
        )

    # what every recorded noise level carries, in one pass; the walk stops at
    # the first record whose branch does not re-derive, so it reads these in
    # order, one per disagreement it reaches
    noisy = [rec for rec in transcript.records if rec.branch == BRANCH_DISAGREEMENT]
    carried = iter(channel_mi(
        np.array([rec.q_plus for rec in noisy]), np.array([rec.sigma for rec in noisy])
    ).tolist())

    ledger = BudgetLedger(mi_total, transcript.header.t_total, spec.k, spec.unanimity_tolerance)
    residual = 0.0
    for t, records in enumerate(transcript.steps, start=1):
        ledger.open_step(t)
        for slot, rec in enumerate(records):
            q, y, branch, beta = rec.q_plus, rec.y, BRANCH_SURROGATE, 0.0
            if not non_private:
                beta, branch = ledger.decide(q)
                if branch == BRANCH_UNANIMITY:
                    y = float(agreed_sign(q))
                    residual += binary_entropy(q)
            expected = ledger.charge(t, slot, branch, q, rec.sigma, y, rec.y_tilde, beta)
            where = f"step {t} slot {slot}"
            if expected != rec:  # else every field is the same, exactly
                for name, want in vars(expected).items():
                    got = getattr(rec, name)
                    if not _same(got, want):
                        return fail(where, f"{name} {got!r} does not re-derive (expected {want!r})")
            if branch == BRANCH_DISAGREEMENT:
                calibrated = next(carried)
                if not abs(calibrated - rec.beta_t) <= _CALIBRATION_TOL:
                    return fail(
                        where,
                        f"noise level carries {calibrated} nats, allocation was {rec.beta_t}",
                    )

    spent, unanimity_bits = ledger.mi_spent, ledger.unanimity_bits
    if not spent <= mi_total:
        return fail(
            "total", f"cumulative information {spent!r} exceeds the budget {mi_total!r}"
        )

    if non_private:
        message = "non-private surrogate run; information accounting skipped"
    else:
        message = (
            f"transcript sound: {spent:.6g} of {mi_total:.6g} nats spent over "
            f"{n_records} releases ({unanimity_bits} unanimous)"
        )
    return ValidationReport(
        ok=True, variant=spec.variant, message=message,
        first_violation=None, bits_checked=n_records,
        cum_mi=spent, recorded_cum_mi=transcript.cum_mi, mi_total=mi_total,
        unanimity_bits=unanimity_bits, residual_tolerance_mi=residual,
        non_private=non_private,
    )
