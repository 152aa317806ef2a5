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

from .binary_channel import binary_entropy, channel_mi
from .engine import Transcript, mechanism_from_dict
from .mechanism import (
    BRANCH_DISAGREEMENT,
    BRANCH_SURROGATE,
    BRANCH_UNANIMITY,
    agreed_sign,
    bit_allocation,
    release_branch,
    step_budget,
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

    def __str__(self) -> str:
        status = "OK" if self.ok else "VIOLATION"
        return f"[{status}] {self.message}"


def validate_transcript(transcript: Transcript) -> ValidationReport:
    """Audit a finished run from its public transcript.

    Re-derives every per-bit allocation (remaining budget spread over the
    remaining steps, split across aggregated directions, capped below the
    sign entropy), confirms each branch decision and the zero-or-all
    consumption dichotomy, re-checks the noise calibration against the
    recorded sigma, and recomputes the cumulative spend in release order,
    checking it against every record and the summary trailer.  A ZPL run is
    audited as an MI run with a zero budget; a surrogate run only for
    carrying no accounting.  Every comparison fails closed, so a non-finite
    field is a violation.  Unanimity steps taken under the tolerance rather
    than exact agreement contribute a residual entropy term that is reported
    separately and never added to the cumulative total.  A record layout
    that ``Transcript.steps`` rejects is a "structure" violation.
    """
    spec = mechanism_from_dict(transcript.header.mechanism)
    horizon, k = transcript.header.t_total, spec.k
    tau = spec.unanimity_tolerance
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

    try:
        steps = transcript.steps()
    except ValueError as exc:
        return fail("structure", str(exc))

    spent = 0.0
    unanimity_bits = 0
    residual = 0.0
    for t, records in enumerate(steps, start=1):
        beta_step = step_budget(mi_total, spent, t, horizon)
        remaining = max(0.0, mi_total - spent)
        for rec in records:
            where = f"step {t} slot {rec.slot}"
            if non_private:
                if rec.branch != BRANCH_SURROGATE or rec.beta_used != 0.0:
                    return fail(where, "surrogate record carries accounting")
                continue
            q = rec.q_plus
            if q is None or not 0.0 <= q <= 1.0:
                return fail(where, f"agreement probability {q!r} out of range")
            if rec.y not in (-1.0, 1.0):
                return fail(where, f"released bit {rec.y!r} is not a sign")

            expected_beta = bit_allocation(beta_step, k, q, remaining, spent, mi_total)
            expected_branch = release_branch(q, expected_beta, tau)
            if rec.branch != expected_branch:
                return fail(
                    where,
                    f"branch {rec.branch!r} contradicts public prefix "
                    f"(expected {expected_branch!r} at q_plus={q})",
                )
            if not abs(rec.beta_t - expected_beta) <= _REPLAY_TOL:
                return fail(
                    where,
                    f"allocated budget {rec.beta_t!r} does not re-derive "
                    f"(expected {expected_beta!r})",
                )
            expected_used = expected_beta if expected_branch == BRANCH_DISAGREEMENT else 0.0
            if rec.beta_used not in (0.0, rec.beta_t):
                return fail(where, "consumption is neither zero nor the allocation")
            if not abs(rec.beta_used - expected_used) <= _REPLAY_TOL:
                return fail(
                    where,
                    f"consumed {rec.beta_used!r}, public prefix implies {expected_used!r}",
                )

            if expected_branch != BRANCH_DISAGREEMENT:
                if rec.sigma is not None or rec.y_tilde is not None:
                    return fail(where, f"{expected_branch} release carries noise fields")
            if expected_branch == BRANCH_UNANIMITY:
                unanimity_bits += 1
                residual += binary_entropy(q)
                if rec.y != float(agreed_sign(q)):
                    return fail(where, "unanimity release differs from the agreed sign")
            elif expected_branch == BRANCH_DISAGREEMENT:
                if rec.sigma is None or not 0.0 < rec.sigma < math.inf:
                    return fail(where, "disagreement release lacks a noise level")
                if rec.y_tilde is None or not math.isfinite(rec.y_tilde):
                    return fail(where, "disagreement release lacks the pre-quantized value")
                if rec.y != (1.0 if rec.y_tilde >= 0.0 else -1.0):
                    return fail(where, "released sign mismatches the pre-quantized value")
                calibrated = channel_mi(q, rec.sigma)
                if not abs(calibrated - rec.beta_t) <= _CALIBRATION_TOL:
                    return fail(
                        where,
                        f"noise level carries {calibrated} nats, allocation was {rec.beta_t}",
                    )

            spent += rec.beta_used
            remaining = max(0.0, remaining - rec.beta_used)
            if not abs(rec.cum_mi - spent) <= _REPLAY_TOL:
                return fail(
                    where,
                    f"running total {rec.cum_mi!r} mismatches re-derived {spent!r}",
                )
            if rec.unanimity_count != unanimity_bits:
                return fail(where, "unanimity counter mismatches re-derived count")

    if not spent <= mi_total:
        return fail(
            "total", f"cumulative information {spent!r} exceeds the budget {mi_total!r}"
        )
    if not (
        abs(transcript.cum_mi - spent) <= _REPLAY_TOL
        and transcript.unanimity_bits == unanimity_bits
        and transcript.total_bits == n_records
    ):
        return fail(
            "summary",
            f"trailer totals (cum_mi={transcript.cum_mi!r}, unanimity_bits="
            f"{transcript.unanimity_bits!r}, total_bits={transcript.total_bits!r}) "
            f"mismatch the re-derived ({spent!r}, {unanimity_bits}, {n_records})",
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
