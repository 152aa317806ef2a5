"""Exact mutual information of the binary-input Gaussian channel.

The released quantity at every training step is a sign bit passed through
additive Gaussian noise: the channel input is xi in {-1, +1} with
P(xi = +1) = q_plus, and the observation is Y~ = xi + N(0, sigma^2).
This module computes I(xi; Y~) in nats, exactly (to quadrature precision),
and inverts the map sigma -> MI so a step can be calibrated to carry a
prescribed number of nats.

The integral is evaluated with fixed-order Gauss-Hermite quadrature after
substituting y = s + sqrt(2)*sigma*x per input symbol s.  The Gaussian
normalizing constants cancel inside the log-ratio, so the integrand reduces
to -x^2 minus a two-term log-sum-exp and stays finite for any sigma > 0.

Every form of ``channel_mi`` runs one kernel (``_mi_rows``): a pass over at
most 128 rows, each row both branches of one (q_plus, sigma) in a
(2, GH_ORDER) block, written in place into one reused buffer.  A float
q_plus with a 1-d array of sigma, as the calibration walk calls it, takes
that q_plus's cached constants (``_constants``), and a float sigma is its
one-row case, with the same checks and rules; equal-length arrays of
q_plus and sigma, as the validator checks every recorded noise level at
once, take the logs of each q_plus per element with ``math``.  Each row is
reduced by ``np.vecdot(s, weights)``, which takes the dot of each row
alone, as ``np.dot(weights, row)`` does, so every value is the two-branch
form's bit for bit: no node is zero, so (x + 0)^2 = x^2, and logaddexp is
symmetric.  On 5,000 rows (2,500 pairs, q_plus uniform, sigma log-uniform
on [1e-2, 1e3]) vecdot differed from that dot in none, while
``rows @ weights`` differed in 3,667 and ``einsum`` in 3,902.

``invert_channel_mi`` bisects in log sigma, one decision per midpoint, but
reads the midpoints' MI from a few array calls: the first evaluates the
default bracket's ends with the midpoints the walk would visit if the root
sat at a closed-form guess, and each later one the midpoints from the
bracket where the walk left that path, along a better guess.  A midpoint is
a function of the bracket alone and its MI is the scalar call's bit for
bit, so every decision, and the sigma returned, is the one-at-a-time walk's
whatever the guess.

The tests check this against an independent composite-trapezoid evaluation
on an explicit grid, to 1e-6 nats, against two passes and the scalar form,
bit for bit, and the batched walk against the one-at-a-time bisection at
batch lengths of 1 and 64.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ChannelError",
    "DegenerateChannelError",
    "InfeasibleBudgetError",
    "binary_entropy",
    "channel_mi",
    "invert_channel_mi",
]

# Below this noise level the channel is treated as noiseless and the MI is
# the input entropy exactly; the crossover error is far below 1e-10 nats.
NOISELESS_SIGMA = 1e-10

GH_ORDER = 60

# Calibration bracket in sigma, expanded by decades on demand.
BRACKET_LO = 1e-6
BRACKET_HI = 1e6
BRACKET_LO_MIN = 1e-12
BRACKET_HI_MAX = 1e12
MI_MATCH_TOL = 1e-10
LOG_SIGMA_WIDTH_TOL = 1e-12
# Midpoints per batch of the calibration walk: the first batch follows the
# closed-form guess; each later one follows a guess through exact values and
# holds as many midpoints as the MI tolerance needs, at most _LOOKAHEAD_NEXT.
_LOOKAHEAD_FIRST = 15
_LOOKAHEAD_NEXT = 32

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(GH_ORDER)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)
_NEG_X2 = np.tile(-_GH_NODES * _GH_NODES, (2, 1))
# Divided by sigma: the symbol distance in node units, +gap conditioning on
# xi = +1 and -gap on -1 (IEEE division is exact under a sign flip).
_SQRT2_SIGNS = np.array([[math.sqrt(2.0)], [-math.sqrt(2.0)]])

# Rows per pass of the array forms, and the buffers every pass writes into
# in place: not thread-safe.
_CHUNK_ROWS = 128
_GAPS = np.empty((_CHUNK_ROWS, 2, 1))
_PASS = np.empty((_CHUNK_ROWS, 2, GH_ORDER))
_SUMS = np.empty((_CHUNK_ROWS, 2))


class ChannelError(ValueError):
    """Base class for calibration failures of the binary noise channel."""


class DegenerateChannelError(ChannelError):
    """The sign distribution is a point mass, so no noise level can carry
    positive information; calibration is undefined."""


class InfeasibleBudgetError(ChannelError):
    """The requested per-step information exceeds what a binary input with
    the given sign distribution can carry (its entropy)."""


def binary_entropy(q: float) -> float:
    """Entropy of a Bernoulli(q) variable in nats, with 0*log(0) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ChannelError(f"probability out of range: {q!r}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


@functools.lru_cache(maxsize=1)
def _constants(q_plus: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One q_plus's k1 = (log q, log 1-q) - x^2, k2 = (log 1-q, log q) and
    branch weights (q, 1-q), shaped as a pass broadcasts them."""
    logs = np.array((math.log(q_plus), math.log1p(-q_plus)))[:, None]
    # k2 at full width: the kernel's subtraction runs slower on a broadcast
    return logs + _NEG_X2, logs[::-1].repeat(GH_ORDER, 1), np.array((q_plus, 1.0 - q_plus))


def channel_mi(q_plus, sigma):
    """I(xi; xi + N(0, sigma^2)) in nats for P(xi = +1) = q_plus.

    Exact in the noiseless limit (returns the input entropy when sigma is
    below ``NOISELESS_SIGMA``) and decays to zero as sigma grows.  Given a
    float q_plus and a 1-d array of sigma, returns the array of the values
    at each sigma; given equal-length 1-d arrays of q_plus and sigma, the
    array of their pairs' values.  Each value is bit for bit the scalar
    call's.
    """
    if isinstance(q_plus, np.ndarray):
        return _channel_mi_array(q_plus, sigma)
    if not 0.0 <= q_plus <= 1.0:
        raise ChannelError(f"q_plus out of range: {q_plus!r}")
    if isinstance(sigma, np.ndarray):
        return _channel_mi_sigmas(q_plus, sigma)
    return float(_channel_mi_sigmas(q_plus, np.array((sigma,)))[0])


def _bad_sigma(sigma: np.ndarray) -> np.ndarray:
    return ~((sigma >= 0.0) & (sigma < math.inf))


def _channel_mi_sigmas(q_plus: float, sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise ChannelError(f"expected a 1-d sigma array, got shape {sigma.shape}")
    # two reductions, which propagate NaN, in place of four elementwise checks
    low, high = sigma.min(initial=math.inf), sigma.max(initial=0.0)
    if not (low >= 0.0 and high < math.inf):
        bad = float(sigma[_bad_sigma(sigma)][0])
        raise ChannelError(f"sigma must be finite and nonnegative: {bad!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        return np.zeros(sigma.shape)
    if low < NOISELESS_SIGMA:  # evaluated at the clamp, then given the entropy
        clamped = _channel_mi_sigmas(q_plus, np.maximum(sigma, NOISELESS_SIGMA))
        return np.where(sigma < NOISELESS_SIGMA, binary_entropy(q_plus), clamped)
    consts, out = _constants(q_plus), np.empty(sigma.shape)
    for start in range(0, sigma.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        _mi_rows(*consts, sigma[rows], out[rows])
    return out


def _channel_mi_array(q_plus: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    q, sigma = np.asarray(q_plus, dtype=float), np.asarray(sigma, dtype=float)
    if q.ndim != 1 or sigma.shape != q.shape:
        raise ChannelError(
            f"expected equal-length 1-d q_plus and sigma, got {q.shape} and {sigma.shape}"
        )
    bad_q = ~((q >= 0.0) & (q <= 1.0))
    bad = bad_q | _bad_sigma(sigma)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        if bad_q[i]:
            raise ChannelError(f"q_plus out of range: {float(q[i])!r}")
        raise ChannelError(f"sigma must be finite and nonnegative: {float(sigma[i])!r}")
    out = np.zeros(q.shape)
    noiseless = sigma < NOISELESS_SIGMA
    for i in np.flatnonzero(noiseless).tolist():
        out[i] = binary_entropy(float(q[i]))
    rows = np.flatnonzero(~noiseless & (q > 0.0) & (q < 1.0))
    for start in range(0, rows.size, _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        qc, mi = q[chunk], np.empty(chunk.size)
        logs = np.array([(math.log(v), math.log1p(-v)) for v in qc.tolist()])[:, :, None]
        # k1, k2 and the branch weights per row, as _constants makes them
        weights = np.stack((qc, 1.0 - qc), axis=1)
        _mi_rows(logs + _NEG_X2[0], logs[:, ::-1], weights, sigma[chunk], mi)
        out[chunk] = mi
    return out


def _mi_rows(k1, k2, weights, sigma: np.ndarray, out: np.ndarray) -> None:
    """Writes the MI of each of at most ``_CHUNK_ROWS`` rows into out, from
    one (R, 2, GH_ORDER) pass in the shared buffers: k1, k2 and the branch
    weights broadcast against the pass as ``_constants`` makes them.  Row 0
    of each pair conditions on xi = +1, row 1 on -1."""
    n = sigma.shape[0]
    gaps, s, sums = _GAPS[:n], _PASS[:n], _SUMS[:n]
    np.divide(_SQRT2_SIGNS, sigma[:, None, None], out=gaps)
    np.add(_GH_NODES, gaps, out=s)
    np.square(s, out=s)
    np.subtract(k2, s, out=s)  # k2 - (x + gap)^2
    np.logaddexp(k1, s, out=s)
    np.subtract(_NEG_X2, s, out=s)
    np.vecdot(s, _GH_WEIGHTS, out=sums)
    np.multiply(sums, weights, out=sums)
    np.add(sums[:, 0], sums[:, 1], out=out)  # q * plus + (1 - q) * minus
    # Quadrature noise can land an exact-zero integral a few ulp negative;
    # a -0.0 stays, as max(mi, 0.0) keeps it.
    np.copyto(out, 0.0, where=out < 0.0)


def invert_channel_mi(q_plus: float, beta: float) -> float:
    """Noise level sigma such that channel_mi(q_plus, sigma) == beta.

    MI is strictly decreasing in sigma, so the root is found by bisection
    in log(sigma) on a bracket expanded by decades until it straddles beta.
    Stops when the MI mismatch is below 1e-10 nats or the log-sigma bracket
    is narrower than 1e-12, and raises ChannelError if neither happens
    within 200 bisection steps.

    The walk reads its midpoints' MI from batches, usually two.  A batch is
    the path of midpoints the walk would visit if the root sat at a guess,
    as (sigma, log sigma) pairs made with the walk's own arithmetic, and one
    array call of ``channel_mi`` evaluates it.  The first call also
    evaluates the default bracket's ends; only a bracket that misses beta is
    expanded, by scalar calls, and its path dropped.  The walk takes the
    pairs in order while its decisions agree with the guess; the first that
    does not, or the end of the path, starts the next batch from the
    current bracket.  The first guess is the closed form in
    ``_first_guess``; each later one comes from exact values in
    ``_next_guess``, and its path stops where ``_steps_to_tolerance`` says
    the MI tolerance must be met.  Every decision still reads the MI of the
    exact midpoint, bit for bit the scalar call's, so sigma does not depend
    on the guess; a poor guess only costs another batch.
    """
    if not 0.0 <= q_plus <= 1.0:
        raise ChannelError(f"q_plus out of range: {q_plus!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        raise DegenerateChannelError(
            "unanimous sign distribution carries no information; nothing to calibrate"
        )
    if not math.isfinite(beta) or beta <= 0.0:
        raise ChannelError(f"target information must be positive and finite: {beta!r}")
    entropy = binary_entropy(q_plus)
    if beta >= entropy:
        raise InfeasibleBudgetError(
            f"requested {beta} nats but a sign with P(+1)={q_plus} carries at most {entropy}"
        )

    log_lo, log_hi = math.log(BRACKET_LO), math.log(BRACKET_HI)
    log_guess = _first_guess(q_plus, beta, entropy)
    path = _midpoints(log_lo, log_hi, log_guess, _LOOKAHEAD_FIRST)
    ends_and_path = [BRACKET_LO, BRACKET_HI] + [sigma for sigma, _ in path]
    mi_lo, mi_hi, *mis = channel_mi(q_plus, np.array(ends_and_path)).tolist()
    if not mi_lo > beta > mi_hi:
        # channel_mi(q, lo) must sit above beta; guaranteed once lo enters
        # the noiseless regime because beta < entropy.
        lo, hi = BRACKET_LO, BRACKET_HI
        while mi_lo <= beta:
            lo /= 10.0
            if lo < BRACKET_LO_MIN:
                raise ChannelError(
                    f"no sigma >= {BRACKET_LO_MIN} attains {beta} nats at q_plus={q_plus}"
                )
            mi_lo = channel_mi(q_plus, lo)
        while mi_hi >= beta:
            hi *= 10.0
            if hi > BRACKET_HI_MAX:
                raise ChannelError(
                    f"no sigma <= {BRACKET_HI_MAX} attains {beta} nats at q_plus={q_plus}"
                )
            mi_hi = channel_mi(q_plus, hi)
        log_lo, log_hi, path = math.log(lo), math.log(hi), []  # not this bracket's path

    taken, beyond = 0, None
    for _ in range(200):
        if taken == len(path):
            lookahead = _LOOKAHEAD_NEXT
            if path:  # the walk left the path or ran past its end
                log_guess = _next_guess(log_lo, log_hi, mi_lo, mi_hi, beta, log_guess, beyond)
                lookahead = min(lookahead, _steps_to_tolerance(mi_lo, mi_hi))
            path = _midpoints(log_lo, log_hi, log_guess, lookahead)
            mis = channel_mi(q_plus, np.array([sigma for sigma, _ in path])).tolist()
            taken, beyond = 0, None
        (sigma, log_sigma), mi = path[taken], mis[taken]
        taken += 1
        if abs(mi - beta) <= MI_MATCH_TOL:
            return sigma
        above = mi > beta
        if above:
            log_lo, mi_lo = log_sigma, mi
        else:
            log_hi, mi_hi = log_sigma, mi
        if above != (log_sigma < log_guess):  # the walk leaves the guessed path
            if taken < len(path):
                beyond = path[taken][1], mis[taken]
            taken = len(path)
        if log_hi - log_lo < LOG_SIGMA_WIDTH_TOL:
            return math.exp(0.5 * (log_lo + log_hi))
    raise ChannelError(
        f"bisection for {beta} nats at q_plus={q_plus} did not converge in 200 steps"
    )


def _first_guess(q_plus: float, beta: float, entropy: float) -> float:
    """log sigma-hat for sigma-hat^2 = 2q(1-q) / (h * -log1p(-beta/h)), which
    follows the high-noise limit I ~ 2q(1-q)/sigma^2 for small beta and goes
    to sigma = 0 as beta nears the entropy h; summed in logs, so that no
    product underflows at extreme q_plus."""
    return 0.5 * (
        math.log(2.0 * q_plus) + math.log1p(-q_plus)
        - math.log(entropy) - math.log(-math.log1p(-beta / entropy))
    )


def _next_guess(log_lo, log_hi, mi_lo, mi_hi, beta, log_guess, beyond) -> float:
    """Where log sigma meets log beta on the curve through (log sigma, log MI)
    at the bracket ends, and at ``beyond`` when that is the (log sigma, MI)
    of the path's midpoint after the one that left it: a secant through two
    points, an inverse quadratic through three (the secant when the
    quadratic leaves the bracket).  The last guess when an end's MI has no
    usable log."""
    if not mi_lo > mi_hi > 0.0:
        return log_guess
    y, y_lo, y_hi = math.log(beta), math.log(mi_lo), math.log(mi_hi)
    if y_lo == y_hi:
        return log_guess
    slope = (log_hi - log_lo) / (y_hi - y_lo)
    secant = log_lo + (y - y_lo) * slope
    if beyond is None or not beyond[1] > 0.0:
        return secant
    x_3, y_3 = beyond[0], math.log(beyond[1])
    if y_3 in (y_lo, y_hi):
        return secant
    curve = ((x_3 - log_hi) / (y_3 - y_hi) - slope) / (y_3 - y_lo)
    quadratic = secant + (y - y_lo) * (y - y_hi) * curve
    return quadratic if log_lo < quadratic < log_hi else secant


def _steps_to_tolerance(mi_lo: float, mi_hi: float) -> int:
    """About the midpoints the walk visits before it meets ``MI_MATCH_TOL``,
    if MI falls linearly across the bracket: each midpoint's mismatch is at
    most half the bracket's MI drop, which halves with every step.  Counted
    in binary exponents, and one short of that bound, since a midpoint
    seldom lands at the far end of its bracket: on the inversions of one
    train_m128 and one attack_m8 op, that saved a row per inversion and
    cost 0.014 extra passes."""
    return max(1, math.frexp(mi_lo - mi_hi)[1] - math.frexp(MI_MATCH_TOL)[1] - 1)


def _midpoints(
    log_lo: float, log_hi: float, log_guess: float, n: int
) -> list[tuple[float, float]]:
    """The next n midpoints of the log-sigma bisection, as (sigma, log sigma)
    in its arithmetic, if the root were at exp(log_guess); stops where the
    walk's width test would."""
    path = []
    for _ in range(n):
        sigma = math.exp(0.5 * (log_lo + log_hi))
        log_sigma = math.log(sigma)
        path.append((sigma, log_sigma))
        if log_sigma < log_guess:  # the guess says MI here exceeds beta
            log_lo = log_sigma
        else:
            log_hi = log_sigma
        if log_hi - log_lo < LOG_SIGMA_WIDTH_TOL:
            break
    return path
