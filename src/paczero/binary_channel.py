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
One evaluator per q_plus (``_Channel``, cached for the last q_plus) holds its
constants and evaluates both branches per sigma in one (2, GH_ORDER) pass,
bit for bit as two passes: no node is zero, so (x + 0)^2 = x^2, logaddexp is
symmetric, and each row has its own dot (a batched sum adds in another order).

``channel_mi`` also takes a 1-d array of sigma for one q_plus, as the
calibration walk does, and equal-length arrays of q_plus and sigma, as the
validator does to check every recorded noise level at once.  Both evaluate
in (R, 2, GH_ORDER) chunks of at most 128 rows through one shared pass
(``_mi_rows``), bit for bit as the scalar call on each row: the sigma form
takes the cached evaluator's constants, the pair form takes the logs of
each q_plus per element with ``math``, the degenerate and noiseless rows
take the scalar path's values, and each chunk is reduced by one
``np.vecdot(s, weights)``, which takes the dot of each row alone, as
``np.dot(weights, row)`` does.  On 5,000 rows (2,500 pairs, q_plus uniform,
sigma log-uniform on [1e-2, 1e3]) vecdot differed from that dot in none,
while ``rows @ weights`` differed in 3,667 and ``einsum`` in 3,902.

``invert_channel_mi`` bisects in log sigma, one decision per midpoint, but
reads the midpoints' MI from batches: it evaluates the next midpoints the
walk would visit if the root sat at a guess in one sigma-array call, and
only a wrong guess sends it back for another batch.  A midpoint is a
function of the bracket alone and its MI is the scalar call's bit for bit,
so every decision, and the sigma returned, is the one-at-a-time walk's
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
# closed-form guess, each later one a secant through exact values.
_LOOKAHEAD_FIRST = 16
_LOOKAHEAD_NEXT = 12

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(GH_ORDER)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)
_NEG_X2 = np.tile(-_GH_NODES * _GH_NODES, (2, 1))
# Subtracted from (log q, log 1-q, log 1-q, log q) to give, in one pass, a
# q_plus's k1 = (log q, log 1-q) - x^2 and k2 = (log 1-q, log q) - 0.
_CONST_SHIFTS = np.vstack([-_NEG_X2, np.zeros((2, GH_ORDER))])
_GAP_SIGNS = np.array([[1.0], [-1.0]])


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


class _Channel:
    """One q_plus's constants, and buffers that every call reuses: not thread-safe."""

    def __init__(self, q_plus: float):
        log_q, log_1mq = math.log(q_plus), math.log1p(-q_plus)
        consts = np.array((log_q, log_1mq, log_1mq, log_q))[:, None] - _CONST_SHIFTS
        self.q, self.k1, self.k2 = float(q_plus), consts[:2], consts[2:]
        self.gap, self.s = np.empty((2, 1)), np.empty((2, GH_ORDER))

    def mi(self, sigma: float) -> float:
        s, gap = self.s, math.sqrt(2.0) / sigma  # symbol distance in node units
        self.gap[:, 0] = gap, -gap
        np.add(_GH_NODES, self.gap, out=s)  # row 0 conditions on xi = +1, row 1 on -1
        np.square(s, out=s)
        np.subtract(self.k2, s, out=s)
        np.logaddexp(self.k1, s, out=s)
        np.subtract(_NEG_X2, s, out=s)
        plus, minus = np.dot(_GH_WEIGHTS, s[0]), np.dot(_GH_WEIGHTS, s[1])
        # Quadrature noise can land an exact-zero integral a few ulp negative.
        return max(self.q * float(plus) + (1.0 - self.q) * float(minus), 0.0)


_channel = functools.lru_cache(maxsize=1)(_Channel)

# Rows per pass of the array forms: bounds their buffers at (128, 2, GH_ORDER).
_CHUNK_ROWS = 128


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
    if sigma < 0.0 or not math.isfinite(sigma):
        raise ChannelError(f"sigma must be finite and nonnegative: {sigma!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        return 0.0
    if sigma < NOISELESS_SIGMA:
        return binary_entropy(q_plus)
    return _channel(q_plus).mi(sigma)


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
    ch, out = _channel(q_plus), np.empty(sigma.shape)
    for start in range(0, sigma.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        out[rows] = _mi_rows(ch.q, ch.k1, ch.k2, sigma[rows])
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
        qc = q[chunk]
        logs = np.array([(math.log(v), math.log1p(-v)) for v in qc.tolist()])[:, :, None]
        # k1 = log - x^2 and k2 = the other symbol's log, as _Channel holds them
        out[chunk] = _mi_rows(qc, logs + _NEG_X2[0], logs[:, ::-1], sigma[chunk])
    return out


def _mi_rows(q, k1, k2, sigma: np.ndarray) -> np.ndarray:
    """``_Channel(q).mi(sigma)`` of each row, from one (R, 2, GH_ORDER) pass
    of the scalar form's operations in its order: q is a float or an (R,)
    array, and k1 and k2 broadcast against the pass as ``_Channel``'s do.
    The clamp keeps a -0.0, as ``max(mi, 0.0)`` does."""
    gap = (math.sqrt(2.0) / sigma)[:, None, None] * _GAP_SIGNS  # (gap, -gap) per row
    s = _GH_NODES + gap
    np.square(s, out=s)
    np.subtract(k2, s, out=s)  # k2 - (x + gap)^2
    np.logaddexp(k1, s, out=s)
    np.subtract(_NEG_X2, s, out=s)
    plus, minus = np.vecdot(s, _GH_WEIGHTS).T
    mi = q * plus + (1.0 - q) * minus
    return np.where(mi < 0.0, 0.0, mi)


def invert_channel_mi(q_plus: float, beta: float) -> float:
    """Noise level sigma such that channel_mi(q_plus, sigma) == beta.

    MI is strictly decreasing in sigma, so the root is found by bisection
    in log(sigma) on a bracket expanded by decades until it straddles beta.
    Stops when the MI mismatch is below 1e-10 nats or the log-sigma bracket
    is narrower than 1e-12, and raises ChannelError if neither happens
    within 200 bisection steps.

    The walk reads its midpoints' MI from batches: when it reaches a
    midpoint that the last batch does not hold, the next few midpoints it
    would visit if the root sat at a guess are computed with the walk's own
    arithmetic and evaluated in one array call of ``channel_mi``.  The first
    guess is the closed form in ``_first_guess``, each later one a log-log
    secant between the bracket ends.  Every decision still reads the MI of
    the exact midpoint, bit for bit the scalar call's, so sigma does not
    depend on the guess; a poor guess only costs another batch.
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

    lo, hi = BRACKET_LO, BRACKET_HI
    # channel_mi(q, lo) must sit above beta; guaranteed once lo enters the
    # noiseless regime because beta < entropy.
    while (mi_lo := channel_mi(q_plus, lo)) <= beta:
        lo /= 10.0
        if lo < BRACKET_LO_MIN:
            raise ChannelError(
                f"no sigma >= {BRACKET_LO_MIN} attains {beta} nats at q_plus={q_plus}"
            )
    while (mi_hi := channel_mi(q_plus, hi)) >= beta:
        hi *= 10.0
        if hi > BRACKET_HI_MAX:
            raise ChannelError(
                f"no sigma <= {BRACKET_HI_MAX} attains {beta} nats at q_plus={q_plus}"
            )

    log_lo, log_hi = math.log(lo), math.log(hi)
    log_guess, lookahead, batch = _first_guess(q_plus, beta, entropy), _LOOKAHEAD_FIRST, {}
    for _ in range(200):
        sigma = math.exp(0.5 * (log_lo + log_hi))
        mi = batch.get(sigma)
        if mi is None:
            if batch:
                log_guess = _secant_guess(log_lo, log_hi, mi_lo, mi_hi, beta, log_guess)
            path = _midpoints(log_lo, log_hi, log_guess, lookahead)
            batch = dict(zip(path, channel_mi(q_plus, np.array(path)).tolist()))
            mi, lookahead = batch[sigma], _LOOKAHEAD_NEXT
        if abs(mi - beta) <= MI_MATCH_TOL:
            return sigma
        if mi > beta:
            log_lo, mi_lo = math.log(sigma), mi
        else:
            log_hi, mi_hi = math.log(sigma), mi
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


def _secant_guess(log_lo, log_hi, mi_lo, mi_hi, beta, log_guess) -> float:
    """Where the line through (log sigma, log MI) at the bracket ends meets
    log beta; the last guess when an end's MI has no usable log."""
    if not mi_lo > mi_hi > 0.0:
        return log_guess
    y_lo, y_hi = math.log(mi_lo), math.log(mi_hi)
    if y_lo == y_hi:
        return log_guess
    return log_lo + (y_lo - math.log(beta)) * (log_hi - log_lo) / (y_lo - y_hi)


def _midpoints(log_lo: float, log_hi: float, log_guess: float, n: int) -> list[float]:
    """The next n midpoints of the log-sigma bisection, in its arithmetic,
    if the root were at exp(log_guess); stops where the walk's width test
    would."""
    path = []
    for _ in range(n):
        sigma = math.exp(0.5 * (log_lo + log_hi))
        path.append(sigma)
        if math.log(sigma) < log_guess:  # the guess says MI here exceeds beta
            log_lo = math.log(sigma)
        else:
            log_hi = math.log(sigma)
        if log_hi - log_lo < LOG_SIGMA_WIDTH_TOL:
            break
    return path
