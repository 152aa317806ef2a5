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
(2, GH_ORDER) block, in arrays the call allocates, so the module holds no
state and threads may call it at once.  A float q_plus with a 1-d array of
sigma, as the calibration walk calls it, gives the kernel that q_plus's
logs and weights in one array; a float64 array of at most 128 sigma, which
every calibration call passes, is one kernel call on the array itself, and
a float sigma is its one-row case, with the same checks and rules.
Equal-length arrays of q_plus and sigma, as the validator checks every
recorded noise level at once, fill each pass's (rows, 2, 2) constants in
place: the logs of each q_plus by ``math`` over the pass's ``tolist()``
(not ``np.log``, whose SIMD loops vary by CPU), q_plus itself and
``1.0 - q_plus`` by ``np.subtract``, each the scalar form's value.  Each
row is reduced by ``np.vecdot(s, weights)``, which takes the dot of each
row alone, as ``np.dot(weights, row)`` does, so every value is the
two-branch form's bit for bit: no node is zero, so (x + 0)^2 = x^2, and
logaddexp is symmetric.  On 5,000 rows (2,500 pairs, q_plus uniform,
sigma log-uniform on [1e-2, 1e3]) vecdot differed from that dot in none,
while ``rows @ weights`` differed in 3,667 and ``einsum`` in 3,902.

``invert_channel_mi`` bisects in log sigma, one decision per midpoint, but
decides those far from a guess at the root (from the binary input's low-SNR
series) unevaluated.  One array call checks the skips by the bracket ends
they leave, which must clear beta by a fence, with the midpoints the walk
would visit next if the root sat at the guess; later calls follow guesses
through exact values.  A midpoint is a function of the bracket alone and its
MI is the scalar call's bit for bit, so sigma is the one-at-a-time walk's.

The tests check this against an independent composite-trapezoid evaluation
on an explicit grid, to 1e-6 nats, against two passes and the scalar form,
bit for bit, and the walk against the one-at-a-time bisection.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "ChannelError",
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
BRACKET_HI_MAX = 1e12
MI_MATCH_TOL = 1e-10
LOG_SIGMA_WIDTH_TOL = 1e-12
# Calibration walk: midpoints per batch, as many as the MI tolerance needs but
# at most these; a bound on channel_mi's rise from one sigma to a larger (measured:
# 5e-17 nats); the guess's s^4 slack; the most unevaluated decisions (27.6/2^40 > 1e-12).
_LOOKAHEAD_FIRST = 10
_LOOKAHEAD_NEXT = 32
_MI_JITTER = 1e-12
_SERIES_SLACK = 0.3
_SKIP_MAX = 40
# A binary input's MMSE at s = 1/sigma^2 is sum_k c_k(v) s^k, v = 4q(1-q), an asymptotic series;
# row k is (d, n_1, n_2, ...) for c_k(v) = sum_i n_i v^i / d.  The MI's series, sum_k c_k(v)
# s^(k+1) / (2k + 2), by powers of v, highest first; the interval's half-width in errors.
_MMSE_SERIES = (
    (1, 1), (1, 0, -1), (1, 0, -2, 3), (3, 0, -8, 48, -45), (3, 0, -8, 156, -450, 315),
    (15, 0, -32, 1920, -13140, 25200, -14175),
    (45, 0, -64, 11616, -172080, 687960, -992250, 467775),
    (315, 0, -256, 139776, -4304160, 32336640, -90493200, 104781600, -42567525),
    (315, 0, -128, 209856, -13174560, 176747760, -860592600, 1846775700, -1787836050, 638512875),
    (2835, 0, -512, 2519040, -319337280, 7438798080, -59589205200, 211928270400, -368294226300,
     306486180000, -97692469875),
    (14175, 0, -1024, 15115776, -3850940160, 153246683520, -1955049112800, 10867431128400,
     -30267212976000, 44164658538000, -32238515058750, 9280784638125),
    (155925, 0, -4096, 181395456, -92649300480, 6237693665280, -124199047526400, 1041897456230400,
     -4378864085996400, 9991776386592000, -12560125466889000, 8167090481550000, -2143861251406875),
    (467775, 0, -4096, 544192512, -556576035840, 63025481756160, -1933159766630400,
     23929130865024000, -146311361537140800, 491069872497204000, -947391092797149000,
     1045795936162477500, -613144317902366250, 147926426347074375),
)
_MI_SERIES = tuple(
    tuple(n / ((2 * k + 2) * d) for n in reversed((0, *nums)))
    for k, (d, *nums) in enumerate(_MMSE_SERIES)
)
_SERIES_MARGIN = 4.0

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(GH_ORDER)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)
_NEG_X2 = -_GH_NODES * _GH_NODES
# Divided by sigma: the symbol distance in node units, +gap conditioning on
# xi = +1 and -gap on -1 (IEEE division is exact under a sign flip).
_SQRT2_SIGNS = np.array([[math.sqrt(2.0)], [-math.sqrt(2.0)]])
# Rows per pass of the array forms: a bound on each pass's temporaries.
_CHUNK_ROWS = 128
_FLOAT64 = np.dtype(float)


class ChannelError(ValueError):
    """A failure of the binary noise channel's evaluation or calibration."""


def binary_entropy(q: float) -> float:
    """Entropy of a Bernoulli(q) variable in nats, with 0*log(0) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ChannelError(f"probability out of range: {q!r}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


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


def _channel_mi_sigmas(q_plus: float, sigma: np.ndarray) -> np.ndarray:
    """The MI at each sigma of a 1-d array.  A float64 array of at most
    ``_CHUNK_ROWS`` rows, as every calibration call and the scalar form
    pass, is one ``_mi_rows`` call on the array itself; any other dtype is
    converted first and a longer array runs in passes of that many rows."""
    if type(sigma) is not np.ndarray or sigma.dtype != _FLOAT64:
        sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise ChannelError(f"expected a 1-d sigma array, got shape {sigma.shape}")
    # two reductions, which propagate NaN, in place of four elementwise checks
    low, high = np.minimum.reduce(sigma, initial=math.inf), np.maximum.reduce(sigma, initial=0.0)
    if not (low >= 0.0 and high < math.inf):
        bad = float(sigma[~((sigma >= 0.0) & (sigma < math.inf))][0])
        raise ChannelError(f"sigma must be finite and nonnegative: {bad!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        return np.zeros(sigma.shape)
    if low < NOISELESS_SIGMA:  # evaluated at the clamp, then given the entropy
        clamped = _channel_mi_sigmas(q_plus, np.maximum(sigma, NOISELESS_SIGMA))
        return np.where(sigma < NOISELESS_SIGMA, binary_entropy(q_plus), clamped)
    consts = np.array(((math.log(q_plus), q_plus), (math.log1p(-q_plus), 1.0 - q_plus)))
    if sigma.size <= _CHUNK_ROWS:
        return _mi_rows(consts, sigma)
    out = np.empty(sigma.shape)
    for start in range(0, sigma.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        out[rows] = _mi_rows(consts, sigma[rows])
    return out


def _channel_mi_array(q_plus: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    q, sigma = np.asarray(q_plus, dtype=float), np.asarray(sigma, dtype=float)
    if q.ndim != 1 or sigma.shape != q.shape:
        raise ChannelError(
            f"expected equal-length 1-d q_plus and sigma, got {q.shape} and {sigma.shape}"
        )
    bad_q = ~((q >= 0.0) & (q <= 1.0))
    bad = bad_q | ~((sigma >= 0.0) & (sigma < math.inf))
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
        q_rows = q[chunk]
        values = q_rows.tolist()
        consts = np.empty((chunk.size, 2, 2))  # per row ((log q, q), (log 1-q, 1-q))
        consts[:, 0, 0] = list(map(math.log, values))
        consts[:, 1, 0] = list(map(math.log1p, map(operator.neg, values)))
        consts[:, 0, 1] = q_rows
        np.subtract(1.0, q_rows, out=consts[:, 1, 1])
        out[chunk] = _mi_rows(consts, sigma[chunk])
    return out


def _mi_rows(consts: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The MI of each of at most ``_CHUNK_ROWS`` rows: consts are
    ((log q, q), (log 1-q, 1-q)) as (2, 2) for one q_plus or (R, 2, 2) per row.
    Row 0 of a pair conditions on xi = +1, row 1 on -1."""
    logs, weights = consts[..., :1], consts[..., 1]
    k1 = logs + _NEG_X2  # (log q, log 1-q) - x^2
    s = np.add(_GH_NODES, _SQRT2_SIGNS / sigma[:, None, None])
    np.square(s, out=s)
    np.subtract(logs[..., ::-1, :], s, out=s)  # k2 - (x + gap)^2, k2 = (log 1-q, log q)
    np.logaddexp(k1, s, out=s)
    np.subtract(_NEG_X2, s, out=s)
    sums = np.vecdot(s, _GH_WEIGHTS)
    np.multiply(sums, weights, out=sums)
    out = np.add(sums[:, 0], sums[:, 1])  # q * plus + (1 - q) * minus
    # Quadrature noise can land an exact-zero integral a few ulp negative;
    # a -0.0 stays, as max(mi, 0.0) keeps it.
    np.copyto(out, 0.0, where=out < 0.0)
    return out


def invert_channel_mi(q_plus: float, beta: float) -> float:
    """Noise level sigma such that channel_mi(q_plus, sigma) == beta.

    MI is strictly decreasing in sigma, so the root is found by bisection
    in log(sigma) on a bracket expanded by decades until it straddles beta.
    Stops when the MI mismatch is below 1e-10 nats or the log-sigma bracket
    is narrower than 1e-12, and raises ChannelError if neither happens
    within 200 bisection steps.  It raises ChannelError too for a degenerate
    channel (q_plus 0 or 1, a point mass no noise level can calibrate) and
    for an infeasible budget (beta at or above the entropy h(q_plus)).

    Up to ``_SKIP_MAX`` midpoints outside ``_skip_interval``'s interval
    take the guess's decision unevaluated.  One ``channel_mi`` call then
    evaluates the bracket ends this leaves and the path the walk would visit
    next if the root sat at the guess.  A skipped midpoint's MI is within
    ``_MI_JITTER`` of the low end's or above (of the high end's or below),
    so if both ends clear beta by ``MI_MATCH_TOL + _MI_JITTER`` the walk
    would neither have stopped nor turned otherwise there; else it starts
    over from the default bracket, expanded by scalar calls.  It takes the
    path while its decisions agree with the guess; the first that does not,
    or the path's end, starts the next batch along ``_next_guess``, so sigma
    does not depend on the guess.  On one train_m128 and one attack_m8 op
    (seed 1) an inversion evaluates 4.4 and 6.0 rows in 1.00 and 1.09 passes."""
    if not 0.0 <= q_plus <= 1.0:
        raise ChannelError(f"q_plus out of range: {q_plus!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        raise ChannelError(
            "unanimous sign distribution carries no information; nothing to calibrate"
        )
    if not math.isfinite(beta) or beta <= 0.0:
        raise ChannelError(f"target information must be positive and finite: {beta!r}")
    entropy = binary_entropy(q_plus)
    if beta >= entropy:
        raise ChannelError(
            f"requested {beta} nats but a sign with P(+1)={q_plus} carries at most {entropy}"
        )

    fence = MI_MATCH_TOL + _MI_JITTER
    log_guess, skip_lo, skip_hi = _skip_interval(4.0 * q_plus * (1.0 - q_plus), beta, fence)
    lo, hi, skipped, exp, log = BRACKET_LO, BRACKET_HI, _SKIP_MAX, math.exp, math.log
    log_lo, log_hi = log(lo), log(hi)
    for n in range(_SKIP_MAX):
        sigma = exp(0.5 * (log_lo + log_hi))
        log_sigma = log(sigma)
        if log_sigma < skip_lo:
            lo, log_lo = sigma, log_sigma
        elif log_sigma > skip_hi:
            hi, log_hi = sigma, log_sigma
        else:
            skipped = n
            break
    lookahead = min(_LOOKAHEAD_FIRST, _steps_to_tolerance(2.0 * beta * (log_hi - log_lo)))
    path, logs = _midpoints(log_lo, log_hi, log_guess, lookahead)
    mi_lo, mi_hi, *mis = channel_mi(q_plus, np.array([lo, hi, *path])).tolist()
    if not (mi_lo - beta > fence and beta - mi_hi > fence):
        # unsure skips; the lower end stops by 1e-11, where channel_mi is h(q) > beta
        lo, hi, skipped = BRACKET_LO, BRACKET_HI, 0
        mi_lo, mi_hi = channel_mi(q_plus, np.array((lo, hi))).tolist()
        while mi_lo <= beta:
            lo /= 10.0
            mi_lo = channel_mi(q_plus, lo)
        while mi_hi >= beta:
            hi *= 10.0
            if hi > BRACKET_HI_MAX:
                raise ChannelError(
                    f"no sigma <= {BRACKET_HI_MAX} attains {beta} nats at q_plus={q_plus}"
                )
            mi_hi = channel_mi(q_plus, hi)
        log_lo, log_hi, path, logs = math.log(lo), math.log(hi), [], []  # not this bracket's

    taken, beyond = 0, None
    for _ in range(200 - skipped):  # the skipped decisions count
        if taken == len(path):
            lookahead = _LOOKAHEAD_NEXT
            if path:  # the walk left the path or ran past its end
                log_guess = _next_guess(log_lo, log_hi, mi_lo, mi_hi, beta, log_guess, beyond)
                lookahead = min(lookahead, _steps_to_tolerance(mi_lo - mi_hi))
            path, logs = _midpoints(log_lo, log_hi, log_guess, lookahead)
            mis = channel_mi(q_plus, np.array(path)).tolist()
            taken, beyond = 0, None
        sigma, log_sigma, mi = path[taken], logs[taken], mis[taken]
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
                beyond = logs[taken], mis[taken]
            taken = len(path)
        if log_hi - log_lo < LOG_SIGMA_WIDTH_TOL:
            return math.exp(0.5 * (log_lo + log_hi))
    raise ChannelError(
        f"bisection for {beta} nats at q_plus={q_plus} did not converge in 200 steps"
    )


def _skip_interval(var: float, beta: float, fence: float) -> tuple[float, float, float]:
    """The guess and the log-sigma interval outside which the walk decides
    unevaluated: the ceiling 1/2 log(1 + var / sigma^2) inverted at beta and
    beta +- fence, less the series of its miss to s^3 at s = 1/sigma-hat^2,
    var s^2 (1 - var + s (1 - 5 var + 4.25 var^2)) / 3, widened by
    _SERIES_SLACK s^4; from s = 1 on, the ceiling's inverse, skipping nothing.
    Where the slack passes the fence's band, a Newton step on _MI_SERIES cut
    where the larger of its last two terms (the error) is least or below
    fence / 100 gives the guess +- fence and _SERIES_MARGIN errors over the
    MI's slope, if narrower."""
    snr = math.expm1(2.0 * beta) / var
    guess = -0.5 * math.log(snr)
    low = -0.5 * math.log(math.expm1(2.0 * (beta + fence)) / var) if fence > -beta else math.inf
    high = -0.5 * math.log(math.expm1(2.0 * (beta - fence)) / var) if fence < beta else math.inf
    if not snr < 1.0:
        return guess, -math.inf, math.inf
    miss = var * snr**2 * (1.0 - var + snr * (1.0 - 5.0 * var + 4.25 * var**2)) / 3.0
    slack, band = _SERIES_SLACK * snr**4, high - low
    ceiling = guess - miss, low - miss - slack, high - miss + slack
    if not 0.0 < band < slack:  # the guess is within a band, or there is no band
        return ceiling
    s, coefs, error, last, power = math.exp(-2.0 * ceiling[0]), [], math.inf, math.inf, 1.0
    for row in _MI_SERIES:
        c = 0.0
        for n in row:
            c = c * var + n
        power *= s
        term = abs(c) * power
        envelope = term if term > last else last
        if envelope > error:
            break
        coefs.append(c)
        error, last = envelope, term
        if error < 0.01 * fence:
            break
    mi = slope = 0.0
    for c in reversed(coefs):
        slope, mi = slope * s + mi, mi * s + c
    drop = 2.0 * s * (mi + s * slope)  # -d(s * mi)/d log sigma: the series' slope
    if not drop > 0.0:
        return ceiling
    guess, width = ceiling[0] + (s * mi - beta) / drop, (fence + _SERIES_MARGIN * error) / drop
    return (guess, guess - width, guess + width) if 0.0 < width < slack else ceiling


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


def _steps_to_tolerance(mi_drop: float) -> int:
    """About the midpoints the walk visits before it meets ``MI_MATCH_TOL``,
    if MI falls linearly by mi_drop across the bracket: each midpoint's
    mismatch is at most half that, which halves with every step.  Counted
    in binary exponents, and one short of that bound, since a midpoint
    seldom lands at the far end of its bracket: on the inversions of one
    train_m128 and one attack_m8 op, that saved a row per inversion and
    cost 0.014 extra passes."""
    return max(1, math.frexp(mi_drop)[1] - math.frexp(MI_MATCH_TOL)[1] - 1)


def _midpoints(log_lo: float, log_hi: float, log_guess: float, n: int) -> tuple[list, list]:
    """The next n midpoints of the log-sigma bisection, as sigma and log
    sigma in its arithmetic, if the root were at exp(log_guess); stops where
    the walk's width test would."""
    sigmas, logs = [], []
    for _ in range(n):
        sigma = math.exp(0.5 * (log_lo + log_hi))
        log_sigma = math.log(sigma)
        sigmas.append(sigma)
        logs.append(log_sigma)
        if log_sigma < log_guess:  # the guess says MI here exceeds beta
            log_lo = log_sigma
        else:
            log_hi = log_sigma
        if log_hi - log_lo < LOG_SIGMA_WIDTH_TOL:
            break
    return sigmas, logs
