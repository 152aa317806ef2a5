"""Independent oracles shared by the test modules.

Everything here is deliberately written from the defining formulas with
stdlib math / plain numpy, never by calling the package functions under
test, so agreement is evidence rather than tautology.  The channel oracles
raise the package's ``ChannelError``, as the code they check does.
``direction_oracle`` draws any one probe direction through NumPy's own
``SeedSequence``, the random-access reference for ``rng.directions``, and
``stepwise_trajectory`` takes a transcript's steps one at a time from the
update rule, the reference for ``engine.public_trajectory``.
``loop_blobs_sample`` draws Blobs samples one draw at a time, the reference
for the block sampler.
``reference_channel_mi`` and ``reference_invert_channel_mi`` are the
package's quadrature and bisection in their two-branch form, one pass per
conditioning symbol: the bit-exact reference for the fused evaluator.
``mmse_series_coefficients`` derives the binary input's low-SNR MMSE series
with exact fractions from the Taylor series of tanh, and
``mpmath_channel_mi`` evaluates the channel MI to 50 digits with mpmath's
adaptive quadrature: the references for the calibration's series guess and
for the quadrature's error.
``tampered_file`` edits a written transcript with plain ``json``;
``tampered_transcript`` rebuilds one in memory, which re-runs the
transcript's construction check.  The record faults (``drop_last``,
``repeat_last``, ``swap_fourth_and_fifth``, ``set_on_first_noisy``) edit the
plain-dict records of a k = 1 run, and ``assert_build_and_load_reject``
checks that such a layout can be neither built nor loaded.
``run_together`` starts calls in threads of one process at once, for the
checks that the package holds no state a call writes into.
"""

import dataclasses
import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paczero import tasks
from paczero.binary_channel import ChannelError
from paczero.engine import Transcript
from paczero.harness import SchemaError, load_transcript, transcript_lines
from paczero.mechanism import StepRecord
from paczero.rng import DIRECTIONS_STREAM


def entropy_nats(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


def channel_mi_oracle(
    q_plus: float,
    sigma: float,
    grid_halfwidth: float,
    grid_points: int,
) -> float:
    """Composite-trapezoid evaluation of the same MI integral on a y-grid.

    Deliberately independent of the Gauss-Hermite path: the integrand is
    formed from explicit log-densities on [-grid_halfwidth, grid_halfwidth].
    """
    if not 0.0 <= q_plus <= 1.0:
        raise ChannelError(f"q_plus out of range: {q_plus!r}")
    if sigma <= 0.0:
        raise ChannelError("oracle requires sigma > 0")
    if grid_halfwidth < 1.0 + 8.0 * sigma:
        raise ChannelError(
            f"grid halfwidth {grid_halfwidth} does not cover 1 + 8*sigma = {1.0 + 8.0 * sigma}"
        )
    if grid_points < 10_000:
        raise ChannelError(f"need at least 1e4 grid points, got {grid_points}")
    if q_plus == 0.0 or q_plus == 1.0:
        return 0.0

    y = np.linspace(-grid_halfwidth, grid_halfwidth, int(grid_points))
    log_norm = -math.log(sigma * math.sqrt(2.0 * math.pi))
    log_p_plus = log_norm - (y - 1.0) ** 2 / (2.0 * sigma**2)
    log_p_minus = log_norm - (y + 1.0) ** 2 / (2.0 * sigma**2)
    log_mix = np.logaddexp(
        math.log(q_plus) + log_p_plus, math.log1p(-q_plus) + log_p_minus
    )
    # p * log(p/mix) with the p -> 0 tails going to zero by underflow.
    integrand_plus = np.exp(log_p_plus) * (log_p_plus - log_mix)
    integrand_minus = np.exp(log_p_minus) * (log_p_minus - log_mix)
    mi = q_plus * np.trapezoid(integrand_plus, y) + (1.0 - q_plus) * np.trapezoid(
        integrand_minus, y
    )
    return float(max(mi, 0.0))


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(60)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)


def _gh_branch(shift: float, log_q: float, log_1mq: float, offset: float) -> float:
    """One conditional expectation E[log p(Y|s) - log p(Y)] under Y | s.

    ``shift`` and ``offset`` are the distances (in units of sqrt(2)*sigma)
    from the conditioning symbol to +1 and -1 respectively.
    """
    x = _GH_NODES
    log_mix = np.logaddexp(log_q - (x + shift) ** 2, log_1mq - (x + offset) ** 2)
    return float(np.dot(_GH_WEIGHTS, -x * x - log_mix))


def reference_channel_mi(q_plus: float, sigma: float) -> float:
    """The channel MI with each conditional branch evaluated on its own."""
    if not 0.0 <= q_plus <= 1.0:
        raise ChannelError(f"q_plus out of range: {q_plus!r}")
    if sigma < 0.0 or not math.isfinite(sigma):
        raise ChannelError(f"sigma must be finite and nonnegative: {sigma!r}")
    if q_plus == 0.0 or q_plus == 1.0:
        return 0.0
    if sigma < 1e-10:  # noiseless: the input entropy, as binary_entropy forms it
        return -q_plus * math.log(q_plus) - (1.0 - q_plus) * math.log1p(-q_plus)

    log_q = math.log(q_plus)
    log_1mq = math.log1p(-q_plus)
    gap = math.sqrt(2.0) / sigma  # distance between the two symbols in node units
    term_plus = _gh_branch(0.0, log_q, log_1mq, gap)
    term_minus = _gh_branch(-gap, log_q, log_1mq, 0.0)
    mi = q_plus * term_plus + (1.0 - q_plus) * term_minus
    # Quadrature noise can land an exact-zero integral a few ulp negative.
    return max(mi, 0.0)


def reference_invert_channel_mi(q_plus: float, beta: float) -> float:
    """invert_channel_mi's bracket and log-sigma bisection over
    ``reference_channel_mi``, for a feasible (q_plus, beta)."""
    lo, hi = 1e-6, 1e6
    while reference_channel_mi(q_plus, lo) <= beta:
        lo /= 10.0
        if lo < 1e-12:
            raise ChannelError("bracket floor reached")
    while reference_channel_mi(q_plus, hi) >= beta:
        hi *= 10.0
        if hi > 1e12:
            raise ChannelError("bracket ceiling reached")
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(200):
        sigma = math.exp(0.5 * (log_lo + log_hi))
        mi = reference_channel_mi(q_plus, sigma)
        if abs(mi - beta) <= 1e-10:
            return sigma
        if mi > beta:
            log_lo = math.log(sigma)
        else:
            log_hi = math.log(sigma)
        if log_hi - log_lo < 1e-12:
            return math.exp(0.5 * (log_lo + log_hi))
    raise ChannelError("bisection did not converge in 200 steps")


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def mmse_series_coefficients(k: int) -> list[Fraction]:
    """c_k(v) of mmse(s) = sum_k c_k(v) s^k, the binary input's MMSE at SNR
    s with v = 4q(1-q), as exact coefficients of v^0, v^1, ...

    With X = +-1, t = E[X] = 2q - 1 and a = atanh t, the conditional mean
    is tanh(a + s X + sqrt(s) N), and mmse(s) = 1 - E[X tanh(a + s X +
    sqrt(s) N)].  Expanding tanh(a + u) in u, whose n-th derivative is the
    polynomial P_n(t) with P_0 = t and P_{n+1} = (1 - t^2) P_n', the power
    s^k collects the terms u^n with n = 2k - j from (s X)^j (sqrt(s) N)^(n-j):
    E[N^(n-j)] = (n-j-1)!! and E[X^(j+1)] is t for even j, 1 for odd j.  The
    result is even in t and is rewritten in v = 1 - t^2.
    """
    derivatives = [[Fraction(0), Fraction(1)]]  # P_n as coefficients of t^0, t^1, ...
    for _ in range(2 * k):
        p = derivatives[-1]
        slope = [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]
        derivatives.append(_poly_mul([Fraction(1), Fraction(0), Fraction(-1)], slope))
    mean = [Fraction(0)] * (2 * k + 3)  # E[X tanh(...)]'s s^k coefficient in t
    for j in range(k + 1):
        n, gaussian = 2 * k - j, 1
        for odd in range(2 * (k - j) - 1, 0, -2):
            gaussian *= odd
        scale = Fraction(math.comb(n, j) * gaussian, math.factorial(n))
        for i, c in enumerate(derivatives[n]):
            mean[i + (j + 1) % 2] += scale * c
    in_t = [(1 if i == 0 and k == 0 else 0) - c for i, c in enumerate(mean)]
    assert not any(in_t[1::2]), "the series is even in t"
    out, power = [Fraction(0)] * (k + 2), [Fraction(1)]  # power: (1 - v)^i
    for c in in_t[0::2]:
        for i, p in enumerate(power):
            out[i] += c * p
        power = _poly_mul(power, [Fraction(1), Fraction(-1)])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def mpmath_channel_mi(q_plus: float, sigma: float, digits: int = 50):
    """I(xi; xi + N(0, sigma^2)) for P(xi = +1) = q_plus as an mpmath number,
    to about ``digits`` digits: the expectation of -log of the posterior odds
    term, -E[log(q + (1-q) e^(-2 Y / sigma^2)) | +1] and its mirror for -1,
    integrated over the standard normal noise by mpmath's adaptive
    quadrature, every operation at ``digits`` + 10 digits."""
    import mpmath

    with mpmath.workdps(digits + 10):
        q, s = mpmath.mpf(q_plus), mpmath.mpf(sigma)
        snr = 1 / s**2

        def integrand(z):
            plus = q * mpmath.log(q + (1 - q) * mpmath.exp(-2 * snr * (1 + s * z)))
            minus = (1 - q) * mpmath.log(1 - q + q * mpmath.exp(2 * snr * (s * z - 1)))
            return mpmath.npdf(z) * (plus + minus)

        return -mpmath.quad(integrand, [-mpmath.inf, -6, 0, 6, mpmath.inf])


def kl_nats(p: float, q: float) -> float:
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def solve_posterior_bound(mi: float, prior: float) -> float:
    """Bisection solve of kl(p, prior) = mi on [prior, 1-1e-15]."""
    lo, hi = prior, 1.0 - 1e-15
    if mi >= kl_nats(hi, prior):
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_nats(mid, prior) < mi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def loop_subset_signs(scalars, membership, clip: float) -> np.ndarray:
    """Sign of every subset's clipped mean, one subset at a time: its
    members in ascending order summed as one 1-d array (sign(0) = +1)."""
    clipped = np.clip(np.asarray(scalars, dtype=float), -clip, clip)
    signs = np.empty(membership.shape[1], dtype=np.int64)
    for m in range(membership.shape[1]):
        members = np.flatnonzero(membership[:, m])
        signs[m] = 1 if clipped[members].sum() / members.size >= 0.0 else -1
    return signs


def direction_state_words(seed: int, t: int, slot: int) -> np.ndarray:
    """The four uint64 state words of step t's slot-th probe direction, from
    NumPy's own SeedSequence."""
    seq = np.random.SeedSequence(seed, spawn_key=(DIRECTIONS_STREAM, t, slot))
    return seq.generate_state(4, np.uint64)


def direction_oracle(seed: int, t: int, slot: int, dim: int) -> np.ndarray:
    """Step t's slot-th probe direction, random access: a PCG64 generator
    seeded by NumPy's own SeedSequence under the directions tag."""
    seq = np.random.SeedSequence(seed, spawn_key=(DIRECTIONS_STREAM, t, slot))
    return np.random.Generator(np.random.PCG64(seq)).standard_normal(dim)


def stepwise_trajectory(transcript, theta0) -> np.ndarray:
    """Every theta of a transcript's run, one step at a time: theta_t =
    (1 - eta_t * weight_decay) * theta_{t-1} - eta_t * (sum of the slots'
    y * z) / k, with the slots summed in order and each direction drawn on
    its own."""
    config, k = transcript.header.train, transcript.header.mechanism.k
    thetas = [np.asarray(theta0, dtype=float)]
    for t in range(1, transcript.header.t_total + 1):
        ys = [rec.y for rec in transcript.records[(t - 1) * k : t * k]]
        zs = [direction_oracle(config.seed, t, slot, thetas[0].size) for slot in range(k)]
        moved = zs[0] * ys[0]
        for y, z in zip(ys[1:], zs[1:]):
            moved = moved + y * z
        eta = config.learning_rate / (1.0 + config.lr_decay * (t - 1))
        thetas.append((1.0 - eta * config.weight_decay) * thetas[-1] - eta * (moved / k))
    return np.array(thetas)


@np.errstate(over="ignore", invalid="ignore")
def loop_blobs_sample(task, count: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Blobs samples of alternating labels, one draw at a time
    from the split's stream: each sample is redrawn until its projection on
    the axis clears the margin, a ValueError after ``tasks._MAX_DRAWS`` draws
    (read at each call) or at the first non-finite projection, with
    ``BlobsTask``'s messages."""
    rng = np.random.default_rng(np.random.SeedSequence(task.seed, spawn_key=(split,)))
    labels = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    xs = np.empty((count, task.input_dim))
    for i, label in enumerate(labels):
        for _ in range(tasks._MAX_DRAWS):
            noise = rng.standard_normal(task.input_dim)
            along = float(noise @ task.axis)
            perp = noise - along * task.axis
            x = (
                label * (task.separation / 2.0) * task.axis
                + task.axis_noise * along * task.axis
                + task.perp_noise * perp
            )
            projection = float(x @ task.axis)
            if not math.isfinite(projection):
                raise ValueError(
                    f"{task.name}: separation {task.separation!r}, axis_noise "
                    f"{task.axis_noise!r} and perp_noise {task.perp_noise!r} give a "
                    "non-finite sample"
                )
            if label * projection >= task.margin:
                xs[i] = x
                break
        else:
            raise ValueError(
                f"no sample cleared margin {task.margin!r} in {tasks._MAX_DRAWS} draws"
            )
    return xs, labels


def analytic_blobs_directional(task, theta, i: int, z) -> float:
    """Closed-form directional derivative of the logistic per-sample loss.

    loss_i = softplus(-m_i) with m_i = y_i * (w . x_i + b), so
    d loss / d theta = -sigmoid(-m_i) * y_i * [x_i, 1].
    """
    theta = np.asarray(theta, dtype=float)
    x, y = task.x_train[i], task.y_train[i]
    m = y * (theta[:-1] @ x + theta[-1])
    grad = -1.0 / (1.0 + np.exp(m)) * y * np.concatenate([x, [1.0]])
    return float(grad @ np.asarray(z, dtype=float))


def density_ratio_mi(p, signs, sigma: float, n_samples: int, seed: int) -> float:
    """Monte-Carlo MI between a secret index and its sign plus Gaussian noise.

    Averages the exact log-ratio of the conditional to the marginal density
    over joint samples; unbiased for the MI integral and quadrature-free.
    """
    rng = np.random.default_rng(seed)
    p = np.asarray(p, dtype=float)
    signs = np.asarray(signs, dtype=float)
    q = float(p[signs > 0].sum())
    js = rng.choice(len(p), size=n_samples, p=p)
    xi = signs[js]
    yt = xi + sigma * rng.standard_normal(n_samples)
    lp_cond = -((yt - xi) ** 2) / (2.0 * sigma**2)
    lp_plus = -((yt - 1.0) ** 2) / (2.0 * sigma**2)
    lp_minus = -((yt + 1.0) ** 2) / (2.0 * sigma**2)
    log_q = math.log(q) if q > 0.0 else -math.inf
    log_1mq = math.log1p(-q) if q < 1.0 else -math.inf
    lmix = np.logaddexp(log_q + lp_plus, log_1mq + lp_minus)
    return float(np.mean(lp_cond - lmix))


def hist_plugin_mi(
    p, signs, sigma: float, n_samples: int, n_bins: int, seed: int
) -> float:
    """Plug-in MI between the secret index and the noised release, from the
    empirical joint histogram over a fine discretization of the release,
    with the Miller-Madow bias correction."""
    rng = np.random.default_rng(seed)
    p = np.asarray(p, dtype=float)
    signs = np.asarray(signs, dtype=float)
    m = len(p)
    js = rng.choice(m, size=n_samples, p=p)
    yt = signs[js] + sigma * rng.standard_normal(n_samples)
    lo, hi = -1.0 - 6.0 * sigma, 1.0 + 6.0 * sigma
    bins = np.clip(((yt - lo) / (hi - lo) * n_bins).astype(int), 0, n_bins - 1)
    joint = np.zeros((m, n_bins))
    np.add.at(joint, (js, bins), 1.0)
    joint /= n_samples
    pj = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0.0
    outer = pj[:, None] * pb[None, :]
    mi = float(np.sum(joint[nz] * (np.log(joint[nz]) - np.log(outer[nz]))))
    k_joint = int(nz.sum())
    k_j = int((pj > 0).sum())
    k_b = int((pb > 0).sum())
    return mi - (k_joint - k_j - k_b + 1) / (2.0 * n_samples)


def discrete_plugin_mi(xs, ys) -> float:
    """Plug-in MI of two discrete sample vectors (no correction)."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    x_vals, x_idx = np.unique(xs, return_inverse=True)
    y_vals, y_idx = np.unique(ys, return_inverse=True)
    joint = np.zeros((len(x_vals), len(y_vals)))
    np.add.at(joint, (x_idx, y_idx), 1.0)
    joint /= len(xs)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0.0
    outer = px[:, None] * py[None, :]
    return float(np.sum(joint[nz] * (np.log(joint[nz]) - np.log(outer[nz]))))


def two_proportion_z(k1: int, k2: int, n: int) -> float:
    p1, p2 = k1 / n, k2 / n
    pooled = (k1 + k2) / (2.0 * n)
    if pooled in (0.0, 1.0):
        return 0.0
    return (p1 - p2) / math.sqrt(pooled * (1.0 - pooled) * (2.0 / n))


def tampered_file(src, dst, line: int, path: tuple, value) -> Path:
    """Copy the transcript file ``src`` to ``dst`` with the field at the key
    ``path`` of its ``line``-th line (negative counts from the end) set to
    ``value``."""
    lines = Path(src).read_text().splitlines()
    obj = json.loads(lines[line])
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    lines[line] = json.dumps(obj)
    Path(dst).write_text("\n".join(lines) + "\n")
    return Path(dst)


def tampered_transcript(transcript, edits: dict):
    """A copy of ``transcript`` whose n-th record has the fields and values
    of ``edits[n]``; raises ValueError when the copy cannot be built."""
    records = list(transcript.records)
    for n, changes in edits.items():
        records[n] = records[n]._replace(**changes)
    return dataclasses.replace(transcript, records=records)


# Each record fault edits the records of a k = 1 run, as plain dicts, and
# returns the index of the first record the layout check must name.

def set_on_first_noisy(field: str, value):
    """A fault that sets ``field`` of the first disagreement record."""
    def fault(objs: list[dict]) -> int:
        n = next(n for n, obj in enumerate(objs) if obj["branch"] == "disagreement")
        objs[n][field] = value
        return n
    return fault


def swap_fourth_and_fifth(objs: list[dict]) -> int:
    objs[3], objs[4] = objs[4], objs[3]
    return 3


def drop_last(objs: list[dict]) -> int:
    objs.pop()
    return len(objs)


def repeat_last(objs: list[dict]) -> int:
    objs.append(dict(objs[-1]))
    return len(objs) - 1


def assert_build_and_load_reject(transcript, tmp_path, fault) -> None:
    """The records of ``transcript`` edited by ``fault`` neither build a
    ``Transcript`` (ValueError) nor load from a file (SchemaError), and
    both errors name the record the fault points at."""
    objs = [rec._asdict() for rec in transcript.records]
    where = f"record at step {fault(objs) + 1} slot 0: "
    with pytest.raises(ValueError, match=where):
        Transcript(transcript.header, [StepRecord(**obj) for obj in objs],
                   transcript.dev_evals)
    lines = transcript_lines(transcript)
    releases = [json.dumps(obj | {"type": "release"}) for obj in objs]
    path = Path(tmp_path) / "bad.jsonl"
    path.write_text("\n".join([lines[0], *releases, lines[-1]]) + "\n")
    with pytest.raises(SchemaError, match=where):
        load_transcript(path)


def run_together(*calls) -> list:
    """Each call's result, the calls run in threads started together on a
    barrier, with the interpreter switching threads every 10 us so that
    their steps interleave; a call's exception is raised here, and a call
    still running after 600 s fails the test."""
    timeout = 600.0
    barrier, results = threading.Barrier(len(calls), timeout=timeout), [None] * len(calls)

    def run(i, call):
        try:
            barrier.wait()
            results[i] = (True, call())
        except Exception as error:  # raised in the calling thread, below
            results[i] = (False, error)

    threads = [threading.Thread(target=run, args=item, daemon=True) for item in enumerate(calls)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), f"a call ran past {timeout} s"
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]
