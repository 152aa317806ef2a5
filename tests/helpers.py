"""Independent oracles shared by the test modules.

Everything here is deliberately written from the defining formulas with
stdlib math / plain numpy, never by calling the package functions under
test, so agreement is evidence rather than tautology.  The channel oracles
raise the package's ``ChannelError``, as the code they check does.
``direction_oracle`` draws any one probe direction through NumPy's own
``SeedSequence``, the random-access reference for ``rng.directions``.
``reference_channel_mi`` and ``reference_invert_channel_mi`` are the
package's quadrature and bisection in their two-branch form, one pass per
conditioning symbol: the bit-exact reference for the fused evaluator.
``tampered_file`` edits a written transcript with plain ``json``;
``tampered_transcript`` rebuilds one in memory, which re-runs the
transcript's construction check.  The record faults (``drop_last``,
``repeat_last``, ``swap_fourth_and_fifth``, ``set_on_first_noisy``) edit the
plain-dict records of a k = 1 run, and ``assert_build_and_load_reject``
checks that such a layout can be neither built nor loaded.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

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
