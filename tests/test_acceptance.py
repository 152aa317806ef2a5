"""Contract suite: one test per acceptance criterion.

Each test emits a single [PASS]/[FAIL] line on the live terminal (writes go
through capfd.disabled(), so plain `pytest -v` shows them) and asserts the
criterion's stated tolerance and runtime ceiling. Monte-Carlo criteria run
under pinned seeds, so every number below is deterministic.
"""
import functools
import math
import time

import numpy as np
import pytest

from paczero.accounting import (
    dp_eps_to_mia_bound,
    matched_mi_for_dp,
    mia_posterior_bound,
    validate_transcript,
)
from paczero.adversary import empirical_mia_experiment
from paczero.binary_channel import (
    binary_entropy,
    channel_mi,
    invert_channel_mi,
)
from paczero.engine import TrainConfig, train
from paczero.harness import ExperimentConfig, sweep_decomposition, sweep_mi_plateau
from paczero import mechanism
from paczero.mechanism import (
    BRANCH_COIN,
    MechanismSpec,
    ReleaseMechanism,
    SubsetDesign,
)
from paczero.tasks import BlobsTask, make_task
import helpers
from helpers import channel_mi_oracle


_LIVE_CAPTURE: list = []


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    """Hold the capture fixture so _verdict can write past it."""
    _LIVE_CAPTURE.append(capfd)
    try:
        yield
    finally:
        _LIVE_CAPTURE.pop()


def _verdict(line: str) -> None:
    if _LIVE_CAPTURE:
        with _LIVE_CAPTURE[-1].disabled():
            print(line)
    else:
        print(line)


def criterion(number: int, label: str, limit_s: float):
    """Print one verdict line per criterion and enforce its runtime ceiling."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _verdict(f"[FAIL] criterion {number}: {label}")
                raise
            elapsed = time.perf_counter() - start
            _verdict(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")
            assert elapsed < limit_s, f"criterion {number} overran {limit_s}s"

        return wrapper

    return decorate


@criterion(1, "channel MI matches the trapezoid oracle on the lattice", 10.0)
def test_criterion_01_channel_exactness():
    qs = (0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 0.9, 0.98)
    sigmas = (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    worst = 0.0
    for q in qs:
        for s in sigmas:
            ref = channel_mi_oracle(
                q, s, grid_halfwidth=1.0 + 9.0 * s, grid_points=120_001
            )
            worst = max(worst, abs(channel_mi(q, s) - ref))
    assert len(qs) * len(sigmas) >= 100
    assert worst <= 1e-6, f"worst lattice disagreement {worst}"
    for q in (0.1, 0.5, 0.77):
        assert abs(channel_mi(q, 1e-9) - binary_entropy(q)) <= 1e-4
        assert abs(channel_mi(q, 1e6)) <= 1e-4


@criterion(2, "noise calibration round-trips through the channel", 5.0)
def test_criterion_02_calibration_roundtrip():
    for q in (0.1, 0.3, 0.5, 0.77, 0.95):
        for beta in (1e-6, 1e-3, 0.1, 0.9 * binary_entropy(q)):
            sigma = invert_channel_mi(q, beta)
            assert abs(channel_mi(q, sigma) - beta) <= 1e-9, (q, beta)


@criterion(3, "posterior-bound and DP-reference arithmetic", 1.0)
def test_criterion_03_bound_arithmetic():
    assert mia_posterior_bound(0.25, 0.5) == pytest.approx(0.84, abs=0.005)
    assert mia_posterior_bound(1 / 128, 0.5) == pytest.approx(0.56, abs=0.005)
    # the published DP operating points; the formula values are frozen at
    # full precision and their two-decimal display forms must reproduce
    # exactly (see the decisions ledger for the 5-digit-literal analysis)
    v1 = dp_eps_to_mia_bound(1.0, 1e-5)
    v01 = dp_eps_to_mia_bound(0.1, 1e-5)
    assert v1 == pytest.approx(0.7310685786300049, abs=1e-12)
    assert v01 == pytest.approx(0.52498918747894, abs=1e-12)
    assert f"{v1:.2%}" == "73.11%"
    assert f"{v01:.2%}" == "52.50%"
    assert matched_mi_for_dp(2.0, 1e-5, 0.5) == pytest.approx(0.33, abs=0.01)
    assert matched_mi_for_dp(6.0, 1e-5, 0.5) == pytest.approx(0.68, abs=0.01)


@criterion(4, "released bits carry exactly their allocated information", 60.0)
def test_criterion_04_per_step_information():
    configs = [
        ([0.5, 0.5], [1, -1], 0.1),
        ([0.5, 0.5], [1, -1], 0.02),
        (
            [0.3, 0.2, 0.2, 0.1, 0.05, 0.05, 0.05, 0.05],
            [1, -1, 1, -1, 1, 1, -1, -1],
            0.05,
        ),
        ([0.125] * 8, [1, 1, 1, -1, -1, 1, -1, -1], 0.01),
    ]
    for probs, signs, beta in configs:
        q = float(np.dot(probs, np.array(signs) == 1))
        sigma = invert_channel_mi(q, beta)
        est_ratio = helpers.density_ratio_mi(probs, signs, sigma, 100_000, seed=77)
        est_hist = helpers.hist_plugin_mi(probs, signs, sigma, 100_000, 60, seed=78)
        assert abs(est_ratio - beta) <= 3e-3, (len(probs), beta, est_ratio)
        assert abs(est_hist - beta) <= 3e-3, (len(probs), beta, est_hist)
    # unanimity: the release is a constant, so the plug-in MI with the
    # secret is exactly zero, not merely small
    secrets = np.random.default_rng(0).integers(0, 8, size=100_000)
    assert helpers.discrete_plugin_mi(secrets, np.ones(100_000)) == 0.0


@criterion(5, "cumulative spend never exceeds the budget (100 random runs)", 300.0)
def test_criterion_05_budget_soundness():
    rng = np.random.default_rng(505)
    for run in range(100):
        kind = rng.choice(["blobs", "blobs64", "xor", "quad"])
        if kind == "blobs":
            task = BlobsTask(n_records=32, seed=int(rng.integers(1000)))
        elif kind == "blobs64":
            task = BlobsTask(n_records=64, seed=int(rng.integers(1000)))
        elif kind == "xor":
            task = make_task("xor_mlp", n_records=32, seed=int(rng.integers(1000)))
        else:
            task = make_task(
                "quadratic", n_records=int(rng.integers(4, 33)),
                dim=int(rng.integers(2, 12)), seed=int(rng.integers(1000)),
            )
        budget = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
        spec = MechanismSpec(
            variant="paczero_mi", mi_total=budget,
            n_subsets=int(rng.choice([4, 8, 16])),
            clip=float(rng.choice([0.5, 1.0, np.inf])),
        )
        cfg = TrainConfig(
            steps=int(rng.integers(20, 501)), learning_rate=0.05,
            seed=int(rng.integers(2**31)), dev_eval_interval=100,
        )
        result = train(task, cfg, spec)
        assert result.transcript.cum_mi <= budget, (run, result.transcript.cum_mi)
        report = validate_transcript(result.transcript)
        assert report.ok, (run, report.message)


@pytest.mark.slow
@criterion(6, "zero-leakage variant releases nothing about the secret", 600.0)
def test_criterion_06_zero_leakage(monkeypatch):
    # (a) every run spends exactly nothing, confirmed by the validator
    rng = np.random.default_rng(606)
    for run in range(20):
        task = BlobsTask(n_records=int(rng.choice([16, 32])), seed=int(rng.integers(1000)))
        spec = MechanismSpec(
            variant="paczero_zpl", n_subsets=int(rng.choice([4, 8])), clip=1.0
        )
        cfg = TrainConfig(
            steps=int(rng.integers(20, 201)), learning_rate=0.05,
            seed=int(rng.integers(2**31)), dev_eval_interval=100,
        )
        result = train(task, cfg, spec)
        assert result.transcript.cum_mi == 0.0
        report = validate_transcript(result.transcript)
        assert report.ok and report.cum_mi == 0.0

    # (b) contested releases are independent of the secret subset's sign:
    # two-proportion z-test at 1e5 draws per arm, disjoint streams; a fake
    # stands in for the subset signs so that every step sees one split
    signs = np.array([1, 1, -1, -1, 1, -1, 1, -1])
    monkeypatch.setattr(mechanism, "subset_signs", lambda *_: signs)
    first_half = np.arange(8) < 4
    design = SubsetDesign(membership=np.array([first_half, ~first_half]), seed=0)
    spec = MechanismSpec(variant="paczero_zpl", n_subsets=8)
    draws = 100_000
    counts = []
    for offset, secret in ((1, 0), (2, 2)):  # sign +1 arm vs sign -1 arm
        mech = ReleaseMechanism(
            spec, design, horizon=draws, rng=np.random.default_rng(606 + offset),
            secret_index=secret,
        )
        k_plus = 0
        for t in range(1, draws + 1):
            (y,), (rec,) = mech.step(t, [np.zeros(2)])
            assert rec.branch == BRANCH_COIN
            k_plus += y > 0
        counts.append(k_plus)
    z = helpers.two_proportion_z(counts[0], counts[1], draws)
    assert abs(z) <= 3.2905, f"two-sample z = {z}"  # significance 1e-3

    # (c) the Bayes-optimal attacker does no better than the prior
    task = BlobsTask(n_records=32, seed=3)
    spec = MechanismSpec(variant="paczero_zpl", n_subsets=8, clip=1.0)
    cfg = TrainConfig(steps=30, learning_rate=0.05, dev_eval_interval=30)
    mia = empirical_mia_experiment(task, spec, cfg, trials=2000, seed=66)
    assert abs(mia.empirical_rate - 0.5) <= 3.0 * mia.standard_error


@pytest.mark.slow
@criterion(7, "attack success stays under the posterior bound", 1800.0)
def test_criterion_07_bound_soundness_under_attack():
    task = BlobsTask(n_records=64, seed=7)
    cfg = TrainConfig(
        steps=50, learning_rate=0.05, smoothing=1e-3, dev_eval_interval=50
    )
    rate_at_loose_budget = None
    for budget in (1 / 128, 0.25, 0.33, 2.0):
        spec = MechanismSpec(
            variant="paczero_mi", mi_total=budget, n_subsets=8, clip=1.0
        )
        mia = empirical_mia_experiment(task, spec, cfg, trials=2000, seed=11)
        assert mia.sound(), (
            budget, mia.empirical_rate, mia.bound, mia.standard_error,
        )
        if budget == 2.0:
            rate_at_loose_budget = mia.empirical_rate
    # the bench is only meaningful if the attack actually bites somewhere
    assert rate_at_loose_budget > 0.55


def _experiment(steps: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "task": {"name": "blobs", "n_records": 32, "seed": 7},
            "mechanism": {
                "variant": "paczero_mi", "mi_total": 0.33,
                "n_subsets": 8, "clip": 1.0,
            },
            "train": {
                "steps": steps, "learning_rate": 0.05, "dev_eval_interval": 25,
            },
            "seeds": [0, 1, 2],
            "label": "acceptance",
        }
    )


@criterion(8, "training sanity margins on the separable task", 300.0)
def test_criterion_08_training_sanity():
    notes = sweep_decomposition(_experiment(steps=150)).notes
    assert abs(notes["random_sign"]["test"] - 0.5) <= 0.1
    assert notes["paczero_zpl"]["test"] >= 0.8
    assert notes["paczero_zpl"]["f"] > 0.05
    assert notes["quant_full"]["test"] >= notes["raw_full"]["test"] - 0.05


@criterion(9, "K-way aggregation is exact", 60.0)
def test_criterion_09_k_aggregation_equivalence():
    # k=1 aggregation trains exactly as the base variant: every record
    # field, the final parameters and the final posterior
    rng_cfg = np.random.default_rng(909)
    branches = set()
    for trial in range(12):
        inner = ["paczero_mi", "paczero_zpl"][trial % 2]
        budget = float(rng_cfg.choice([1e-3, 0.05, 2.0])) if inner == "paczero_mi" else 0.0
        m = int(rng_cfg.choice([2, 4, 8]))
        task = BlobsTask(n_records=16, seed=int(rng_cfg.integers(1000)))
        cfg = TrainConfig(
            steps=int(rng_cfg.integers(10, 41)), learning_rate=0.05,
            seed=int(rng_cfg.integers(2**31)), dev_eval_interval=10,
        )
        base = train(task, cfg, MechanismSpec(
            variant=inner, mi_total=budget, n_subsets=m, clip=1.0,
        ))
        agg = train(task, cfg, MechanismSpec(
            variant="k_aggregate", mi_total=budget, n_subsets=m, clip=1.0,
            k=1, inner_variant=inner,
        ))
        assert agg.transcript.records == base.transcript.records
        assert np.array_equal(agg.final_params, base.final_params)
        assert np.array_equal(agg.final_posterior, base.final_posterior)
        branches |= {r.branch for r in base.transcript.records}
    assert branches == {"unanimity", "disagreement", "zpl_coin"}
    # K=4: the per-step allocation splits into exact quarters and the
    # ledger sum reproduces the step allocation with no rounding residue
    design = SubsetDesign(
        membership=np.array([[True, False], [True, False], [False, True], [False, True]]),
        seed=0,
    )
    spec = MechanismSpec(variant="k_aggregate", mi_total=0.4, n_subsets=2, k=4)
    mech = ReleaseMechanism(
        spec, design, horizon=100, rng=np.random.default_rng(5), secret_index=0
    )
    _, recs = mech.step(1, [np.array([1.0, 1.0, -1.0, -1.0])] * 4)
    assert [r.beta_used for r in recs] == [0.001] * 4
    assert math.fsum(r.beta_used for r in recs) == 0.004


@criterion(10, "utility plateaus across information budgets", 600.0)
def test_criterion_10_plateau_shape():
    result = sweep_mi_plateau(
        _experiment(steps=500), budgets=(1e-4, 1e-3, 1e-2, 1e-1, 0.33, 0.68)
    )
    assert result.notes["test_spread"] <= 0.05, result.notes
    assert result.notes["within_budget"] is True
