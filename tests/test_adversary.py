import functools
import math

import numpy as np
import pytest

from paczero.accounting import mia_posterior_bound
from paczero.adversary import (
    MiaExperimentResult,
    empirical_mia_experiment,
    membership_attack,
    replay_posterior,
)
from paczero.engine import Transcript, TrainConfig, train
from paczero.harness import SchemaError, load_design, load_transcript, write_transcript
from paczero.mechanism import MechanismSpec, build_balanced_design
from paczero.tasks import BlobsTask
import helpers


def run_blobs(variant: str, *, steps=80, seed=17, mi_total=0.33):
    task = BlobsTask(n_records=16, seed=3)
    kwargs = {"n_subsets": 8, "clip": 1.0}
    if variant == "paczero_mi":
        kwargs["mi_total"] = mi_total
    spec = MechanismSpec(variant=variant, **kwargs)
    cfg = TrainConfig(steps=steps, learning_rate=0.05, seed=seed, dev_eval_interval=20)
    return task, train(task, cfg, spec)


class TestReplayPosterior:
    def test_matches_internal_posterior_bit_for_bit(self):
        task, result = run_blobs("paczero_mi")
        probs = replay_posterior(result.transcript, result.design, task)
        assert probs == pytest.approx(result.final_posterior, abs=1e-9)
        # the run above must actually exercise noisy updates for this to
        # mean anything
        assert result.transcript.cum_mi > 0.0

    def test_task_rebuilt_from_header_when_omitted(self):
        task, result = run_blobs("paczero_mi", seed=18)
        a = replay_posterior(result.transcript, result.design, task)
        b = replay_posterior(result.transcript, result.design)
        assert np.array_equal(a, b)

    def test_load_and_replay_build_the_task_once(self, tmp_path, monkeypatch):
        task, result = run_blobs("paczero_mi", seed=18)
        path = tmp_path / "transcript.jsonl"
        write_transcript(path, result.transcript)
        built = []
        init = BlobsTask.__init__

        @functools.wraps(init)
        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BlobsTask, "__init__", counting_init)
        transcript = load_transcript(path)
        probs = replay_posterior(transcript, load_design(transcript))
        assert len(built) == 1
        assert np.array_equal(probs, replay_posterior(result.transcript, result.design, task))

    def test_zero_leakage_run_replays_to_uniform(self):
        task, result = run_blobs("paczero_zpl")
        probs = replay_posterior(result.transcript, result.design, task)
        assert probs == pytest.approx(np.full(8, 0.125), abs=1e-15)

    def test_surrogate_transcript_rejected(self):
        task = BlobsTask(n_records=16, seed=3)
        spec = MechanismSpec(
            variant="surrogate", surrogate_mode="raw_full", n_subsets=8, clip=1.0
        )
        result = train(task, TrainConfig(steps=5, seed=1), spec)
        with pytest.raises(ValueError):
            replay_posterior(result.transcript, result.design, task)

    def test_foreign_design_rejected(self):
        task, result = run_blobs("paczero_mi", seed=19)
        other = build_balanced_design(16, 8, seed=987654)
        with pytest.raises(ValueError):
            replay_posterior(result.transcript, other, task)

    def test_reordered_records_rejected(self):
        task, result = run_blobs("paczero_mi", seed=20, steps=10)
        tr = result.transcript
        with pytest.raises(ValueError, match="record at step 1 slot 0: out of order"):
            # the swap is rejected as the transcript is built, so no replay
            # ever reads it
            swapped = Transcript(
                header=tr.header,
                records=[tr.records[1], tr.records[0], *tr.records[2:]],
                dev_evals=tr.dev_evals,
            )
            replay_posterior(swapped, result.design, task)


    @pytest.mark.parametrize(
        "tamper",
        ["truncated", "extra_record", "header_k", "run_seed", "y_tilde_none", "sigma_string"],
    )
    def test_malformed_layout_rejected(self, tamper, tmp_path):
        # a malformed transcript fails as it is built or loaded, so no
        # replay ever reads it
        task, result = run_blobs("paczero_mi", seed=21, steps=10)
        if tamper in ("header_k", "run_seed"):
            # a header copy that disagrees with its config (a run seed other
            # than the trained one would rebuild another trajectory)
            good = tmp_path / "good.jsonl"
            write_transcript(good, result.transcript)
            key = {"header_k": "k"}.get(tamper, tamper)
            value = {"header_k": 2, "run_seed": result.transcript.header.train.seed + 1}[tamper]
            bad = helpers.tampered_file(good, tmp_path / "bad.jsonl", 0, (key,), value)
            with pytest.raises(SchemaError, match=f"^header: {key} "):
                replay_posterior(load_transcript(bad), result.design, task)
            return
        fault = {
            "truncated": helpers.drop_last,
            "extra_record": helpers.repeat_last,
            "y_tilde_none": helpers.set_on_first_noisy("y_tilde", None),
            "sigma_string": helpers.set_on_first_noisy("sigma", "1"),
        }[tamper]
        helpers.assert_build_and_load_reject(result.transcript, tmp_path, fault)


class TestMembershipAttack:
    def test_uniform_posterior_gives_even_odds(self):
        design = build_balanced_design(16, 8, seed=5)
        probs = np.full(8, 0.125)
        for i in range(16):
            p, guess = membership_attack(probs, design, i)
            assert p == pytest.approx(0.5, abs=1e-12)
            assert guess is True  # ties resolve to member at prior 1/2

    def test_concentrated_posterior_reads_membership(self):
        design = build_balanced_design(16, 8, seed=5)
        probs = np.zeros(8)
        probs[3] = 1.0
        for i in range(16):
            p, guess = membership_attack(probs, design, i)
            member = bool(design.membership[i, 3])
            assert p == pytest.approx(1.0 if member else 0.0, abs=1e-12)
            assert guess == member

    def test_bad_indices_and_shapes(self):
        design = build_balanced_design(16, 8, seed=5)
        with pytest.raises(IndexError):
            membership_attack(np.full(8, 0.125), design, 16)
        with pytest.raises(IndexError):
            membership_attack(np.full(8, 0.125), design, -1)
        with pytest.raises(ValueError):
            membership_attack(np.full(4, 0.25), design, 0)


class TestMiaExperiment:
    def test_requires_enough_trials(self):
        task = BlobsTask(n_records=16, seed=3)
        spec = MechanismSpec(variant="paczero_zpl", n_subsets=8, clip=1.0)
        with pytest.raises(ValueError):
            empirical_mia_experiment(task, spec, TrainConfig(steps=5), 99, seed=0)

    def test_result_fields(self):
        task = BlobsTask(n_records=16, seed=3)
        spec = MechanismSpec(
            variant="paczero_mi", mi_total=0.25, n_subsets=8, clip=1.0
        )
        cfg = TrainConfig(steps=20, learning_rate=0.05, seed=0, dev_eval_interval=10)
        result = empirical_mia_experiment(task, spec, cfg, 100, seed=123)
        assert result.trials == 100
        assert result.empirical_rate == result.successes / 100
        assert result.standard_error == pytest.approx(0.5 / math.sqrt(100))
        assert result.bound == mia_posterior_bound(0.25, 0.5)
        assert result.prior == 0.5

    def test_zero_leakage_attack_is_coin_flipping(self):
        task = BlobsTask(n_records=16, seed=3)
        spec = MechanismSpec(variant="paczero_zpl", n_subsets=8, clip=1.0)
        cfg = TrainConfig(steps=15, learning_rate=0.05, seed=0, dev_eval_interval=15)
        result = empirical_mia_experiment(task, spec, cfg, 150, seed=321)
        assert result.bound == 0.5
        # 150 fair coin flips stay within 3 binomial standard errors of 1/2
        half_width = 3.0 * 0.5 / math.sqrt(150)
        assert abs(result.empirical_rate - 0.5) <= half_width
        assert result.sound()

    def test_vanishing_budget_behaves_like_zero_leakage(self):
        # a budget below the calibration floor never buys a disagreement
        # release, so every contested bit is a fair coin
        task = BlobsTask(n_records=16, seed=3)
        spec = MechanismSpec(
            variant="paczero_mi", mi_total=1e-300, n_subsets=8, clip=1.0
        )
        cfg = TrainConfig(steps=15, learning_rate=0.05, seed=0, dev_eval_interval=15)
        result = train(task, cfg, spec)
        assert result.transcript.cum_mi == 0.0
        probs = replay_posterior(result.transcript, result.design, task)
        assert probs == pytest.approx(np.full(8, 0.125), abs=1e-15)
        mia = empirical_mia_experiment(task, spec, cfg, 150, seed=321)
        half_width = 3.0 * 0.5 / math.sqrt(150)
        assert abs(mia.empirical_rate - 0.5) <= half_width

    def test_sound_accessor(self):
        r = MiaExperimentResult(
            trials=400, successes=250, empirical_rate=0.625,
            bound=0.6, prior=0.5, standard_error=0.025,
        )
        assert r.sound(z=3.0)   # 0.625 <= 0.6 + 0.075
        assert not r.sound(z=0.5)
