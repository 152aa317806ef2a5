import dataclasses
import json
import math

import numpy as np
import pytest

from paczero.accounting import (
    REDERIVED_FIELDS,
    TRUSTED_FIELDS,
    dp_eps_to_mia_bound,
    kl_binary,
    matched_mi_for_dp,
    mia_posterior_bound,
    validate_transcript,
)
from paczero.engine import TrainConfig, Transcript, train
from paczero.harness import SchemaError, load_transcript, transcript_lines, write_transcript
from paczero.mechanism import MechanismSpec, StepRecord
from paczero.tasks import make_task
import helpers


class TestKlBinary:
    def test_zero_at_equality(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            assert kl_binary(p, 0.5) >= 0.0
        assert kl_binary(0.5, 0.5) == 0.0
        assert kl_binary(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_nat_anchor(self):
        # kl(0.84, 0.5) = 0.2534773..., frozen from the stdlib-math oracle
        assert kl_binary(0.84, 0.5) == pytest.approx(0.25347730115860234, abs=1e-12)

    def test_small_budget_anchor(self):
        # the 56% operating point: kl(0.5601, 0.5) sits near 1/128 nats
        assert kl_binary(0.5601, 0.5) == pytest.approx(1.0 / 128.0, abs=1e-3)

    def test_degenerate_reference_signals_infinity(self):
        assert math.isinf(kl_binary(0.5, 0.0))
        assert math.isinf(kl_binary(0.5, 1.0))
        assert kl_binary(0.0, 0.0) == 0.0
        assert kl_binary(1.0, 1.0) == 0.0

    def test_matches_reference_oracle(self):
        for p in np.linspace(0.01, 0.99, 13):
            assert kl_binary(float(p), 0.25) == pytest.approx(
                helpers.kl_nats(float(p), 0.25), abs=1e-12
            )


class TestPosteriorBound:
    def test_zero_budget_is_prior(self):
        assert mia_posterior_bound(0.0, 0.5) == 0.5
        assert mia_posterior_bound(0.0, 0.3) == 0.3

    def test_headline_anchors(self):
        # frozen from the independent bisection oracle in helpers
        assert mia_posterior_bound(0.25, 0.5) == pytest.approx(0.84, abs=0.005)
        assert mia_posterior_bound(1 / 128, 0.5) == pytest.approx(0.56, abs=0.005)
        assert mia_posterior_bound(0.25, 0.5) == pytest.approx(
            0.8378930778501823, abs=1e-9
        )
        assert mia_posterior_bound(1 / 128, 0.5) == pytest.approx(
            0.5624184814618638, abs=1e-9
        )
        assert mia_posterior_bound(0.33, 0.5) == pytest.approx(
            0.8818875761714231, abs=1e-9
        )
        assert mia_posterior_bound(0.68, 0.5) == pytest.approx(
            0.9982042950486982, abs=1e-9
        )

    def test_saturation_above_kl_ceiling(self):
        # kl(p, 1/2) tops out at ln 2, so two nats saturate the bound
        assert mia_posterior_bound(2.0, 0.5) == 1.0

    def test_roundtrip_through_kl(self):
        for prior in (0.1, 0.5):
            ceiling = kl_binary(1.0 - 1e-15, prior)
            for budget in (1e-4, 1 / 128, 0.25, 0.33, 0.68, 2.0):
                bound = mia_posterior_bound(budget, prior)
                if budget >= ceiling:
                    assert bound == 1.0
                else:
                    assert kl_binary(bound, prior) == pytest.approx(budget, abs=1e-9)

    def test_strictly_increasing_in_budget(self):
        grid = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5]
        values = [mia_posterior_bound(b, 0.5) for b in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_agrees_with_independent_bisection(self):
        for budget in (1e-4, 0.01, 0.2, 0.6):
            assert mia_posterior_bound(budget, 0.5) == pytest.approx(
                helpers.solve_posterior_bound(budget, 0.5), abs=1e-10
            )


class TestDpReference:
    def test_formula_anchors(self):
        # e^eps/(1+e^eps) + delta, frozen at full precision; the displayed
        # two-decimal percentages are the published operating points
        v1 = dp_eps_to_mia_bound(1.0, 1e-5)
        v01 = dp_eps_to_mia_bound(0.1, 1e-5)
        assert v1 == pytest.approx(0.7310685786300049, abs=1e-12)
        assert v01 == pytest.approx(0.52498918747894, abs=1e-12)
        assert f"{v1:.2%}" == "73.11%"
        assert f"{v01:.2%}" == "52.50%"

    def test_zero_eps_zero_delta_is_prior(self):
        assert dp_eps_to_mia_bound(0.0, 0.0) == 0.5

    def test_clamped_to_one(self):
        assert dp_eps_to_mia_bound(50.0, 0.5) == 1.0

    def test_matched_budgets(self):
        m2 = matched_mi_for_dp(2.0, 1e-5, 0.5)
        m6 = matched_mi_for_dp(6.0, 1e-5, 0.5)
        assert m2 == pytest.approx(0.33, abs=0.01)
        assert m6 == pytest.approx(0.68, abs=0.01)
        assert m2 == pytest.approx(0.3278333259489684, abs=1e-12)
        assert m6 == pytest.approx(0.6758957767812858, abs=1e-12)

    def test_matched_zero(self):
        assert matched_mi_for_dp(0.0, 0.0, 0.5) == 0.0

    def test_saturated_dp_bound_signals_infinite_mi(self):
        assert math.isinf(matched_mi_for_dp(1.0, 0.9, 0.5))


@pytest.mark.parametrize("call, args, match", [
    (kl_binary, (1.5, 0.5), "p out of range: 1.5"),
    (kl_binary, (0.5, math.nan), "q out of range: nan"),
    (mia_posterior_bound, (0.1, 1.0), r"prior must lie strictly inside \(0, 1\): 1.0"),
    (dp_eps_to_mia_bound, (math.nan, 0.0), "eps must be nonnegative: nan"),
    (dp_eps_to_mia_bound, (1.0, -0.1), r"delta must lie in \[0, 1\): -0.1"),
    (matched_mi_for_dp, (1.0, 0.0, 0.0), r"prior must lie strictly inside \(0, 1\): 0.0"),
], ids=["kl-p", "kl-q", "bound-prior", "dp-eps", "dp-delta", "matched-prior"])
def test_out_of_range_inputs_rejected(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


@pytest.fixture(scope="module")
def mi_run():
    task = make_task("blobs", n_records=32)
    cfg = TrainConfig(steps=40, learning_rate=0.05, seed=5)
    spec = MechanismSpec(variant="paczero_mi", mi_total=0.25, n_subsets=8, clip=1.0)
    return train(task, cfg, spec)


@pytest.fixture(scope="module")
def zpl_run():
    task = make_task("blobs", n_records=32)
    cfg = TrainConfig(steps=40, learning_rate=0.05, seed=5)
    spec = MechanismSpec(variant="paczero_zpl", n_subsets=8, clip=1.0)
    return train(task, cfg, spec)


def _first(transcript, branch: str) -> int:
    """Index of the first record of ``branch``."""
    return next(n for n, rec in enumerate(transcript.records) if rec.branch == branch)


class TestTranscriptConstruction:
    """A built transcript, checked once, cannot be edited afterwards."""

    def test_records_and_transcripts_are_frozen(self, mi_run):
        transcript = mi_run.transcript
        assert type(transcript.records) is tuple
        with pytest.raises(AttributeError):
            transcript.records[0].y = -transcript.records[0].y
        with pytest.raises(dataclasses.FrozenInstanceError):
            transcript.records = transcript.records[:-1]


class TestValidateTranscript:
    def test_honest_mi_run_passes(self, mi_run):
        report = validate_transcript(mi_run.transcript)
        assert report.ok, report.message
        assert report.cum_mi <= report.mi_total
        assert not report.non_private

    def test_honest_zpl_run_passes(self, zpl_run):
        report = validate_transcript(zpl_run.transcript)
        assert report.ok, report.message
        assert report.cum_mi == 0.0

    def test_overspent_bit_rejected(self, mi_run):
        n = _first(mi_run.transcript, "disagreement")
        victim = mi_run.transcript.records[n]
        bad = helpers.tampered_transcript(
            mi_run.transcript,
            {n: {"beta_used": victim.beta_t * 2.0, "beta_t": victim.beta_t * 2.0}},
        )
        report = validate_transcript(bad)
        assert not report.ok
        assert f"step {victim.t}" in report.first_violation

    def test_zpl_with_nonzero_mi_rejected(self, zpl_run):
        records = zpl_run.transcript.records
        n = _first(zpl_run.transcript, "zpl_coin")
        # running totals that agree with the charge
        edits = {i: {"cum_mi": rec.cum_mi + 0.01} for i, rec in enumerate(records) if i >= n}
        edits[n]["beta_used"] = 0.01
        bad = helpers.tampered_transcript(zpl_run.transcript, edits)
        assert bad.cum_mi == pytest.approx(0.01)
        report = validate_transcript(bad)
        assert not report.ok
        assert report.first_violation == f"step {records[n].t} slot 0"

    def test_flipped_unanimity_release_rejected(self, mi_run):
        n = _first(mi_run.transcript, "unanimity")
        victim = mi_run.transcript.records[n]
        bad = helpers.tampered_transcript(mi_run.transcript, {n: {"y": -victim.y}})
        report = validate_transcript(bad)
        assert not report.ok
        assert f"step {victim.t}" in report.first_violation

    def test_miscalibrated_sigma_rejected(self, mi_run):
        n = _first(mi_run.transcript, "disagreement")
        sigma = mi_run.transcript.records[n].sigma
        bad = helpers.tampered_transcript(mi_run.transcript, {n: {"sigma": sigma * 1.5}})
        report = validate_transcript(bad)
        assert not report.ok

    @pytest.mark.parametrize("sigma_first", [True, False], ids=["sigma_first", "beta_first"])
    def test_first_violation_in_record_order(self, mi_run, sigma_first):
        # the noise levels are checked in one pass before the walk, yet the
        # report still names the earlier of two faults
        records = mi_run.transcript.records
        noisy = [n for n, rec in enumerate(records) if rec.branch == "disagreement"]
        early, late = noisy[1], noisy[-2]
        i, j = (late, early) if sigma_first else (early, late)
        bad = helpers.tampered_transcript(
            mi_run.transcript,
            {j: {"sigma": records[j].sigma * 1.5}, i: {"beta_t": records[i].beta_t * 1.5}},
        )
        report = validate_transcript(bad)
        assert not report.ok
        assert report.first_violation == f"step {records[early].t} slot 0"
        fault = "noise level carries" if sigma_first else "beta_t"
        assert report.message.startswith(f"step {records[early].t} slot 0: {fault}")

    def test_truncated_transcript_rejected(self, mi_run, tmp_path):
        # a malformed layout is a structure fault: it cannot be built or
        # loaded, so the validator never reads it
        helpers.assert_build_and_load_reject(mi_run.transcript, tmp_path, helpers.drop_last)

    def test_header_k_must_match_mechanism(self, mi_run, tmp_path):
        # the file repeats k from the mechanism config; a copy that
        # disagrees is rejected on load
        good = tmp_path / "good.jsonl"
        write_transcript(good, mi_run.transcript)
        bad = helpers.tampered_file(good, tmp_path / "bad.jsonl", 0, ("k",), 2)
        with pytest.raises(SchemaError, match="^header: k 2 disagrees"):
            load_transcript(bad)

    def test_out_of_order_record_rejected(self, mi_run, tmp_path):
        helpers.assert_build_and_load_reject(
            mi_run.transcript, tmp_path, helpers.swap_fourth_and_fifth
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("y_tilde", 10**400, id="y_tilde-overflowing-int"),
            pytest.param("cum_mi", 10**400, id="cum_mi-overflowing-int"),
            ("q_plus", "0.5"), ("sigma", "1"), ("y_tilde", None), ("t", True),
            ("unanimity_count", 1.0),
        ],
    )
    def test_malformed_record_is_structure(self, mi_run, field, value, tmp_path):
        # each of these made the validator raise, or slip past it, before
        # the record shape was checked; now the record cannot be built
        helpers.assert_build_and_load_reject(
            mi_run.transcript, tmp_path, helpers.set_on_first_noisy(field, value)
        )

    @pytest.mark.parametrize("field", ["variant", "run_seed", "n_subsets"])
    def test_header_copies_must_match_configs(self, mi_run, field, tmp_path):
        good = tmp_path / "good.jsonl"
        write_transcript(good, mi_run.transcript)
        value = {"variant": "paczero_zpl", "run_seed": 6, "n_subsets": 16}[field]
        bad = helpers.tampered_file(good, tmp_path / "bad.jsonl", 0, (field,), value)
        with pytest.raises(SchemaError, match=f"^header: {field} "):
            load_transcript(bad)

    def test_surrogate_marked_non_private(self):
        task = make_task("blobs", n_records=32)
        cfg = TrainConfig(steps=10, learning_rate=0.05, seed=5)
        spec = MechanismSpec(
            variant="surrogate", surrogate_mode="quant_full", clip=1.0
        )
        result = train(task, cfg, spec)
        report = validate_transcript(result.transcript)
        assert report.ok
        assert report.non_private

    def test_nan_fields_rejected(self, mi_run):
        # NaN compares false both ways, so a check written as "a - b > tol"
        # would wave every poisoned field through
        edits = {
            n: {"cum_mi": math.nan} | ({} if rec.branch == "disagreement" else {"beta_t": math.nan})
            for n, rec in enumerate(mi_run.transcript.records)
        }
        bad = helpers.tampered_transcript(mi_run.transcript, edits)
        report = validate_transcript(bad)
        assert not report.ok
        assert report.first_violation == "step 1 slot 0"

    def test_trailer_must_match_records(self, mi_run, tmp_path):
        # the trailer repeats the last record's running totals and the
        # record count; a copy that disagrees is rejected on load
        good = tmp_path / "good.jsonl"
        write_transcript(good, mi_run.transcript)
        for field, value in (("cum_mi", 0.0), ("unanimity_bits", 0), ("total_bits", 7)):
            bad = helpers.tampered_file(good, tmp_path / "bad.jsonl", -1, (field,), value)
            with pytest.raises(SchemaError, match=f"^summary: {field} "):
                load_transcript(bad)

    def test_failed_report_is_json_safe(self, mi_run):
        beta_t = mi_run.transcript.records[0].beta_t
        bad = helpers.tampered_transcript(mi_run.transcript, {0: {"beta_t": beta_t + 1.0}})
        report = validate_transcript(bad)
        assert not report.ok
        json.dumps(dataclasses.asdict(report), allow_nan=False)

    def test_k_aggregate_rounding_stays_within_budget(self):
        # float rounding in the per-bit split carries this run's running
        # total one ulp past the budget unless the bit is stepped down
        task = make_task("xor_mlp", n_records=32)
        cfg = TrainConfig(steps=40, learning_rate=0.05, seed=3)
        spec = MechanismSpec(
            variant="k_aggregate", inner_variant="paczero_mi", k=2,
            mi_total=0.33, n_subsets=8, clip=1.0,
        )
        result = train(task, cfg, spec)
        assert result.transcript.cum_mi <= 0.33
        report = validate_transcript(result.transcript)
        assert report.ok, report.message


@pytest.fixture(scope="module")
def k2_run():
    task = make_task("blobs", n_records=32)
    cfg = TrainConfig(steps=40, learning_rate=0.05, seed=5)
    spec = MechanismSpec(
        variant="k_aggregate", inner_variant="paczero_mi", k=2,
        mi_total=0.25, n_subsets=8, clip=1.0,
    )
    return train(task, cfg, spec)


@pytest.fixture(scope="module")
def surrogate_run():
    task = make_task("blobs", n_records=32)
    cfg = TrainConfig(steps=10, learning_rate=0.05, seed=5)
    spec = MechanismSpec(variant="surrogate", surrogate_mode="raw_half", clip=1.0)
    return train(task, cfg, spec)


def _tampered(rec: StepRecord, field: str):
    """A value of ``field`` that differs from the recorded one and keeps
    its type where the field has one."""
    value = getattr(rec, field)
    if value is None:
        return 1.0
    if field == "branch":
        cycle = ["unanimity", "zpl_coin", "disagreement", "unanimity"]
        return cycle[cycle.index(value) + 1] if value in cycle else "unanimity"
    if isinstance(value, int):
        return value + 1
    return value * 1.5 + 1e-3


class TestMutations:
    """Every re-derived field, tampered on one record of each branch an
    honest transcript holds, fails validation."""

    def test_report_lists_every_field_once(self, mi_run):
        report = validate_transcript(mi_run.transcript)
        assert report.rederived == REDERIVED_FIELDS
        assert report.trusted == TRUSTED_FIELDS
        assert "q_plus" in report.trusted
        names = sorted(report.rederived + report.trusted)
        assert names == sorted(StepRecord._fields)

    @pytest.mark.parametrize("run", ["mi_run", "zpl_run", "k2_run", "surrogate_run"])
    def test_each_rederived_field_tamper_rejected(self, run, request):
        result = request.getfixturevalue(run)
        honest = validate_transcript(result.transcript)
        assert honest.ok, honest.message
        first_of_branch = {}
        for n, rec in enumerate(result.transcript.records):
            first_of_branch.setdefault(rec.branch, n)
        for field in honest.rederived:
            for branch, n in first_of_branch.items():
                rec = result.transcript.records[n]
                try:
                    bad = helpers.tampered_transcript(
                        result.transcript, {n: {field: _tampered(rec, field)}}
                    )
                except ValueError:  # a layout or shape fault: it cannot be built
                    continue
                report = validate_transcript(bad)
                assert not report.ok, (run, field, branch)
