import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paczero import engine
from paczero import rng as rngmod
from paczero import tasks
from paczero.adversary import replay_posterior
from paczero.engine import (
    TrainConfig,
    TwoPointNumericsError,
    _two_point_all,
    public_trajectory,
    step_update,
    train,
)
from paczero.harness import transcript_lines
from paczero.mechanism import (
    BRANCH_UNANIMITY,
    MechanismSpec,
    SubsetDesign,
    build_balanced_design,
    subset_signs,
    surrogate_release,
)
from paczero.tasks import BlobsTask, QuadraticTask, XorMlpTask, make_task
import helpers


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.steps == 500
        assert cfg.dev_eval_interval == 25
        assert cfg.load_best_dev is True

    def test_eta_decay(self):
        cfg = TrainConfig(learning_rate=0.1, lr_decay=0.5)
        assert cfg.eta(1) == pytest.approx(0.1)
        assert cfg.eta(3) == pytest.approx(0.1 / 2.0)

    def test_eta_constant_without_decay(self):
        cfg = TrainConfig(learning_rate=0.05)
        assert cfg.eta(1) == cfg.eta(499) == 0.05

    @pytest.mark.parametrize(
        "kw",
        [
            {"steps": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"lr_decay": -0.1},
            {"weight_decay": -0.1},
            {"smoothing": 0.0},
            {"dev_eval_interval": 0},
            {"steps": 1.5},
            {"steps": True},
            {"seed": 1.0},
            {"dev_eval_interval": 25.0},
            {"seed": -1},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestClipScalar:
    """The per-sample clip the releases apply before averaging."""

    def test_hand_cases(self):
        # raw_half over the secret subset {record 0} releases its clipped value
        design = SubsetDesign(membership=np.array([[True, False], [False, True]]), seed=0)
        rng = np.random.default_rng(0)
        for value, c, expected in ((5.0, 3.0, 3.0), (-5.0, 3.0, -3.0),
                                   (0.1, math.inf, 0.1), (-0.0, 1.0, 0.0)):
            got = surrogate_release("raw_half", np.array([value, 9.0]), design, 0, c, rng)
            assert got == expected

    def test_elementwise(self):
        # records {0, 2} form subset 0, records {1, 3} subset 1
        design = SubsetDesign(
            membership=np.array([[True, False], [False, True], [True, False], [False, True]]),
            seed=0,
        )
        scalars = np.array([4.0, -0.5, -7.0, 0.0])
        rng = np.random.default_rng(0)
        # clip 2 maps the scalars to [2, -0.5, -2, 0] before the full mean
        assert surrogate_release("raw_full", scalars, design, 0, 2.0, rng) == -0.5 / 4
        # subset 0 averages 2 and -2 to 0 (sign +1) only once clipped
        assert subset_signs(scalars, design, 2.0).tolist() == [1, -1]
        assert subset_signs(scalars, design, math.inf).tolist() == [-1, -1]

    def test_nonpositive_bound_rejected(self):
        design = build_balanced_design(4, 2, seed=0)
        with pytest.raises(ValueError):
            subset_signs(np.ones(4), design, 0.0)
        with pytest.raises(ValueError):
            subset_signs(np.ones(4), design, -2.0)


class TestTwoPoint:
    def test_exact_on_quadratic_origin_targets(self):
        # loss_i = 0.5*||theta||^2 so the directional derivative is <theta, z>
        task = QuadraticTask(n_records=4, dim=6, target_spread=0.0)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(6)
        z = rng.standard_normal(6)
        got = _two_point_all(task, theta, z, 1e-3)
        assert got == pytest.approx(np.full(4, float(theta @ z)), abs=1e-9)

    def test_exact_on_quadratic_random_targets(self):
        task = QuadraticTask(n_records=5, dim=4, seed=7, target_spread=2.0)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(4)
        z = rng.standard_normal(4)
        expected = (theta - task.targets) @ z
        assert _two_point_all(task, theta, z, 1e-4) == pytest.approx(expected, abs=1e-8)

    def test_zero_theta_zero_direction(self):
        task = QuadraticTask(n_records=2, dim=3, target_spread=0.0)
        assert _two_point_all(task, np.zeros(3), np.zeros(3), 1e-3).tolist() == [0.0, 0.0]

    def test_nonpositive_smoothing_rejected(self):
        task = QuadraticTask(n_records=2, dim=3)
        with pytest.raises(ValueError):
            _two_point_all(task, np.zeros(3), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            _two_point_all(task, np.zeros(3), np.ones(3), -1e-3)

    def test_overflow_reports_context(self):
        # only record 1's target is far enough out for its loss to overflow
        task = QuadraticTask(n_records=3, dim=2, target_spread=0.0)
        task.targets[1] = -1e160
        theta = np.full(2, 1e150)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TwoPointNumericsError
        ) as exc_info:
            _two_point_all(task, theta, np.ones(2), 1e-3)
        err = exc_info.value
        assert err.record_index == 1
        assert err.theta_norm == pytest.approx(float(np.linalg.norm(theta)))

    @pytest.mark.parametrize("record", [0, 2, 4])
    def test_non_finite_record_named_for_one_theta_and_a_block(self, record):
        # record j's loss is inf wherever theta[0] > 1: the second of three
        # rows, alone or in the block, raises for record j with its |theta|
        base = QuadraticTask(n_records=5, dim=3, target_spread=1.0)

        def losses(theta):
            out = base.per_sample_losses(theta)
            out[..., record] = np.where(theta[..., 0] > 1.0, math.inf, out[..., record])
            return out

        task = SimpleNamespace(per_sample_losses=losses)
        thetas = np.array([[0.1, 0.2, 0.3], [2.0, -1.0, 0.5], [3.0, 1.0, 1.0]])
        zs = np.ones_like(thetas)
        assert np.isfinite(_two_point_all(task, thetas[0], zs[0], 1e-3)).all()
        with np.errstate(invalid="ignore"):
            with pytest.raises(TwoPointNumericsError) as one:
                _two_point_all(task, thetas[1], zs[1], 1e-3)
            with pytest.raises(TwoPointNumericsError) as block:
                _two_point_all(task, thetas, zs, 1e-3)
        norm = float(np.linalg.norm(thetas[1]))
        for err in (one.value, block.value):
            assert err.record_index == record and err.theta_norm == norm
            assert str(err) == (
                f"non-finite two-point estimate for record {record} at |theta| = {norm:.6g}"
            )

    def test_matches_analytic_logistic_gradient(self):
        task = BlobsTask(n_records=16, seed=4)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            theta = rng.standard_normal(task.dim) * 0.5
            z = rng.standard_normal(task.dim)
            approx = _two_point_all(task, theta, z, 1e-3)
            for i in range(task.n_records):
                exact = helpers.analytic_blobs_directional(task, theta, i, z)
                worst = max(worst, abs(approx[i] - exact))
        assert worst <= 1e-4


def _int_bits(values) -> list:
    """Every float of ``values`` as its 64-bit pattern, for exact comparison."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()


BLOCK_TASKS = {
    "blobs": lambda: BlobsTask(n_records=32, seed=4),
    "xor_mlp": lambda: XorMlpTask(n_records=32, seed=2),
    "quadratic": lambda: QuadraticTask(n_records=8, dim=6, seed=3, target_spread=2.0),
}


class TestBlockLosses:
    """A (B, dim) block of thetas against its rows one at a time: bit for
    bit, at any BLAS thread count."""

    @staticmethod
    def block(task, rows: int, seed: int) -> np.ndarray:
        # rows at several scales, so products meet many exponents
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3.0, 1.5, size=(rows, 1))
        return rng.standard_normal((rows, task.dim)) * scales

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("name", sorted(BLOCK_TASKS))
    def test_block_losses_equal_stacked_rows(self, name, rows):
        task = BLOCK_TASKS[name]()
        thetas = self.block(task, rows, seed=rows)
        got = task.per_sample_losses(thetas)
        assert got.shape == (rows, task.n_records)
        assert _int_bits(got) == _int_bits([task.per_sample_losses(t) for t in thetas])

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("name", sorted(BLOCK_TASKS))
    def test_block_two_point_equals_stacked_rows(self, name, rows):
        task = BLOCK_TASKS[name]()
        thetas = self.block(task, rows, seed=rows + 1)
        zs = np.random.default_rng(rows).standard_normal(thetas.shape)
        got = _two_point_all(task, thetas, zs, 1e-3)
        assert _int_bits(got) == _int_bits(
            [_two_point_all(task, t, z, 1e-3) for t, z in zip(thetas, zs)]
        )

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("name", sorted(BLOCK_TASKS))
    def test_two_point_equals_its_probes_taken_apart(self, name, rows):
        # both probes of every row go to the task as one block, and each
        # row's losses are those of its own call
        task = BLOCK_TASKS[name]()
        thetas = self.block(task, rows or 1, seed=9)
        zs = np.random.default_rng(9).standard_normal(thetas.shape)
        if rows is None:
            thetas, zs = thetas[0], zs[0]
        apart = (
            task.per_sample_losses(thetas + 1e-3 * zs) - task.per_sample_losses(thetas - 1e-3 * zs)
        ) / (2.0 * 1e-3)
        assert _int_bits(_two_point_all(task, thetas, zs, 1e-3)) == _int_bits(apart)

    @pytest.mark.parametrize("name", sorted(BLOCK_TASKS))
    @pytest.mark.parametrize("shape", [(2, 1), (2, 2, 0)])
    def test_block_shape_mismatch_rejected(self, name, shape):
        task = BLOCK_TASKS[name]()
        bad = np.zeros(shape[:-1] + (task.dim + shape[-1],))
        with pytest.raises(ValueError, match="theta must have shape"):
            task.per_sample_losses(bad)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", sorted(BLOCK_TASKS))
    def test_eval_metric_rejects_a_block(self, name, rows):
        # a block is a loss-side form; one score is of one theta
        task = BLOCK_TASKS[name]()
        with pytest.raises(ValueError, match=rf"theta must have shape \({task.dim},\),"):
            task.eval_metric(self.block(task, rows, seed=rows), "dev")

    def test_block_numerics_error_names_the_rows_record(self):
        # records 1 and 2 sit far enough out for their losses to overflow
        # on the second row but not the first; one row at a time raises
        # first on that row's record 1
        task = QuadraticTask(n_records=3, dim=2, target_spread=0.0)
        task.targets[1:, 0] = -1e154
        thetas = np.array([[1.0, 2.0], [5e153, 0.0], [7e153, 1.0]])
        zs = np.ones_like(thetas)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TwoPointNumericsError) as row_error:
                for theta, z in zip(thetas, zs):
                    _two_point_all(task, theta, z, 1e-3)
            with pytest.raises(TwoPointNumericsError) as block_error:
                _two_point_all(task, thetas, zs, 1e-3)
        assert block_error.value.record_index == row_error.value.record_index == 1
        assert block_error.value.theta_norm == row_error.value.theta_norm
        assert block_error.value.theta_norm == float(np.linalg.norm(thetas[1]))


def single_step(theta, eta, weight_decay, y, z):
    """One single-direction ``step_update`` at step size eta.  step_update
    reads only ``eta(t)`` and ``weight_decay`` from its config, so a stub
    stands in for TrainConfig, which rejects eta = 0."""
    config = SimpleNamespace(eta=lambda t: eta, weight_decay=weight_decay)
    return step_update(theta, config, 1, [y], [z])


class TestApplyUpdate:
    def test_hand_case(self):
        theta = np.array([1.0, 0.0])
        out = single_step(theta, 0.1, 0.5, 1.0, np.array([0.0, -2.0]))
        # (1 - 0.1*0.5)*[1,0] - 0.1*1.0*[0,-2] = [0.95, 0.2]
        assert out.tolist() == [0.95, 0.2]

    def test_no_decay_is_plain_step(self):
        theta = np.array([2.0, -1.0])
        z = np.array([1.0, 3.0])
        assert single_step(theta, 0.2, 0.0, 1.0, z).tolist() == (theta - 0.2 * z).tolist()
        assert single_step(theta, 0.2, 0.0, -1.0, z).tolist() == (theta + 0.2 * z).tolist()

    def test_zero_eta_is_identity(self):
        theta = np.array([3.0, 4.0])
        out = single_step(theta, 0.0, 0.7, 1.0, np.array([9.0, 9.0]))
        assert out.tolist() == [3.0, 4.0]

    def test_pure(self):
        theta = np.array([1.0, 1.0])
        single_step(theta, 0.5, 0.0, 1.0, np.array([1.0, 1.0]))
        assert theta.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("ys, slots", [([1.0, -1.0], 3), ([1.0, -1.0, 1.0], 2)])
    def test_value_and_direction_counts_must_match(self, ys, slots):
        config = TrainConfig(steps=1)
        with pytest.raises(ValueError):
            step_update(np.zeros(2), config, 1, ys, list(np.ones((slots, 2))))

    def test_no_decay_skips_a_multiply_by_one(self):
        # 1 - eta * 0 is exactly 1, so skipping it keeps every bit, even
        # of -0.0, infinities and NaN
        theta = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-310, 3.0])
        z = np.array([0.0, -0.0, 1.0, 1.0, 1.0, 0.0, 2.0])
        expected = (1.0 - 0.25 * 0.0) * theta - 0.25 * ((z * 1.0 + z * -3.0) / 2)
        config = SimpleNamespace(eta=lambda t: 0.25, weight_decay=0.0)
        out = step_update(theta, config, 1, [1.0, -3.0], [z, z])
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(allow_subnormal=True), st.floats(allow_subnormal=True)),
            min_size=1, max_size=6,
        ),
        y=st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats()),
        eta=st.one_of(st.sampled_from([0.05, 0.0, 1e-310]), st.floats(0.0, 1e3)),
        weight_decay=st.sampled_from([0.0, 0.4]),
    )
    def test_one_slot_skips_the_divide_by_one(self, values, y, eta, weight_decay):
        # x / 1 is exactly x for every double, -0.0, subnormals, infinities
        # and NaN included, so one slot's move is not divided
        theta, z = (np.array(column) for column in zip(*values))
        with np.errstate(all="ignore"):
            decayed = (1.0 - eta * weight_decay) * theta if weight_decay else theta
            expected = decayed - eta * ((z * y) / 1)
            out = single_step(theta, eta, weight_decay, y, z)
        assert _int_bits(out) == _int_bits(expected)

    def test_affine_in_theta(self):
        a = np.array([1.0, 2.0])
        b = np.array([-3.0, 0.5])
        z = np.array([0.2, 0.4])
        lhs = single_step(0.5 * a + 0.5 * b, 0.1, 0.3, 1.0, z)
        rhs = 0.5 * single_step(a, 0.1, 0.3, 1.0, z) + 0.5 * single_step(
            b, 0.1, 0.3, 1.0, z
        )
        assert lhs == pytest.approx(rhs, abs=1e-15)


def train_capturing_iterates(monkeypatch, task, config, spec):
    """Train, returning the result and every iterate ``step_update`` made."""
    trained = []
    real_update = engine.step_update
    monkeypatch.setattr(
        engine, "step_update", lambda *args: trained.append(real_update(*args)) or trained[-1],
    )
    result = train(task, config, spec)
    monkeypatch.undo()
    return result, trained


def mi_spec(**kw) -> MechanismSpec:
    base = {"variant": "paczero_mi", "mi_total": 0.3, "n_subsets": 8, "clip": 1.0}
    base.update(kw)
    return MechanismSpec(**base)


class TestDirections:
    """``rng.directions`` hashes a run's keys in one pass; every word and
    every direction must equal NumPy's own SeedSequence's, else a NumPy that
    changed the hash would silently change every transcript."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**130), st.integers(1, 10**6), st.integers(0, 7),
        st.integers(1, 40),
    )
    def test_words_and_directions_match_seed_sequence(self, seed, t, slot, dim):
        words = rngmod.direction_words(
            seed, np.array([t], dtype=np.uint32), np.array([slot], dtype=np.uint32)
        )[0]
        assert words.tobytes() == helpers.direction_state_words(seed, t, slot).tobytes()
        out = np.full(dim, np.nan)
        z = rngmod.direction(words, out)
        assert z is out  # drawn in place
        assert z.tobytes() == helpers.direction_oracle(seed, t, slot, dim).tobytes()

    @pytest.mark.parametrize(
        "seed", [0, 7, 123456789, 2**63 - 5, 2**64 + 12345, 2**130 + 3, 2**200 + 11]
    )
    def test_whole_run_matches_oracle(self, seed):
        steps = rngmod.directions(seed, 60, 4, 9)
        assert steps.shape == (60, 4, 9) and steps.dtype == np.float64
        for t in (1, 2, 31, 60):
            for slot in (0, 1, 3):
                oracle = helpers.direction_oracle(seed, t, slot, 9)
                assert steps[t - 1][slot].tobytes() == oracle.tobytes()

    def test_negative_seed_rejected(self):
        # as SeedSequence does; a word splitter that shifts a negative int
        # right would never reach zero
        with pytest.raises(ValueError, match="non-negative"):
            rngmod.directions(-1, 5, 1, 3)
        with pytest.raises(ValueError, match="non-negative"):
            rngmod.direction_words(
                -(2**70), np.array([1], dtype=np.uint32), np.array([0], dtype=np.uint32)
            )

    @pytest.mark.parametrize("seed", [np.int64(123456789), np.uint64(2**63 + 5), np.uint32(7)])
    def test_numpy_integer_seed_hashes_as_its_int(self, seed):
        t, slot = np.arange(1, 6, dtype=np.uint32)[:, None], np.arange(2, dtype=np.uint32)
        words = rngmod.direction_words(seed, t, slot)
        assert words.tobytes() == rngmod.direction_words(int(seed), t, slot).tobytes()
        assert words[2, 1].tolist() == helpers.direction_state_words(int(seed), 3, 1).tolist()

    @pytest.mark.parametrize(
        "t_total, k", [(2**32, 1), (0, 1), (5, 0), (5, 2**32), (2**20 + 1, 1), (2**18 + 1, 4)]
    )
    def test_keys_beyond_one_word_rejected(self, t_total, k):
        # raised before any key array is built: at most 2**20 keys a run
        with pytest.raises(ValueError, match="one key word"):
            rngmod.directions(3, t_total, k, 2)

    @pytest.mark.parametrize(
        "t_total, k, dim", [(2**12, 1, 2**12 + 1), (300, 1, 2**20), (2**10, 4, 2**13)]
    )
    def test_floats_beyond_the_bound_rejected(self, t_total, k, dim):
        # raised before anything is allocated: at most 2**24 floats a run
        with pytest.raises(ValueError, match=r"t_total \* k \* dim must be <= 16777216"):
            rngmod.directions(3, t_total, k, dim)

    def test_bound_is_inclusive(self):
        assert rngmod.directions(3, 2**12, 2, 2**11).shape == (2**12, 2, 2**11)

    def test_key_arrays_must_be_uint32(self):
        with pytest.raises(ValueError, match="uint32"):
            rngmod.direction_words(3, np.array([2**32 + 1]), np.array([0], dtype=np.uint32))

    def test_direction_takes_only_one_row_of_words(self):
        words = rngmod.direction_words(
            3, np.array([[1], [2]], dtype=np.uint32), np.array([0, 1], dtype=np.uint32)
        )
        assert words.shape == (2, 2, 4)
        with pytest.raises(ValueError, match="state words"):
            rngmod.direction(words[0], np.empty(4))
        with pytest.raises(ValueError, match="state words"):
            rngmod.direction(words[0, 0].astype(np.int64), np.empty(4))


class TestTrainLoop:
    def test_single_unanimous_step_arithmetic(self):
        # identical targets force unanimity, so step 1 must be
        # theta_1 = theta_0 - eta * s * z with s the shared sign
        task = QuadraticTask(n_records=16, dim=5, seed=2, identical_targets=True)
        cfg = TrainConfig(steps=1, learning_rate=0.1, seed=60, dev_eval_interval=1)
        result = train(task, cfg, mi_spec())
        assert len(result.transcript.records) == 1
        rec = result.transcript.records[0]
        assert rec.branch == BRANCH_UNANIMITY
        assert rec.beta_used == 0.0

        z = helpers.direction_oracle(60, 1, 0, task.dim)
        scalar = float((task.init_params() - task.targets[0]) @ z)
        s = 1.0 if scalar >= 0.0 else -1.0
        assert rec.y == s
        expected = task.init_params() - 0.1 * s * z
        assert result.final_params == pytest.approx(expected, abs=1e-12)

    def test_deterministic_replay(self):
        task = BlobsTask(n_records=16, seed=3)
        cfg = TrainConfig(steps=30, seed=14, dev_eval_interval=10)
        a = train(task, cfg, mi_spec())
        b = train(task, cfg, mi_spec())
        assert np.array_equal(a.params, b.params)
        assert a.secret_index == b.secret_index
        assert a.transcript.cum_mi == b.transcript.cum_mi
        assert [r.y for r in a.transcript.records] == [
            r.y for r in b.transcript.records
        ]
        assert a.transcript.header.design_hash == b.transcript.header.design_hash

    def test_step_one_calibration_independent_of_secret(self):
        # before anything is released the posterior is uniform, so the
        # agreement probability, allocation, branch, and noise level at step 1
        # cannot depend on which subset is the bet; afterwards the realized
        # trace legitimately diverges because the channel input is the
        # secret subset's sign (that dependence is what the budget meters)
        task = BlobsTask(n_records=16, seed=3)
        cfg = TrainConfig(steps=1, seed=9, dev_eval_interval=1)
        design = build_balanced_design(16, 8, seed=77)
        firsts = [
            train(task, cfg, mi_spec(), design=design, secret_index=j)
            .transcript.records[0]
            for j in (0, 3, 7)
        ]
        assert len({r.q_plus for r in firsts}) == 1
        assert len({r.beta_t for r in firsts}) == 1
        assert len({r.branch for r in firsts}) == 1
        assert len({r.sigma for r in firsts}) == 1

    @pytest.mark.parametrize("task", [
        BlobsTask(n_records=16, seed=3), XorMlpTask(n_records=16, seed=3),
    ], ids=["blobs", "xor_mlp"])
    def test_zpl_transcript_is_the_same_for_every_secret(self, task):
        # a ZPL release never reads the secret, so each of the 8 secrets
        # writes the same transcript bytes; an MI run's noisy signs do read
        # it, so there each secret writes its own
        cfg = TrainConfig(steps=100, seed=9, dev_eval_interval=50)
        design = build_balanced_design(task.n_records, 8, seed=77)

        def transcripts(spec):
            runs = [train(task, cfg, spec, design=design, secret_index=j) for j in range(8)]
            assert any(r.branch != BRANCH_UNANIMITY for r in runs[0].transcript.records)
            return {"\n".join(transcript_lines(run.transcript)) for run in runs}

        assert len(transcripts(MechanismSpec(variant="paczero_zpl", n_subsets=8))) == 1
        assert len(transcripts(MechanismSpec(
            variant="k_aggregate", n_subsets=8, k=2, inner_variant="paczero_zpl"
        ))) == 1
        assert len(transcripts(mi_spec())) == 8

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["blobs", "quadratic"]), st.sampled_from([2, 4, 8]),
        st.sampled_from([1, 2]), st.integers(0, 2**32), st.integers(0, 2**32),
        st.integers(1, 20),
    )
    def test_zpl_transcript_is_the_same_for_every_secret_drawn(
        self, name, n_subsets, k, task_seed, seed, steps
    ):
        # over small tasks, designs and seeds, as the test above at one
        task = make_task(name=name, n_records=12, seed=task_seed)
        design = build_balanced_design(task.n_records, n_subsets, seed=seed)
        spec = MechanismSpec(
            variant="k_aggregate" if k > 1 else "paczero_zpl", n_subsets=n_subsets, k=k,
            inner_variant="paczero_zpl",
        )
        cfg = TrainConfig(steps=steps, seed=seed, dev_eval_interval=steps)
        transcripts = {
            "\n".join(transcript_lines(
                train(task, cfg, spec, design=design, secret_index=j).transcript
            ))
            for j in range(n_subsets)
        }
        assert len(transcripts) == 1

    def test_direction_stream_is_random_access(self):
        # step 40's first direction is the same whatever the run's length
        # and k, and equals the one drawn for (seed, 40, 0) alone
        z1 = rngmod.directions(5, 40, 1, 12)[39, 0]
        z2 = rngmod.directions(5, 45, 2, 12)[39, 0]
        assert z1.tobytes() == z2.tobytes()
        assert z1.tobytes() == helpers.direction_oracle(5, 40, 0, 12).tobytes()
        assert not np.array_equal(z1, helpers.direction_oracle(5, 41, 0, 12))
        assert not np.array_equal(z1, helpers.direction_oracle(5, 40, 1, 12))
        assert not np.array_equal(z1, helpers.direction_oracle(6, 40, 0, 12))

    def test_dev_eval_cadence(self):
        task = QuadraticTask(n_records=8, dim=4)
        cfg = TrainConfig(steps=52, seed=1, dev_eval_interval=20)
        result = train(task, cfg, mi_spec(n_subsets=4))
        assert [t for t, _ in result.transcript.dev_evals] == [20, 40, 52]

    def test_best_dev_checkpoint_selection(self):
        task = QuadraticTask(n_records=8, dim=4, seed=5)
        cfg = TrainConfig(
            steps=60, learning_rate=0.2, seed=2, dev_eval_interval=5,
            load_best_dev=True,
        )
        result = train(task, cfg, mi_spec(n_subsets=4))
        evals = dict(result.transcript.dev_evals)
        assert result.dev_best_metric == max(evals.values())
        assert evals[result.dev_best_step] == result.dev_best_metric
        assert task.eval_metric(result.params, "dev") == pytest.approx(
            result.dev_best_metric
        )

        final_cfg = TrainConfig(
            steps=60, learning_rate=0.2, seed=2, dev_eval_interval=5,
            load_best_dev=False,
        )
        final_run = train(task, final_cfg, mi_spec(n_subsets=4))
        assert np.array_equal(final_run.params, final_run.final_params)
        assert np.array_equal(final_run.final_params, result.final_params)

    def test_snapshots(self, monkeypatch):
        # the public replay rebuilds every iterate of training bit for bit
        task = QuadraticTask(n_records=8, dim=4)
        cfg = TrainConfig(steps=10, seed=3, dev_eval_interval=5)
        result, trained = train_capturing_iterates(monkeypatch, task, cfg, mi_spec(n_subsets=4))
        thetas, directions = public_trajectory(result.transcript, task)
        assert thetas.shape == (len(trained) + 1, task.dim) == (11, task.dim)
        assert directions.shape == (10, 1, task.dim)
        assert thetas[3].tobytes() == trained[2].tobytes()
        assert thetas[-1].tobytes() == result.final_params.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(thetas[1:], trained))
        assert thetas[0].tobytes() == task.init_params().tobytes()
        assert directions[0, 0].tobytes() == helpers.direction_oracle(3, 1, 0, task.dim).tobytes()

    @pytest.mark.parametrize("train_kw, spec", [
        pytest.param({"lr_decay": 0.3}, mi_spec(), id="lr_decay"),
        pytest.param({"weight_decay": 0.7}, mi_spec(variant="paczero_zpl"), id="weight_decay"),
        pytest.param({"lr_decay": 0.2, "weight_decay": 0.4},
                     mi_spec(variant="k_aggregate", k=1), id="k1-both-decays"),
        pytest.param({"weight_decay": 0.5}, mi_spec(variant="k_aggregate", k=2), id="k2"),
        pytest.param({"lr_decay": 0.1, "weight_decay": 0.3},
                     mi_spec(variant="k_aggregate", k=3), id="k3"),
        pytest.param({"lr_decay": 0.2, "weight_decay": 0.6},
                     mi_spec(variant="surrogate", surrogate_mode="raw_full", mi_total=0.0),
                     id="surrogate-raw_full"),
    ])
    def test_array_trajectory_is_training_bit_for_bit(self, monkeypatch, train_kw, spec):
        # every golden case trains with lr_decay = weight_decay = 0, so the
        # decayed and multi-slot forms of the array recurrence are pinned here
        task = BlobsTask(n_records=24, seed=4)
        cfg = TrainConfig(steps=30, learning_rate=0.3, seed=6, dev_eval_interval=30, **train_kw)
        result, trained = train_capturing_iterates(monkeypatch, task, cfg, spec)
        thetas, directions = public_trajectory(result.transcript, task)
        assert thetas.shape == (31, task.dim)
        assert directions.shape == (30, spec.k, task.dim)
        assert thetas[0].tobytes() == task.init_params().tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(thetas[1:], trained))
        assert thetas[-1].tobytes() == result.final_params.tobytes()
        assert directions[-1, -1].tobytes() == helpers.direction_oracle(
            6, 30, spec.k - 1, task.dim).tobytes()
        if spec.variant == "surrogate":
            assert len({rec.y for rec in result.transcript.records} - {-1.0, 1.0}) > 1
        else:
            # an MI run's noisy releases are replayed; a ZPL run releases none
            noisy = [rec.branch == "disagreement" for rec in result.transcript.records]
            assert any(noisy) == (spec.bit_rule() == "mi")
            probs = replay_posterior(result.transcript, result.design, task)
            assert probs.tobytes() == result.final_posterior.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lr_decay", [0.0, 0.25])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.4])
    def test_array_trajectory_is_the_stepwise_rule(self, weight_decay, lr_decay, k):
        # the running difference (no weight decay) and the decayed loop
        # against the update rule taken one step at a time, bit for bit
        task = BlobsTask(n_records=16, seed=5)
        cfg = TrainConfig(steps=40, learning_rate=0.3, seed=8, dev_eval_interval=40,
                          lr_decay=lr_decay, weight_decay=weight_decay)
        spec = mi_spec(variant="k_aggregate", k=k) if k > 1 else mi_spec()
        transcript = train(task, cfg, spec).transcript
        thetas, _ = public_trajectory(transcript, task)
        reference = helpers.stepwise_trajectory(transcript, task.init_params())
        assert thetas.tobytes() == reference.tobytes()

    def test_k2_averages_slot_updates(self):
        task = QuadraticTask(n_records=16, dim=6, seed=8, identical_targets=True)
        cfg = TrainConfig(steps=1, learning_rate=0.1, seed=21, dev_eval_interval=1)
        spec = MechanismSpec(
            variant="k_aggregate", inner_variant="paczero_mi", mi_total=0.3,
            k=2, n_subsets=8, clip=1.0,
        )
        result = train(task, cfg, spec)
        assert len(result.transcript.records) == 2
        assert {r.slot for r in result.transcript.records} == {0, 1}
        theta0 = task.init_params()
        moved = np.zeros(task.dim)
        for rec in result.transcript.records:
            z = helpers.direction_oracle(21, 1, rec.slot, task.dim)
            moved += rec.y * z
        expected = theta0 - 0.1 * moved / 2.0
        assert result.final_params == pytest.approx(expected, abs=1e-12)

    def test_transcript_counters(self):
        task = BlobsTask(n_records=16, seed=6)
        cfg = TrainConfig(steps=40, seed=4, dev_eval_interval=10)
        result = train(task, cfg, mi_spec())
        tr = result.transcript
        assert tr.total_bits == 40
        assert tr.unanimity_bits == sum(
            1 for r in tr.records if r.branch == BRANCH_UNANIMITY
        )
        assert tr.free_fraction() == tr.unanimity_bits / tr.total_bits
        assert tr.cum_mi <= 0.3 + 1e-15
        assert tr.header.t_total == 40
        assert tr.header.mechanism.variant == "paczero_mi"

    def test_mismatched_design_rejected(self):
        task = BlobsTask(n_records=16, seed=6)
        design = build_balanced_design(32, 8, seed=1)
        with pytest.raises(ValueError):
            train(task, TrainConfig(steps=5, seed=0), mi_spec(), design=design)

    def test_surrogate_hides_internal_state(self):
        task = BlobsTask(n_records=16, seed=6)
        cfg = TrainConfig(steps=10, seed=4, dev_eval_interval=5)
        spec = MechanismSpec(
            variant="surrogate", surrogate_mode="quant_full", n_subsets=8, clip=1.0
        )
        result = train(task, cfg, spec)
        assert result.final_posterior is None
        assert result.transcript.cum_mi == 0.0


class TestBlobsSampler:
    """The block sampler against ``helpers.loop_blobs_sample``, one draw at
    a time: the same samples bit for bit, or the same fault."""

    @staticmethod
    def geometry(seed, input_dim, **params) -> BlobsTask:
        # the fields _sample reads, without the constructor's own sampling
        task = object.__new__(BlobsTask)
        vars(task).update(seed=seed, input_dim=input_dim, **params)
        seq = np.random.SeedSequence(seed, spawn_key=(10,))
        g = np.random.default_rng(seq).standard_normal(input_dim)
        task.axis = g / np.linalg.norm(g)
        return task

    @staticmethod
    def outcome(sample, task, count, split):
        try:
            xs, labels = sample(task, count, split)
        except ValueError as exc:
            return str(exc)
        return xs.tobytes(), labels.tobytes()

    def assert_same(self, task, count, split):
        block = self.outcome(BlobsTask._sample, task, count, split)
        assert block == self.outcome(helpers.loop_blobs_sample, task, count, split)
        return block

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**40), input_dim=st.integers(1, 24), count=st.integers(1, 80),
        split=st.integers(0, 2), half=st.floats(0.05, 5.0), share=st.floats(0.5, 1.0),
        axis_noise=st.floats(-4.0, 4.0), perp_noise=st.floats(0.0, 1e3),
    )
    def test_block_sampler_is_the_loop(
        self, seed, input_dim, count, split, half, share, axis_noise, perp_noise
    ):
        # a margin up to half the separation rejects up to about half the draws
        task = self.geometry(seed, input_dim, separation=2.0 * half, margin=half * share,
                             axis_noise=axis_noise, perp_noise=perp_noise)
        self.assert_same(task, count, split)

    @pytest.mark.parametrize("axis_noise, sampled", [
        (1e-16, True), (3e-17, True), (2e-17, True), (1.5e-17, False),
    ])
    def test_heavy_rejection(self, axis_noise, sampled):
        # 0.5 * |axis|^2 rounds below the margin 0.5 here, so a draw clears it
        # only when its axis noise makes up the rounding: about 1 in 3 of the
        # draws at 1e-16 down to 1 in 70 at 2e-17 (9,172 draws in 142 blocks),
        # and at 1.5e-17 some sample takes more than 1000
        task = self.geometry(0, 10, separation=1.0, margin=0.5, axis_noise=axis_noise,
                             perp_noise=0.0)
        outcome = self.assert_same(task, 128, 0)
        assert isinstance(outcome, tuple) == sampled
        if not sampled:
            assert outcome == "no sample cleared margin 0.5 in 1000 draws"

    @pytest.mark.parametrize("params, message", [
        ({"axis_noise": 0.0, "perp_noise": 0.0},
         "no sample cleared margin 0.5 in 1000 draws"),
        ({"axis_noise": 0.3, "perp_noise": 1e308},
         "blobs: separation 1.0, axis_noise 0.3 and perp_noise 1e+308 give a non-finite sample"),
    ], ids=["flat", "overflow"])
    def test_faults(self, params, message):
        # flat: each projection is 0.5 * |axis|^2, which rounds below 0.5 here
        task = self.geometry(0, 10, separation=1.0, margin=0.5, **params)
        assert self.assert_same(task, 16, 1) == message

    def test_draw_limit_is_exact(self, monkeypatch):
        # axis noise alone decides the side here, so each draw clears the
        # margin about half the time; the smallest limit under which the loop
        # takes all 4 samples finds split streams whose slowest sample clears
        # on exactly draw L, and on exactly draw L + 1
        limit, count = 4, 4
        task = self.geometry(0, 3, separation=1.0, margin=0.5, axis_noise=1.0,
                             perp_noise=0.0)

        def cleared(seed, draws):
            monkeypatch.setattr(tasks, "_MAX_DRAWS", draws)
            task.seed = seed
            return isinstance(self.outcome(helpers.loop_blobs_sample, task, count, 0), tuple)

        def slowest(seed):  # the draws of its slowest sample, or limit + 2 for more
            return next((d for d in range(1, limit + 2) if cleared(seed, d)), limit + 2)

        seeds = {slowest(seed): seed for seed in reversed(range(200))}
        monkeypatch.setattr(tasks, "_MAX_DRAWS", limit)
        task.seed = seeds[limit]
        assert isinstance(self.assert_same(task, count, 0), tuple)
        task.seed = seeds[limit + 1]
        assert self.assert_same(task, count, 0) == f"no sample cleared margin 0.5 in {limit} draws"

    def test_wide_inputs_take_one_draw_a_block(self):
        # past 2**16 inputs a block holds one draw
        task = self.geometry(2, 2**16 + 3, separation=3.0, margin=0.5, axis_noise=0.3,
                             perp_noise=1.5)
        self.assert_same(task, 3, 2)


class TestTasks:
    @pytest.mark.parametrize("rows", [None, 3])
    def test_xor_losses_are_the_out_of_place_expression(self, rows):
        # the hidden layer is built in place, by the same ufuncs in the same
        # order as this expression, so every loss keeps its bits
        task = XorMlpTask(n_records=32, seed=2)
        d, h = task.input_dim, task.hidden
        thetas = np.random.default_rng(3).standard_normal((rows or 1, task.dim))
        if rows is None:
            thetas = thetas[0]
        w1 = thetas[..., : d * h].reshape(thetas.shape[:-1] + (d, h))
        hidden = np.tanh(np.matmul(task.x_train, w1) + thetas[..., None, d * h : d * h + h])
        out = np.matmul(hidden, thetas[..., d * h + h : d * h + 2 * h, None])[..., 0]
        expected = np.logaddexp(0.0, -task.y_train * (out + thetas[..., -1:]))
        assert _int_bits(task.per_sample_losses(thetas)) == _int_bits(expected)

    @pytest.mark.parametrize("name", ["blobs", "xor_mlp"])
    @pytest.mark.parametrize("n_records", [16, 128])
    def test_eval_metric_is_the_mean_of_matches(self, name, n_records):
        # np.add.reduce in float64 and one true divide by the size are the
        # operations np.mean takes on a boolean array, bit for bit
        task = make_task(name, n_records=n_records, seed=n_records)
        rng = np.random.default_rng(n_records)
        for scale in (0.0, 0.1, 1.0, 10.0):
            theta = scale * rng.standard_normal(task.dim)
            for split in ("dev", "test"):
                xs, ys = task._split(split)
                if name == "blobs":
                    scores = xs @ theta[:-1] + theta[-1]
                else:
                    scores = task._forward(theta, xs)
                expected = float(np.mean(np.where(scores >= 0.0, 1.0, -1.0) == ys))
                assert task.eval_metric(theta, split).hex() == expected.hex()

    def test_make_task_dispatch(self):
        assert isinstance(make_task("blobs", n_records=16), BlobsTask)
        assert isinstance(make_task("xor_mlp", n_records=16), XorMlpTask)
        assert isinstance(make_task("quadratic", n_records=8), QuadraticTask)
        with pytest.raises(ValueError):
            make_task("mnist")

    def test_blobs_shapes_and_metric_range(self):
        task = BlobsTask(n_records=32, seed=1)
        assert task.x_train.shape == (32, task.dim - 1)
        assert set(np.unique(task.y_train)) <= {-1.0, 1.0}
        theta = np.zeros(task.dim)
        for split in ("dev", "test"):
            assert 0.0 <= task.eval_metric(theta, split) <= 1.0

    def test_blobs_record_count_constraint(self):
        with pytest.raises(ValueError):
            BlobsTask(n_records=30)

    def test_blobs_is_learnable_with_plain_gradients(self):
        task = BlobsTask(n_records=32, seed=2)
        theta = task.init_params()
        for _ in range(300):
            grad = np.zeros(task.dim)
            for i in range(task.n_records):
                m = task.y_train[i] * (
                    theta[:-1] @ task.x_train[i] + theta[-1]
                )
                coef = -task.y_train[i] / (1.0 + np.exp(m))
                grad += coef * np.append(task.x_train[i], 1.0)
            theta -= 0.1 * grad / task.n_records
        assert task.eval_metric(theta, "test") >= 0.9

    def test_quadratic_identical_targets(self):
        task = QuadraticTask(n_records=6, dim=3, identical_targets=True)
        assert np.ptp(task.targets, axis=0) == pytest.approx(np.zeros(3))

    def test_xor_not_linearly_separable(self):
        task = XorMlpTask(n_records=32, seed=1)
        assert task.dim > 3  # needs a hidden layer
        assert 0.0 <= task.eval_metric(task.init_params(), "dev") <= 1.0

    def test_theta_shape_check(self):
        task = QuadraticTask(n_records=4, dim=2)
        with pytest.raises(ValueError):
            task.per_sample_losses(np.zeros(3))
