import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paczero import mechanism
from paczero.binary_channel import invert_channel_mi
from paczero.mechanism import (
    BRANCH_COIN,
    BRANCH_DISAGREEMENT,
    BRANCH_SURROGATE,
    BRANCH_UNANIMITY,
    BudgetLedger,
    DesignError,
    TAU_DEFAULT,
    MechanismSpec,
    Posterior,
    ReleaseMechanism,
    StepRecord,
    SubsetDesign,
    agreed_sign,
    agreement_probability,
    build_balanced_design,
    subset_signs,
    surrogate_release,
)
import helpers


def posterior_from(probs) -> Posterior:
    return Posterior(np.log(np.asarray(probs, dtype=float)))


def two_subset_design() -> SubsetDesign:
    # records 0,1 -> S1; records 2,3 -> S2; each record in exactly M/2 = 1
    membership = np.array(
        [[True, False], [True, False], [False, True], [False, True]]
    )
    return SubsetDesign(membership=membership, seed=0)


def halves_design(n_subsets: int) -> SubsetDesign:
    """Two records, one in the first half of the subsets, one in the rest."""
    first = np.arange(n_subsets) < n_subsets // 2
    return SubsetDesign(membership=np.array([first, ~first]), seed=0)


# ties, signed zeros and values that cancel exactly ...
EDGE_SCALARS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 0.2, -0.3, 3.0, -3.0, 1e-300, -1e-300)
# ... and magnitudes whose sum's sign depends on the order it is taken in
# (1e16 + 1 rounds to 1e16, but 1e16 - 1e16 + 1 is 1)
ORDER_SCALARS = (1e16, -1e16, 1.0, -1.0, 3.0, -3.0, 0.0, -0.0)


@st.composite
def subset_designs(draw, one_size: bool = False) -> SubsetDesign:
    """A valid design with 2..130 records and an even 2..128 subsets (one
    record cannot fill every subset, so n = 1 admits no design).

    A random design gives each record a random half of the subsets and a
    second record the other half, so that no subset is empty; a one-size
    design pairs each random half of the records with its complement."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = draw(st.integers(1, 64))
    if one_size:
        n = 2 * draw(st.integers(1, 65))
        first = np.zeros((n, half), dtype=bool)
        for m in range(half):
            first[rng.permutation(n)[: n // 2], m] = True
        membership = np.concatenate([first, ~first], axis=1)[:, rng.permutation(2 * half)]
    else:
        n = draw(st.integers(2, 130))
        membership = np.zeros((n, 2 * half), dtype=bool)
        for i in range(n):
            membership[i, rng.permutation(2 * half)[:half]] = True
        membership[1] = ~membership[0]
        membership = membership[rng.permutation(n)]
    return SubsetDesign(membership=membership, seed=0)


@st.composite
def design_and_scalars(draw, one_size: bool = False):
    design = draw(subset_designs(one_size))
    value = draw(st.sampled_from([
        st.one_of(
            st.sampled_from(EDGE_SCALARS),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        st.sampled_from(EDGE_SCALARS),
        st.sampled_from(ORDER_SCALARS),
    ]))
    n = design.n_records
    scalars = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    clip = draw(st.sampled_from([math.inf, 1.0, 0.25, 1e16]))
    return design, scalars, clip


class TestDesign:
    def test_row_sums_are_half(self):
        for n, m in ((4, 4), (16, 8), (128, 128)):
            d = build_balanced_design(n, m, seed=1)
            assert d.membership.sum(axis=1).tolist() == [m // 2] * n

    def test_every_subset_nonempty(self):
        d = build_balanced_design(16, 8, seed=2)
        assert d.membership.sum(axis=0).min() >= 1

    def test_large_square_design_shape(self):
        d = build_balanced_design(128, 128, seed=3)
        assert d.membership.sum(axis=1).tolist() == [64] * 128
        assert d.membership.sum(axis=0).mean() == pytest.approx(64.0)

    def test_deterministic_given_seed(self):
        a = build_balanced_design(32, 8, seed=9)
        b = build_balanced_design(32, 8, seed=9)
        assert np.array_equal(a.membership, b.membership)
        assert a.content_hash() == b.content_hash()
        c = build_balanced_design(32, 8, seed=10)
        assert a.content_hash() != c.content_hash()

    def test_single_record_cannot_fill_two_subsets(self):
        # N=1, M=2: the lone record occupies one subset, the other is always
        # empty, so resampling is exhausted
        with pytest.raises(DesignError):
            build_balanced_design(1, 2, seed=0)
        assert issubclass(DesignError, ValueError)  # reported, not a traceback

    def test_odd_subset_count_rejected(self):
        with pytest.raises(ValueError):
            build_balanced_design(8, 3, seed=0)
        with pytest.raises(ValueError):
            build_balanced_design(8, 0, seed=0)

    def test_invalid_membership_rejected(self):
        with pytest.raises(ValueError):
            SubsetDesign(membership=np.array([[True, False], [True, True]]), seed=0)

    @pytest.mark.parametrize("membership, match", [
        (np.array([True, False]), "2-d boolean"),
        (np.array([[1, 0], [0, 1]]), "2-d boolean"),
        (np.zeros((0, 2), dtype=bool), "at least one record"),
        (np.array([[True], [True]]), "even and >= 2, got 1"),
        (np.array([[True, False, True, False], [True, False, False, True]]), "empty subset"),
    ], ids=["1-d", "integer", "no-records", "one-subset", "empty-subset"])
    def test_malformed_membership_named(self, membership, match):
        with pytest.raises(ValueError, match=match):
            SubsetDesign(membership=membership, seed=0)

    @pytest.mark.parametrize("n_records, n_subsets, match", [
        (0, 2, "need at least one record"),
        (2**20, 32, "n_records \\* n_subsets must be <= 16777216, got 33554432"),
        (1, 2**40, "n_records \\* n_subsets must be <= 16777216, got 1099511627776"),
    ], ids=["no-records", "too-many-cells", "256-tib"])
    def test_design_sizes_rejected(self, n_records, n_subsets, match):
        # raised before any array of the design's size is drawn
        with pytest.raises(ValueError, match=match):
            build_balanced_design(n_records, n_subsets, seed=0)

    def test_subset_members(self):
        d = two_subset_design()
        assert d.subset_members(0).tolist() == [0, 1]
        assert d.subset_members(1).tolist() == [2, 3]

    def test_weights_are_membership_built_once(self):
        for design in (two_subset_design(), build_balanced_design(128, 128, seed=3)):
            w = design.weights
            assert w is design.weights
            assert w.dtype == np.float64 and np.array_equal(w, design.membership)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0] = 2.0


class TestPosterior:
    def test_uniform(self):
        p = Posterior.uniform(8)
        assert p.probabilities() == pytest.approx(np.full(8, 0.125), abs=1e-15)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="need at least one candidate"):
            Posterior.uniform(0)

    def test_update_conserves_mass(self):
        p = Posterior.uniform(4)
        signs = np.array([1, -1, 1, -1])
        p2 = p.updated_by_observation(0.4, signs, 0.7)
        assert p2.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(p2.log_weights))

    def test_update_moves_toward_matching_signs(self):
        p = Posterior.uniform(2)
        p2 = p.updated_by_observation(0.9, np.array([1, -1]), 0.5)
        probs = p2.probabilities()
        assert probs[0] > 0.5 > probs[1]

    def test_symmetric_observation_is_neutral(self):
        # y_tilde = 0 sits at equal distance from both signs
        p = posterior_from([0.5, 0.5])
        p2 = p.updated_by_observation(0.0, np.array([1, -1]), 0.3)
        assert p2.probabilities() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_log_space_survives_extreme_ratios(self):
        p = Posterior.uniform(2)
        p2 = p.updated_by_observation(1.0, np.array([1, -1]), 1e-3)
        probs = p2.probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert not np.any(np.isnan(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=5.0),
    )
    def test_update_conservation_property(self, raw, y_tilde, sigma):
        weights = np.asarray(raw) / np.sum(raw)
        p = posterior_from(weights)
        signs = np.where(np.arange(len(raw)) % 2 == 0, 1, -1)
        p2 = p.updated_by_observation(y_tilde, signs, sigma)
        assert p2.probabilities().sum() == pytest.approx(1.0, abs=1e-12)
        assert not np.any(np.isnan(p2.probabilities()))

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            Posterior.uniform(2).updated_by_observation(0.1, np.array([1, -1]), 0.0)

    # (y_tilde, sigma) pairs that no Gaussian observation can produce
    BAD_OBSERVATIONS = {
        "sigma_nan": (0.1, math.nan),
        "sigma_inf": (0.1, math.inf),
        "sigma_negative": (0.1, -0.5),
        "sigma_zero": (0.1, 0.0),
        "sigma_minus_zero": (0.1, -0.0),
        "y_tilde_nan": (math.nan, 0.5),
        "y_tilde_inf": (math.inf, 0.5),
        "y_tilde_minus_inf": (-math.inf, 0.5),
    }

    @pytest.mark.parametrize("case", sorted(BAD_OBSERVATIONS))
    def test_bad_observation_rejected(self, case):
        # one observation, as Python floats or NumPy scalars, fails as the
        # block of one fails, with its text
        signs = np.array([1, -1])
        for scalar in (float, np.float64):
            y_tilde, sigma = map(scalar, self.BAD_OBSERVATIONS[case])
            with pytest.raises(ValueError, match="finite") as one:
                Posterior.uniform(2).updated_by_observation(y_tilde, signs, sigma)
            with pytest.raises(ValueError) as block:
                Posterior.uniform(2).updated_by_observation(
                    np.array([y_tilde]), signs[None], np.array([sigma])
                )
            assert str(one.value) == str(block.value) == (
                "observation update needs finite y_tilde and finite sigma > 0, "
                f"got y_tilde={np.array([y_tilde])}, sigma={np.array([sigma])}"
            )

    @pytest.mark.parametrize("signs_shape", [(3,), (1,), (), (1, 2), (2, 2)])
    def test_one_observation_sign_shape_mismatch_rejected(self, signs_shape):
        with pytest.raises(ValueError) as exc_info:
            Posterior.uniform(2).updated_by_observation(
                0.3, np.ones(signs_shape, dtype=int), 0.5
            )
        assert str(exc_info.value) == (
            "expected equal-length y_tilde and sigma and a (B, 2) sign block, "
            f"got (1,), (1,) and {(1,) + signs_shape}"
        )

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_one_observation_equals_block_of_one(self, n):
        # y_tilde near every sign and sigma from 1e-3 to 1e6, the posterior
        # carried forward so that it sharpens; Python floats and NumPy
        # scalars take the direct path, and other sign dtypes the block's
        rng = np.random.default_rng(n)
        posterior = posterior_from(rng.dirichlet(np.ones(n)))
        for _ in range(100):
            signs = np.where(rng.random(n) < 0.5, 1, -1)
            sigma = float(10.0 ** rng.uniform(-3.0, 6.0))
            y_tilde = float(signs[rng.integers(n)] + sigma * rng.standard_normal())
            block = posterior.updated_by_observation(
                np.array([y_tilde]), signs[None], np.array([sigma])
            )
            for y, s in ((y_tilde, sigma), (np.float64(y_tilde), np.float64(sigma))):
                for dtype in (np.int64, np.int8, np.float64):
                    one = posterior.updated_by_observation(y, signs.astype(dtype), s)
                    assert one.log_weights.tobytes() == block.log_weights.tobytes()
            posterior = block

    @pytest.mark.parametrize("case", sorted(BAD_OBSERVATIONS))
    def test_bad_observation_rejected_in_a_block(self, case):
        # the bad observation comes last, after two good ones
        y_tilde, sigma = self.BAD_OBSERVATIONS[case]
        signs = np.array([[1, -1], [-1, 1], [1, -1]])
        with pytest.raises(ValueError, match="finite"):
            Posterior.uniform(2).updated_by_observation(
                np.array([0.3, -0.2, y_tilde]), signs, np.array([0.5, 0.7, sigma])
            )

    @pytest.mark.parametrize(
        "y_shape, sigma_shape, signs_shape",
        [
            ((3,), (2,), (3, 4)), ((3,), (3,), (3, 5)), ((3,), (3,), (2, 4)),
            ((1, 3), (1, 3), (3, 4)),
        ],
    )
    def test_block_shape_mismatch_rejected(self, y_shape, sigma_shape, signs_shape):
        with pytest.raises(ValueError, match="sign block"):
            Posterior.uniform(4).updated_by_observation(
                np.zeros(y_shape), np.ones(signs_shape, dtype=int), np.ones(sigma_shape)
            )

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_block_fold_equals_step_fold(self, rows):
        rng = np.random.default_rng(rows)
        n = 128
        start = posterior_from(rng.dirichlet(np.ones(n)))
        signs = np.where(rng.random((rows, n)) < 0.5, 1, -1)
        sigmas = 10.0 ** rng.uniform(-1.5, 1.5, rows)
        secret = rng.integers(n)
        y_tildes = signs[:, secret] + sigmas * rng.standard_normal(rows)
        stepped = start
        for y_tilde, row, sigma in zip(y_tildes.tolist(), signs, sigmas.tolist()):
            stepped = stepped.updated_by_observation(y_tilde, row, sigma)
        folded = start.updated_by_observation(y_tildes, signs, sigmas)
        assert folded.log_weights.tobytes() == stepped.log_weights.tobytes()

    def test_empty_block_keeps_the_posterior(self):
        p = posterior_from([0.25, 0.75])
        folded = p.updated_by_observation(np.empty(0), np.empty((0, 2), dtype=int), np.empty(0))
        assert folded.log_weights.tobytes() == p.log_weights.tobytes()


class TestSubsetSigns:
    def test_hand_case_with_clip(self):
        # scalars [1, -3, 2, 2], clip 2: means [(1-2)/2, (2+2)/2] = [-0.5, 2]
        d = two_subset_design()
        signs = subset_signs(np.array([1.0, -3.0, 2.0, 2.0]), d, 2.0)
        assert signs.tolist() == [-1, 1]

    def test_all_positive(self):
        d = two_subset_design()
        assert subset_signs(np.full(4, 0.5), d, math.inf).tolist() == [1, 1]

    def test_exact_zero_mean_maps_to_plus(self):
        d = two_subset_design()
        signs = subset_signs(np.array([1.0, -1.0, -2.0, -2.0]), d, math.inf)
        assert signs.tolist() == [1, -1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subset_signs(np.zeros(3), two_subset_design(), 1.0)

    # (scalars, subsets, clip, subsets no rounding bound can certify, subsets
    # the product must certify); each record sits in half of the subsets
    FALLBACK_CASES = {
        # exact sum 3 against an absolute sum of 2e16
        "near_cancel": ([1e16, 3.0, -1e16, 2.0], [[0, 1, 2], [3]], math.inf, {0}, {1}),
        # exact sum +1, but summed in index order it is -1
        "order_dependent": (
            [1e16, 1.0, 1.0, -1e16, -1.0, -3.0], [[0, 1, 2, 3, 4], [5]], math.inf,
            {0}, {1},
        ),
        "zeros": ([0.0, -0.0, 0.0], [[0, 1], [2]], 1.0, {0, 1}, set()),
        # -5e-324 / 2 rounds to -0.0, so that subset's sign is +1
        "tiny": (
            [-5e-324, 0.0, 1e-300, -1e-300, -1e-300],
            [[0, 1], [2, 3, 4], [3, 4], [0, 1, 2]], 1.0, {0, 1, 3}, {2},
        ),
        # inf * 0 is NaN, so non-members' infinities reach the product too
        "inf": ([math.inf, -math.inf, 1.0, 2.0], [[0, 1], [2, 3]], math.inf, {0}, set()),
        "inf_member": ([math.inf, 1.0, -2.0, 3.0], [[0, 1], [2, 3]], math.inf, {0}, set()),
        "nan": ([math.nan, 1.0, 2.0, 3.0], [[0, 1], [2, 3]], 1.0, {0}, set()),
    }

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
    def test_uncertified_subsets_are_summed_one_at_a_time(self, case, monkeypatch):
        scalars, subsets, clip, uncertified, certified = self.FALLBACK_CASES[case]
        membership = np.zeros((len(scalars), len(subsets)), dtype=bool)
        for m, members in enumerate(subsets):
            membership[members, m] = True
        design = SubsetDesign(membership=membership, seed=0)
        summed = []
        subset_members = SubsetDesign.subset_members
        monkeypatch.setattr(
            SubsetDesign, "subset_members",
            lambda self, m: summed.append(int(m)) or subset_members(self, m),
        )
        signs = subset_signs(np.array(scalars), design, clip)
        expected = helpers.loop_subset_signs(np.array(scalars), membership, clip)
        assert signs.tolist() == expected.tolist()
        assert uncertified <= set(summed) and not certified & set(summed)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(design_and_scalars(), design_and_scalars(one_size=True)))
    def test_equals_per_subset_loop(self, case):
        design, scalars, clip = case
        expected = helpers.loop_subset_signs(scalars, design.membership, clip)
        assert subset_signs(scalars, design, clip).tolist() == expected.tolist()

    # six records, four subsets, each record in two: {0,1,2} {3,4,5} {0,1,3} {2,4,5}
    BLOCK_SUBSETS = [[0, 1, 2], [3, 4, 5], [0, 1, 3], [2, 4, 5]]
    BLOCK_ROWS = {
        "zeros": [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
        "ties": [1.0, -1.0, 0.0, 2.0, -2.0, 0.0],
        "cancellation": [1e16, 3.0, -1e16, 2.0, 1.0, -3.0],
        "order_dependent": [1e16, 1.0, -1e16, -1.0, 1.0, 0.5],
        "floor": [1e-300, -1e-300, 5e-324, -5e-324, 2e-300, -1e-300],
        "huge": [2.0**1020, -(2.0**1020), 2.0**1019, 2.0**1023, 2.0**1023, -(2.0**1023)],
        "huge_cancel": [2.0**1021, 1.0, -(2.0**1021), -(2.0**1020), 2.0**1020, -1.0],
        "inf": [math.inf, -math.inf, 1.0, 2.0, -3.0, 4.0],
        "nan": [math.nan, 1.0, 2.0, -3.0, 0.5, 0.25],
        "plain": [0.3, -0.7, 0.2, 0.9, -0.1, -0.4],
    }

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_block_equals_stacked_rows(self, monkeypatch):
        membership = np.zeros((6, 4), dtype=bool)
        for m, members in enumerate(self.BLOCK_SUBSETS):
            membership[members, m] = True
        design = SubsetDesign(membership=membership, seed=0)
        block = np.array(list(self.BLOCK_ROWS.values()))
        rows = [subset_signs(row, design, math.inf) for row in block]
        summed = []
        subset_members = SubsetDesign.subset_members
        monkeypatch.setattr(
            SubsetDesign, "subset_members",
            lambda self, m: summed.append(int(m)) or subset_members(self, m),
        )
        signs = subset_signs(block, design, math.inf)
        assert signs.shape == (len(self.BLOCK_ROWS), 4)
        assert signs.tolist() == [row.tolist() for row in rows]
        assert signs.tolist() == [
            helpers.loop_subset_signs(row, membership, math.inf).tolist() for row in block
        ]
        # every named fault row forced the exact fallback somewhere
        assert len(summed) >= len(self.BLOCK_ROWS) - 1
        clipped = subset_signs(block, design, 1.0)
        assert clipped.tolist() == [subset_signs(r, design, 1.0).tolist() for r in block]

    # one row each: every subset certified, a NaN, an infinity of each
    # sign, negative and positive zeros, and sums that nearly cancel
    SPECIAL_ROWS = {
        "certified": lambda row: row,
        "nan": lambda row: np.where(np.arange(row.size) == 3, math.nan, row),
        "inf": lambda row: np.where(np.arange(row.size) == 5, math.inf, row),
        "minus_inf": lambda row: np.where(np.arange(row.size) == 7, -math.inf, row),
        "zeros": lambda row: np.where(np.arange(row.size) % 3 == 0, 0.0, -0.0),
        "minus_zeros": lambda row: np.where(row < 0.0, -0.0, row),
        "near_cancel": lambda row: np.where(
            np.arange(row.size) % 2 == 0, 1e16, -1e16
        ) + np.where(np.arange(row.size) < 4, row, 0.0),
    }

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("clip", [math.inf, 1.0, 1e16])
    @pytest.mark.parametrize("case", sorted(SPECIAL_ROWS))
    def test_special_rows_equal_per_subset_loop(self, case, clip, monkeypatch):
        design = build_balanced_design(32, 8, seed=5)
        row = self.SPECIAL_ROWS[case](np.random.default_rng(5).standard_normal(32))
        summed = []
        subset_members = SubsetDesign.subset_members
        monkeypatch.setattr(
            SubsetDesign, "subset_members",
            lambda self, m: summed.append(int(m)) or subset_members(self, m),
        )
        signs = subset_signs(row, design, clip)
        expected = helpers.loop_subset_signs(row, design.membership, clip)
        assert signs.tolist() == expected.tolist()
        if case == "certified":  # returns before the per-subset fallback
            assert summed == []
        block = np.stack([row, -row, np.ones(32)])
        assert subset_signs(block, design, clip).tolist() == [
            helpers.loop_subset_signs(r, design.membership, clip).tolist() for r in block
        ]

    def test_block_of_one_row_and_of_none(self):
        design = build_balanced_design(32, 8, seed=4)
        scalars = np.random.default_rng(4).standard_normal(32)
        one = subset_signs(scalars[None, :], design, 1.0)
        assert one.shape == (1, 8)
        assert one[0].tolist() == subset_signs(scalars, design, 1.0).tolist()
        assert subset_signs(np.empty((0, 32)), design, 1.0).shape == (0, 8)

    @pytest.mark.parametrize("shape", [(2, 31), (2, 2, 32), ()])
    def test_block_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="scalars per row"):
            subset_signs(np.zeros(shape), build_balanced_design(32, 8, seed=4), 1.0)


class TestBranching:
    def test_agreement_probability_hand_case(self):
        p = posterior_from([0.7, 0.2, 0.1])
        q = agreement_probability(p, np.array([1, -1, 1]))
        assert q == pytest.approx(0.8, abs=1e-12)

    def test_agreement_extremes(self):
        p = Posterior.uniform(4)
        assert agreement_probability(p, np.array([1, 1, 1, 1])) == 1.0
        assert agreement_probability(p, np.array([1, 1, -1, -1])) == 0.5

    def test_agreement_shape_mismatch(self):
        with pytest.raises(ValueError):
            agreement_probability(Posterior.uniform(3), np.array([1, -1]))

    def test_unanimity_tolerance(self):
        def unanimous(q_plus, tau=TAU_DEFAULT):
            return decide(make_ledger(1.0, 1, tau=tau), 1, q_plus)[1] == BRANCH_UNANIMITY

        assert unanimous(1.0)
        assert unanimous(0.0)
        assert not unanimous(0.5)
        assert unanimous(1.0 - 1e-13)  # inside the default 1e-12 band
        assert not unanimous(1.0 - 1e-11)
        assert unanimous(0.95, tau=0.1) and not unanimous(0.85, tau=0.1)

    def test_ledger_takes_the_spec_tolerance(self):
        spec = MechanismSpec(variant="paczero_zpl", n_subsets=2, unanimity_tolerance=0.1)
        mech = ReleaseMechanism(
            spec, two_subset_design(), horizon=1, rng=np.random.default_rng(0),
            secret_index=0,
        )
        assert mech.ledger.tau == 0.1

    def test_agreed_sign(self):
        assert agreed_sign(0.99) == 1
        assert agreed_sign(0.5) == 1
        assert agreed_sign(0.01) == -1


def make_ledger(
    mi_total: float, horizon: int, k: int = 1, mi_spent: float = 0.0, tau: float = TAU_DEFAULT
) -> BudgetLedger:
    return BudgetLedger(mi_total, horizon, k, tau, mi_spent=mi_spent)


def decide(ledger: BudgetLedger, t: int, q_plus: float) -> tuple[float, str]:
    """First bit of step t under the walk the mechanism and validator share."""
    ledger.open_step(t)
    return ledger.decide(q_plus)


def allocate(ledger: BudgetLedger, t: int, q_plus: float) -> float:
    return decide(ledger, t, q_plus)[0]


def fixed_sign_mechanism(monkeypatch, signs, beta, rng, secret=0, horizon=1):
    """A mechanism whose every step sees the subset signs ``signs`` (a
    fake stands in for ``subset_signs``), with total budget ``beta`` (zero
    for ZPL)."""
    signs = np.asarray(signs)
    monkeypatch.setattr(mechanism, "subset_signs", lambda *_: signs)
    if beta > 0.0:
        spec = MechanismSpec(variant="paczero_mi", mi_total=beta, n_subsets=signs.size)
    else:
        spec = MechanismSpec(variant="paczero_zpl", n_subsets=signs.size)
    return ReleaseMechanism(
        spec, halves_design(signs.size), horizon=horizon, rng=rng, secret_index=secret
    )


@pytest.fixture
def release(monkeypatch):
    """One bit at allocation ``beta`` (zero for ZPL) from a one-step
    mechanism holding ``posterior``: the bit, the posterior after it, its
    record.  Below the entropy cap the step's allocation is ``beta``."""

    def release(posterior, signs, secret, beta, rng):
        mech = fixed_sign_mechanism(monkeypatch, signs, beta, rng, secret)
        mech.posterior = posterior
        (y,), (rec,) = mech.step(1, [np.zeros(2)])
        return y, mech.posterior, rec

    return release


class TestAdaptiveBudget:
    def test_first_step_allocation(self):
        ledger = make_ledger(0.68, 1000)
        beta = allocate(ledger, 1, 0.5)
        assert beta == pytest.approx(0.00068, abs=1e-15)

    def test_exhausted_budget_allocates_zero(self):
        ledger = make_ledger(0.1, 10, mi_spent=0.1)
        assert allocate(ledger, 5, 0.5) == 0.0

    def test_late_run_allocation(self):
        ledger = make_ledger(0.33, 1000, mi_spent=0.30)
        beta = allocate(ledger, 991, 0.9)
        # (0.33-0.30)/10, below the cap 0.999*h(0.9) = 0.3247578904...
        assert beta == pytest.approx(0.003, abs=1e-12)

    def test_entropy_cap_binds(self):
        ledger = make_ledger(10.0, 1)
        beta = allocate(ledger, 1, 0.9)
        assert beta == pytest.approx(0.999 * 0.3250829733914482, abs=1e-12)

    def test_step_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            allocate(make_ledger(1.0, 10), 11, 0.5)

    def test_k_way_split(self):
        ledger = make_ledger(0.4, 100, k=4)
        assert allocate(ledger, 1, 0.5) == 0.001

    def test_rounding_never_overspends(self):
        # 0.33 - 0.03 rounds up to 0.30000000000000004, and adding it back
        # to 0.03 lands one ulp above the budget; the bit steps down instead
        ledger = make_ledger(0.33, 10, mi_spent=0.03)
        assert ledger.remaining() == 0.30000000000000004
        assert 0.03 + ledger.remaining() > 0.33
        beta = allocate(ledger, 10, 0.5)
        assert 0.03 + beta <= 0.33
        assert beta == pytest.approx(0.3, abs=1e-15)

    def test_release_branch(self):
        # a one-step ledger allocates its whole budget to a contested bit
        assert decide(make_ledger(0.1, 1), 1, 1.0)[1] == BRANCH_UNANIMITY
        assert decide(make_ledger(0.0, 1), 1, 0.5) == (0.0, BRANCH_COIN)
        assert decide(make_ledger(1e-15, 1), 1, 0.5) == (1e-15, BRANCH_COIN)
        assert decide(make_ledger(1e-3, 1), 1, 0.5) == (1e-3, BRANCH_DISAGREEMENT)


class TestMiStep:
    def test_unanimity_is_free_and_deterministic(self, release):
        p = Posterior.uniform(4)
        signs = np.array([1, 1, 1, 1])
        for secret in range(4):
            rng = np.random.default_rng(0)
            y, p_next, rec = release(p, signs, secret, 0.05, rng)
            assert y == 1.0
            assert rec.branch == BRANCH_UNANIMITY
            assert rec.beta_used == 0.0
            assert rec.sigma is None and rec.y_tilde is None
            assert p_next is p

    def test_disagreement_calibrates_and_updates(self, release):
        p = Posterior.uniform(2)
        signs = np.array([1, -1])
        rng = np.random.default_rng(7)
        y, p_next, rec = release(p, signs, 0, 0.1, rng)
        assert rec.branch == BRANCH_DISAGREEMENT
        assert rec.beta_used == 0.1
        assert rec.sigma == pytest.approx(invert_channel_mi(0.5, 0.1), abs=0.0)
        assert y == (1.0 if rec.y_tilde >= 0.0 else -1.0)
        assert not np.allclose(p_next.probabilities(), p.probabilities())

    def test_exhausted_budget_degenerates_to_coin(self, release):
        p = Posterior.uniform(2)
        signs = np.array([1, -1])
        counts = 0
        for seed in range(200):
            y, p_next, rec = release(p, signs, 0, 0.0, np.random.default_rng(seed))
            assert rec.branch == BRANCH_COIN
            assert rec.beta_used == 0.0
            assert p_next is p
            counts += y > 0
        assert 60 < counts < 140

    def test_consumption_dichotomy(self, release):
        p = Posterior.uniform(8)
        rng = np.random.default_rng(3)
        sign_rng = np.random.default_rng(4)
        for trial in range(100):
            signs = np.where(sign_rng.random(8) < 0.5, -1, 1)
            beta = float(sign_rng.choice([0.0, 1e-16, 1e-3, 0.05]))
            y, p, rec = release(p, signs, int(sign_rng.integers(8)), beta, rng)
            assert rec.beta_used in (0.0, rec.beta_t)
            free = rec.branch in (BRANCH_UNANIMITY, BRANCH_COIN)
            assert (rec.beta_used == 0.0) == free

    def test_public_quantities_ignore_the_secret(self, release):
        p = posterior_from([0.4, 0.3, 0.2, 0.1])
        signs = np.array([1, -1, 1, -1])
        records = []
        for secret in range(4):
            _, _, rec = release(p, signs, secret, 0.02, np.random.default_rng(11))
            records.append(rec)
        assert len({r.q_plus for r in records}) == 1
        assert len({r.sigma for r in records}) == 1
        assert len({r.branch for r in records}) == 1
        assert len({r.beta_t for r in records}) == 1

    def test_release_carries_allocated_information(self):
        # the noised release must carry exactly the allocated information
        beta = 0.1
        sigma = invert_channel_mi(0.5, beta)
        est = helpers.density_ratio_mi(
            [0.5, 0.5], [1, -1], sigma, 100_000, seed=13
        )
        assert est == pytest.approx(beta, abs=3e-3)


class TestZplStep:
    def test_unanimity_branch_shared(self, release):
        p = Posterior.uniform(4)
        y, p_next, rec = release(
            p, np.array([-1, -1, -1, -1]), 2, 0.0, np.random.default_rng(0)
        )
        assert y == -1.0
        assert rec.branch == BRANCH_UNANIMITY
        assert rec.beta_used == 0.0
        assert p_next is p

    def test_disagreement_coin_is_fair_and_secret_free(self, monkeypatch):
        rng = np.random.default_rng(21)
        secret_rng = np.random.default_rng(22)
        signs = np.array([1, 1, -1, -1, 1, -1, 1, -1])
        n = 100_000
        mech = fixed_sign_mechanism(monkeypatch, signs, 0.0, rng, horizon=n)
        ys = np.empty(n)
        ss = np.empty(n)
        for i in range(n):
            secret = int(secret_rng.integers(8))
            mech.secret_index = secret  # a fresh secret for every draw
            (y,), (rec,) = mech.step(i + 1, [np.zeros(2)])
            assert rec.branch == BRANCH_COIN and rec.beta_used == 0.0
            ys[i] = y
            ss[i] = signs[secret]
        assert np.mean(ys > 0) == pytest.approx(0.5, abs=0.005)
        assert np.corrcoef(ys, ss)[0, 1] == pytest.approx(0.0, abs=0.01)

    def test_posterior_never_moves(self, release):
        p = Posterior.uniform(6)
        rng = np.random.default_rng(5)
        signs = np.array([1, -1, 1, -1, 1, -1])
        for _ in range(50):
            _, p, _ = release(p, signs, 3, 0.0, rng)
        assert p.probabilities() == pytest.approx(np.full(6, 1 / 6), abs=1e-15)


class TestSurrogate:
    def test_full_mean_hand_case(self):
        d = two_subset_design()
        rng = np.random.default_rng(0)
        scalars = np.array([1.0, -3.0, 2.0, 2.0])
        # clipped mean (1 - 2 + 2 + 2)/4 = 0.75
        assert surrogate_release("raw_full", scalars, d, 0, 2.0, rng) == 0.75
        assert surrogate_release("quant_full", scalars, d, 0, 2.0, rng) == 1.0

    def test_half_universe_reads_secret_subset(self):
        d = two_subset_design()
        rng = np.random.default_rng(0)
        scalars = np.array([1.0, -3.0, 2.0, 2.0])
        assert surrogate_release("raw_half", scalars, d, 0, 2.0, rng) == -0.5
        assert surrogate_release("quant_half", scalars, d, 0, 2.0, rng) == -1.0
        assert surrogate_release("raw_half", scalars, d, 1, 2.0, rng) == 2.0

    def test_all_equal_positive(self):
        d = two_subset_design()
        rng = np.random.default_rng(0)
        scalars = np.full(4, 0.3)
        assert surrogate_release("raw_full", scalars, d, 0, 1.0, rng) == pytest.approx(0.3)
        assert surrogate_release("quant_full", scalars, d, 0, 1.0, rng) == 1.0
        assert surrogate_release("quant_half", scalars, d, 0, 1.0, rng) == 1.0

    def test_random_sign_ignores_data(self):
        d = two_subset_design()
        ys_a = [
            surrogate_release(
                "random_sign", np.full(4, 9.0), d, 0, 1.0, np.random.default_rng(s)
            )
            for s in range(400)
        ]
        ys_b = [
            surrogate_release(
                "random_sign", np.full(4, -9.0), d, 1, 1.0, np.random.default_rng(s)
            )
            for s in range(400)
        ]
        assert ys_a == ys_b  # same coin stream, data never consulted
        assert 0.35 < np.mean(np.array(ys_a) > 0) < 0.65

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            surrogate_release(
                "raw_quarter", np.zeros(4), two_subset_design(), 0,
                1.0, np.random.default_rng(0),
            )


class TestKAggregate:
    @staticmethod
    def run(spec, seed, steps=30):
        """Releases and final posterior of one mechanism fed random scalars."""
        design = build_balanced_design(16, spec.n_subsets, seed=seed)
        mech = ReleaseMechanism(
            spec, design, horizon=steps, rng=np.random.default_rng(seed),
            secret_index=seed % spec.n_subsets,
        )
        data = np.random.default_rng(seed + 1)
        out = [mech.step(t, [data.standard_normal(16)]) for t in range(1, steps + 1)]
        return out, mech.posterior.log_weights

    def test_k1_bit_identical_to_base_mi(self):
        branches = set()
        for seed in range(12):
            m = (2, 4, 8)[seed % 3]
            budget = (1e-3, 0.05, 2.0)[seed // 4]
            base = MechanismSpec(variant="paczero_mi", mi_total=budget, n_subsets=m)
            agg = MechanismSpec(variant="k_aggregate", mi_total=budget, n_subsets=m, k=1)
            (steps_base, post_base), (steps_agg, post_agg) = (
                self.run(base, seed), self.run(agg, seed)
            )
            assert steps_agg == steps_base
            assert np.array_equal(post_agg, post_base)
            branches |= {r.branch for _, recs in steps_base for r in recs}
        assert branches == {BRANCH_UNANIMITY, BRANCH_DISAGREEMENT}

    def test_k1_bit_identical_to_base_zpl(self):
        for seed in range(6):
            base = MechanismSpec(variant="paczero_zpl", n_subsets=4)
            agg = MechanismSpec(
                variant="k_aggregate", n_subsets=4, k=1, inner_variant="paczero_zpl"
            )
            assert self.run(agg, seed)[0] == self.run(base, seed)[0]

    def test_k4_splits_budget_exactly(self):
        # the mechanism's own BudgetLedger(k=4) walk: a 0.004 step
        # allocation split over four contested bits
        spec = MechanismSpec(variant="k_aggregate", mi_total=0.4, n_subsets=2, k=4)
        mech = ReleaseMechanism(
            spec, two_subset_design(), horizon=100,
            rng=np.random.default_rng(2), secret_index=0,
        )
        assert (mech.ledger.horizon, mech.ledger.k) == (100, 4)
        _, recs = mech.step(1, [np.array([1.0, 1.0, -1.0, -1.0])] * 4)
        assert len(recs) == 4
        per_bit = 0.004 / 4
        for rec in recs:
            assert rec.branch == BRANCH_DISAGREEMENT
            assert rec.beta_t == per_bit
            assert rec.beta_used == per_bit
        assert mech.ledger.mi_spent == per_bit + per_bit + per_bit + per_bit
        assert recs[-1].cum_mi == mech.ledger.mi_spent

    def test_remaining_clamps_trailing_bits(self):
        # a 0.004 step allocation split four ways, with only 0.0015 of the
        # step left: the second bit gets the rest, the last two nothing
        ledger = make_ledger(1.0, 250, k=4)
        ledger.open_step(1)
        ledger._step_left = 0.0015  # what an open step's bits may still spend
        bits = []
        for slot in range(4):
            beta, branch = ledger.decide(0.5)
            ledger.charge(1, slot, branch, 0.5, 1.0, 1.0, 0.5, beta)
            bits.append((beta, branch))
        (first, _), (second, _), *last_two = bits
        assert first == 0.004 / 4
        assert second == max(0.0, 0.0015 - first)
        assert last_two == [(0.0, BRANCH_COIN)] * 2
        assert first + second <= 0.0015

    def test_unknown_inner_variant_rejected(self):
        for inner in ("surrogate", "paczero_dp"):
            with pytest.raises(ValueError):
                MechanismSpec(variant="k_aggregate", mi_total=0.1, k=2, inner_variant=inner)

    def test_empty_slot_list_rejected(self):
        spec = MechanismSpec(variant="k_aggregate", mi_total=0.1, n_subsets=2, k=2)
        mech = ReleaseMechanism(
            spec, two_subset_design(), horizon=10,
            rng=np.random.default_rng(0), secret_index=0,
        )
        with pytest.raises(ValueError):
            mech.step(1, [])
        assert mech.ledger == make_ledger(0.1, 10, k=2)


class TestMechanismSpec:
    def test_mi_variant_requires_budget(self):
        with pytest.raises(ValueError):
            MechanismSpec(variant="paczero_mi", mi_total=0.0)
        with pytest.raises(ValueError):
            MechanismSpec(variant="paczero_mi", mi_total=-0.1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            MechanismSpec(variant="paczero_dp", mi_total=0.1)

    def test_surrogate_requires_known_mode(self):
        with pytest.raises(ValueError):
            MechanismSpec(variant="surrogate")
        with pytest.raises(ValueError):
            MechanismSpec(variant="surrogate", surrogate_mode="raw_quarter")

    def test_k_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec(variant="k_aggregate", mi_total=0.1, k=0)

    @pytest.mark.parametrize("kw", [{"k": 2.0}, {"k": True}, {"n_subsets": 8.0}, {"n_subsets": True}])
    def test_integer_fields_reject_floats_and_bools(self, kw):
        with pytest.raises(ValueError, match="must be integers"):
            MechanismSpec(variant="k_aggregate", mi_total=0.1, **kw)

    def test_default_subset_counts(self):
        assert MechanismSpec(variant="paczero_mi", mi_total=0.1).resolved_subsets() == 128
        assert MechanismSpec(variant="paczero_zpl").resolved_subsets() == 126
        assert MechanismSpec(
            variant="paczero_mi", mi_total=0.1, n_subsets=8
        ).resolved_subsets() == 8

    def test_effective_budget(self):
        assert MechanismSpec(variant="paczero_mi", mi_total=0.1).effective_budget() == 0.1
        assert MechanismSpec(variant="paczero_zpl", mi_total=0.1).effective_budget() == 0.0
        assert MechanismSpec(
            variant="k_aggregate", mi_total=0.1, k=2, inner_variant="paczero_zpl"
        ).effective_budget() == 0.0
        assert MechanismSpec(
            variant="surrogate", surrogate_mode="raw_full", mi_total=0.1
        ).effective_budget() == 0.0

    def test_bit_rule(self):
        assert MechanismSpec(variant="paczero_mi", mi_total=0.1).bit_rule() == "mi"
        assert MechanismSpec(variant="paczero_zpl").bit_rule() == "zpl"
        assert MechanismSpec(
            variant="k_aggregate", mi_total=0.1, k=4, inner_variant="paczero_zpl"
        ).bit_rule() == "zpl"
        assert MechanismSpec(
            variant="surrogate", surrogate_mode="raw_full"
        ).bit_rule() == "surrogate"

    def test_clip_must_be_positive(self):
        with pytest.raises(ValueError):
            MechanismSpec(variant="paczero_zpl", clip=0.0)


class TestBudgetLedger:
    def test_charge_enforces_dichotomy(self):
        # the consumed budget is derived from the branch, never passed in:
        # only a noisy sign consumes its allocation
        for branch, sigma, y_tilde in (
            (BRANCH_DISAGREEMENT, 1.0, 0.5), (BRANCH_UNANIMITY, None, None),
            (BRANCH_COIN, None, None),
        ):
            ledger = make_ledger(1.0, 1)
            rec = ledger.charge(1, 0, branch, 0.5, sigma, 1.0, y_tilde, 0.1)
            assert rec.beta_t == 0.1
            assert rec.beta_used == (0.1 if branch == BRANCH_DISAGREEMENT else 0.0)
            assert rec.cum_mi == ledger.mi_spent == rec.beta_used

    def test_free_fraction(self):
        ledger = make_ledger(1.0, 1, k=3)
        records = [
            ledger.charge(1, 0, BRANCH_UNANIMITY, 1.0, None, 1.0, None, 0.0),
            ledger.charge(1, 1, BRANCH_DISAGREEMENT, 0.5, 1.0, 1.0, 0.5, 0.1),
            ledger.charge(1, 2, BRANCH_UNANIMITY, 1.0, None, 1.0, None, 0.0),
        ]
        # the counts the transcript's free fraction is taken from
        assert [rec.unanimity_count for rec in records] == [1, 1, 2]
        assert ledger.unanimity_bits == 2
        assert ledger.remaining() == pytest.approx(0.9)

    def test_charged_records_are_init_records(self):
        # each record the ledger charges equals the record of its own fields
        ledger = make_ledger(1.0, 2, k=2)
        records = [
            ledger.charge(1, 0, BRANCH_DISAGREEMENT, 0.25, 0.8, -1.0, -0.4, 0.1),
            ledger.charge(1, 1, BRANCH_UNANIMITY, 1.0, None, 1.0, None, 0.0),
            ledger.charge(2, 0, BRANCH_COIN, 0.5, None, 1.0, None, 0.0),
            ledger.charge(2, 1, BRANCH_SURROGATE, None, None, 0.3, None, 0.0),
        ]
        for rec in records:
            assert type(rec) is StepRecord and rec == StepRecord(*rec)


class SecretProbe:
    """Stands in for ``ReleaseMechanism.secret_index`` and counts its reads."""

    def __init__(self):
        self.reads = 0

    def __get__(self, mech, owner=None):
        if mech is None:
            return self
        self.reads += 1
        return mech.__dict__["_probed_secret"]

    def __set__(self, mech, value):
        mech.__dict__["_probed_secret"] = value


class TestReleaseMechanism:
    def make(self, variant="paczero_mi", **kw):
        spec_kw = {"n_subsets": 4, "clip": 1.0}
        if variant == "paczero_mi":
            spec_kw["mi_total"] = 0.1
        spec_kw.update(kw)
        spec = MechanismSpec(variant=variant, **spec_kw)
        design = build_balanced_design(16, 4, seed=1)
        rng = np.random.default_rng(0)
        return ReleaseMechanism(spec, design, horizon=10, rng=rng, secret_index=2)

    def test_validation_errors(self):
        spec = MechanismSpec(variant="paczero_mi", mi_total=0.1, n_subsets=4)
        design = build_balanced_design(16, 4, seed=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ReleaseMechanism(spec, design, horizon=0, rng=rng, secret_index=0)
        with pytest.raises(ValueError):
            ReleaseMechanism(spec, design, horizon=5, rng=rng, secret_index=4)
        mismatched = MechanismSpec(variant="paczero_mi", mi_total=0.1, n_subsets=8)
        with pytest.raises(ValueError):
            ReleaseMechanism(mismatched, design, horizon=5, rng=rng, secret_index=0)

    def test_slot_count_enforced(self):
        mech = self.make()
        for scalars in ([np.zeros(16), np.zeros(16)], []):
            with pytest.raises(ValueError):
                mech.step(1, scalars)

    def test_mi_run_charges_ledger(self):
        mech = self.make()
        rng = np.random.default_rng(99)
        records = []
        for t in range(1, 11):
            ys, recs = mech.step(t, [rng.standard_normal(16)])
            assert len(ys) == len(recs) == 1
            records += recs
        assert mech.ledger.mi_spent <= 0.1
        assert [rec.t for rec in records] == list(range(1, 11))
        assert records[-1].cum_mi == mech.ledger.mi_spent

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_agreement_probability_per_bit(self, monkeypatch, k):
        calls = []
        real = mechanism.agreement_probability
        monkeypatch.setattr(
            mechanism, "agreement_probability",
            lambda *args: calls.append(1) or real(*args),
        )
        if k == 1:
            mech = self.make()
        else:
            mech = self.make(variant="k_aggregate", mi_total=0.1, k=2)
        rng = np.random.default_rng(5)
        for t in range(1, 11):
            mech.step(t, [rng.standard_normal(16) for _ in range(k)])
        assert len(calls) == 10 * k

    @pytest.mark.parametrize("spec", [
        MechanismSpec(variant="paczero_mi", mi_total=0.5, n_subsets=4),
        MechanismSpec(variant="paczero_zpl", n_subsets=4),
        MechanismSpec(variant="k_aggregate", mi_total=0.5, n_subsets=4, k=2),
        MechanismSpec(variant="k_aggregate", n_subsets=4, k=2, inner_variant="paczero_zpl"),
    ], ids=["mi", "zpl", "k2_mi", "k2_zpl"])
    def test_secret_read_once_per_noisy_sign(self, monkeypatch, spec):
        # only a noisy sign reads the secret; a unanimity or coin bit never
        # does, so its release cannot depend on it
        probe = SecretProbe()
        monkeypatch.setattr(ReleaseMechanism, "secret_index", probe, raising=False)
        agreed, split = np.array([1, 1, 1, 1]), np.array([1, -1, 1, -1])
        monkeypatch.setattr(
            mechanism, "subset_signs", lambda scalars, *_: agreed if scalars[0] > 0 else split
        )
        mech = ReleaseMechanism(
            spec, build_balanced_design(16, 4, seed=1), horizon=20,
            rng=np.random.default_rng(0), secret_index=2,
        )
        branches = set()
        for t in range(1, 21):
            before = probe.reads
            _, recs = mech.step(t, [np.full(16, (-1.0) ** (t + s)) for s in range(spec.k)])
            noisy = [rec.branch == BRANCH_DISAGREEMENT for rec in recs]
            assert probe.reads - before == sum(noisy)
            branches |= {rec.branch for rec in recs}
        contested = BRANCH_DISAGREEMENT if spec.bit_rule() == "mi" else BRANCH_COIN
        assert branches == {BRANCH_UNANIMITY, contested}

    def test_surrogate_step_has_no_accounting(self):
        mech = self.make(variant="surrogate", surrogate_mode="quant_full")
        ys, recs = mech.step(1, [np.full(16, 0.2)])
        assert recs[0].branch == BRANCH_SURROGATE
        assert recs[0].beta_used == 0.0
        assert ys[0] == 1.0
        assert mech.ledger.mi_spent == 0.0
