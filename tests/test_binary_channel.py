import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paczero.binary_channel import (
    ChannelError,
    binary_entropy,
    channel_mi,
    invert_channel_mi,
)
from paczero import binary_channel
import helpers
from helpers import channel_mi_oracle, reference_channel_mi, reference_invert_channel_mi

LN2 = 0.6931471805599453

# q_plus on the open unit interval, with its extremes and centre named
Q_PLUS = st.one_of(
    st.sampled_from([1e-300, 1.0 - 2.0**-53, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
# sigma log-uniform over [1e-12, 1e12], plus both sides of the noiseless clamp
SIGMA = st.one_of(
    st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e),
    st.sampled_from([
        0.0, 1e-12, math.nextafter(binary_channel.NOISELESS_SIGMA, 0.0),
        binary_channel.NOISELESS_SIGMA, 1e12,
    ]),
)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75, frozen from direct evaluation
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(ChannelError):
            binary_entropy(-0.1)
        with pytest.raises(ChannelError):
            binary_entropy(1.1)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_matches_reference(self, q):
        assert binary_entropy(q) == pytest.approx(helpers.entropy_nats(q), abs=1e-12)


class TestChannelMi:
    def test_degenerate_inputs_carry_nothing(self):
        for sigma in (0.0, 0.5, 100.0):
            assert channel_mi(0.0, sigma) == 0.0
            assert channel_mi(1.0, sigma) == 0.0

    def test_noiseless_limit_is_entropy(self):
        assert channel_mi(0.5, 1e-8) == pytest.approx(LN2, abs=1e-6)
        # below the clamp the entropy is returned exactly
        assert channel_mi(0.3, 0.0) == binary_entropy(0.3)
        assert channel_mi(0.3, 1e-11) == binary_entropy(0.3)

    def test_large_noise_limit_is_zero(self):
        for q in (0.2, 0.5, 0.8):
            assert channel_mi(q, 1e6) == pytest.approx(0.0, abs=1e-4)

    def test_against_trapezoid_oracle_spot(self):
        ref = channel_mi_oracle(0.5, 1.0, grid_halfwidth=10.0, grid_points=40_001)
        assert channel_mi(0.5, 1.0) == pytest.approx(ref, abs=1e-6)

    def test_against_trapezoid_oracle_lattice(self):
        # 5x5 sub-lattice; the full 100-point sweep runs in the acceptance suite
        for q in np.linspace(0.05, 0.95, 5):
            for sigma in np.logspace(-2, 2, 5):
                ref = channel_mi_oracle(
                    float(q), float(sigma),
                    grid_halfwidth=1.0 + 9.0 * float(sigma), grid_points=40_001,
                )
                assert channel_mi(float(q), float(sigma)) == pytest.approx(
                    ref, abs=1e-6
                )

    def test_monotone_decreasing_in_sigma(self):
        # below sigma ~ 0.1 the channel saturates at h(q) to double
        # precision, so strict decrease is only testable once the
        # quadrature resolves a difference; non-increase holds throughout
        for q in (0.1, 0.5, 0.9):
            broad = [channel_mi(q, s) for s in np.logspace(-2, 1.5, 12)]
            assert all(a >= b for a, b in zip(broad, broad[1:]))
            resolved = [channel_mi(q, s) for s in np.logspace(-0.5, 1.5, 12)]
            assert all(a > b for a, b in zip(resolved, resolved[1:]))

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1e-3, max_value=100.0),
    )
    def test_symmetry_and_entropy_ceiling(self, q, sigma):
        mi = channel_mi(q, sigma)
        assert mi == pytest.approx(channel_mi(1.0 - q, sigma), abs=1e-12)
        assert -1e-15 <= mi <= binary_entropy(q) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=math.log(1e-6), max_value=math.log(1e8)),
        st.floats(min_value=-12.0, max_value=1.0).map(lambda e: 10.0**e),
    )
    def test_never_rises_by_more_than_the_jitter_bound(self, q, log_sigma, gap):
        # the calibration walk decides midpoints beyond a fenced bracket end
        # unevaluated on this bound; sigma spans the walk's default bracket
        # [1e-6, 1e6] and two decades above it
        low, high = math.exp(log_sigma), math.exp(log_sigma + gap)
        rise = channel_mi(q, high) - channel_mi(q, low)
        assert rise <= binary_channel._MI_JITTER, (
            f"channel_mi rises by {rise} at q_plus={q} from sigma={low} to {high}"
        )

    def test_invalid_query(self):
        with pytest.raises(ChannelError):
            channel_mi(-0.2, 1.0)
        with pytest.raises(ChannelError):
            channel_mi(0.5, -1.0)


class TestOracle:
    def test_degenerate(self):
        assert channel_mi_oracle(1.0, 1.0, grid_halfwidth=10.0, grid_points=20_001) \
            == pytest.approx(0.0, abs=1e-10)

    def test_near_noiseless(self):
        got = channel_mi_oracle(0.5, 1e-4, grid_halfwidth=2.0, grid_points=200_001)
        assert got == pytest.approx(LN2, abs=1e-4)

    def test_insufficient_coverage_rejected(self):
        with pytest.raises(ChannelError):
            channel_mi_oracle(0.5, 2.0, grid_halfwidth=5.0, grid_points=20_001)

    def test_too_few_points_rejected(self):
        with pytest.raises(ChannelError):
            channel_mi_oracle(0.5, 1.0, grid_halfwidth=10.0, grid_points=100)


class TestInversion:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.77, 0.95])
    def test_roundtrip(self, q):
        budgets = [1e-6, 1e-3, 0.1, 0.9 * binary_entropy(q)]
        for beta in budgets:
            sigma = invert_channel_mi(q, beta)
            assert channel_mi(q, sigma) == pytest.approx(beta, abs=1e-9)

    def test_roundtrip_tiny_budget_uses_expanded_bracket(self):
        sigma = invert_channel_mi(0.5, 1e-11)
        assert sigma > 1e4
        assert channel_mi(0.5, sigma) == pytest.approx(1e-11, abs=1e-10)

    def test_sigma_monotone_in_budget(self):
        sigmas = [invert_channel_mi(0.5, b) for b in (1e-4, 1e-2, 0.1, 0.5, 0.69)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_cap_edge_calibrates(self):
        # the highest budget the entropy cap ever requests must calibrate,
        # and by monotonicity it needs less noise than any smaller budget
        h = binary_entropy(0.4)
        sigma = invert_channel_mi(0.4, 0.999 * h)
        assert 0.0 < sigma < invert_channel_mi(0.4, 0.5 * h)
        assert channel_mi(0.4, sigma) == pytest.approx(0.999 * h, abs=1e-9)

    def test_budget_at_or_above_entropy_is_infeasible(self):
        # h(0.3) = 0.610864...; anything at or past it cannot be carried
        with pytest.raises(ChannelError, match="carries at most"):
            invert_channel_mi(0.3, 0.7)
        with pytest.raises(ChannelError, match="carries at most"):
            invert_channel_mi(0.3, binary_entropy(0.3))

    def test_domain_errors(self):
        with pytest.raises(ChannelError):
            invert_channel_mi(0.5, 0.0)
        with pytest.raises(ChannelError):
            invert_channel_mi(0.5, -0.1)
        with pytest.raises(ChannelError, match="unanimous sign distribution"):
            invert_channel_mi(0.0, 0.1)
        with pytest.raises(ChannelError, match="unanimous sign distribution"):
            invert_channel_mi(1.0, 0.1)

    def test_exhausted_bisection_raises(self, monkeypatch):
        # no mismatch meets a negative tolerance and no bracket narrows
        # below zero width, so the loop can only run out
        monkeypatch.setattr(binary_channel, "MI_MATCH_TOL", -1.0)
        monkeypatch.setattr(binary_channel, "LOG_SIGMA_WIDTH_TOL", 0.0)
        with pytest.raises(ChannelError, match="did not converge"):
            invert_channel_mi(0.5, 0.1)

    def test_skipped_decisions_count_toward_the_step_cap(self, monkeypatch):
        # as above the walk can only run out, but its first 40 decisions are
        # skipped: 160 remain to evaluate, not 200
        monkeypatch.setattr(binary_channel, "MI_MATCH_TOL", -1.0)
        monkeypatch.setattr(binary_channel, "LOG_SIGMA_WIDTH_TOL", 0.0)
        rows, channel = [], binary_channel.channel_mi

        def spy(q_plus, sigma):
            rows.append(np.atleast_1d(sigma).size)
            return channel(q_plus, sigma)

        monkeypatch.setattr(binary_channel, "channel_mi", spy)
        with pytest.raises(ChannelError, match="did not converge"):
            invert_channel_mi(0.5, 0.1)
        assert sum(rows) - 2 <= 200 - binary_channel._SKIP_MAX  # less the two bracket ends


def _sigma_or_error(invert, q, beta):
    try:
        return invert(q, beta).hex()
    except ChannelError:
        return "ChannelError"


class TestBitExactness:
    """The fused evaluator against the two-branch form it replaced: exact
    equality, no tolerance, since transcripts record every sigma."""

    @settings(max_examples=400)
    @given(Q_PLUS, SIGMA)
    def test_channel_mi_is_the_two_branch_form(self, q, sigma):
        got = channel_mi(q, sigma)
        assert type(got) is float
        assert got.hex() == reference_channel_mi(q, sigma).hex()

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([1e-300, 1e-6, 0.5, 1.0 - 1e-6]),
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        ),
        st.one_of(
            st.just(0.999),  # the entropy cap's largest request, at sigma < 1
            st.floats(min_value=-16.0, max_value=-0.01).map(lambda e: 10.0**e),
            # below channel_mi(q, BRACKET_HI), so the upper end expands
            st.floats(min_value=-24.0, max_value=-12.0).map(lambda e: 10.0**e),
            # within ulps of h(q), where the lower end may expand
            st.integers(min_value=1, max_value=64).map(lambda k: 1.0 - k * 2.0**-53),
        ),
    )
    def test_inversion_is_the_two_branch_bisection(self, q, share):
        beta = share * binary_entropy(q)
        assert _sigma_or_error(invert_channel_mi, q, beta) == _sigma_or_error(
            reference_invert_channel_mi, q, beta
        )

    def test_tiny_budget_expands_the_bracket_identically(self):
        for beta in (1e-13, 1e-15, 1e-17):
            assert channel_mi(0.5, binary_channel.BRACKET_HI) >= beta  # must expand
            assert invert_channel_mi(0.5, beta) == reference_invert_channel_mi(0.5, beta)

    def test_alternating_q_never_reuses_an_evaluator(self):
        # the evaluator cache holds one q_plus; every switch must rebuild it
        q1, q2 = 0.3, 0.6
        for sigma in np.logspace(-1, 1, 7):
            sigma = float(sigma)
            assert channel_mi(q1, sigma) != channel_mi(q2, sigma)
            for q in (q1, q2, q1, np.float64(q2), q2, q1):
                got = channel_mi(q, sigma)
                assert type(got) is float
                assert got == reference_channel_mi(float(q), sigma)
        for q in (q1, q2, q1):
            assert invert_channel_mi(q, 0.1) == reference_invert_channel_mi(q, 0.1)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestArrayForm:
    """channel_mi over arrays of (q_plus, sigma) against the scalar call on
    each pair: exact equality of every bit, -0.0 included."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(Q_PLUS, st.sampled_from([0.0, 1.0])), SIGMA),
            min_size=0, max_size=300,
        )
    )
    def test_array_is_the_scalar_form(self, pairs):
        q = np.array([p[0] for p in pairs], dtype=float)
        sigma = np.array([p[1] for p in pairs], dtype=float)
        got = channel_mi(q, sigma)
        assert got.shape == q.shape
        assert _bits(got) == _bits(channel_mi(a, b) for a, b in pairs)

    def test_special_cases_and_chunks(self):
        # degenerate q, the noiseless clamp, sigma up to 1e12 and MI values
        # that the scalar form clamps to 0, over more rows than one chunk
        rng = np.random.default_rng(5)
        n = 3 * binary_channel._CHUNK_ROWS + 7
        q = rng.random(n)
        sigma = 10.0 ** rng.uniform(-12.0, 12.0, n)
        q[:20], q[20:40] = 0.0, 1.0
        sigma[40:60] = rng.uniform(0.0, binary_channel.NOISELESS_SIGMA, 20)
        sigma[60:80] = 1e12
        sigma[80:200] = 10.0 ** rng.uniform(4.0, 12.0, 120)
        scalar = [channel_mi(float(a), float(b)) for a, b in zip(q, sigma)]
        assert sum(v == 0.0 for v in scalar[80:200]) >= 10  # the clamp is exercised
        assert _bits(channel_mi(q, sigma)) == _bits(scalar)

    @pytest.mark.parametrize(
        "noisy", [binary_channel._CHUNK_ROWS, binary_channel._CHUNK_ROWS + 1]
    )
    def test_constants_filled_in_place_are_the_scalar_forms(self, monkeypatch, noisy):
        # each pass's (rows, 2, 2) constants, and every value, are the scalar
        # form's bit for bit at the edges of q: the smallest subnormal, a tiny
        # normal, the centre and the largest double below 1; among the noisy
        # rows sit rows of q 0 or 1 and of noiseless sigma, which take no pass
        noiseless = binary_channel.NOISELESS_SIGMA
        edges = [5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0)]
        q = [edges[i % 4] for i in range(noisy)]
        sigma = np.geomspace(1e-2, 1e3, noisy).tolist()
        for i, (extra_q, extra_sigma) in enumerate([
            (0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.3, 1e-12),
            (0.0, 0.0), (math.nextafter(1.0, 0.0), noiseless / 2),
        ]):
            q.insert(20 * i + 3, extra_q)
            sigma.insert(20 * i + 3, extra_sigma)
        scalar_mi = [channel_mi(a, b) for a, b in zip(q, sigma)]
        consts, kernel = [], binary_channel._mi_rows
        monkeypatch.setattr(binary_channel, "_mi_rows",
                            lambda c, s: consts.append(c) or kernel(c, s))
        assert _bits(channel_mi(np.array(q), np.array(sigma))) == _bits(scalar_mi)
        assert [len(c) for c in consts] == [binary_channel._CHUNK_ROWS] + [1] * (
            noisy > binary_channel._CHUNK_ROWS
        )
        kept = [v for v, s in zip(q, sigma) if 0.0 < v < 1.0 and s >= noiseless]
        scalar = [((math.log(v), v), (math.log1p(-v), 1.0 - v)) for v in kept]
        assert np.concatenate(consts).tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize(
        "q, sigma, match",
        [
            ([0.5, 1.5], [1.0, 1.0], "q_plus out of range: 1.5"),
            ([0.5, math.nan], [1.0, 1.0], "q_plus out of range: nan"),
            ([0.5, 0.5], [1.0, -1.0], "sigma must be finite and nonnegative: -1.0"),
            ([0.5, 0.5], [math.inf, 1.0], "sigma must be finite and nonnegative: inf"),
            ([0.5, 0.5], [1.0, math.nan], "sigma must be finite and nonnegative: nan"),
            # the first bad pair is reported, as a loop over the pairs would
            ([0.5, 0.5, 2.0], [1.0, -1.0, 1.0], "sigma must be finite"),
            ([0.5, 0.5], [1.0], "equal-length"),
            ([[0.5]], [[1.0]], "equal-length"),
        ],
    )
    def test_invalid_arrays_rejected(self, q, sigma, match):
        with pytest.raises(ChannelError, match=match):
            channel_mi(np.array(q), np.array(sigma))


class TestSigmaArrayForm:
    """channel_mi of one q_plus over an array of sigma against the scalar
    call at each sigma: exact equality of every bit, -0.0 included."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(Q_PLUS, st.sampled_from([0.0, 1.0])), st.lists(SIGMA, max_size=300))
    def test_sigma_array_is_the_scalar_form(self, q, sigmas):
        got = channel_mi(q, np.array(sigmas, dtype=float))
        assert got.shape == (len(sigmas),)
        assert _bits(got) == _bits(channel_mi(q, s) for s in sigmas)

    @pytest.mark.parametrize("q", [0.0, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_special_cases_and_chunks(self, q):
        # the noiseless clamp, sigma up to 1e12 and MI values that the
        # scalar form clamps to 0, over more rows than one chunk
        rng = np.random.default_rng(11)
        n = 2 * binary_channel._CHUNK_ROWS + 5
        sigma = 10.0 ** rng.uniform(-12.0, 12.0, n)
        sigma[:20] = rng.uniform(0.0, binary_channel.NOISELESS_SIGMA, 20)
        sigma[20:25] = 0.0, 1e-12, binary_channel.NOISELESS_SIGMA, 1e12, 1e12
        sigma[25:145] = 10.0 ** rng.uniform(4.0, 12.0, 120)
        scalar = [channel_mi(q, float(s)) for s in sigma]
        if q == 0.3:
            assert sum(v == 0.0 for v in scalar[25:145]) >= 10  # the clamp is exercised
        assert _bits(channel_mi(q, sigma)) == _bits(scalar)

    @pytest.mark.parametrize("clamped", [False, True], ids=["noisy", "clamped"])
    @pytest.mark.parametrize(
        "rows", [1, 2, binary_channel._CHUNK_ROWS, binary_channel._CHUNK_ROWS + 1]
    )
    def test_one_kernel_call_up_to_a_chunk(self, monkeypatch, rows, clamped):
        # a float64 array of at most _CHUNK_ROWS rows, as every calibration
        # call and the scalar form pass, is one kernel call on the array
        # itself (on its clamp when a sigma lies below NOISELESS_SIGMA); a
        # longer one runs in passes
        rng = np.random.default_rng(rows)
        sigma = 10.0 ** rng.uniform(-2.0, 3.0, rows)
        if clamped:
            sigma[::3] = rng.uniform(0.0, binary_channel.NOISELESS_SIGMA, sigma[::3].size)
        scalar = [channel_mi(0.3, float(s)) for s in sigma]
        passes, kernel = [], binary_channel._mi_rows
        monkeypatch.setattr(binary_channel, "_mi_rows",
                            lambda consts, s: passes.append(s) or kernel(consts, s))
        assert _bits(channel_mi(0.3, sigma)) == _bits(scalar)
        assert len(passes) == -(-rows // binary_channel._CHUNK_ROWS)
        if rows <= binary_channel._CHUNK_ROWS and not clamped:
            assert passes[0] is sigma

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32, np.float16, ">f8"])
    def test_other_dtypes_are_converted(self, monkeypatch, dtype):
        # the kernel sees native float64 alone
        sigma = np.array([2.0, 1.3, 7.0, 250.0]).astype(dtype)
        scalar = [channel_mi(0.3, float(s)) for s in sigma]
        passes, kernel = [], binary_channel._mi_rows
        monkeypatch.setattr(binary_channel, "_mi_rows",
                            lambda consts, s: passes.append(s.dtype) or kernel(consts, s))
        got = channel_mi(0.3, sigma)
        assert got.dtype == np.float64 and passes == [np.dtype(float)]
        assert _bits(got) == _bits(scalar)

    def test_degenerate_q_gives_zeros(self):
        for q in (0.0, 1.0):
            assert _bits(channel_mi(q, np.array([0.0, 1.0, 1e12]))) == _bits([0.0] * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_invalid_sigma_raises_the_scalar_message(self, bad):
        with pytest.raises(ChannelError) as scalar:
            channel_mi(0.5, bad)
        # the first bad sigma is reported, as a loop over them would
        with pytest.raises(ChannelError) as array:
            channel_mi(0.5, np.array([1.0, bad, -2.0]))
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("sigma", [np.array(1.0), np.ones((2, 3)), np.ones((1, 1))])
    def test_sigma_array_must_be_1d(self, sigma):
        with pytest.raises(ChannelError, match="1-d sigma"):
            channel_mi(0.5, sigma)

    def test_q_plus_is_checked_first(self):
        with pytest.raises(ChannelError, match="q_plus out of range: 1.5"):
            channel_mi(1.5, np.array([math.nan]))


# (q, beta) cases for the batched walk: the bracket as it starts, a beta just
# below h(q), which expands the lower end below NOISELESS_SIGMA, and betas
# down to 1e-17, which expand the upper end
_WALK_CASES = [
    (q, beta)
    for q in (5e-324, 1e-300, 0.05, 0.3, 0.5, 0.77, 1.0 - 2.0**-53)
    for beta in (
        math.nextafter(binary_entropy(q), 0.0), (1.0 - 1e-9) * binary_entropy(q),
        0.5 * binary_entropy(q), 0.1, 1e-3, 1e-6, 1e-11, 1e-13, 1e-15, 1e-17,
    )
    if beta < binary_entropy(q)
]


class TestBatchedWalk:
    """invert_channel_mi decides the bisection's midpoints far from a guess
    unevaluated and evaluates the others in batches along a guessed path;
    sigma must depend on neither."""

    def test_cases_expand_both_bracket_ends(self):
        lows = [b for q, b in _WALK_CASES if channel_mi(q, binary_channel.BRACKET_LO) <= b]
        highs = [b for q, b in _WALK_CASES if channel_mi(q, binary_channel.BRACKET_HI) >= b]
        assert lows and highs

    @pytest.mark.parametrize("lookahead", [1, 64, None])
    def test_any_lookahead_is_the_reference_bisection(self, monkeypatch, lookahead):
        if lookahead is not None:
            monkeypatch.setattr(binary_channel, "_LOOKAHEAD_FIRST", lookahead)
            monkeypatch.setattr(binary_channel, "_LOOKAHEAD_NEXT", lookahead)
        for q, beta in _WALK_CASES:
            assert _sigma_or_error(invert_channel_mi, q, beta) == _sigma_or_error(
                reference_invert_channel_mi, q, beta
            ), (q, beta)

    @pytest.mark.parametrize(
        "q, beta", [(0.5, 0.1), (0.3, 1e-6), (0.5, 1e-17), (0.4, 0.999 * binary_entropy(0.4))]
    )
    def test_every_visited_midpoint_is_evaluated_or_fenced(self, monkeypatch, q, beta):
        # a midpoint of the reference walk that was not evaluated lies beyond
        # an evaluated sigma whose MI clears beta by the fence on its side,
        # so channel_mi's jitter bound settles the reference's decision there
        evaluated, passes, visited = {}, [], []
        channel, reference = binary_channel.channel_mi, helpers.reference_channel_mi

        def spy(q_plus, sigma):
            mi = channel(q_plus, sigma)
            passes.append(sigma)
            evaluated.update(zip(np.atleast_1d(sigma).tolist(), np.atleast_1d(mi).tolist()))
            return mi

        def reference_spy(q_plus, sigma):
            visited.append(sigma)
            return reference(q_plus, sigma)

        monkeypatch.setattr(binary_channel, "channel_mi", spy)
        monkeypatch.setattr(helpers, "reference_channel_mi", reference_spy)
        assert invert_channel_mi(q, beta) == reference_invert_channel_mi(q, beta)
        fence = binary_channel.MI_MATCH_TOL + binary_channel._MI_JITTER
        skipped = [sigma for sigma in visited if sigma not in evaluated]
        for sigma in skipped:
            assert any(
                (sigma < end and mi - beta > fence) or (sigma > end and beta - mi > fence)
                for end, mi in evaluated.items()
            ), sigma
        if (q, beta) in ((0.5, 0.1), (0.3, 1e-6)):  # the interval lies inside the bracket
            assert len(skipped) >= 14 and len(passes) <= 2

    @pytest.mark.parametrize(
        "q, share, rows",
        [
            # beta/h near 1e-3, as most train_m128 steps ask
            (0.5, 1e-3, 4), (0.3, 1.2e-3, 5),
            # beta/h near 2e-2, as most attack_m8 steps ask: the series guess
            # lands within the tolerance band, so one pass of the two ends
            # and a midpoint or two
            (0.5, 2e-2, 3), (0.2, 1.9e-2, 4),
            # a skip that fails its fence, then the upper end expands by two
            # scalar decades before the walk
            (0.5, 1e-17 / binary_entropy(0.5), 39),
        ],
    )
    def test_rows_per_inversion(self, monkeypatch, q, share, rows):
        passes, channel = [], binary_channel.channel_mi

        def spy(q_plus, sigma):
            passes.append(sigma)
            return channel(q_plus, sigma)

        monkeypatch.setattr(binary_channel, "channel_mi", spy)
        beta = share * binary_entropy(q)
        assert invert_channel_mi(q, beta) == reference_invert_channel_mi(q, beta)
        assert sum(np.atleast_1d(sigma).size for sigma in passes) <= rows
        lo, hi = binary_channel.BRACKET_LO, binary_channel.BRACKET_HI
        if channel(q, lo) > beta > channel(q, hi):  # the default bracket holds
            assert all(isinstance(s, np.ndarray) for s in passes)

    @pytest.mark.parametrize("shift", [-3.0, 3.0])
    def test_a_misplaced_interval_falls_back_to_the_evaluated_walk(self, monkeypatch, shift):
        # skip decisions that the fence cannot confirm are dropped: the walk
        # starts over from the default bracket and still returns its sigma
        skip_interval, passes = binary_channel._skip_interval, []
        channel = binary_channel.channel_mi

        def misplaced(*args):
            return tuple(x + shift for x in skip_interval(*args))

        def spy(q_plus, sigma):
            passes.append(sigma)
            return channel(q_plus, sigma)

        monkeypatch.setattr(binary_channel, "_skip_interval", misplaced)
        monkeypatch.setattr(binary_channel, "channel_mi", spy)
        for q, beta in _WALK_CASES:
            assert _sigma_or_error(invert_channel_mi, q, beta) == _sigma_or_error(
                reference_invert_channel_mi, q, beta
            ), (q, beta)
        passes.clear()
        invert_channel_mi(0.5, 0.1)
        lo, hi = binary_channel.BRACKET_LO, binary_channel.BRACKET_HI
        assert passes[0][:2].tolist() != [lo, hi] and passes[1].tolist() == [lo, hi]


def _series_terms(v: Fraction, s: Fraction, count: int) -> list[Fraction]:
    """The first ``count`` terms of the MI's low-SNR series, c_k(v) s^(k+1) / (2k + 2)."""
    return [
        sum(c * v**i for i, c in enumerate(helpers.mmse_series_coefficients(k)))
        * s ** (k + 1) / (2 * k + 2)
        for k in range(count)
    ]


class TestSeriesGuess:
    """The calibration's guess solves the binary input's low-SNR MI series;
    the table must be that series exactly, and the guess must be good enough
    that most inversions at attack_m8's SNRs take one channel_mi call."""

    def test_table_is_the_exact_series(self):
        table = binary_channel._MMSE_SERIES
        assert len(table) == 13
        for k, (d, *nums) in enumerate(table):
            exact = helpers.mmse_series_coefficients(k)
            assert exact[0] == 0 and [Fraction(n, d) for n in nums] == exact[1:], k
            # the MI's coefficients, correctly rounded, highest power of v first
            mi = tuple(float(c / (2 * k + 2)) for c in reversed(exact))
            assert binary_channel._MI_SERIES[k] == mi, k

    def test_table_at_bpsk(self):
        # v = 1 gives the uniform input's gamma/2 - gamma^2/4 + gamma^3/6 - 5 gamma^4/24
        c = [sum(Fraction(n, d) for n in nums) for d, *nums in binary_channel._MMSE_SERIES]
        assert c[:4] == [1, -1, 1, Fraction(-5, 3)]
        assert [c[k] / (2 * k + 2) for k in range(4)] == [
            Fraction(1, 2), Fraction(-1, 4), Fraction(1, 6), Fraction(-5, 24)
        ]

    @pytest.mark.parametrize(
        "v, s", [(1.0, 0.05), (1.0, 0.08), (0.96, 0.08), (0.75, 0.05), (0.5, 0.08), (0.19, 0.02)]
    )
    def test_truncation_error_is_bounded_by_the_omitted_terms(self, v, s):
        # for the uniform input (v = 1) the series envelops the MI: after any
        # number of terms the error has the first omitted term's sign and is
        # smaller; for any v it is within twice the larger of the next two
        # terms, and within the larger of the last two kept, the calibration's
        # estimate, which it widens its interval by _SERIES_MARGIN of
        mpmath = pytest.importorskip("mpmath")
        q = (1.0 - math.sqrt(1.0 - v)) / 2.0
        sigma = 1.0 / math.sqrt(s)
        exact_v = 4 * Fraction(q) * (1 - Fraction(q))
        terms = _series_terms(exact_v, 1 / Fraction(sigma) ** 2, 15)
        mi = helpers.mpmath_channel_mi(q, sigma)
        with mpmath.workdps(60):
            errors = [
                mi - mpmath.mpf(sum(terms[:n]).numerator) / sum(terms[:n]).denominator
                for n in range(1, 14)
            ]
        for n, error in enumerate(errors, start=1):
            error, omitted = float(error), [float(t) for t in terms[n:n + 2]]
            if v == 1.0:
                assert 0.0 <= error / omitted[0] <= 1.0, n
            assert abs(error) <= 2.0 * max(map(abs, omitted)), n
            if n >= 2:
                assert abs(error) <= max(abs(float(t)) for t in terms[n - 2:n]), n

    @pytest.mark.parametrize(
        "q, sigma", [(0.5, 2.0), (0.3, 3.0), (0.9, 10.0), (0.05, 50.0), (0.5, 300.0),
                     (0.7, 1000.0)]
    )
    def test_channel_mi_matches_the_mpmath_reference(self, q, sigma):
        pytest.importorskip("mpmath")
        exact = float(helpers.mpmath_channel_mi(q, sigma))
        assert channel_mi(q, sigma) == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_most_low_snr_inversions_take_one_pass(self, monkeypatch):
        # (q, beta) whose ceiling guess 1/sigma-hat^2 = expm1(2 beta) / v lies
        # below 0.05, as most attack_m8 inversions do
        calls, channel = [], binary_channel.channel_mi

        def spy(q_plus, sigma):
            calls[-1] += 1
            return channel(q_plus, sigma)

        monkeypatch.setattr(binary_channel, "channel_mi", spy)
        rng = np.random.default_rng(25)
        for q, snr in zip(rng.uniform(0.01, 0.99, 400).tolist(),
                          rng.uniform(1e-3, 0.05, 400).tolist()):
            calls.append(0)
            invert_channel_mi(q, 0.5 * math.log1p(snr * 4.0 * q * (1.0 - q)))
        assert sum(c == 1 for c in calls) >= 0.95 * len(calls), calls

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1e-6, max_value=0.999),
        st.one_of(st.sampled_from([0.0, -1.0, -1e-300, 1e-10]),
                  st.floats(min_value=-1.0, max_value=1.0)),
    )
    def test_any_fence_gives_an_interval(self, q, share, fence):
        # a non-positive fence (the tests that exhaust the walk set one)
        # leaves the ceiling's interval; no fence raises
        guess, low, high = binary_channel._skip_interval(
            4.0 * q * (1.0 - q), share * binary_entropy(q), fence
        )
        assert not math.isnan(guess) and not math.isnan(low) and not math.isnan(high)


class TestThreads:
    """The kernel holds no state a call writes into: two threads started
    together get the serial values bit for bit."""

    def test_channel_mi_array(self):
        rng = np.random.default_rng(26)
        q, sigma = rng.random(5000), 10.0 ** rng.uniform(-2.0, 3.0, 5000)
        serial = channel_mi(q, sigma).tobytes()

        def calls():
            return [channel_mi(q, sigma).tobytes() for _ in range(10)]

        for got in helpers.run_together(calls, calls):
            assert [value == serial for value in got] == [True] * 10

    def test_invert_channel_mi(self):
        rng = np.random.default_rng(27)
        cases = [
            (q, 0.5 * math.log1p(snr * 4.0 * q * (1.0 - q)))
            for q, snr in zip(rng.uniform(0.01, 0.99, 150).tolist(),
                              (10.0 ** rng.uniform(-3.0, 0.0, 150)).tolist())
        ]
        serial = [invert_channel_mi(q, beta).hex() for q, beta in cases]

        def calls():
            return [invert_channel_mi(q, beta).hex() for q, beta in cases]

        for got in helpers.run_together(calls, calls):
            assert [a == b for a, b in zip(got, serial)] == [True] * len(cases)
