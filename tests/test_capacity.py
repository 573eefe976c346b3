import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bafsim.capacity import (
    LOG2E,
    _root_argument,
    c_eps_baf_ir_k,
    c_eps_baf_k,
    c_eps_baf_no_feedback,
    c_eps_cutset,
    channel_aggregate,
    decode_condition,
    delta_ratio_upper,
    epsilon_feasible,
    expected_n_one_relay,
    instantaneous_capacity,
    lemma1_constant,
    min_bound_check,
    optimal_relay_position,
    placement_objective,
    position_grid,
)
from bafsim.channel import ChannelDraw, LinkVariances, SystemParams
from bafsim.errors import InvalidParameterError

UNIT = LinkVariances(1.0, (1.0,), (1.0,))

positive = st.floats(1e-3, 1e3)


class TestInstantaneousCapacity:
    def test_zero_gains_give_zero(self):
        draw = ChannelDraw(0.0, (0.0,), (0.0,))
        assert instantaneous_capacity(draw, SystemParams(snr=1.0, rate=0.01)) == 0.0

    def test_worked_one_relay_example(self):
        draw = ChannelDraw(0.0, (1.0,), (1.0,))
        c = instantaneous_capacity(draw, SystemParams(snr=1.0, rate=0.01, tau=0.1))
        assert c == pytest.approx(0.12632729072479174, rel=1e-12)

    def test_dead_relay_reduces_to_direct_link(self):
        draw = ChannelDraw(0.7, (0.0,), (2.0,))
        tau, snr = 0.2, 0.5
        c = instantaneous_capacity(draw, SystemParams(snr=snr, rate=0.01, tau=tau))
        assert c == (tau / 2.0) * math.log2(1.0 + 0.7 * snr / tau)

    def test_capacity_keeps_its_leading_term_below_the_float_epsilon(self):
        # log2(1 + v) rounds to 0 for v below about 1.1e-16; the capacity is about v/(2 ln 2)
        draw = ChannelDraw(1e-150, (1e-150,), (1e-150,))
        c = instantaneous_capacity(draw, SystemParams(snr=1.0, rate=0.0))
        assert c == pytest.approx(1e-150 / (2.0 * math.log(2.0)), rel=1e-12, abs=0)

    @given(
        g=st.tuples(positive, positive, positive),
        bump=st.floats(1e-3, 10.0),
        which=st.integers(0, 2),
    )
    def test_monotone_in_every_gain(self, g, bump, which):
        params = SystemParams(snr=0.5, rate=0.01, tau=0.1)
        base = ChannelDraw(g[0], (g[1],), (g[2],))
        bumped = list(g)
        bumped[which] += bump
        more = ChannelDraw(bumped[0], (bumped[1],), (bumped[2],))
        assert instantaneous_capacity(more, params) >= instantaneous_capacity(base, params)

    def test_aggregate_sums_relay_terms(self):
        draw = ChannelDraw(0.5, (1.0, 2.0), (3.0, 4.0))
        x = 0.1
        expected = 0.5 + 3.0 / (4.0 + x) * 1.0 + 8.0 / (6.0 + x)
        assert channel_aggregate(draw, x) == pytest.approx(expected, rel=1e-15)


def _policy_threshold(rate, snr=1.0, k=1, mode="exact"):
    """Decode threshold under the duty-cycle policy."""
    return decode_condition(rate, snr, None, k, mode)[1]


class TestOutageThreshold:
    def test_exact_one_relay(self):
        # sqrt(R/SNR)*(2^(2*sqrt(R/SNR)) - 1) at R/SNR = 0.01
        assert _policy_threshold(0.01) == pytest.approx(0.01486983549970351, rel=1e-12)

    def test_linearized_two_relay(self):
        g = _policy_threshold(0.01, k=2, mode="linearized")
        assert g == pytest.approx(0.02079441541679836, rel=1e-12)

    def test_low_snr_limit_constant(self):
        # g*SNR/R approaches 2*ln2 from above, monotonically in R/SNR
        errors = []
        for ratio in (1e-2, 1e-4, 1e-6):
            errors.append(abs(_policy_threshold(ratio) / ratio - 2.0 * math.log(2.0)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_zero_rate_threshold_is_zero(self):
        assert _policy_threshold(0.0) == 0.0

    def test_exact_threshold_keeps_its_precision_at_small_growth(self):
        # tau*(2^z - 1)/SNR at z = 2e-10: 2^z - 1 = z*ln2*(1 + z*ln2/2) to far below 1e-15
        z = 2.0 * 1e-20 / 1e-10
        growth = z * math.log(2.0) * (1.0 + z * math.log(2.0) / 2.0)
        assert decode_condition(1e-20, 1.0, 1e-10, 1)[1] == pytest.approx(1e-10 * growth, rel=1e-15, abs=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            decode_condition(0.01, 1.0, 0.1, 1, "bogus")

    @given(
        k=st.integers(1, 4),
        mode=st.sampled_from(["exact", "linearized"]),
        snr_db=st.floats(-30.0, 30.0),
        tau=st.one_of(st.none(), st.floats(0.05, 1.0)),
        rate=st.one_of(st.floats(1e-6, 1e3), st.just("clamp")),
    )
    # the spelling tau*(2^((K+1)*rate/tau) - 1)/SNR, whose rate/tau divides
    # two rising floats, falls 11 times on the first and 8 times on the second
    @example(k=1, mode="exact", snr_db=-20.0, tau=None, rate=0.0123456)
    @example(k=2, mode="exact", snr_db=-20.0, tau=None, rate="clamp")
    @settings(max_examples=60, deadline=None)
    def test_condition_never_falls_as_the_rate_rises(self, k, mode, snr_db, tau, rate):
        # over 600 consecutive floats of the rate, from 300 below 1/snr for "clamp",
        # where the policy duty cycle sqrt(rate*snr) reaches 1
        snr = 10.0 ** (snr_db / 10.0)
        if rate == "clamp":
            rate = 1.0 / snr
            for _ in range(300):
                rate = math.nextafter(rate, 0.0)
        assert decode_condition(0.0, snr, tau, k, mode)[1] == 0.0
        previous = decode_condition(rate, snr, tau, k, mode)
        for _ in range(600):
            rate = math.nextafter(rate, math.inf)
            current = decode_condition(rate, snr, tau, k, mode)
            assert current[0] >= previous[0] and current[1] >= previous[1], rate
            previous = current


class TestLemmaConstant:
    @pytest.mark.parametrize("sigmas,expected", [
        ((1.0, 1.0, 1.0), 1.0),
        ((2.0, 1.0, 1.0), 0.5),
        ((1.0, 2.0, 2.0), 0.5),
    ])
    def test_values(self, sigmas, expected):
        assert lemma1_constant(*sigmas) == pytest.approx(expected, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            lemma1_constant(0.0, 1.0, 1.0)


class TestOutageCapacityClosedForms:
    def test_no_feedback_unit_example(self):
        c = c_eps_baf_no_feedback(UNIT, 0.1, 0.01)
        assert c == pytest.approx(0.007177646488535027, rel=1e-12)

    def test_no_feedback_matches_printed_form(self):
        # independent expression of the same formula
        v = LinkVariances(1.3, (0.7,), (2.2,))
        snr, eps = 0.3, 0.02
        printed = 0.5 * math.log2(1.0 + snr * math.sqrt(2 * 1.3 * 2.2 * 0.7 * eps / (2.2 + 0.7)))
        assert c_eps_baf_no_feedback(v, snr, eps) == pytest.approx(printed, rel=1e-12)

    def test_no_feedback_zero_epsilon(self):
        assert c_eps_baf_no_feedback(UNIT, 0.1, 0.0) == 0.0

    def test_no_feedback_asymmetric_example(self):
        v = LinkVariances(1.0, (4.0,), (4.0,))
        assert c_eps_baf_no_feedback(v, 1.0, 0.02) == pytest.approx(0.17967214723899824, rel=1e-12)

    def test_k1_reduction_identity_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = LinkVariances(*rng.uniform(0.25, 4.0, 1), tuple(rng.uniform(0.25, 4.0, 1)), tuple(rng.uniform(0.25, 4.0, 1)))
            snr = rng.uniform(1e-3, 10.0)
            eps = rng.uniform(1e-6, 0.5)
            assert c_eps_baf_k(v, snr, eps) == c_eps_baf_no_feedback(v, snr, eps)

    def test_two_relay_bound_example(self):
        v = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
        assert c_eps_baf_k(v, 1.0, 0.001) == pytest.approx(0.052119875156109136, rel=1e-12)

    def test_cutset_unit_example(self):
        assert c_eps_cutset(UNIT, 0.1, 0.01) == pytest.approx(0.014213161363435697, rel=1e-12)

    def test_cutset_two_relay_example(self):
        v = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
        assert c_eps_cutset(v, 1.0, 0.001) == pytest.approx(0.15604753040751237, rel=1e-12)

    def test_cutset_to_no_feedback_ratio_tends_to_two(self):
        for eps in (1e-3, 1e-5, 1e-7):
            ratio = c_eps_cutset(UNIT, 0.1, eps) / c_eps_baf_no_feedback(UNIT, 0.1, eps)
            assert ratio == pytest.approx(2.0, rel=0.01)

    @given(
        snr=st.tuples(positive, positive),
        eps=st.tuples(st.floats(1e-6, 0.9), st.floats(1e-6, 0.9)),
        sd=st.tuples(positive, positive),
    )
    @settings(max_examples=150)
    def test_no_feedback_is_increasing(self, snr, eps, sd):
        lo = c_eps_baf_no_feedback(LinkVariances(min(sd), (1.0,), (1.0,)), min(snr), min(eps))
        hi = c_eps_baf_no_feedback(LinkVariances(max(sd), (1.0,), (1.0,)), max(snr), max(eps))
        assert lo <= hi


def _log_space_root(variances, epsilon):
    """``_root_argument`` summed in base-2 logarithms, exact-sum, then exponentiated."""
    k = variances.k_relays
    terms = [math.lgamma(k + 2) / math.log(2.0), math.log2(variances.sigma_sd2), math.log2(epsilon)]
    for s, r in zip(variances.sigma_sr2, variances.sigma_rd2):
        terms += [math.log2(s), math.log2(r), -math.log2(s + r)]
    return 2.0 ** (math.fsum(terms) / (k + 1))


class TestRootArgument:
    @pytest.mark.parametrize("k", [1, 2, 8, 32])
    @pytest.mark.parametrize("epsilon", [1e-9, 1e-3, 0.5])
    @pytest.mark.parametrize("corner", [(a, b, c) for a in (1e-150, 1e150) for b in (1e-150, 1e150) for c in (1e-150, 1e150)])
    def test_finite_at_the_variance_range_corners(self, corner, epsilon, k):
        sd, sr, rd = corner
        v = LinkVariances(sd, (sr,) * k, (rd,) * k)
        root = _root_argument(v, epsilon)
        assert root == pytest.approx(_log_space_root(v, epsilon), rel=1e-12, abs=0)
        for c in (c_eps_baf_k(v, 1.0, epsilon), c_eps_cutset(v, 1.0, epsilon)):
            assert math.isfinite(c) and c >= 0.0

    def test_closed_forms_keep_their_leading_term_below_the_float_epsilon(self):
        # SNR * root is about 3e-152, so log2(1 + SNR * root) rounds to 0 unless taken through log1p
        v = LinkVariances(1e-150, (1e-150,), (1e-150,))
        leading = 1.0 * _root_argument(v, 1e-3) / math.log(2.0)
        assert c_eps_baf_k(v, 1.0, 1e-3) == pytest.approx(0.5 * leading, rel=1e-12, abs=0)
        assert c_eps_cutset(v, 1.0, 1e-3) == pytest.approx(leading / (1.0 + 1e-3), rel=1e-12, abs=0)

    def test_overflowing_point_prints_its_closed_form(self):
        # sigma^2 = 1e150 on every link at 0 dB: the plain product reaches 2e447, the root argument is sqrt(1e297)
        v = LinkVariances(1e150, (1e150,), (1e150,))
        assert c_eps_baf_k(v, 1.0, 1e-3) == pytest.approx(0.5 * math.log2(1.0 + math.sqrt(1e297)), rel=1e-12)

    @given(
        k=st.integers(1, 32),
        epsilon=st.floats(1e-12, 0.99),
        sigmas=st.lists(st.floats(1e-6, 1e6), min_size=65, max_size=65),
    )
    @settings(max_examples=200)
    def test_plain_product_is_kept_bit_for_bit(self, k, epsilon, sigmas):
        v = LinkVariances(sigmas[0], tuple(sigmas[1 : 1 + k]), tuple(sigmas[33 : 33 + k]))
        num = math.factorial(k + 1) * v.sigma_sd2 * epsilon
        den = 1.0
        for s, r in zip(v.sigma_sr2, v.sigma_rd2):
            num *= r * s
            den *= r + s
        assume(all(sys.float_info.min <= t <= sys.float_info.max for t in (num, den, num / den)))
        assert _root_argument(v, epsilon) == (num / den) ** (1.0 / (k + 1))


class TestExpectedN:
    def test_exact_example(self):
        v = UNIT
        params = SystemParams(snr=0.1, rate=0.001)
        assert expected_n_one_relay(v, params) == pytest.approx(1.0147598254479449, rel=1e-12)

    def test_vanishing_rate_never_retransmits(self):
        assert expected_n_one_relay(UNIT, SystemParams(snr=0.1, rate=0.0)) == 1.0

    def test_approx_example(self):
        params = SystemParams(snr=1.0, rate=0.009)
        assert expected_n_one_relay(UNIT, params, "approx") == pytest.approx(1.0129842553680006, rel=1e-12)

    def test_approx_clamps_to_two(self):
        params = SystemParams(snr=0.01, rate=0.5)
        assert expected_n_one_relay(UNIT, params, "approx") == 2.0

    def test_incremental_capacity_between_one_and_two_times_base(self):
        params = SystemParams(snr=0.1, rate=0.007, epsilon=0.01)
        base = c_eps_baf_no_feedback(UNIT, 0.1, 0.01)
        ir = c_eps_baf_ir_k(UNIT, 0.1, 0.01, expected_n_one_relay(UNIT, params, "exact"))
        assert base < ir < 2.0 * base

    def test_forced_expected_n_scaling(self):
        base = c_eps_baf_k(UNIT, 0.1, 0.01)
        assert c_eps_baf_ir_k(UNIT, 0.1, 0.01, 1.0) == pytest.approx(2.0 * base, rel=1e-15)
        assert c_eps_baf_ir_k(UNIT, 0.1, 0.01, 2.0) == pytest.approx(base, rel=1e-15)

    def test_two_relay_forced_scaling(self):
        v = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
        assert c_eps_baf_ir_k(v, 1.0, 0.001, 1.5) == pytest.approx(2.0 * c_eps_baf_k(v, 1.0, 0.001), rel=1e-15)

    def test_zero_epsilon_gives_zero(self):
        assert c_eps_baf_ir_k(UNIT, 0.1, 0.0, 1.5) == 0.0

    def test_expected_n_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            c_eps_baf_ir_k(UNIT, 0.1, 0.01, 2.5)


class TestDeltaRatio:
    def test_fig_point(self):
        en = expected_n_one_relay(UNIT, SystemParams(snr=1.0, rate=0.009), "approx")
        assert delta_ratio_upper(0.001, en, 1) == pytest.approx(0.9881693567254438, rel=1e-12)

    def test_equality_case(self):
        assert delta_ratio_upper(0.01, 1.01, 1) == pytest.approx(1.0, rel=1e-12)

    def test_two_relay_example(self):
        assert delta_ratio_upper(0.001, 1.5, 2) == pytest.approx(0.668, rel=1e-12)

    @given(eps=st.floats(1e-6, 0.5), en=st.floats(1.0, 2.0))
    def test_bounded_by_one_when_feasible(self, eps, en):
        if en >= 1.0 + eps:
            assert delta_ratio_upper(eps, en, 1) <= 1.0 + 1e-12

    @given(eps=st.floats(1e-6, 0.5), en_pair=st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)))
    def test_decreasing_in_expected_n(self, eps, en_pair):
        lo, hi = sorted(en_pair)
        assert delta_ratio_upper(eps, hi, 1) <= delta_ratio_upper(eps, lo, 1)

    def test_feasibility_bound(self):
        assert epsilon_feasible(0.001, 1.01, 1)
        assert not epsilon_feasible(0.02, 1.01, 1)
        assert epsilon_feasible(0.005, 1.02, 2)


class TestPlacement:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
    def test_argmax_is_midpoint(self, alpha):
        assert optimal_relay_position(alpha, 201) == 0.5
        assert optimal_relay_position(alpha, 101) == 0.5

    def test_grid_contains_midpoint_for_odd_counts(self):
        assert 0.5 in position_grid(201)
        assert 0.5 in position_grid(101)

    @given(d=st.floats(0.01, 0.99), alpha=st.floats(1.1, 6.0))
    def test_objective_symmetric(self, d, alpha):
        assert placement_objective(d, alpha) == pytest.approx(placement_objective(1.0 - d, alpha), rel=1e-9)

    @pytest.mark.parametrize("grid_points", [101.5, 201.0, True, "101"], ids=repr)
    def test_grid_size_that_is_not_an_integer_rejected(self, grid_points):
        with pytest.raises(InvalidParameterError) as raised:
            position_grid(grid_points)
        assert str(raised.value) == f"grid_points must be an integer, got {grid_points!r}"

    def test_grid_size_of_any_integer_type(self):
        assert np.array_equal(position_grid(np.int64(101)), position_grid(101))

    def test_rejects_small_grid_or_flat_exponent(self):
        with pytest.raises(InvalidParameterError):
            optimal_relay_position(3.0, 51)
        with pytest.raises(InvalidParameterError):
            optimal_relay_position(1.0, 201)


class TestMinBound:
    def test_worked_example(self):
        lhs, rhs, holds = min_bound_check(1.0, 1.0, 0.01)
        assert lhs == 1.0
        assert rhs == pytest.approx(0.49751243781094534, rel=1e-12)
        assert holds

    def test_large_y_limit_approaches_lhs(self):
        lhs, rhs, holds = min_bound_check(2.0, 1e12, 0.5)
        assert holds
        assert rhs == pytest.approx(lhs, rel=1e-9)

    @given(x=positive, y=positive, delta=positive)
    @settings(max_examples=300)
    def test_always_holds(self, x, y, delta):
        assert min_bound_check(x, y, delta)[2]


TWO_RELAYS = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize("call, message", [
    pytest.param(
        lambda: c_eps_baf_no_feedback(TWO_RELAYS, 0.1, 0.01), "c_eps_baf_no_feedback is the one-relay closed form",
        id="no-feedback-two-relays",
    ),
    pytest.param(
        lambda: expected_n_one_relay(TWO_RELAYS, SystemParams(snr=0.1, rate=0.001, k_relays=2)),
        "expected_n_one_relay requires exactly one relay", id="expected-n-two-relays",
    ),
    pytest.param(
        lambda: expected_n_one_relay(UNIT, SystemParams(snr=0.1, rate=0.001), "bogus"),
        "mode must be one of ('exact', 'approx'), got 'bogus'", id="expected-n-mode",
    ),
    pytest.param(lambda: delta_ratio_upper(0.01, 0.5, 1), "expected_n must lie in [1, 2], got 0.5", id="ratio-below-one"),
    pytest.param(lambda: delta_ratio_upper(0.01, 3.5, 2), "expected_n must lie in [1, 3], got 3.5", id="ratio-above-k-plus-one"),
    pytest.param(lambda: min_bound_check(0.0, 1.0, 0.1), "x must be positive and finite, got 0.0", id="min-bound-zero"),
    pytest.param(lambda: min_bound_check(1.0, 1.0, math.nan), "delta must be positive and finite, got nan", id="min-bound-nan"),
])
def test_rejected_with_its_message(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert str(info.value) == message
