import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bafsim.capacity import (
    LOG2E,
    c_eps_baf_ir_k,
    c_eps_baf_k,
    c_eps_baf_no_feedback,
    c_eps_cutset,
    channel_aggregate,
    delta_ratio_upper,
    epsilon_feasible,
    expected_n_one_relay,
    instantaneous_capacity,
    lemma1_constant,
    min_bound_check,
    optimal_relay_position,
    outage_threshold_g,
    placement_objective,
    position_grid,
    threshold_for,
)
from bafsim.channel import ChannelDraw, LinkVariances, SystemParams
from bafsim.errors import InvalidParameterError

UNIT = LinkVariances(1.0, (1.0,), (1.0,))

positive = st.floats(1e-3, 1e3)


class TestInstantaneousCapacity:
    def test_zero_gains_give_zero(self):
        draw = ChannelDraw(0.0, (0.0,), (0.0,))
        assert instantaneous_capacity(draw, SystemParams(snr=1.0, rate=0.01), 0.1) == 0.0

    def test_worked_one_relay_example(self):
        draw = ChannelDraw(0.0, (1.0,), (1.0,))
        c = instantaneous_capacity(draw, SystemParams(snr=1.0, rate=0.01), 0.1)
        assert c == pytest.approx(0.12632729072479174, rel=1e-12)

    def test_dead_relay_reduces_to_direct_link(self):
        draw = ChannelDraw(0.7, (0.0,), (2.0,))
        tau, snr = 0.2, 0.5
        c = instantaneous_capacity(draw, SystemParams(snr=snr, rate=0.01), tau)
        assert c == (tau / 2.0) * math.log2(1.0 + 0.7 * snr / tau)

    @given(
        g=st.tuples(positive, positive, positive),
        bump=st.floats(1e-3, 10.0),
        which=st.integers(0, 2),
    )
    def test_monotone_in_every_gain(self, g, bump, which):
        params = SystemParams(snr=0.5, rate=0.01)
        base = ChannelDraw(g[0], (g[1],), (g[2],))
        bumped = list(g)
        bumped[which] += bump
        more = ChannelDraw(bumped[0], (bumped[1],), (bumped[2],))
        assert instantaneous_capacity(more, params, 0.1) >= instantaneous_capacity(base, params, 0.1)

    def test_aggregate_sums_relay_terms(self):
        draw = ChannelDraw(0.5, (1.0, 2.0), (3.0, 4.0))
        x = 0.1
        expected = 0.5 + 3.0 / (4.0 + x) * 1.0 + 8.0 / (6.0 + x)
        assert channel_aggregate(draw, x) == pytest.approx(expected, rel=1e-15)


class TestOutageThreshold:
    def test_exact_one_relay(self):
        g = outage_threshold_g(SystemParams(snr=1.0, rate=0.01))
        assert g == pytest.approx(0.01486983549970351, rel=1e-12)

    def test_linearized_two_relay(self):
        g = outage_threshold_g(SystemParams(snr=1.0, rate=0.01, k_relays=2), mode="linearized")
        assert g == pytest.approx(0.02079441541679836, rel=1e-12)

    def test_low_snr_limit_constant(self):
        # g*SNR/R approaches 2*ln2 from above, monotonically in R/SNR
        errors = []
        for ratio in (1e-2, 1e-4, 1e-6):
            g = outage_threshold_g(SystemParams(snr=1.0, rate=ratio))
            errors.append(abs(g / ratio - 2.0 * math.log(2.0)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_zero_rate_threshold_is_zero(self):
        assert outage_threshold_g(SystemParams(snr=1.0, rate=0.0)) == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            threshold_for(0.01, 1.0, 0.1, 1, "bogus")


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
        ir = c_eps_baf_ir_k(UNIT, params, expected_n_one_relay(UNIT, params, "exact"))
        assert base < ir < 2.0 * base

    def test_forced_expected_n_scaling(self):
        params = SystemParams(snr=0.1, rate=0.01, epsilon=0.01)
        base = c_eps_baf_k(UNIT, 0.1, 0.01)
        assert c_eps_baf_ir_k(UNIT, params, 1.0) == pytest.approx(2.0 * base, rel=1e-15)
        assert c_eps_baf_ir_k(UNIT, params, 2.0) == pytest.approx(base, rel=1e-15)

    def test_two_relay_forced_scaling(self):
        v = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
        params = SystemParams(snr=1.0, rate=0.01, epsilon=0.001, k_relays=2)
        assert c_eps_baf_ir_k(v, params, 1.5) == pytest.approx(2.0 * c_eps_baf_k(v, 1.0, 0.001), rel=1e-15)

    def test_expected_n_out_of_range_rejected(self):
        params = SystemParams(snr=0.1, rate=0.01, epsilon=0.01)
        with pytest.raises(InvalidParameterError):
            c_eps_baf_ir_k(UNIT, params, 2.5)


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
