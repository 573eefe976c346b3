import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bafsim.capacity import instantaneous_capacity
from bafsim.channel import ChannelDraw, LinkVariances, SystemParams, gains_batch
from bafsim.errors import InvalidParameterError
from bafsim.protocol import BlockOutcome, block_stats_batch, simulate_block

gain = st.floats(0.0, 50.0)


def one_relay_params(snr=1.0, rate=0.01):
    return SystemParams(snr=snr, rate=rate)


class TestSimulateBlock:
    def test_strong_direct_link_decodes_first(self):
        out = simulate_block(ChannelDraw(100.0, (1.0,), (1.0,)), one_relay_params(), 0.1)
        assert out == BlockOutcome(True, 1, 100.0, (1,))

    def test_dead_channel_is_outage(self):
        out = simulate_block(ChannelDraw(0.0, (0.0,), (0.0,)), one_relay_params(), 0.1)
        assert not out.decoded
        assert out.sub_blocks_used == 2
        assert out.feedback_trace == (0, 0)
        assert out.final_aggregate == 0.0

    def test_worked_relay_rescue(self):
        # direct link below the 0.0148698 threshold, relay pushes it across
        out = simulate_block(ChannelDraw(0.01, (1.0,), (1.0,)), one_relay_params(), 0.1)
        assert out.decoded
        assert out.sub_blocks_used == 2
        assert out.feedback_trace == (0, 1)
        assert out.final_aggregate == pytest.approx(0.01 + 1.0 / 2.1, rel=1e-15)

    def test_zero_rate_always_decodes_immediately(self):
        out = simulate_block(ChannelDraw(0.0, (0.0,), (0.0,)), SystemParams(snr=1.0, rate=0.0), 1.0)
        assert out.decoded and out.sub_blocks_used == 1

    def test_requires_a_relay(self):
        with pytest.raises(InvalidParameterError):
            simulate_block(ChannelDraw(1.0, (), ()), one_relay_params(), 0.1)

    @given(
        gains=st.tuples(gain, gain, gain, gain, gain),
        rate=st.floats(1e-4, 0.5),
        snr=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_outage_iff_full_capacity_below_rate(self, gains, rate, snr):
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        params = SystemParams(snr=snr, rate=rate, k_relays=2)
        tau = min((rate * snr) ** 0.5, 1.0)
        out = simulate_block(draw, params, tau)
        assert (not out.decoded) == (instantaneous_capacity(draw, params, tau) < rate)

    @given(gains=st.tuples(gain, gain, gain, gain, gain), rate=st.floats(1e-4, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_trace_is_zeros_then_one(self, gains, rate):
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        params = SystemParams(snr=1.0, rate=rate, k_relays=2)
        out = simulate_block(draw, params, 0.3)
        trace = out.feedback_trace
        assert len(trace) == out.sub_blocks_used
        assert all(b == 0 for b in trace[:-1])
        assert trace[-1] == (1 if out.decoded else 0)
        if not out.decoded:
            assert out.sub_blocks_used == 3

    @given(
        gains=st.tuples(gain, gain, gain, gain, gain),
        bump=st.floats(0.01, 20.0),
        which=st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_more_gain_never_needs_more_sub_blocks(self, gains, bump, which):
        params = SystemParams(snr=1.0, rate=0.02, k_relays=2)
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        boosted = list(gains)
        boosted[which] += bump
        draw2 = ChannelDraw(boosted[0], (boosted[1], boosted[2]), (boosted[3], boosted[4]))
        assert simulate_block(draw2, params, 0.2).sub_blocks_used <= simulate_block(draw, params, 0.2).sub_blocks_used


class TestBatchAgreement:
    @pytest.mark.parametrize("k,rate,mode", [(1, 0.01, "exact"), (3, 0.05, "exact"), (2, 0.02, "linearized")])
    def test_vectorised_path_matches_scalar_state_machine(self, k, rate, mode):
        v = LinkVariances(1.0, (0.5,) * k, (2.0,) * k)
        params = SystemParams(snr=0.5, rate=rate, k_relays=k)
        tau = min((rate * 0.5) ** 0.5, 1.0)
        gains = gains_batch(v, 31337, 0, 500)
        outage, n_used = block_stats_batch(gains, 0.5, rate, tau, k, mode)
        for row in range(500):
            draw = ChannelDraw(gains[row, 0], tuple(gains[row, 1 : 1 + k]), tuple(gains[row, 1 + k :]))
            out = simulate_block(draw, params, tau, threshold_mode=mode)
            assert out.decoded == (not outage[row])
            assert out.sub_blocks_used == n_used[row]

    def test_zero_rate_batch(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        gains = gains_batch(v, 1, 0, 100)
        outage, n_used = block_stats_batch(gains, 1.0, 0.0, 1.0, 1)
        assert not outage.any()
        assert (n_used == 1).all()

    def test_all_zero_gains_consume_every_sub_block(self):
        gains = np.zeros((4, 7))
        outage, n_used = block_stats_batch(gains, 1.0, 0.01, 0.1, 3)
        assert outage.all()
        assert (n_used == 4).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            block_stats_batch(np.zeros((4, 3)), 1.0, 0.01, 0.1, 2)
