import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bafsim.capacity import channel_aggregate, decode_condition, instantaneous_capacity
from bafsim.channel import ChannelDraw, LinkVariances, SystemParams, gains_batch
from bafsim.errors import InvalidParameterError
from bafsim.protocol import BlockOutcome, _hops, _undecoded_rows, _Workspace, aggregate_batch, simulate_block, undecoded_counts
from protocol_reference import block_stats_batch

gain = st.floats(0.0, 50.0)


def one_relay_params(snr=1.0, rate=0.01):
    return SystemParams(snr=snr, rate=rate)


class TestSimulateBlock:
    def test_strong_direct_link_decodes_first(self):
        out = simulate_block(ChannelDraw(100.0, (1.0,), (1.0,)), one_relay_params())
        assert out == BlockOutcome(True, 1, 100.0, (1,))

    def test_dead_channel_is_outage(self):
        out = simulate_block(ChannelDraw(0.0, (0.0,), (0.0,)), one_relay_params())
        assert not out.decoded
        assert out.sub_blocks_used == 2
        assert out.feedback_trace == (0, 0)
        assert out.final_aggregate == 0.0

    def test_worked_relay_rescue(self):
        # direct link below the 0.0148698 threshold, relay pushes it across
        out = simulate_block(ChannelDraw(0.01, (1.0,), (1.0,)), one_relay_params())
        assert out.decoded
        assert out.sub_blocks_used == 2
        assert out.feedback_trace == (0, 1)
        assert out.final_aggregate == pytest.approx(0.01 + 1.0 / 2.1, rel=1e-15)

    def test_zero_rate_always_decodes_immediately(self):
        out = simulate_block(ChannelDraw(0.0, (0.0,), (0.0,)), SystemParams(snr=1.0, rate=0.0))
        assert out.decoded and out.sub_blocks_used == 1

    def test_requires_a_relay(self):
        with pytest.raises(InvalidParameterError, match="requires at least one relay"):
            simulate_block(ChannelDraw(1.0, (), ()), SystemParams(snr=1.0, rate=0.01, k_relays=0))

    @pytest.mark.parametrize("call", [simulate_block, instantaneous_capacity])
    def test_relay_count_must_match(self, call):
        with pytest.raises(InvalidParameterError, match=r"^draw describes 2 relays but params\.k_relays=1$"):
            call(ChannelDraw(0.01, (1.0, 1.0), (1.0, 1.0)), one_relay_params())

    @given(
        gains=st.tuples(gain, gain, gain, gain, gain),
        rate=st.floats(1e-4, 0.5),
        snr=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_outage_iff_full_capacity_below_rate(self, gains, rate, snr):
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        params = SystemParams(snr=snr, rate=rate, k_relays=2)
        out = simulate_block(draw, params)
        assert (not out.decoded) == (instantaneous_capacity(draw, params) < rate)

    @given(gains=st.tuples(gain, gain, gain, gain, gain), rate=st.floats(1e-4, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_trace_is_zeros_then_one(self, gains, rate):
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        params = SystemParams(snr=1.0, rate=rate, k_relays=2, tau=0.3)
        out = simulate_block(draw, params)
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
        params = SystemParams(snr=1.0, rate=0.02, k_relays=2, tau=0.2)
        draw = ChannelDraw(gains[0], (gains[1], gains[2]), (gains[3], gains[4]))
        boosted = list(gains)
        boosted[which] += bump
        draw2 = ChannelDraw(boosted[0], (boosted[1], boosted[2]), (boosted[3], boosted[4]))
        assert simulate_block(draw2, params).sub_blocks_used <= simulate_block(draw, params).sub_blocks_used


_extreme_gain = st.one_of(st.just(0.0), st.just(1e308), gain)


@st.composite
def _batch_case(draw):
    k = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["exact", "linearized"]))
    snr = draw(st.sampled_from([1e-6, 0.01, 0.5, 10.0]))
    rate = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-4, 0.5)))
    fixed_tau = draw(st.one_of(st.none(), st.floats(0.01, 1.0)))
    rows = draw(st.lists(st.lists(_extreme_gain, min_size=1 + 2 * k, max_size=1 + 2 * k), min_size=1, max_size=12))
    return k, mode, snr, rate, fixed_tau, rows


class TestBatchAgreement:
    @pytest.mark.parametrize("k,rate,mode", [(1, 0.01, "exact"), (3, 0.05, "exact"), (2, 0.02, "linearized")])
    def test_vectorised_path_matches_scalar_state_machine(self, k, rate, mode):
        v = LinkVariances(1.0, (0.5,) * k, (2.0,) * k)
        params = SystemParams(snr=0.5, rate=rate, k_relays=k)
        gains = gains_batch(v, 31337, 0, 500)
        x, thr = decode_condition(rate, 0.5, params.tau, k, mode)
        outage, n_used = block_stats_batch(gains, x, thr, k)
        for row in range(500):
            draw = ChannelDraw(gains[row, 0], tuple(gains[row, 1 : 1 + k]), tuple(gains[row, 1 + k :]))
            out = simulate_block(draw, params, threshold_mode=mode)
            assert out.decoded == (not outage[row])
            assert out.sub_blocks_used == n_used[row]

    @given(case=_batch_case())
    # a decoded direct link, then a relay term 1e308*1e308/(1e308+1e308+x) = inf/inf = NaN
    @example(case=(2, "exact", 1.0, 0.01, None, [[5.0, 1e308, 0.1, 1e308, 0.1], [0.0, 1e308, 50.0, 1e308, 50.0]]))
    # 2^2000 overflows, so the exact threshold is infinite
    @example(case=(1, "exact", 1e-6, 1.0, None, [[0.0, 0.0, 0.0], [50.0, 50.0, 50.0], [1e308, 1e308, 1e308]]))
    @example(case=(3, "linearized", 0.5, 0.0, None, [[0.0] * 7, [1.0] * 7]))
    # a direct gain on the policy threshold x*expm1(2 ln2 x), which the fixed-tau spelling
    # x*expm1(2 ln2 rate/tau) at tau = sqrt(rate*snr) puts one ulp above it
    @example(case=(1, "exact", 0.7, 0.013, None, [[0.02833804573544846, 0.0, 0.0]]))
    @settings(max_examples=300, deadline=None)
    def test_running_sum_matches_scalar_state_machine(self, case):
        k, mode, snr, rate, fixed_tau, rows = case
        params = SystemParams(snr=snr, rate=rate, k_relays=k, tau=fixed_tau)
        x, thr = decode_condition(rate, snr, fixed_tau, k, mode)
        gains = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            outage, n_used = block_stats_batch(gains, x, thr, k)
            # the sweep passes column-major batches
            outage_f, n_used_f = block_stats_batch(np.asfortranarray(gains), x, thr, k)
        assert np.array_equal(outage, outage_f) and np.array_equal(n_used, n_used_f)
        assert n_used.dtype == np.int64
        for row, g in enumerate(rows):
            out = simulate_block(ChannelDraw(g[0], g[1 : 1 + k], g[1 + k :]), params, threshold_mode=mode)
            assert out.decoded == (not outage[row])
            assert out.sub_blocks_used == n_used[row]

    def test_zero_rate_batch(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        gains = gains_batch(v, 1, 0, 100)
        outage, n_used = block_stats_batch(gains, *decode_condition(0.0, 1.0, 1.0, 1), 1)
        assert not outage.any()
        assert (n_used == 1).all()

    def test_all_zero_gains_consume_every_sub_block(self):
        gains = np.zeros((4, 7))
        outage, n_used = block_stats_batch(gains, *decode_condition(0.01, 1.0, 0.1, 3), 3)
        assert outage.all()
        assert (n_used == 4).all()

    def test_threshold_given_directly_at_zero_offset(self):
        # the Lemma 1 event U + VW/(V+W) < g, with no duty cycle behind x or g;
        # the last row decodes on the direct link before its 0/0 relay term
        gains = np.array([[0.05, 1.0, 1.0], [0.01, 0.05, 0.05], [0.0, 0.02, 0.03], [0.2, 0.0, 0.0]])
        u, v, w = gains.T
        with np.errstate(invalid="ignore"):
            outage, n_used = block_stats_batch(gains, 0.0, 0.05, 1)
            assert np.array_equal(outage, u + v * w / (v + w) < 0.05)
        assert np.array_equal(n_used, [1, 2, 2, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            block_stats_batch(np.zeros((4, 3)), 0.1, 0.01, 2)

    @given(case=_batch_case())
    @settings(max_examples=100, deadline=None)
    def test_aggregate_adds_in_stage_order(self, case):
        k, _, snr, rate, fixed_tau, rows = case
        x, _ = decode_condition(rate, snr, fixed_tau, k)
        with np.errstate(over="ignore", invalid="ignore"):
            agg = aggregate_batch(np.array(rows), k, x)
        expected = [channel_aggregate(ChannelDraw(g[0], g[1 : 1 + k], g[1 + k :]), x) for g in rows]
        np.testing.assert_array_equal(agg, expected)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", ["empty", "full", "shuffled"])
def test_hops_on_rows_are_those_of_the_gathered_rows(k, order, rows):
    gains = np.asarray(gains_batch(LinkVariances(1.0, (0.5,) * k, (2.0,) * k), 5, 0, 500), order=order)
    index = {
        "empty": np.array([], dtype=np.intp),
        "full": np.arange(500),
        "shuffled": np.random.default_rng(1).permutation(500)[:300],
    }[rows]
    gathered = list(_hops(gains, k, index))
    assert len(gathered) == k
    for (p, s), (p_ref, s_ref) in zip(gathered, _hops(gains[index], k)):
        assert p.flags.c_contiguous and s.flags.c_contiguous
        assert np.array_equal(p, p_ref) and np.array_equal(s, s_ref)


def _counts_from_stats(outage, n_used, k):
    """u_0..u_K from per-row outcomes: a row undecoded after stage m < K enters stage m + 1."""
    return [int(np.count_nonzero(n_used > m + 1)) for m in range(k)] + [int(np.count_nonzero(outage))]


def _sweep_conditions(x, thr, rows, picks):
    """Decode conditions picked, in the order drawn, from the case's offset or 0 and from its threshold, half of it,
    0, inf, NaN or a row's direct gain."""
    thresholds = [thr, 0.5 * thr, 0.0, math.inf, math.nan] + [row[0] for row in rows]
    return [(x if keep_x else 0.0, thresholds[i % len(thresholds)]) for keep_x, i in picks]


_PICKS = st.lists(st.tuples(st.booleans(), st.integers(0, 16)), min_size=1, max_size=6)
# the case's condition, then x = 0 (0/0 terms on zero gains) and a lower threshold
_THREE_POINTS = [(True, 0), (False, 0), (True, 1)]
_DRAWS = gains_batch(LinkVariances(1.0, (0.5, 2.0), (2.0, 0.5)), 7, 0, 4000)


class TestUndecodedCounts:
    @given(case=_batch_case(), picks=_PICKS)
    # a decoded direct link, then a relay term 1e308*1e308/(1e308+1e308+x) = inf/inf = NaN
    @example(
        case=(2, "exact", 1.0, 0.01, None, [[5.0, 1e308, 0.1, 1e308, 0.1], [0.0, 1e308, 50.0, 1e308, 50.0]]),
        picks=_THREE_POINTS,
    )
    @example(
        case=(1, "exact", 1e-6, 1.0, None, [[0.0, 0.0, 0.0], [50.0, 50.0, 50.0], [1e308, 1e308, 1e308]]),
        picks=_THREE_POINTS,
    )
    @example(case=(3, "linearized", 0.5, 0.0, None, [[0.0] * 7, [1.0] * 7]), picks=_THREE_POINTS)
    # NaN, then the direct gain of the second row, then inf
    @example(
        case=(1, "exact", 0.5, 0.01, None, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]), picks=[(True, 4), (True, 6), (False, 3)]
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_match_block_stats_at_every_condition(self, case, picks):
        k, mode, snr, rate, fixed_tau, rows = case
        x, thr = decode_condition(rate, snr, fixed_tau, k, mode)
        points = _sweep_conditions(x, thr, rows, picks)
        gains = np.array(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [_counts_from_stats(*block_stats_batch(gains, px, pt, k), k) for px, pt in points]
            for layout in (gains, np.asfortranarray(gains)):
                assert undecoded_counts(layout, k, points, _Workspace(k, len(gains))) == expected

    @pytest.mark.parametrize("thresholds", [
        pytest.param([0.3, 0.01, 0.1, 0.03], id="unsorted"),
        pytest.param([0.1, 0.03, 0.1, 0.03, 0.1], id="duplicates"),
        pytest.param(_DRAWS[:3, 0].tolist(), id="equal-to-a-direct-gain"),
        pytest.param([0.0, math.inf, math.nan, 0.05], id="zero-inf-nan"),
        pytest.param([math.nan], id="one-point-nan"),
        pytest.param([0.05], id="one-point-few-rows-left"),
        pytest.param([5.0], id="one-point-most-rows-left"),
        pytest.param([5.0, 4.0], id="two-points-most-rows-left"),
        pytest.param([5.0, 0.05], id="most-rows-left-by-one-point"),
        pytest.param([0.5 * _DRAWS[:, 0].min(), 0.0], id="no-rows-left"),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sweep_matches_block_stats(self, thresholds, order):
        points = [(0.05 * (i % 3), thr) for i, thr in enumerate(thresholds)]
        expected = [_counts_from_stats(*block_stats_batch(_DRAWS, x, thr, 2), 2) for x, thr in points]
        assert undecoded_counts(np.asarray(_DRAWS, order=order), 2, points, _Workspace(2, len(_DRAWS))) == expected

    def test_rows_are_all_rows_when_the_smallest_threshold_leaves_most(self):
        g_sd, hops, leading = _undecoded_rows(_DRAWS, 2, [5.0, 4.0], _Workspace(2, 4000))
        assert leading == [4000, 4000] and np.array_equal(g_sd, _DRAWS[:, 0])  # unsorted
        assert [(len(p), len(s)) for p, s in hops] == [(4000, 4000)] * 2

    def test_rows_are_sorted_when_the_smallest_threshold_leaves_few(self):
        thresholds = [0.3, 0.01]
        g_sd, hops, leading = _undecoded_rows(_DRAWS, 2, thresholds, _Workspace(2, 4000))
        assert np.array_equal(g_sd, np.sort(_DRAWS[_DRAWS[:, 0] < 0.3, 0]))
        assert leading == np.searchsorted(g_sd, thresholds, "left").tolist()
        assert leading == [int(np.count_nonzero(_DRAWS[:, 0] < thr)) for thr in thresholds]
        assert [(len(p), len(s)) for p, s in hops] == [(len(g_sd), len(g_sd))] * 2

    def test_counts_are_those_of_the_stage_aggregates(self):
        # u_m counts the rows whose aggregate after stage m, the float aggregate_batch gives on the first m relays,
        # misses thr: draws are nonnegative, so the aggregate never falls; the gains are left as they were
        gains, k = _DRAWS.copy(), 2
        for points in ([(0.05, 0.1)], [(0.05, 5.0)], [(0.05, 0.3), (0.0, 0.01), (0.2, 0.1)]):
            counts = undecoded_counts(gains, k, points, _Workspace(k, len(gains)))
            for (x, thr), row in zip(points, counts):
                stages = [gains[:, 0]] + [
                    aggregate_batch(gains[:, [0, *range(1, 1 + m), *range(1 + k, 1 + k + m)]], m, x) for m in (1, 2)
                ]
                assert row == [int(np.count_nonzero(~(alpha >= thr))) for alpha in stages]
        assert np.array_equal(gains, _DRAWS)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            undecoded_counts(np.zeros((4, 3)), 2, [(0.1, 0.01)], _Workspace(2, 4))
