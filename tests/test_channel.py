import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bafsim
from bafsim import channel
from bafsim.capacity import decode_condition
from bafsim.channel import (
    TRIALS_PER_BATCH,
    VARIANCE_RANGE,
    ChannelDraw,
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    batch_plan,
    batch_stream,
    duty_cycle,
    gains_batch,
    variance_row,
    variances_from_geometry,
)
from bafsim.errors import InvalidParameterError


class TestGeometry:
    def test_midpoint_cubic_pathloss(self):
        v = variances_from_geometry(NetworkGeometry((0.5,), 3.0))
        assert v.sigma_sd2 == 1.0
        assert v.sigma_sr2 == (8.0,)
        assert v.sigma_rd2 == (8.0,)

    def test_zero_exponent_gives_unit_variances(self):
        v = variances_from_geometry(NetworkGeometry((0.5,), 0.0))
        assert v.sigma_sd2 == v.sigma_sr2[0] == v.sigma_rd2[0] == 1.0

    def test_quarter_point_quartic_pathloss(self):
        v = variances_from_geometry(NetworkGeometry((0.25,), 4.0))
        assert v.sigma_sr2[0] == 256.0
        assert v.sigma_rd2[0] == pytest.approx(3.1604938271604937, rel=1e-15)

    @pytest.mark.parametrize("position", [0.0, 1.0, -0.2, 1.5])
    def test_relay_must_sit_strictly_inside(self, position):
        with pytest.raises(InvalidParameterError, match=r"between source \(0\) and destination \(1\.0\)"):
            NetworkGeometry((position,), 3.0)

    def test_exact_swap_on_dyadic_positions(self):
        # 1 - d is exact for dyadic d, so the swap identity is bitwise
        for k in range(1, 256):
            d = k / 256.0
            a = variances_from_geometry(NetworkGeometry((d,), 3.7))
            b = variances_from_geometry(NetworkGeometry((1.0 - d,), 3.7))
            assert a.sigma_sr2[0] == b.sigma_rd2[0]
            assert a.sigma_rd2[0] == b.sigma_sr2[0]

    @given(d=st.floats(0.01, 0.99), a=st.floats(0.5, 6.0))
    def test_mirrored_placement_swaps_variances(self, d, a):
        left = variances_from_geometry(NetworkGeometry((d,), a))
        right = variances_from_geometry(NetworkGeometry((1.0 - d,), a))
        assert left.sigma_sr2[0] == pytest.approx(right.sigma_rd2[0], rel=1e-12)
        assert left.sigma_rd2[0] == pytest.approx(right.sigma_sr2[0], rel=1e-12)


class TestLinkVariances:
    @pytest.mark.parametrize("value", VARIANCE_RANGE)
    def test_range_ends_are_accepted(self, value):
        LinkVariances(value, (value,), (value,))

    @pytest.mark.parametrize("value", [0.0, 1e-151, 1e151, math.inf, math.nan])
    @pytest.mark.parametrize("link", range(3))
    def test_variance_outside_range_rejected(self, value, link):
        sigmas = [1.0, 1.0, 1.0]
        sigmas[link] = value
        with pytest.raises(InvalidParameterError):
            LinkVariances(sigmas[0], (sigmas[1],), (sigmas[2],))

    def test_pathloss_beyond_range_rejected(self):
        # 2**500 > 1e150 at the midpoint
        with pytest.raises(InvalidParameterError):
            variances_from_geometry(NetworkGeometry((0.5,), 500.0))


class TestSystemParams:
    def test_sqrt_policy(self):
        assert duty_cycle(0.01, 1.0) == pytest.approx(0.1, rel=1e-15)

    def test_policy_clamps_to_one(self):
        assert duty_cycle(4.0, 1.0) == 1.0

    def test_fixed_passthrough(self):
        assert duty_cycle(0.01, 1.0, 0.5) == 0.5

    def test_zero_rate_resolves(self):
        assert duty_cycle(0.0, 1.0) == 1.0

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.5])
    def test_fixed_tau_outside_unit_interval_rejected(self, tau):
        with pytest.raises(InvalidParameterError):
            SystemParams(snr=1.0, rate=0.01, tau=tau)

    @pytest.mark.parametrize("snr,tau", [(1e305, 1e-20), (1e305, 1e-3), (1.0, 5e-324), (1e300, 1e-10)])
    def test_fixed_tau_with_an_offset_below_the_normal_range_rejected(self, snr, tau):
        # x = tau/snr underflows, and x*(2^z - 1) reads 0*inf = NaN, a threshold every block meets
        with pytest.raises(InvalidParameterError, match="tau/snr"):
            SystemParams(snr=snr, rate=1.0, tau=tau)

    @given(
        snr_exp=st.floats(-1022.0, 1022.0),
        tau_exp=st.floats(-1074.0, 0.0),
        rate=st.one_of(st.just(0.0), st.floats(0.0, sys.float_info.max)),
        k=st.integers(1, 32),
        mode=st.sampled_from(["exact", "linearized"]),
    )
    @example(snr_exp=1011.9, tau_exp=-10.0, rate=1.0, k=1, mode="exact")  # tau/snr just above the normal range
    @example(snr_exp=0.0, tau_exp=-1022.0, rate=sys.float_info.max, k=32, mode="exact")
    @settings(max_examples=300, deadline=None)
    def test_accepted_fixed_tau_gives_a_threshold(self, snr_exp, tau_exp, rate, k, mode):
        snr, tau = 2.0**snr_exp, 2.0**tau_exp
        try:
            SystemParams(snr=snr, rate=0.0, k_relays=k, tau=tau)
        except InvalidParameterError:
            assert tau / snr < sys.float_info.min
            return
        x, thr = decode_condition(rate, snr, tau, k, mode)
        assert x > 0.0 and not math.isnan(thr)

    @pytest.mark.parametrize("kwargs", [
        {"snr": 0.0, "rate": 0.01},
        {"snr": 1.0, "rate": -1.0},
        {"snr": 1.0, "rate": 0.01, "epsilon": 0.0},
        {"snr": 1.0, "rate": 0.01, "epsilon": 1.0},
        {"snr": 1.0, "rate": 0.01, "k_relays": -1},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("k", [True, False, 1.0, 2.5, "1"], ids=repr)
    def test_k_relays_that_is_not_an_integer_rejected(self, k):
        with pytest.raises(InvalidParameterError) as raised:
            SystemParams(snr=1.0, rate=0.01, k_relays=k)
        assert str(raised.value) == f"k_relays must be a nonnegative integer, got {k!r}"

    @pytest.mark.parametrize("k", [np.int64(2), np.uint8(1), np.intp(0)], ids=repr)
    def test_k_relays_of_any_integer_type_is_stored_as_int(self, k):
        params = SystemParams(snr=1.0, rate=0.01, k_relays=k)
        assert type(params.k_relays) is int and params.k_relays == k


class TestDutyCycle:
    @given(rate_exp=st.floats(-330.0, 300.0), snr_db=st.floats(-3000.0, 3000.0), numpy_rate=st.booleans())
    @example(rate_exp=1.0, snr_db=10.0, numpy_rate=False)  # rate*snr = 100: clamped to 1
    @example(rate_exp=300.0, snr_db=3000.0, numpy_rate=False)  # rate*snr overflows: clamped to 1
    @example(rate_exp=-400.0, snr_db=0.0, numpy_rate=False)  # rate 0
    @example(rate_exp=-200.0, snr_db=-1100.0, numpy_rate=True)  # rate*snr below the normal range
    @settings(max_examples=200, deadline=None)
    def test_policy_is_a_correctly_rounded_float(self, rate_exp, snr_db, numpy_rate):
        rate, snr = 10.0**rate_exp, 10.0 ** (snr_db / 10.0)
        rate = np.float64(rate) if numpy_rate else rate
        if rate == 0.0:
            # the value is immaterial at rate 0
            assert duty_cycle(rate, snr) == 1.0
            return
        if float(rate) * snr < sys.float_info.min:
            with pytest.raises(InvalidParameterError, match="below the normal float range"):
                duty_cycle(rate, snr)
            return
        policy = duty_cycle(rate, snr)
        with np.errstate(over="ignore"):
            reference = np.minimum(np.sqrt(np.multiply(rate, snr)), 1.0)
        assert type(policy) is float
        assert policy.hex() == float(reference).hex()
        for mode in ("exact", "linearized"):
            assert [type(v) for v in decode_condition(rate, snr, None, 1, mode)] == [float, float]


class TestDraws:
    def test_same_seed_and_index_reproduce(self):
        v = LinkVariances(2.0, (1.0, 3.0), (0.5, 1.0))
        assert np.array_equal(gains_batch(v, 99, 5, 8), gains_batch(v, 99, 5, 8))

    def test_trial_row_does_not_depend_on_rows_requested(self):
        v = LinkVariances(1.5, (2.0,), (0.25,))
        for idx in (0, 3, TRIALS_PER_BATCH - 1, TRIALS_PER_BATCH, TRIALS_PER_BATCH + 7):
            batch, local = divmod(idx, TRIALS_PER_BATCH)
            row = gains_batch(v, 1234, batch, local + 1)[local]
            assert np.array_equal(row, gains_batch(v, 1234, batch)[local])

    def test_order_of_access_is_irrelevant(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        first = gains_batch(v, 7, 11, 4)
        gains_batch(v, 7, 200, 4)
        assert np.array_equal(first, gains_batch(v, 7, 11, 4))

    def test_columns_scale_by_the_variances(self):
        # the unit draws times [sigma_sd2, sigma_sr2..., sigma_rd2...]
        v = LinkVariances(1.5, (2.0, 0.5), (0.25, 4.0))
        unit = gains_batch(LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0)), 3, 2, 16)
        assert np.array_equal(gains_batch(v, 3, 2, 16), unit * np.array([1.5, 2.0, 0.5, 0.25, 4.0]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 1000, TRIALS_PER_BATCH])
    def test_every_row_scales_by_the_variances(self, k, rows):
        # whole blocks of rows and the rows after the last block alike
        v = LinkVariances(1.5, (2.0, 0.5, 3.0)[:k], (0.25, 4.0, 0.125)[:k])
        drawn = batch_stream(3, 2).standard_exponential((rows, 1 + 2 * k))
        assert np.array_equal(gains_batch(v, 3, 2, rows), drawn * variance_row(v))

    def test_truncated_batch_is_prefix_of_full(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        full = gains_batch(v, 5, 0, 4096)
        part = gains_batch(v, 5, 0, 100)
        assert np.array_equal(full[:100], part)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 63, 12_345, TRIALS_PER_BATCH])
    def test_draw_into_a_buffer_gives_the_bytes_of_a_fresh_draw(self, k, rows):
        v = LinkVariances(1.5, (2.0, 0.5, 3.0)[:k], (0.25, 4.0, 0.125)[:k])
        buf = np.full((TRIALS_PER_BATCH, 1 + 2 * k), np.nan)
        drawn = gains_batch(v, 3, 2, rows, out=buf)
        assert drawn.base is buf and drawn.shape == (rows, 1 + 2 * k)
        assert drawn.tobytes() == gains_batch(v, 3, 2, rows).tobytes()
        assert np.isnan(buf[rows:]).all()  # the rows after the batch are left as they were

    @pytest.mark.parametrize("buf", [
        pytest.param(np.full((TRIALS_PER_BATCH, 4), np.nan), id="columns"),
        pytest.param(np.full((99, 5), np.nan), id="too-few-rows"),
        pytest.param(np.full(100 * 5, np.nan), id="one-dimensional"),
        pytest.param(np.full((100, 5), np.nan, dtype=np.float32), id="float32"),
        pytest.param(np.full((100, 5), np.nan, order="F"), id="fortran-order"),
        pytest.param(np.full((100, 10), np.nan)[:, ::2], id="strided"),
    ])
    def test_a_buffer_that_cannot_hold_the_batch_is_rejected_before_any_draw(self, monkeypatch, buf):
        def no_stream(*args):
            raise AssertionError("drew gains before rejecting the buffer")

        monkeypatch.setattr(channel, "batch_stream", no_stream)
        with pytest.raises(InvalidParameterError, match="out must be"):
            gains_batch(LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0)), 3, 2, 100, out=buf)
        assert np.isnan(buf).all()

    @pytest.mark.parametrize("n_rows", [100.5, True, "5", 5.0])
    def test_a_non_integer_row_count_is_rejected_before_any_draw(self, monkeypatch, n_rows):
        def no_stream(*args):
            raise AssertionError("drew gains before rejecting the row count")

        monkeypatch.setattr(channel, "batch_stream", no_stream)
        with pytest.raises(InvalidParameterError) as err:
            gains_batch(LinkVariances(1.0, (1.0,), (1.0,)), 0, 0, n_rows)
        assert str(err.value) == f"n_rows must be an integer, got {n_rows!r}"

    def test_a_numpy_integer_row_count_draws_as_an_int(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        drawn = gains_batch(v, 0, 0, np.int64(5))
        assert drawn.shape == (5, 3)
        assert drawn.tobytes() == gains_batch(v, 0, 0, 5).tobytes()

    def test_sample_mean_matches_variance(self):
        # law of large numbers at 1e6 draws: tolerance is 5 standard errors
        v = LinkVariances(2.0, (1.0,), (1.0,))
        total = 0.0
        n = 0
        for j, rows in batch_plan(10**6):
            total += gains_batch(v, 2024, j, rows)[:, 0].sum()
            n += rows
        assert abs(total / n - 2.0) < 0.01

    def test_empirical_cdf_is_exponential(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        hits = 0
        n = 0
        for j, rows in batch_plan(10**6):
            hits += int((gains_batch(v, 77, j, rows)[:, 0] <= 1.0).sum())
            n += rows
        assert hits / n == pytest.approx(1.0 - math.exp(-1.0), abs=0.002)

    def test_batch_plan_covers_trials(self):
        plan = batch_plan(TRIALS_PER_BATCH * 2 + 17)
        assert sum(r for _, r in plan) == TRIALS_PER_BATCH * 2 + 17
        assert [j for j, _ in plan] == [0, 1, 2]

    def test_draw_rejects_negative_gain(self):
        with pytest.raises(InvalidParameterError):
            ChannelDraw(-0.1, (1.0,), (1.0,))

    @pytest.mark.parametrize("seeds", [(2**63 + 1, 2**63 + 2), (2**64 - 2, 2**64 - 1)])
    def test_top_bit_seeds_draw_distinct_gains(self, seeds):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        first, second = (gains_batch(v, seed, 0, 8) for seed in seeds)
        assert not np.array_equal(first, second)

    def test_seeds_below_top_bit_keep_their_draws(self):
        v = LinkVariances(1.0, (1.0,), (1.0,))
        assert gains_batch(v, 2**63 - 1, 3, 1)[0, 0] == 0.8875982332871811

    @given(seed=st.integers(0, 2**64 - 1), idx=st.integers(0, 10 * TRIALS_PER_BATCH))
    @settings(max_examples=25, deadline=None)
    def test_draws_are_pure_functions_of_seed_and_index(self, seed, idx):
        v = LinkVariances(1.0, (2.0,), (0.5,))
        batch, local = divmod(idx, TRIALS_PER_BATCH)
        row = gains_batch(v, seed, batch, local + 1)[local]
        assert np.array_equal(row, gains_batch(v, seed, batch)[local])


def test_no_public_function_takes_params_beside_one_of_its_fields():
    # an operating point has one source: a function given ``params`` reads them there
    fields = {"tau", "rate", "snr", "epsilon", "k_relays"}
    functions = {name: f for name, f in vars(bafsim).items() if not name.startswith("_") and inspect.isfunction(f)}
    assert "simulate_block" in functions and "estimate_outage" in functions
    doubled = {}
    for name, f in functions.items():
        arguments = set(inspect.signature(f).parameters)
        if "params" in arguments and arguments & fields:
            doubled[name] = sorted(arguments & fields)
    assert doubled == {}
