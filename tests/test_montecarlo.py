import fcntl
import functools
import inspect
import math
import os
import pickle
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bafsim import cli, montecarlo, protocol
from bafsim.capacity import c_eps_baf_k, decode_condition, lemma1_constant, position_grid
from bafsim.channel import (
    TRIALS_PER_BATCH,
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    batch_plan,
    gains_batch,
    variance_row,
    variances_from_geometry,
)
from bafsim.errors import ConvergenceError, InvalidParameterError
from bafsim.montecarlo import (
    MAX_TRIALS,
    MIN_EVENTS,
    MIN_TRIALS,
    empirical_capacity_vs_position,
    empirical_eps_outage_capacity,
    empirical_eps_outage_capacity_sweep,
    empirical_placement_argmax,
    estimate_expected_n,
    estimate_outage,
    estimate_outage_sweep,
    lemma1_ratio_experiment,
    policy_x_for_threshold,
    quadrature_outage_oracle,
    worker_count,
)
from bafsim.protocol import _Workspace, aggregate_batch, undecoded_counts
from protocol_reference import block_stats_batch

UNIT = LinkVariances(1.0, (1.0,), (1.0,))


class TestWorkerCount:
    def test_env_caps_request(self, monkeypatch):
        monkeypatch.setenv("BAF_WORKERS", "2")
        assert worker_count(8) == 2
        assert worker_count(1) == 1

    def test_unset_env_uses_request(self, monkeypatch):
        monkeypatch.delenv("BAF_WORKERS", raising=False)
        assert worker_count(3) == 3

    @pytest.mark.parametrize("bad", ["zero", "0", "-2"])
    def test_invalid_env_rejected(self, bad, monkeypatch):
        monkeypatch.setenv("BAF_WORKERS", bad)
        with pytest.raises(InvalidParameterError):
            worker_count(2)

    @pytest.mark.parametrize("env", [None, "2"])
    @pytest.mark.parametrize("requested", [0, -3, "2", 2.0])
    def test_invalid_request_rejected_before_any_draw(self, requested, env, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew gains before rejecting the worker count")

        if env is None:
            monkeypatch.delenv("BAF_WORKERS", raising=False)
        else:
            monkeypatch.setenv("BAF_WORKERS", env)
        monkeypatch.setattr(montecarlo, "gains_batch", no_draws)
        with pytest.raises(InvalidParameterError, match="workers must be a positive integer"):
            worker_count(requested)
        with pytest.raises(InvalidParameterError, match="workers must be a positive integer"):
            estimate_outage(UNIT, SystemParams(snr=0.1, rate=0.01), 10_000, 3, workers=requested)

    @pytest.mark.parametrize("requested", [True, False])
    def test_a_bool_request_is_rejected(self, requested, monkeypatch):
        monkeypatch.delenv("BAF_WORKERS", raising=False)
        with pytest.raises(InvalidParameterError) as err:
            worker_count(requested)
        assert str(err.value) == f"workers must be a positive integer, got {requested!r}"

    def test_a_numpy_integer_request_is_an_int(self, monkeypatch):
        monkeypatch.setenv("BAF_WORKERS", "8")
        workers = worker_count(np.int64(3))
        assert workers == 3 and type(workers) is int

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.setenv("BAF_WORKERS", "8")
        monkeypatch.delattr(os, "fork")
        assert worker_count(4) == 1
        monkeypatch.setenv("BAF_WORKERS", "0")
        with pytest.raises(InvalidParameterError):
            worker_count(4)


def _fan_out_task(action, value):
    """A fan-out worker: ("array", v) returns 1 MB of v, more than a pipe holds; the others fail as named."""
    if action == "raise":
        raise value
    if action == "exit":
        os._exit(value)
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "sleep":
        time.sleep(value)
    if action == "unpicklable":
        raise ConvergenceError(lambda: value)  # neither its outcome nor this error pickles
    if action == "pipes":  # the pipes this process holds each end of: {inode: {O_RDONLY, O_WRONLY}}
        ends = {}
        for fd in os.listdir("/proc/self/fd"):
            target = os.readlink(f"/proc/self/fd/{fd}") if os.path.exists(f"/proc/self/fd/{fd}") else ""
            if target.startswith("pipe:"):
                ends.setdefault(target, set()).add(fcntl.fcntl(int(fd), fcntl.F_GETFL) & os.O_ACCMODE)
        return ends
    return np.full(1 << 17, value)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out forks; without os.fork every pass runs in process")
class TestRunBatches:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """A fan-out that blocks fails after 20 s, not never: the alarm raises in the waiting parent."""
        def expire(signum, frame):
            raise TimeoutError("the fan-out took over 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the children ``_run_batches`` forks, each of which must be reaped when it returns."""
        pids, fork = [], os.fork

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return pids

    @staticmethod
    def _assert_reaped(pids, count):
        assert len(pids) == count
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_results_come_back_in_task_order(self, forked):
        results = montecarlo._run_batches(_fan_out_task, [("array", v) for v in (3.0, 1.0, 2.0, 0.5)])
        assert [r.nbytes for r in results] == [1 << 20] * 4
        assert [np.unique(r).tolist() for r in results] == [[3.0], [1.0], [2.0], [0.5]]
        self._assert_reaped(forked, 4)

    def test_one_task_runs_in_process(self, forked):
        assert montecarlo._run_batches(_fan_out_task, [("array", 7.0)])[0].nbytes == 1 << 20
        self._assert_reaped(forked, 0)

    @pytest.mark.parametrize("error", [
        InvalidParameterError("epsilon must lie in (0, 1), got 2"),
        ConvergenceError("no bracket after 60 doublings"),
    ], ids=type)
    def test_a_child_exception_is_raised_with_its_type_and_message(self, forked, error):
        tasks = [("array", 1.0), ("raise", error), ("array", 2.0)]
        with pytest.raises(type(error)) as raised:
            montecarlo._run_batches(_fan_out_task, tasks)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        self._assert_reaped(forked, 3)

    @pytest.mark.parametrize("task, status", [
        (("exit", 3), "exit status 3"),
        (("kill", None), f"signal {int(signal.SIGKILL)}"),
        (("unpicklable", None), "exit status 1"),
    ], ids=["exit", "kill", "unpicklable"])
    def test_a_child_that_sends_nothing_raises(self, forked, task, status):
        with pytest.raises(ChildProcessError, match=rf"sent no result \({status}\)$"):
            montecarlo._run_batches(_fan_out_task, [("array", 1.0), task, ("array", 2.0)])
        self._assert_reaped(forked, 3)

    @pytest.mark.parametrize("status, how", [(int(signal.SIGKILL), f"signal {int(signal.SIGKILL)}"), (3 << 8, "exit status 3")])
    def test_an_unclean_exit_raises_whatever_the_child_sent(self, status, how):
        # a child killed while it writes leaves part of its result in the pipe
        payload = pickle.dumps((True, np.zeros(1000)))
        for sent in (payload[: len(payload) // 2], payload):
            with pytest.raises(ChildProcessError, match=rf"sent no result \({how}\)$"):
                montecarlo._received(sent, status)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files through /proc")
    def test_a_child_holds_no_read_end_of_the_pipe_it_writes(self, forked):
        # else a child whose parent is gone would block on a full pipe for ever, instead of failing to write
        def both_ends(ends):
            return {pipe for pipe, modes in ends.items() if len(modes) == 2}

        own = both_ends(_fan_out_task("pipes", None))
        for ends in montecarlo._run_batches(_fan_out_task, [("pipes", None)] * 3):
            assert both_ends(ends) <= own
        self._assert_reaped(forked, 3)

    def test_a_fork_warning_about_threads_leaves_no_child(self, forked, monkeypatch):
        # Python 3.12+ warns in the parent, after the child exists, when a process with threads forks: raised as
        # an error there, the warning would lose the child's pid and leave it unreaped
        fork = os.fork

        def warning():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning)
        results = montecarlo._run_batches(_fan_out_task, [("array", 1.0), ("array", 2.0)])
        assert [np.unique(r).tolist() for r in results] == [[1.0], [2.0]]
        self._assert_reaped(forked, 2)

    def test_children_still_running_are_killed_on_an_error(self, forked):
        started = time.perf_counter()
        with pytest.raises(ConvergenceError):
            montecarlo._run_batches(_fan_out_task, [("raise", ConvergenceError("first")), ("sleep", 60.0)])
        assert time.perf_counter() - started < 30.0
        self._assert_reaped(forked, 2)


class TestOutageEstimator:
    def test_zero_rate_never_in_outage(self):
        est = estimate_outage(UNIT, SystemParams(snr=1.0, rate=0.0), 10_000, 3, workers=1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_requires_minimum_trials(self):
        with pytest.raises(InvalidParameterError):
            estimate_outage(UNIT, SystemParams(snr=1.0, rate=0.01), 9_999, 3)

    def test_relay_count_must_match(self):
        with pytest.raises(InvalidParameterError):
            estimate_outage(UNIT, SystemParams(snr=1.0, rate=0.01, k_relays=2), 10_000, 3)

    def test_worker_count_never_changes_the_estimate(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # four batches: three parts in forked workers
        params = SystemParams(snr=0.1, rate=0.01)
        serial = estimate_outage(UNIT, params, 200_000, 17, workers=1)
        parallel = estimate_outage(UNIT, params, 200_000, 17, workers=3)
        assert serial == parallel

    def test_matches_quadrature_oracle(self):
        params = SystemParams(snr=0.05, rate=0.002)
        est = estimate_outage(UNIT, params, 400_000, 2025, workers=1)
        x, thr = decode_condition(params.rate, params.snr, params.tau, 1)
        p = quadrature_outage_oracle(UNIT, thr, x)
        assert abs(est.mean - p) < 3.0 * est.stderr

    def test_estimate_lies_in_its_interval(self):
        est = estimate_outage(UNIT, SystemParams(snr=0.1, rate=0.02), 50_000, 5, workers=1)
        assert est.ci95[0] <= est.mean <= est.ci95[1]
        assert est.stderr >= 0.0


class TestTrialCap:
    _CALLS = {
        "outage": lambda n: estimate_outage(UNIT, SystemParams(snr=1.0, rate=0.01), n, 3),
        "expected-n": lambda n: estimate_expected_n(UNIT, SystemParams(snr=1.0, rate=0.01), n, 3),
        "capacity": lambda n: empirical_eps_outage_capacity(UNIT, SystemParams(snr=1.0, rate=0.0, epsilon=0.01), n, 3),
        "lemma1": lambda n: lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.1], n, 3),
        "placement": lambda n: empirical_capacity_vs_position(2.0, 1.0, 0.01, n, 3, grid_points=3),
        "placement-argmax": lambda n: empirical_placement_argmax(2.0, 1.0, 0.01, n, 3, grid_points=3),
    }

    @pytest.mark.parametrize("name", _CALLS)
    @pytest.mark.parametrize("n_trials", [MAX_TRIALS + 1, 10**20])
    def test_over_cap_rejected_before_the_plan(self, monkeypatch, name, n_trials):
        def no_plan(n):
            raise AssertionError("batch plan built")

        monkeypatch.setattr(montecarlo, "batch_plan", no_plan)
        with pytest.raises(InvalidParameterError, match=f"n_trials must be at most {MAX_TRIALS}"):
            self._CALLS[name](n_trials)

    @pytest.mark.parametrize("name", _CALLS)
    @pytest.mark.parametrize("n_trials", [20000.9, 20000.0, np.float64(20000.0), True], ids=repr)
    def test_a_count_that_is_not_an_integer_is_rejected_before_the_plan(self, monkeypatch, name, n_trials):
        def no_plan(n):
            raise AssertionError("batch plan built")

        monkeypatch.setattr(montecarlo, "batch_plan", no_plan)
        with pytest.raises(InvalidParameterError) as raised:
            self._CALLS[name](n_trials)
        assert str(raised.value) == f"n_trials must be an integer, got {n_trials!r}"

    @pytest.mark.parametrize("n_trials", [np.int16(20_000), np.int64(20_000)], ids=repr)
    def test_a_count_of_any_integer_type_is_taken_as_an_int(self, n_trials):
        # an int16 count would overflow in the pass's work, n_trials * (1 + 2K + points)
        params = SystemParams(snr=1.0, rate=0.05)
        estimate = estimate_outage(UNIT, params, n_trials, 3, workers=1)
        assert type(estimate.n_trials) is int and estimate == estimate_outage(UNIT, params, 20_000, 3, workers=1)

    @pytest.mark.parametrize("name", ["outage", "expected-n", "capacity", "lemma1"])
    def test_cap_is_inclusive(self, monkeypatch, name):
        def planned(n):
            raise AssertionError(f"batch plan of {n}")

        monkeypatch.setattr(montecarlo, "batch_plan", planned)
        with pytest.raises(AssertionError, match=f"batch plan of {MAX_TRIALS}"):
            self._CALLS[name](MAX_TRIALS)


class TestExpectedNEstimator:
    def test_zero_rate_uses_one_sub_block(self):
        est = estimate_expected_n(UNIT, SystemParams(snr=1.0, rate=0.0), 10_000, 3, workers=1)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_matches_exponential_cdf(self):
        # exact value 1 + (1 - exp(-t)) = 1.0147598254479449 at this point
        params = SystemParams(snr=0.1, rate=0.001)
        est = estimate_expected_n(UNIT, params, 200_000, 99, workers=1)
        assert abs(est.mean - 1.0147598254479449) < 3.0 * est.stderr

    def test_retransmissions_match_direct_link_failures_trial_by_trial(self):
        params = SystemParams(snr=0.1, rate=0.01)
        x, thr = decode_condition(params.rate, params.snr, params.tau, 1)
        gains = gains_batch(UNIT, 4, 0, 5_000)
        _, n_used = block_stats_batch(gains, x, thr, 1)
        assert np.array_equal(n_used >= 2, gains[:, 0] < thr)

    def test_worker_count_never_changes_the_estimate(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # three batches: three parts in forked workers
        params = SystemParams(snr=0.1, rate=0.001)
        assert estimate_expected_n(UNIT, params, 150_000, 8, workers=1) == estimate_expected_n(
            UNIT, params, 150_000, 8, workers=4
        )

    def test_three_relays_stay_within_range(self):
        v = LinkVariances(1.0, (2.0, 3.0, 4.0), (4.0, 3.0, 2.0))
        params = SystemParams(snr=0.02, rate=0.01, k_relays=3)
        est = estimate_expected_n(v, params, 20_000, 6, workers=1)
        assert 1.0 <= est.mean <= 4.0


class TestOutageSweep:
    V2 = LinkVariances(1.0, (0.5, 2.0), (2.0, 0.5))
    GRID = [
        SystemParams(snr=snr, rate=rate, k_relays=2)
        for snr in (0.05, 0.2, 1.0)
        for rate in (0.0, 0.01, 0.05)
    ] + [SystemParams(snr=0.2, rate=0.02, k_relays=2, tau=0.3)]

    @staticmethod
    def per_point_counts(variances, params, n_trials, seed, mode):
        x, thr = decode_condition(params.rate, params.snr, params.tau, params.k_relays, mode)
        outages = total_n = 0
        for j, rows in batch_plan(n_trials):
            outage, n_used = block_stats_batch(gains_batch(variances, seed, j, rows), x, thr, params.k_relays)
            outages += int(outage.sum())
            total_n += int(n_used.sum())
        return outages, total_n

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("mode", ["exact", "linearized"])
    def test_one_pass_matches_every_one_point_call(self, monkeypatch, workers, mode):
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # a part per batch at three workers
        n = 150_000  # three batches, the last one short
        sweep = estimate_outage_sweep(self.V2, self.GRID, n, 77, workers=workers, threshold_mode=mode)
        assert len(sweep) == len(self.GRID)
        for params, est in zip(self.GRID, sweep):
            assert est == estimate_outage(self.V2, params, n, 77, workers=1, threshold_mode=mode)
            outages, total_n = self.per_point_counts(self.V2, params, n, 77, mode)
            assert est.mean == outages / n
            expected_n = estimate_expected_n(self.V2, params, n, 77, workers=workers, threshold_mode=mode)
            assert expected_n.mean == total_n / n

    @pytest.mark.parametrize("bad", [
        [SystemParams(snr=0.1, rate=0.01, k_relays=1)],  # one relay, the variances have two
        [SystemParams(snr=1e-200, rate=1e-200, k_relays=2)],  # rate*snr underflows: no duty cycle
        None,  # an empty sweep
    ])
    def test_every_point_is_checked_before_any_draw(self, monkeypatch, bad):
        def no_draws(*args):
            raise AssertionError("drew gains before rejecting the sweep")

        monkeypatch.setattr("bafsim.montecarlo.gains_batch", no_draws)
        with pytest.raises(InvalidParameterError):
            estimate_outage_sweep(self.V2, [] if bad is None else self.GRID + bad, 10_000, 1, workers=1)


def _compactions(g_sd, thresholds):
    """The points, counted from the largest threshold down, at which the row rule compacts the rows in play."""
    at = []
    for i, thr in enumerate(sorted(thresholds, reverse=True)):
        left = g_sd[~(g_sd >= thr)]
        if 2 * len(left) <= len(g_sd):
            g_sd = left
            at.append(i)
    return at


@pytest.mark.parametrize("thresholds, compactions", [
    ((0.692,), [[], [0], [], []]),
    ((0.692, 0.69, 0.689), [[], [0], [1], []]),
], ids=["one-point", "three-points"])
def test_a_part_reuses_one_workspace_and_counts_as_fresh_arrays(monkeypatch, thresholds, compactions):
    # the row rule compacts no rows of the first batch, the rows of the second at its first point, before the hop
    # terms are built on the rows it keeps, and, with three points, the hop terms of the third after them; the last,
    # short batch, which compacts nothing, must not read the rows the full batches left.  Every batch is drawn into
    # one buffer, which the kernel only reads: after each call it still holds that batch's draw
    v, seed, plan = LinkVariances(1.0, (0.5, 2.0), (2.0, 0.5)), 3, batch_plan(3 * TRIALS_PER_BATCH + 1000)
    assert [_compactions(gains_batch(v, seed, j, rows)[:, 0], thresholds) for j, rows in plan] == compactions
    points = [(0.1 * i, thr) for i, thr in enumerate(thresholds)]
    buffers, drawn, seen, unwritten = [], [], [], []

    def draw(*args, out=None):
        buffers.append(out)
        drawn.append(args)
        return gains_batch(*args, out=out)

    def counts(gains, k_relays, points, ws):
        seen.append(undecoded_counts(gains, k_relays, points, ws))
        unwritten.append(np.array_equal(gains, gains_batch(*drawn[-1])))
        return seen[-1]

    monkeypatch.setattr(montecarlo, "gains_batch", draw)
    monkeypatch.setattr(montecarlo, "undecoded_counts", counts)
    totals = montecarlo._sweep_part(v, seed, plan, points)
    assert len(buffers) == len(plan) and isinstance(buffers[0], np.ndarray) and all(b is buffers[0] for b in buffers)
    assert unwritten == [True] * len(plan)
    fresh = [undecoded_counts(gains_batch(v, seed, j, rows), 2, points, _Workspace(2, rows)) for j, rows in plan]
    assert seen == fresh
    n = sum(rows for _, rows in plan)
    for (outages, sum_n, _), per_batch in zip(totals, zip(*fresh)):
        u = [sum(column) for column in zip(*per_batch)]
        assert (outages, sum_n) == (u[-1], n + sum(u[:-1]))


@st.composite
def _fused_case(draw, max_batches=3):
    """A sweep over 1-``max_batches`` batches, the last one short, at K = 1-3 and 1-3 points of either duty cycle."""
    k = draw(st.integers(1, 3))
    sigma = st.sampled_from([0.3, 1.0, 4.0])
    variances = LinkVariances(draw(sigma), tuple(draw(sigma) for _ in range(k)), tuple(draw(sigma) for _ in range(k)))
    point = st.builds(
        lambda snr, rate, tau: SystemParams(snr=snr, rate=rate, k_relays=k, tau=tau),
        st.sampled_from([0.05, 0.3, 2.0]),
        st.one_of(st.just(0.0), st.floats(1e-3, 0.1)),
        st.one_of(st.none(), st.floats(0.05, 1.0)),
    )
    params_seq = draw(st.lists(point, min_size=1, max_size=3))
    batches = draw(st.integers(1, max_batches))
    n_trials = (batches - 1) * TRIALS_PER_BATCH + draw(st.integers(MIN_TRIALS if batches == 1 else 1, TRIALS_PER_BATCH - 1))
    mode = draw(st.sampled_from(["exact", "linearized"]))
    return variances, params_seq, n_trials, mode


class TestFusedPass:
    """Every estimator on the one-pass sweep equals per-point sums of the kernel ``block_stats_batch``."""

    @staticmethod
    def kernel_sums(variances, points, n_trials, seed):
        totals = [[0, 0, 0] for _ in points]
        for j, rows in batch_plan(n_trials):
            gains = gains_batch(variances, seed, j, rows)
            for total, (x, thr) in zip(totals, points):
                outage, n_used = block_stats_batch(gains, x, thr, variances.k_relays)
                total[0] += int(outage.sum())
                total[1] += int(n_used.sum())
                total[2] += int((n_used * n_used).sum())
        return totals

    @given(case=_fused_case(), seed=st.integers(0, 2**64 - 1), workers=st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_outage_and_expected_n_equal_the_kernel_sums(self, case, seed, workers):
        variances, params_seq, n_trials, mode = case
        points = [decode_condition(p.rate, p.snr, p.tau, p.k_relays, mode) for p in params_seq]
        sums = self.kernel_sums(variances, points, n_trials, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_PART_WORK", 1)  # a part per batch at two workers
            mp.setenv("BAF_WORKERS", str(workers))
            sweep = estimate_outage_sweep(variances, params_seq, n_trials, seed, workers, mode)
            expected_n = [estimate_expected_n(variances, p, n_trials, seed, workers, mode) for p in params_seq]
        for est, mean_n, (outages, total_n, total_sq) in zip(sweep, expected_n, sums):
            assert est == montecarlo._bernoulli_estimate(outages, n_trials)
            assert mean_n == montecarlo._mean_estimate(total_n, total_sq, n_trials)

    @given(
        sigmas=st.tuples(*[st.sampled_from([0.5, 1.0, 2.0])] * 3),
        # g >= 0.4 keeps about 400 events or more at the smallest threshold in 10 007 trials, far above lemma1's 100
        gs=st.lists(st.floats(0.4, 1.0), min_size=1, max_size=3, unique=True),
        x_factor=st.sampled_from([0.0, 0.1, None]),
        batches=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        workers=st.sampled_from([1, 2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_lemma1_counts_equal_the_kernel_sums(self, sigmas, gs, x_factor, batches, seed, workers):
        gs = sorted(gs, reverse=True)
        n_trials = (batches - 1) * TRIALS_PER_BATCH + 10_007
        xs = [policy_x_for_threshold(g) if x_factor is None else x_factor * g for g in gs]
        sums = self.kernel_sums(LinkVariances(sigmas[0], (sigmas[1],), (sigmas[2],)), list(zip(xs, gs)), n_trials, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_PART_WORK", 1)  # a part per batch at two workers
            mp.setenv("BAF_WORKERS", str(workers))
            res = lemma1_ratio_experiment(*sigmas, gs, n_trials, seed, x_factor, workers)
        for (g, est), (outages, _, _) in zip(res, sums):
            assert est.mean == outages / n_trials * (1.0 / (g * g))


@st.composite
def _outage_split(draw):
    """(variances, points, n_trials, cuts): the decode conditions of an outage sweep, or lemma1's points (x, g),
    over 1-6 batches, the last one short, and the cuts of an arbitrary split of its batches into contiguous parts."""
    if draw(st.booleans()):
        variances, params_seq, n_trials, mode = draw(_fused_case(max_batches=6))
        points = [decode_condition(p.rate, p.snr, p.tau, p.k_relays, mode) for p in params_seq]
    else:
        sigma = st.sampled_from([0.5, 1.0, 2.0])
        variances = LinkVariances(draw(sigma), (draw(sigma),), (draw(sigma),))
        gs = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True)), reverse=True)
        x_factor = draw(st.sampled_from([0.0, 0.1, None]))
        points = [(policy_x_for_threshold(g) if x_factor is None else x_factor * g, g) for g in gs]
        n_trials = draw(st.integers(MIN_TRIALS, 6 * TRIALS_PER_BATCH - 1))
    batches = len(batch_plan(n_trials))
    inner = draw(st.lists(st.integers(1, batches - 1), unique=True)) if batches > 1 else []
    return variances, points, n_trials, [0, *sorted(inner), batches]


# a part per batch of five, the last one short: a K=2 sweep of two points, and lemma1's points at one relay
PER_BATCH_SPLITS = {
    "fused": (
        LinkVariances(1.0, (0.5, 2.0), (2.0, 0.5)),
        [decode_condition(0.05, 0.1, None, 2, "exact"), decode_condition(0.02, 1.0, 0.3, 2, "linearized")],
        5 * TRIALS_PER_BATCH - 7,
        [0, 1, 2, 3, 4, 5],
    ),
    "lemma1": (UNIT, [(0.01, 0.1), (policy_x_for_threshold(0.05), 0.05)], 5 * TRIALS_PER_BATCH - 7, [0, 1, 2, 3, 4, 5]),
}


def _outage_totals(case, seed, run_batches=None):
    """``_outage_pass`` totals of an ``_outage_split`` case, its parts run by ``run_batches`` (one part if None)."""
    variances, points, n_trials, cuts = case
    with pytest.MonkeyPatch.context() as mp:
        if run_batches is not None:
            mp.setattr(montecarlo, "_ranges", lambda n_items, work, workers: list(zip(cuts, cuts[1:])))
            mp.setattr(montecarlo, "_run_batches", run_batches)
        return montecarlo._outage_pass(variances, points, n_trials, seed, 1)


class TestOutageParts:
    """The outage pass's integer totals, for the fused outage/E(N) sweep and lemma1 alike, do not depend on its split."""

    @given(case=_outage_split(), seed=st.integers(0, 2**64 - 1))
    @example(case=PER_BATCH_SPLITS["fused"], seed=11)
    @example(case=PER_BATCH_SPLITS["lemma1"], seed=31)
    @settings(max_examples=25, deadline=None)
    def test_any_split_gives_the_one_part_totals(self, case, seed):
        assert _outage_totals(case, seed, _in_process) == _outage_totals(case, seed)

    @given(n_items=st.integers(1, 300), work=st.integers(1, 200 * montecarlo._PART_WORK), workers=st.integers(1, 16))
    def test_ranges_split_the_items_in_order_one_per_worker_above_the_floor(self, n_items, work, workers):
        ranges = montecarlo._ranges(n_items, work, workers)
        assert [a for a, _ in ranges] + [n_items] == [0] + [b for _, b in ranges]
        assert 1 <= len(ranges) <= min(workers, n_items)
        assert max(b - a for a, b in ranges) - min(b - a for a, b in ranges) <= 1
        # each part's share of the work, the work over the parts
        assert len(ranges) == 1 or work // len(ranges) >= montecarlo._PART_WORK

    @pytest.mark.parametrize("n_items, n_trials, k, points, parts", [
        (31, 2_000_000, 2, 22, 2),  # outage-sweep: 54 M
        (31, 2_000_000, 2, 3, 2),  # capacity-sweep: 16 M
        (101, 800_000, 1, 101, 2),  # placement: 83 M, the grid positions at K = 1
        (16, 1_000_000, 1, 1, 1),  # criterion 4's one-point E(N): 4 M
    ])
    def test_part_counts_of_the_benchmark_passes_at_two_workers(self, n_items, n_trials, k, points, parts):
        assert len(montecarlo._ranges(n_items, n_trials * (1 + 2 * k + points), 2)) == parts


class TestLemmaExperiment:
    @pytest.mark.parametrize("g", [0.0, math.inf])
    def test_policy_offset_needs_a_positive_finite_threshold(self, g):
        with pytest.raises(InvalidParameterError) as info:
            policy_x_for_threshold(g)
        assert str(info.value) == f"threshold must be positive, got {g!r}"

    def test_policy_offset_inverts_threshold_relation(self):
        for g in (0.1, 0.02, 0.004, 1e-12, 1e-30):
            y = policy_x_for_threshold(g)
            # expm1: the float 2^(2y) - 1 is off by up to 20% at y = 8.5e-16
            assert y * math.expm1(2.0 * y * math.log(2.0)) == pytest.approx(g, rel=1e-12, abs=0)
        # g = 2*ln2*y^2*(1 + O(y)): an independent check at the smallest g
        assert y == pytest.approx(math.sqrt(g / (2.0 * math.log(2.0))), rel=1e-12, abs=0)

    def test_ratios_match_oracle(self):
        res = lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.1, 0.05], 200_000, 31, x_factor=0.1, workers=1)
        for g, est in res:
            p = quadrature_outage_oracle(UNIT, g, 0.1 * g)
            assert abs(est.mean - p / g**2) < 3.0 * est.stderr

    def test_asymmetric_variances_converge_to_constant(self):
        res = lemma1_ratio_experiment(2.0, 1.0, 1.0, [0.05], 400_000, 77, x_factor=0.1, workers=1)
        _, est = res[0]
        assert est.mean == pytest.approx(lemma1_constant(2.0, 1.0, 1.0), rel=0.15)

    def test_too_few_events_is_a_convergence_failure(self):
        with pytest.raises(ConvergenceError, match="increase n_trials"):
            lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.1, 0.001], 10_000, 3, x_factor=0.1, workers=1)

    def test_threshold_sequence_must_decrease(self):
        with pytest.raises(InvalidParameterError):
            lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.01, 0.1], 10_000, 3)

    # ratio means at g = 0.1, 0.05, 0.02, 0.01, 2M trials and seed 4242; any
    # change to the draws or to how the event is counted moves them
    FROZEN = {
        ((1.0, 1.0, 1.0), 0.1): [1.0735999999999999, 1.0581999999999998, 1.0175, 0.9249999999999999],
        ((1.0, 1.0, 1.0), None): [1.4158999999999997, 1.4262, 1.3587500000000001, 1.2],
        ((2.0, 0.5, 3.0), 0.1): [0.5902, 0.6003999999999999, 0.56125, 0.5],
        ((2.0, 0.5, 3.0), None): [0.7193499999999999, 0.7391999999999999, 0.67375, 0.5700000000000001],
    }

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("sigmas,x_factor", list(FROZEN))
    def test_frozen_ratios(self, sigmas, x_factor, workers):
        res = lemma1_ratio_experiment(
            *sigmas, [0.1, 0.05, 0.02, 0.01], 2_000_000, 4242, x_factor=x_factor, workers=workers
        )
        assert [est.mean for _, est in res] == self.FROZEN[sigmas, x_factor]

    @pytest.mark.parametrize("x_factor", [-0.1, math.inf, math.nan])
    def test_x_factor_must_be_finite_and_nonnegative(self, x_factor):
        with pytest.raises(InvalidParameterError, match="x_factor"):
            lemma1_ratio_experiment(1.0, 1.0, 1.0, [0.1], 10_000, 3, x_factor=x_factor)


class TestQuadratureOracle:
    def test_zero_threshold(self):
        assert quadrature_outage_oracle(UNIT, 0.0, 0.1) == 0.0

    @pytest.mark.parametrize("sigma_sd2,threshold,x", [
        (1.0, 60.0, 0.1),
        # thresholds far past the direct link's mean: the outer rule must sample where
        # U has its mass, not only where its density underflows to 0
        (1.0, 1e5, 0.5),
        (1.0, 1e6, 0.5),
        (1.0, 1e300, 0.5),
        (1e-3, 100.0, 0.5),
        (1e-3, 300.0, 0.5),
        (1e-3, 1e6, 0.5),
    ])
    def test_huge_threshold_saturates(self, sigma_sd2, threshold, x):
        assert quadrature_outage_oracle(LinkVariances(sigma_sd2, (1.0,), (1.0,)), threshold, x) > 0.999

    def test_frozen_reference_point(self):
        p = quadrature_outage_oracle(UNIT, 0.02, 0.002)
        assert p == pytest.approx(4.165026910203645e-04, rel=1e-6)

    def test_small_threshold_ratio_approaches_lemma_constant(self):
        t = 1e-3
        ratio = quadrature_outage_oracle(UNIT, t, 0.0) / t**2
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_one_relay_only(self):
        v = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            quadrature_outage_oracle(v, 0.02, 0.002)

    def test_rejects_negative_arguments(self):
        with pytest.raises(InvalidParameterError):
            quadrature_outage_oracle(UNIT, -0.1, 0.0)
        with pytest.raises(InvalidParameterError):
            quadrature_outage_oracle(UNIT, 0.1, -1.0)


def _gains(variances, n_trials, seed):
    return np.concatenate([gains_batch(variances, seed, j, rows) for j, rows in batch_plan(n_trials)])


def _outage_count(gains, params, rate, mode):
    """Trials of ``gains`` in outage at ``rate``, counted by the protocol kernel."""
    k = params.k_relays
    outage, _ = block_stats_batch(gains, *decode_condition(rate, params.snr, params.tau, k, mode), k)
    return int(np.count_nonzero(outage))


def _bisection_bracket(gains, params, mode, rel_tol=1e-9):
    """Reference rate search: bisection on common random numbers.

    Returns (lo, hi) with the outage fraction below epsilon at lo and not at
    hi, and hi - lo <= rel_tol * hi.
    """
    n = gains.shape[0]
    probs = {}

    def achieves(rate):
        probs[rate] = _outage_count(gains, params, rate, mode) / n
        return probs[rate] < params.epsilon

    lo, hi = 0.0, 1e-6
    while achieves(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if achieves(mid):
            lo = mid
        else:
            hi = mid
    ordered = [probs[r] for r in sorted(probs)]
    assert ordered == sorted(ordered), "outage fraction not monotone in the rate"
    return lo, hi


class TestEmpiricalCapacity:
    @given(case=st.integers(MIN_TRIALS, MAX_TRIALS).flatmap(
        lambda n: st.tuples(st.floats(MIN_EVENTS / n, 1.0, exclude_max=True), st.just(n))
    ))
    @example(case=(0.01, MIN_TRIALS))  # epsilon*n_trials = MIN_EVENTS exactly
    @example(case=(0.5, 10_001))
    @example(case=(math.nextafter(1.0, 0.0), MAX_TRIALS))  # the largest epsilon at the trial cap
    @settings(max_examples=500, deadline=None)
    def test_max_allowed_count_is_the_largest_count_below_epsilon(self, case):
        epsilon, n_trials = case
        assume(epsilon * n_trials >= MIN_EVENTS)
        c = montecarlo._max_allowed_count(epsilon, n_trials)
        assert c / n_trials < epsilon <= (c + 1) / n_trials

    @pytest.mark.parametrize("estimator", [
        lambda v, p: estimate_outage(v, p, 10_000, 1, workers=1),
        lambda v, p: empirical_eps_outage_capacity_sweep(v, [p], 10_000, 1),
    ])
    def test_relayless_point_is_rejected_before_any_draw(self, monkeypatch, estimator):
        def no_draws(*args):
            raise AssertionError("drew gains before rejecting the point")

        monkeypatch.setattr(montecarlo, "gains_batch", no_draws)
        params = SystemParams(snr=0.1, rate=0.01, epsilon=0.02, k_relays=0)
        with pytest.raises(InvalidParameterError) as info:
            estimator(LinkVariances(1.0, (), ()), params)
        assert str(info.value) == "protocol estimators require at least one relay"

    def test_requires_enough_expected_events(self):
        params = SystemParams(snr=0.01, rate=0.0, epsilon=1e-3)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            empirical_eps_outage_capacity(UNIT, params, 50_000, 1)

    def test_zero_epsilon_is_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(snr=0.01, rate=0.0, epsilon=0.0)

    def test_result_invariants(self):
        params = SystemParams(snr=0.05, rate=0.0, epsilon=0.02)
        res = empirical_eps_outage_capacity(UNIT, params, 50_000, 11)
        assert res.rate > 0.0
        assert res.achieved_outage < 0.02
        # one pass: the rows kept below the running bound hold the bracket
        assert res.iterations == 1
        # too many rows below the bound to keep: a buffer-only pass, then the band's pass
        wide = SystemParams(snr=0.05, rate=0.0, epsilon=0.5)
        assert empirical_eps_outage_capacity(UNIT, wide, 50_000, 11).iterations == 2

    @given(
        k=st.sampled_from([1, 2, 3]),
        mode=st.sampled_from(["exact", "linearized"]),
        tau=st.one_of(st.none(), st.floats(0.05, 1.0)),
        snr_db=st.floats(-20.0, 30.0),
        epsilon=st.floats(0.01, 0.3),
        sigmas=st.lists(st.floats(0.25, 4.0), min_size=7, max_size=7),
        seed=st.integers(0, 2**64 - 1),
    )
    # one case on each side of the duty-cycle clamp sqrt(rate*snr) = 1
    @example(k=1, mode="exact", tau=None, snr_db=-20.0, epsilon=0.3, sigmas=[0.25] * 7, seed=1)
    @example(k=3, mode="exact", tau=None, snr_db=30.0, epsilon=0.01, sigmas=[4.0] * 7, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_matches_bisection_oracle(self, k, mode, tau, snr_db, epsilon, sigmas, seed):
        n = 20_000
        v = LinkVariances(sigmas[0], sigmas[1 : 1 + k], sigmas[4 : 4 + k])
        params = SystemParams(snr=10.0 ** (snr_db / 10.0), rate=0.0, epsilon=epsilon, k_relays=k, tau=tau)
        res = empirical_eps_outage_capacity(v, params, n, seed, threshold_mode=mode)
        gains = _gains(v, n, seed)
        lo, hi = _bisection_bracket(gains, params, mode)
        assert lo <= res.rate <= hi
        assert res.achieved_outage < epsilon
        assert res.achieved_outage == _outage_count(gains, params, res.rate, mode) / n

    @given(
        k=st.sampled_from([2, 3]),
        mode=st.sampled_from(["exact", "linearized"]),
        tau=st.one_of(st.none(), st.floats(0.05, 1.0)),
        snr=st.sampled_from([0.01, 0.1, 1.0]),
        sigmas=st.lists(st.floats(0.25, 4.0), min_size=7, max_size=7),
        seed=st.integers(0, 2**64 - 1),
    )
    # a capacity kernel that adds the relay terms in another order than the
    # protocol returns a rate one float too high here
    @example(k=2, mode="exact", tau=None, snr=0.1, sigmas=[1.0, 0.7, 0.7, 1.0, 1.9, 1.9, 1.0], seed=27)
    @settings(max_examples=40, deadline=None)
    def test_outage_estimate_at_the_capacity_agrees(self, k, mode, tau, snr, sigmas, seed):
        n, eps = 20_000, 0.01
        v = LinkVariances(sigmas[0], sigmas[1 : 1 + k], sigmas[4 : 4 + k])
        params = SystemParams(snr=snr, rate=0.0, epsilon=eps, k_relays=k, tau=tau)
        res = empirical_eps_outage_capacity(v, params, n, seed, threshold_mode=mode)
        at_capacity = SystemParams(snr=snr, rate=res.rate, epsilon=eps, k_relays=k, tau=tau)
        est = estimate_outage(v, at_capacity, n, seed, workers=1, threshold_mode=mode)
        assert est.mean == res.achieved_outage < eps
        # the capacity is where the count crosses: one float up, epsilon is reached
        above = SystemParams(snr=snr, rate=math.nextafter(res.rate, math.inf), epsilon=eps, k_relays=k, tau=tau)
        assert estimate_outage(v, above, n, seed, workers=1, threshold_mode=mode).mean >= eps

    def test_capacity_far_below_the_float_epsilon_crosses_epsilon(self):
        # the capacity is about 1e-101 here, so the growth 2^z - 1 of the exact
        # threshold must keep its precision at z near 1e-100, not round to 0
        v = LinkVariances(1e-100, (1e-100,), (1.0,))
        n, eps, seed = 20_000, 0.01, 1
        res = empirical_eps_outage_capacity(v, SystemParams(snr=1.0, rate=0.0, epsilon=eps), n, seed)
        assert 0.0 < res.achieved_outage < eps
        above = SystemParams(snr=1.0, rate=math.nextafter(res.rate, math.inf), epsilon=eps)
        assert estimate_outage(v, above, n, seed, workers=1).mean >= eps

    def test_doubling_trials_is_stable(self):
        params = SystemParams(snr=0.05, rate=0.0, epsilon=0.02)
        r1 = empirical_eps_outage_capacity(UNIT, params, 50_000, 21).rate
        r2 = empirical_eps_outage_capacity(UNIT, params, 100_000, 21).rate
        # combined relative quantile noise at these event counts
        noise = 0.5 / math.sqrt(0.02 * 50_000) + 0.5 / math.sqrt(0.02 * 100_000)
        assert abs(r1 - r2) <= 3.0 * noise * max(r1, r2)

    def test_linearized_mode_gives_higher_capacity_here(self):
        # the exact threshold is strictly above the linearized one at equal
        # rate, so the searched capacity is lower in exact mode
        params = SystemParams(snr=0.01, rate=0.0, epsilon=0.02)
        exact = empirical_eps_outage_capacity(UNIT, params, 50_000, 5).rate
        lin = empirical_eps_outage_capacity(UNIT, params, 50_000, 5, threshold_mode="linearized").rate
        assert lin > exact

    def test_exact_threshold_capacity_lies_well_below_the_closed_form_at_the_midpoint(self):
        # the figure that the c_eps_baf_k docstring gives: with the exact threshold, the
        # empirical capacity is 0.73 of the closed form at d = 0.5, pathloss 3, -20 dB
        v = variances_from_geometry(NetworkGeometry((0.5,), 3.0))
        params = SystemParams(snr=0.01, rate=0.0, epsilon=0.01)
        ratio = empirical_eps_outage_capacity(v, params, 400_000, 3).rate / c_eps_baf_k(v, 0.01, 0.01)
        assert 0.73 <= ratio <= 0.74

    def test_two_relay_search(self):
        v = LinkVariances(1.0, (8.0, 8.0), (8.0, 8.0))
        params = SystemParams(snr=0.05, rate=0.0, epsilon=0.02, k_relays=2)
        res = empirical_eps_outage_capacity(v, params, 50_000, 23)
        assert res.rate > 0.0
        assert res.achieved_outage < 0.02


_BOUNDS = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf])


class TestRows:
    @given(
        batches=st.lists(st.lists(st.one_of(_BOUNDS, st.just(math.nan)), max_size=12), min_size=1, max_size=4),
        low=_BOUNDS,
        high=_BOUNDS,
    )
    @example(batches=[[0.5, 1.0], [2.0]], low=1.0, high=1.0)
    @example(batches=[[0.5, 1.0, math.nan], [-math.inf, 2.0, 0.0]], low=0.0, high=2.0)
    @settings(max_examples=200, deadline=None)
    def test_window_follows_the_bound_masks(self, batches, low, high):
        # the contract of a pass point's window: ``below`` counts the rows whose a0 lies
        # below ``low``, and the window keeps the rows whose a0 lies in [low, high) in
        # trial order, column-major
        a0s = [np.array(batch, dtype=float) for batch in batches]
        starts = np.cumsum([0] + [len(a) for a in a0s])
        # each row is (a0, trial index, -trial index), so the order of the rows shows
        gains = [np.column_stack([a, np.arange(s, s + len(a)), -np.arange(s, s + len(a))])
                 for a, s in zip(a0s, starts)]
        everything = np.concatenate(gains)
        a0 = everything[:, 0]
        kept = (a0 >= low) & (a0 < high)
        windows, bracket = [], (0.01, 0.02, low, high)

        def stage(search, window, bracket):
            windows.append((window, bracket))
            return 0.0, 0

        search = montecarlo._RateSearch(1.0, 0, 1, None, "exact", 0.01)
        work = np.empty((3, 12))
        with pytest.MonkeyPatch.context() as mp:
            # a0 is read from column 0, and the window handed to the stage is kept
            mp.setattr(montecarlo, "_aggregate", lambda gains, k, x, row=None, out=None, work=None: gains[:, 0])
            mp.setattr(montecarlo, "_window_stage", stage)
            point = montecarlo._PassPoint(search, bracket)
            for g in gains:
                point.add(g, work)
            assert point.size == 3 * np.count_nonzero(kept)
            assert point.close() == (0.0, 0)
        [(window, staged)] = windows
        assert window.below == np.count_nonzero(a0 < low)
        assert np.array_equal(window.gains, everything[kept], equal_nan=True)
        assert window.gains.flags.f_contiguous
        assert staged is bracket and staged[2:] == (low, high)

    @pytest.mark.parametrize("margin", [-1e-7, -0.5])
    def test_a_bound_below_the_bracket_closes_without_a_stage(self, monkeypatch, margin):
        # a first pass whose running bound lies below its bracket's a_above may miss rows of the band, even
        # where it keeps more than k0 rows: it closes with its bracket alone, for the second pass
        def stage(*args):
            raise AssertionError("a window that can miss the band reached the stage")

        monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        monkeypatch.setattr(montecarlo, "_window_stage", stage)
        search = montecarlo._RateSearch(0.1, 1_000, 2, None, "exact", 0.01)
        v, work = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0)), np.empty((3, TRIALS_PER_BATCH))
        point = montecarlo._PassPoint(search)
        for j, rows in batch_plan(140_000):
            point.add(gains_batch(v, 3, j, rows), work)
        assert point.chunks is not None
        if margin == -1e-7:  # the rows kept still exceed k0, each of 1 + 2K gains
            assert point.size > (search.k0 + 1) * 5
        a0 = aggregate_batch(_gains(v, 140_000, 3), 2, search.x0)
        bracket = search.bracket(float(np.partition(a0, search.k0)[search.k0]))
        assert point.high < bracket[3]
        assert point.close() is None
        assert point.bracket == bracket
        assert point.chunks is None and point.size == 0 and point.buf is None


def _two_pass_oracle(variances, params, n_trials, seed, mode):
    """(rate, achieved outage) of an exact pass that keeps every trial's gains and a0 in one array.

    The first pass computes the n_trials aggregates at the start offset and
    brackets their k0-th smallest; the window is the trials in the bracket's
    band, picked by a boolean mask, and ``_window_stage`` runs on it.
    """
    k0 = montecarlo._max_allowed_count(params.epsilon, n_trials)
    start = c_eps_baf_k(variances, params.snr, params.epsilon)
    search = montecarlo._RateSearch(params.snr, k0, params.k_relays, params.tau, mode, start)
    gains = np.concatenate([gains_batch(variances, seed, j, rows) for j, rows in batch_plan(n_trials)])
    a0 = aggregate_batch(gains, search.k, search.x0)
    bracket = search.bracket(float(np.partition(a0, k0)[k0]))
    _, _, a_below, a_above = bracket
    band = (a0 >= a_below) & (a0 < a_above)
    below = int(np.count_nonzero(a0 < a_below))
    window = montecarlo._Window(below, gains[band], np.empty((4, np.count_nonzero(band))))
    rate, count = montecarlo._window_stage(search, window, bracket)
    return rate, count / n_trials


@pytest.mark.parametrize("k", [1, 2])
def test_window_stage_without_candidates_counts_the_trials_below(monkeypatch, k):
    # a bracket whose band [a, a) holds no row of the window: the hop terms are built on no row,
    # and the count at every rate is the trials below the band
    variances = LinkVariances(1.0, (1.0,) * k, (1.0,) * k)
    search = montecarlo._RateSearch(1.0, 20, k, None, "exact", 0.01)
    gains = np.asfortranarray(gains_batch(variances, 3, 0, 1000))
    a0 = aggregate_batch(gains, k, search.x0)
    a = float(np.median(a0))
    below = 2 + int(np.count_nonzero(a0 < a))
    counts = []

    def solve(f, target, start, rel_width=0.0, upper=None):
        counts.extend([f(start), f(upper)])
        return start, upper

    monkeypatch.setattr(montecarlo, "_solve_increasing", solve)
    window = montecarlo._Window(2, gains, np.empty((4, len(gains))))
    rate, count = montecarlo._window_stage(search, window, (0.01, 0.02, a, a))
    assert rate == 0.01 * (1.0 - montecarlo._BOUND_MARGIN)
    assert counts == [below, below] and count == below


def _sweep_case(k, tau, snr_dbs, epsilon, sigmas):
    v = LinkVariances(sigmas[0], tuple(sigmas[1 : 1 + k]), tuple(sigmas[4 : 4 + k]))
    params = [
        SystemParams(snr=10.0 ** (db / 10.0), rate=0.0, epsilon=epsilon, k_relays=k, tau=tau) for db in snr_dbs
    ]
    return v, params


class TestCapacitySweep:
    N = 140_000  # three batches, the last one short
    # the passes each point of the examples below takes
    EXAMPLE_PASSES = {
        (3, "exact", None, (-20.0, 30.0), 0.01, (1.0,) * 7, 1): [1, 1],
        (2, "exact", None, (-20.0, 0.0), 0.08, (1.0,) * 7, 5): [2, 1],
        (1, "linearized", 0.3, (-20.0, -10.0, 0.0, 10.0), 0.5, (2.0,) * 7, 3): [2, 2, 2, 2],
    }

    @given(
        k=st.sampled_from([1, 2, 3]),
        mode=st.sampled_from(["exact", "linearized"]),
        tau=st.one_of(st.none(), st.floats(0.05, 1.0)),
        snr_dbs=st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=4),
        epsilon=st.floats(0.01, 0.5),
        sigmas=st.lists(st.floats(0.25, 4.0), min_size=7, max_size=7),
        seed=st.integers(0, 2**64 - 1),
    )
    # rows kept in the first pass; rows dropped mid-pass beside rows kept; buffers
    # that fill the room, so rows dropped at once, in two rounds of first passes
    @example(k=3, mode="exact", tau=None, snr_dbs=[-20.0, 30.0], epsilon=0.01, sigmas=[1.0] * 7, seed=1)
    @example(k=2, mode="exact", tau=None, snr_dbs=[-20.0, 0.0], epsilon=0.08, sigmas=[1.0] * 7, seed=5)
    @example(k=1, mode="linearized", tau=0.3, snr_dbs=[-20.0, -10.0, 0.0, 10.0], epsilon=0.5, sigmas=[2.0] * 7, seed=3)
    @settings(max_examples=20, deadline=None)
    def test_matches_two_pass_oracle(self, k, mode, tau, snr_dbs, epsilon, sigmas, seed):
        v, params = _sweep_case(k, tau, snr_dbs, epsilon, sigmas)
        results = empirical_eps_outage_capacity_sweep(v, params, self.N, seed, threshold_mode=mode)
        assert len(results) == len(params)
        for p, res in zip(params, results):
            assert (res.rate, res.achieved_outage) == _two_pass_oracle(v, p, self.N, seed, mode)
            assert res.iterations in (1, 2)
        passes = self.EXAMPLE_PASSES.get((k, mode, tau, tuple(snr_dbs), epsilon, tuple(sigmas), seed))
        assert passes in (None, [res.iterations for res in results])

    def test_the_point_whose_rows_outgrow_the_room_takes_a_second_pass(self, monkeypatch):
        # the running bounds fall through the pass, but the rows kept while they were
        # high stay: the second point's batch makes the rows outgrow the room, so that
        # point drops its rows and takes a second pass, and the first keeps its own
        drops, drop = [], montecarlo._PassPoint.drop

        def recorded(point):
            if point.buf is not None and point.chunks is not None:
                drops.append(point.search.snr)
            drop(point)

        monkeypatch.setattr(montecarlo._PassPoint, "drop", recorded)
        v, params = _sweep_case(1, None, [-10.0, 0.0], 0.1, [1.0] * 7)
        results = empirical_eps_outage_capacity_sweep(v, params, self.N, 5)
        assert [res.iterations for res in results] == [1, 2]
        # the second point drops its rows mid-pass, the first only when it closes
        assert drops == [params[1].snr, params[0].snr]
        for p, res in zip(params, results):
            assert (res.rate, res.achieved_outage) == _two_pass_oracle(v, p, self.N, 5, "exact")

    def test_forced_second_pass_matches_oracle(self, monkeypatch):
        # a running bound at half the bracket's a_above cuts through the band: no kept
        # window can hold the answer
        monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", -0.5)
        v, params = _sweep_case(2, None, [-20.0, -10.0, 0.0], 0.02, [1.0, 0.5, 2.0, 1.0, 2.0, 0.5, 1.0])
        results = empirical_eps_outage_capacity_sweep(v, params, self.N, 7)
        for p, res in zip(params, results):
            assert res.iterations == 2
            assert (res.rate, res.achieved_outage) == _two_pass_oracle(v, p, self.N, 7, "exact")

    def test_small_epsilon_sweep_draws_each_batch_once(self, monkeypatch):
        draws = []

        def counted(*args, **kwargs):
            draws.append(args[2])
            return gains_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "gains_batch", counted)
        v, params = _sweep_case(2, None, [-30.0, -20.0, -10.0], 0.01, [1.0, 8.0, 8.0, 1.0, 8.0, 8.0, 1.0])
        results = empirical_eps_outage_capacity_sweep(v, params, self.N, 11)
        assert draws == [j for j, _ in batch_plan(self.N)]
        assert [res.iterations for res in results] == [1, 1, 1]

    def test_points_that_drop_their_rows_share_one_second_pass(self, monkeypatch):
        # 14 points start their first pass together, and their rows outgrow the room:
        # the points that drop them share one second pass
        draws = []

        def counted(*args, **kwargs):
            draws.append(args[2])
            return gains_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "gains_batch", counted)
        v, params = _sweep_case(3, None, [-30.0 + 2.0 * i for i in range(14)], 0.01, [1.0] * 7)
        results = empirical_eps_outage_capacity_sweep(v, params, self.N, 9)
        assert len(draws) == 2 * len(batch_plan(self.N))
        assert [res.iterations for res in results] == FLOOR_PASSES["over-budget"]
        for p, res in zip(params, results):
            assert (res.rate, res.achieved_outage) == _two_pass_oracle(v, p, self.N, 9, "exact")

    @pytest.mark.parametrize("bad", [
        [SystemParams(snr=0.1, rate=0.0, epsilon=0.02, k_relays=1)],  # one relay, the variances have two
        [SystemParams(snr=0.1, rate=0.0, epsilon=1e-4, k_relays=2)],  # too few outage events to resolve epsilon
        None,  # an empty sweep
    ])
    def test_every_point_is_checked_before_any_draw(self, monkeypatch, bad):
        def no_draws(*args):
            raise AssertionError("drew gains before rejecting the sweep")

        monkeypatch.setattr(montecarlo, "gains_batch", no_draws)
        v, params = _sweep_case(2, None, [-20.0], 0.02, [1.0] * 7)
        with pytest.raises(InvalidParameterError):
            empirical_eps_outage_capacity_sweep(v, [] if bad is None else params + bad, self.N, 1)


# (sweep, n_trials, seed, _RUNNING_MARGIN or None): one batch; three batches, the
# last one short, every point done in one pass; every point forced to a second
# pass; and 14 points whose rows outgrow the room, in two passes
FLOOR_CASES = {
    "one-batch": (_sweep_case(1, None, [-10.0, 0.0], 0.05, [1.0] * 7), 50_000, 3, None),
    "short-last-batch": (
        _sweep_case(2, None, [-30.0, -20.0, -10.0], 0.01, [1.0, 8.0, 8.0, 1.0, 8.0, 8.0, 1.0]), 140_000, 11, None
    ),
    "second-pass": (
        _sweep_case(2, None, [-20.0, -10.0, 0.0], 0.02, [1.0, 0.5, 2.0, 1.0, 2.0, 0.5, 1.0]), 140_000, 7, -0.5
    ),
    "over-budget": (_sweep_case(3, None, [-30.0 + 2.0 * i for i in range(14)], 0.01, [1.0] * 7), 140_000, 9, None),
}
# the passes each point of a FLOOR_CASES sweep takes
FLOOR_PASSES = {
    "one-batch": [1, 1],
    "short-last-batch": [1, 1, 1],
    "second-pass": [2, 2, 2],
    "over-budget": [1, 2, 1, 2, 1, 1, 2, 1, 2, 2, 2, 2, 2, 2],
}


class TestSharedFloor:
    @given(
        k=st.sampled_from([1, 2, 3]),
        sigmas=st.lists(st.sampled_from([1e-3, 0.5, 1.0, 8.0, 1e3]), min_size=7, max_size=7),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=2, max_size=2),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_aggregate_at_a_larger_offset_bounds_it_from_below(self, k, sigmas, xs, seed):
        x_lo, x_hi = sorted(xs)
        v, _ = _sweep_case(k, None, [0.0], 0.1, sigmas)
        gains = gains_batch(v, seed, 0, 512)
        gains[::5] = 0.0  # 0/0 relay terms at x = 0
        gains[1::5, 1:] = 0.0
        with np.errstate(invalid="ignore"):
            lo, hi = aggregate_batch(gains, k, x_lo), aggregate_batch(gains, k, x_hi)
        # in floats too, so no row whose floor lies at or above a bound can have its a0 below it
        assert np.all((hi <= lo) | np.isnan(lo))

    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_the_floor_changes_no_result(self, monkeypatch, case):
        (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        rows, aggregate = [], montecarlo._aggregate

        def counted(gains, k, x, *args, **kwargs):
            rows.append(len(gains))
            return aggregate(gains, k, x, *args, **kwargs)

        windows, stage = [], montecarlo._window_stage

        def recorded(search, window, bracket):
            windows.append((window.below, window.gains.tobytes(), bracket))
            return stage(search, window, bracket)

        monkeypatch.setattr(montecarlo, "_aggregate", counted)
        monkeypatch.setattr(montecarlo, "_window_stage", recorded)
        floored = empirical_eps_outage_capacity_sweep(v, params, n, seed)
        floored_rows, floored_windows = sum(rows), windows[:]
        rows.clear()
        windows.clear()
        add = montecarlo._PassPoint.add
        monkeypatch.setattr(montecarlo._PassPoint, "add", lambda point, gains, work, floor=None: add(point, gains, work))
        assert empirical_eps_outage_capacity_sweep(v, params, n, seed) == floored
        # the same rows kept, so the same windows
        assert windows == floored_windows
        assert [res.iterations for res in floored] == FLOOR_PASSES[case]
        # with one batch every point needs all its rows; later batches skip some
        if len(batch_plan(n)) == 1:
            assert floored_rows == sum(rows)
        else:
            assert floored_rows < sum(rows)

    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_sweep_results_do_not_depend_on_the_worker_count(self, monkeypatch, case):
        (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        results = []
        for workers in (1, 2):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
            results.append(empirical_eps_outage_capacity_sweep(v, params, n, seed))
        assert results[0] == results[1]

    @pytest.mark.parametrize("case,passes", [("short-last-batch", 1), ("over-budget", 2)])
    def test_each_pass_draws_the_batches_once_in_order(self, monkeypatch, case, passes):
        draws = []

        def counted(*args, **kwargs):
            draws.append(args[2])
            return gains_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "gains_batch", counted)
        (v, params), n, seed, _ = FLOOR_CASES[case]
        empirical_eps_outage_capacity_sweep(v, params, n, seed)
        assert draws == [j for j, _ in batch_plan(n)] * passes


# FLOOR_CASES and a sweep of eight batches, the last one short, that splits into more than three parts
SPLIT_CASES = {
    **FLOOR_CASES,
    "eight-batches": (
        _sweep_case(2, None, [-20.0, -10.0, 0.0], 0.01, [1.0, 2.0, 0.5, 1.0, 0.5, 2.0, 1.0]), 500_000, 13, None
    ),
}


def _in_process(worker, tasks):
    return [worker(*t) for t in tasks]


def _window_contract(gains):
    """``_window_stage`` that first checks its window against all the trials ``gains`` and its bracket's band
    [a_below, a_above): the window's rows with a0 in the band are those of all the trials, in trial order, and
    ``below`` plus its rows under a_below counts all the trials under a_below."""
    stage = montecarlo._window_stage

    def checked(search, window, bracket):
        _, _, a_below, a_above = bracket
        a0 = aggregate_batch(gains, search.k, search.x0)
        kept = aggregate_batch(window.gains, search.k, search.x0)
        assert window.below + np.count_nonzero(kept < a_below) == np.count_nonzero(a0 < a_below)
        in_band = window.gains[(kept >= a_below) & (kept < a_above)]
        assert np.array_equal(in_band, gains[(a0 >= a_below) & (a0 < a_above)])
        return stage(search, window, bracket)

    return checked


def _split_passes(case, cuts=None, run_batches=_in_process):
    """``_exact_passes`` on a SPLIT_CASES sweep, split at ``cuts``, its parts run by ``run_batches``,
    with the searches the sweep builds; every window is checked against all the trials."""
    (v, params), n, seed, margin = SPLIT_CASES[case]
    searches = [
        montecarlo._RateSearch(
            p.snr, montecarlo._max_allowed_count(p.epsilon, n), p.k_relays, p.tau, "exact",
            c_eps_baf_k(v, p.snr, p.epsilon),
        )
        for p in params
    ]
    with pytest.MonkeyPatch.context() as mp:
        if margin is not None:
            mp.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        mp.setattr(montecarlo, "_run_batches", run_batches)
        mp.setattr(montecarlo, "_window_stage", _window_contract(_case_gains(case)))
        ranges = None if cuts is None else list(zip(cuts, cuts[1:]))
        return montecarlo._exact_passes(searches, v, seed, batch_plan(n), ranges)


@functools.lru_cache(maxsize=None)
def _case_gains(case):
    (v, _), n, seed, _ = SPLIT_CASES[case]
    return _gains(v, n, seed)


@functools.lru_cache(maxsize=None)
def _one_part_stages(case):
    return [stage for stage, _ in _split_passes(case)]


@st.composite
def _split_plan(draw):
    case = draw(st.sampled_from(sorted(SPLIT_CASES)))
    batches = len(batch_plan(SPLIT_CASES[case][1]))
    inner = draw(st.lists(st.integers(1, batches - 1), unique=True)) if batches > 1 else []
    return case, [0, *sorted(inner), batches]


class TestPassParts:
    @given(split=_split_plan())
    # every point forced to a second pass; a part per batch
    @example(split=("second-pass", [0, 2, 3]))
    @example(split=("eight-batches", [0, 1, 2, 3, 4, 5, 6, 7, 8]))
    @settings(max_examples=12, deadline=None)
    def test_any_split_gives_the_one_part_result(self, split):
        case, cuts = split
        found = _split_passes(case, cuts)
        assert [stage for stage, _ in found] == _one_part_stages(case)
        assert all(passes in (1, 2) for _, passes in found)

    def test_parts_that_drop_their_rows_send_points_to_the_second_pass(self):
        # each part keeps its rows within its own trials less its buffers: one-batch
        # parts cannot hold the rows that the whole pass keeps for its one-pass points
        found = _split_passes("over-budget", [0, 1, 2, 3])
        assert 1 in FLOOR_PASSES["over-budget"]
        assert [passes for _, passes in found] == [2] * len(FLOOR_PASSES["over-budget"])
        assert [stage for stage, _ in found] == _one_part_stages("over-budget")

    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_sweep_results_do_not_depend_on_the_part_count(self, monkeypatch, case):
        (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # up to a part per batch
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        parts, run_batches = [], montecarlo._run_batches

        def counted(worker, tasks):
            if worker is montecarlo._pass_part:
                parts.append(len(tasks))
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", counted)
        batches = len(batch_plan(n))
        for workers in (1, 2, 3):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            parts.clear()
            results = empirical_eps_outage_capacity_sweep(v, params, n, seed)
            assert parts and set(parts) == {min(workers, batches)}
            assert [(res.rate, res.achieved_outage) for res in results] == [
                (rate, count / n) for rate, count in _one_part_stages(case)
            ]
            if workers == 1:
                assert [res.iterations for res in results] == FLOOR_PASSES[case]


    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_first_passes_keep_their_rows_within_the_room(self, monkeypatch, case):
        # the memory rule: after every batch of a part, its first passes hold at most
        # k0+1 buffered values each, no more than it has drawn, and the rows they keep;
        # the most each part holds adds up, over the parts of a pass, to at most n_trials
        (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # up to a part per batch
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        part, passes = {}, []  # the running part's first passes and the most they held; each pass's parts' most
        init, pass_part, draw = montecarlo._PassPoint.__init__, montecarlo._pass_part, montecarlo.gains_batch

        def check():
            held = sum(min(point.filled, point.search.k0 + 1) + point.size for point in part["first"])
            part["most"] = max(part["most"], held)

        def created(point, search, bracket=None):
            init(point, search, bracket)
            if bracket is None:
                part["first"].append(point)

        def drawn(*args, **kwargs):
            check()  # the part's points have taken every batch drawn before this one
            return draw(*args, **kwargs)

        def checked_part(*args):
            part.update(first=[], most=0)
            points = pass_part(*args)
            check()
            passes[-1].append((part["most"], any(point.size for point in part["first"])))
            return points

        def in_process(worker, tasks):
            if worker is checked_part:
                passes.append([])
            return _in_process(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", in_process)
        monkeypatch.setattr(montecarlo._PassPoint, "__init__", created)
        monkeypatch.setattr(montecarlo, "gains_batch", drawn)
        monkeypatch.setattr(montecarlo, "_pass_part", checked_part)
        for workers in (1, 2, 3):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            passes.clear()
            empirical_eps_outage_capacity_sweep(v, params, n, seed)
            for parts in passes:
                assert sum(most for most, _ in parts) <= n
            assert any(kept for parts in passes for _, kept in parts)
            assert max(len(parts) for parts in passes) == min(workers, len(batch_plan(n)))


# a many-point K=1 sweep whose epsilons mix: its buffers take several rounds of first passes
MIXED_EPSILON_CASE = (
    LinkVariances(1.0, (1.0,), (1.0,)),
    [SystemParams(snr=10.0 ** (db / 10.0), rate=0.0, epsilon=eps)
     for db, eps in zip(range(-20, 4, 2), [0.3, 0.01, 0.5, 0.1, 0.2, 0.02] * 2)],
)


class TestAdmission:
    @pytest.mark.parametrize("case", [*sorted(FLOOR_CASES), "mixed-epsilon"])
    def test_points_start_their_first_pass_in_order_while_their_buffers_fit(self, monkeypatch, case):
        # in every pass, the k0+1 buffered values of the points that start their first
        # pass add up to at most every part's trials, unless one point starts alone;
        # points start in order, and a pass takes the next point whenever its buffer fits
        if case == "mixed-epsilon":
            (v, params), n, seed, margin = MIXED_EPSILON_CASE, 140_000, 17, None
        else:
            (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # up to a part per batch
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        rounds, run_batches = [], montecarlo._run_batches

        def recorded(worker, tasks):
            if worker is montecarlo._pass_part:
                assert all(task[4] == tasks[0][4] for task in tasks)  # every part serves the same first passes
                fit = min(sum(rows for _, rows in task[2]) for task in tasks)  # the smallest part's trials
                rounds.append(([search.k0 + 1 for search in tasks[0][4]], len(tasks), fit))
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", recorded)
        k0s = [montecarlo._max_allowed_count(p.epsilon, n) for p in params]
        expected = None
        for workers in (1, 2, 3):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            rounds.clear()
            results = empirical_eps_outage_capacity_sweep(v, params, n, seed)
            assert [b for bufs, _, _ in rounds for b in bufs] == [k0 + 1 for k0 in k0s]
            for (bufs, parts, fit), (after, _, _) in zip(rounds, rounds[1:] + [([], 0, 0)]):
                # every part buffers the values: they fit in each part's trials, so in n_trials across the parts
                assert (sum(bufs) <= fit and parts * sum(bufs) <= n) or len(bufs) == 1
                assert not bufs or not after or sum(bufs) + after[0] > fit
            rates = [(res.rate, res.achieved_outage) for res in results]
            assert expected in (None, rates)
            expected = rates
        if case == "mixed-epsilon":
            assert len([bufs for bufs, _, _ in rounds if bufs]) >= 3
            for p, rate in zip(params, expected):
                assert rate == _two_pass_oracle(v, p, n, seed, "exact")


class TestPlacementCurve:
    def test_matches_capacity_estimator_at_grid_points(self):
        snr, eps, n, seed = 0.01, 0.05, 20_000, 13
        grid, caps = empirical_capacity_vs_position(3.0, snr, eps, n, seed, grid_points=101)
        for idx in (10, 50, 88):
            d = grid[idx]
            v = LinkVariances(1.0, (d**-3.0,), ((1.0 - d) ** -3.0,))
            params = SystemParams(snr=snr, rate=0.0, epsilon=eps)
            assert caps[idx] == empirical_eps_outage_capacity(v, params, n, seed).rate

    def test_high_snr_runs_under_the_clamp(self):
        # 60 dB: the policy duty cycle sqrt(rate*snr) is clamped to 1
        snr, eps, n, seed = 1e6, 0.05, 20_000, 13
        grid, caps = empirical_capacity_vs_position(3.0, snr, eps, n, seed, grid_points=101)
        v = LinkVariances(1.0, (grid[50] ** -3.0,), ((1.0 - grid[50]) ** -3.0,))
        params = SystemParams(snr=snr, rate=0.0, epsilon=eps)
        assert caps[50] * snr > 1.0
        assert caps[50] == empirical_eps_outage_capacity(v, params, n, seed).rate
        assert _outage_count(_gains(v, n, seed), params, caps[50], "exact") / n < eps

    # the placement benchmark workload at seed 4: (snr, epsilon, n_trials, seed) and its curve
    WORKLOAD = (10.0 ** (-20.0 / 10.0), 0.3, 800_000, 4)

    @pytest.fixture(scope="class")
    def workload_curve(self):
        return empirical_capacity_vs_position(3.0, *self.WORKLOAD, grid_points=101)

    def test_outage_estimate_crosses_epsilon_at_the_capacity(self, workload_curve):
        # at grid index 49 the count reads k0 = 239 999 at the capacity and at the
        # three floats below it, and 240 000 one float up: a rate short of the
        # crossing would read below epsilon one float up too
        snr, eps, n, seed = self.WORKLOAD
        grid, caps = workload_curve
        v = variances_from_geometry(NetworkGeometry((grid[49],), 3.0))
        for rate in (caps[49], math.nextafter(caps[49], math.inf)):
            est = estimate_outage(v, SystemParams(snr=snr, rate=rate, epsilon=eps), n, seed, workers=1)
            assert (est.mean < eps) == (rate == caps[49])

    def test_capacity_does_not_depend_on_the_start_rate(self, workload_curve):
        # the curve starts each position from the previous capacity, the one-point
        # call from the closed form; with a threshold that falls at some ulp steps
        # of the rate, the two roots differed by 2 ulps at these indices
        snr, eps, n, seed = self.WORKLOAD
        grid, caps = workload_curve
        for i in (46, 48, 57, 69):
            v = variances_from_geometry(NetworkGeometry((grid[i],), 3.0))
            assert caps[i] == empirical_eps_outage_capacity(v, SystemParams(snr=snr, rate=0.0, epsilon=eps), n, seed).rate

    def test_grid_is_shared_with_analytic_search(self):
        grid, _ = empirical_capacity_vs_position(3.0, 0.01, 0.05, 10_000, 1, grid_points=101)
        assert np.array_equal(grid, position_grid(101))

    def test_trial_limit_guard(self):
        with pytest.raises(InvalidParameterError):
            empirical_capacity_vs_position(3.0, 0.01, 0.05, 30_000_000, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("search", [empirical_capacity_vs_position, empirical_placement_argmax])
    def test_an_unknown_threshold_mode_is_rejected_before_any_draw(self, monkeypatch, search, workers):
        draws = []

        def counted_draw(*args, **kwargs):
            draws.append(args[2])
            return gains_batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "gains_batch", counted_draw)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: workers)
        monkeypatch.setenv("BAF_WORKERS", str(workers))
        with pytest.raises(InvalidParameterError, match="mode must be one of"):
            search(3.0, 0.01, 0.05, 200_000, 1, grid_points=101, threshold_mode="bogus")
        assert draws == []


def _per_position_oracle(pathloss, snr, epsilon, n_trials, seed, grid_points, mode):
    """The placement curve as ``empirical_eps_outage_capacity`` at every position.

    Each position draws its own gains at its variances and starts from the
    closed form, so no state passes from one position to the next.
    """
    caps = []
    for d in position_grid(grid_points):
        v = variances_from_geometry(NetworkGeometry((d,), pathloss))
        params = SystemParams(snr=snr, rate=0.0, epsilon=epsilon)
        caps.append(empirical_eps_outage_capacity(v, params, n_trials, seed, threshold_mode=mode).rate)
    return np.array(caps)


# (pathloss, snr, epsilon, n_trials, seed, grid_points, mode): a steep curve over two batches (the last one
# short), and a flatter one past the clamp
FALLBACK_CASE = (8.0, 0.01, 0.1, 70_000, 1, 101, "exact")
CLAMPED_CASE = (5.0, 1e6, 0.05, 20_000, 2, 201, "linearized")


class TestPlacementBlocks:
    @given(
        pathloss=st.sampled_from([0.0, 2.0, 3.0, 5.0, 8.0]),
        snr_db=st.floats(-20.0, 60.0),
        mode=st.sampled_from(["exact", "linearized"]),
        epsilon=st.floats(0.05, 0.3),
        grid_points=st.sampled_from([101, 201]),
        n_trials=st.sampled_from([20_000, 70_000]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pathloss=8.0, snr_db=-20.0, mode="exact", epsilon=0.1, grid_points=101, n_trials=70_000, seed=1)
    @example(pathloss=5.0, snr_db=60.0, mode="linearized", epsilon=0.05, grid_points=201, n_trials=20_000, seed=2)
    @settings(max_examples=6, deadline=None)
    def test_curve_matches_per_position_oracle(self, pathloss, snr_db, mode, epsilon, grid_points, n_trials, seed):
        args = (pathloss, 10.0 ** (snr_db / 10.0), epsilon, n_trials, seed, grid_points, mode)
        _, caps = empirical_capacity_vs_position(*args[:5], grid_points=grid_points, threshold_mode=mode)
        assert np.array_equal(caps, _per_position_oracle(*args))

    @given(
        pathloss=st.sampled_from([0.0, 3.0, 8.0]),
        first=st.integers(0, 101 - montecarlo._BLOCK_POSITIONS),
        offsets=st.lists(st.integers(0, montecarlo._BLOCK_POSITIONS - 1), min_size=1, unique=True),
        setting=st.sampled_from([("exact", 0.01), ("linearized", 0.01), ("exact", 1e6), ("linearized", 1e6)]),
        epsilon=st.floats(0.01, 0.3),
        factor=st.sampled_from([0.5, 1.0, 2.0]),
        n=st.sampled_from([20_000, 70_000]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pathloss=3.0, first=30, offsets=[0, 2, 4, 6, 7], setting=("exact", 0.01), epsilon=0.2, factor=1.0,
             n=70_000, seed=4)
    @example(pathloss=8.0, first=10, offsets=[3, 0, 5], setting=("linearized", 1e6), epsilon=0.05, factor=2.0,
             n=20_000, seed=1)
    @settings(max_examples=20, deadline=None)
    def test_an_argmax_block_window_counts_every_row_of_its_block(
        self, pathloss, first, offsets, setting, epsilon, factor, n, seed
    ):
        # the argmax's block window at a rate C, bounded over the block's rows at the decode conditions of C and of
        # the next float, gives each row its full outage count at both; an exclusion pass at the block's largest
        # row excludes only a block whose every row has more than k0 trials in outage at C
        (mode, snr), raw = setting, _read_only_draws(n, seed)
        k0 = montecarlo._max_allowed_count(epsilon, n)
        rows = np.array([_grid_row(pathloss, first + o) for o in offsets])
        closed = c_eps_baf_k(variances_from_geometry(NetworkGeometry((position_grid(101)[first + offsets[0]],),
                                                                     pathloss)), snr, epsilon)
        cap, _ = montecarlo._exact_position(montecarlo._RateSearch(snr, k0, 1, None, mode, closed), raw, rows[0])
        rate = factor * cap
        x, thr = decode_condition(rate, snr, None, 1, mode)
        x_up, thr_up = decode_condition(math.nextafter(rate, math.inf), snr, None, 1, mode)
        row_lo, row_hi = rows.min(axis=0), rows.max(axis=0)
        window = montecarlo._band_window(raw, montecarlo._block_bounds(1, x, x_up, row_lo, row_hi), thr, thr_up)
        everything = np.concatenate(raw)
        counts = []
        for row in rows:
            full = [int(np.count_nonzero(aggregate_batch(everything * row, 1, xx) < tt))
                    for xx, tt in ((x, thr), (x_up, thr_up))]
            assert [montecarlo._window_outages(window, row, x, thr),
                    montecarlo._window_outages(window, row, x_up, thr_up)] == full
            counts.append(full[0])
        if factor == 1.0:  # the solved row has at most k0 in outage at its capacity
            assert counts[0] <= k0
        if montecarlo._outage_exceeds(raw, row_hi, x, thr, k0):
            assert min(counts) > k0


def _grid_row(pathloss, position):
    return variance_row(variances_from_geometry(NetworkGeometry((position_grid(101)[position],), pathloss)))


def _position_variances(raw, pathloss, position, seed):
    """The variances at a position of the 101-point grid, whose own draws the capacity sweep's exact pass makes.

    Placement scales the unit draws ``raw`` by the position's variance row; each batch of them so scaled is checked
    to be, byte for byte, the batch drawn at the position's variances.
    """
    v = variances_from_geometry(NetworkGeometry((position_grid(101)[position],), pathloss))
    row = variance_row(v)
    for (j, rows), g in zip(batch_plan(sum(len(g) for g in raw)), raw):
        assert (g * row).tobytes() == gains_batch(v, seed, j, rows).tobytes()
    return v


class TestScaledWindows:
    """A block's bounding pass and a window stage scale the unit draws column by column, into reused buffers:
    every float is the one that a scaled copy of the draws gives."""

    @given(
        pathloss=st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]),
        position=st.integers(0, 100),
        n_rows=st.sampled_from([1, 2, 500, 20_000]),
        offset=st.sampled_from(["zero", "x0"]),
        epsilon=st.floats(0.01, 0.3),
        below=st.integers(0, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pathloss=3.0, position=50, n_rows=1, offset="x0", epsilon=0.1, below=0, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_stage_a0_at_a_row_is_that_of_the_scaled_window(self, pathloss, position, n_rows, offset, epsilon,
                                                             below, seed):
        row, snr = _grid_row(pathloss, position), 0.01
        start = c_eps_baf_k(variances_from_geometry(NetworkGeometry((position_grid(101)[position],), pathloss)),
                            snr, epsilon)
        k0 = below + int(epsilon * n_rows)
        search = montecarlo._RateSearch(snr, k0, 1, None, "exact", start)
        if offset == "zero":
            search.x0 = 0.0  # a0 at x = 0 bounds the aggregate at any offset as well
        gains = np.asfortranarray(gains_batch(UNIT, seed, 0, n_rows))
        gains.flags.writeable = False
        a0 = aggregate_batch(gains * row, 1, search.x0)
        bracket = search.bracket(float(np.partition(a0, k0 - below)[k0 - below]))
        window = montecarlo._Window(below, gains, np.full((4, n_rows), np.nan))
        found = montecarlo._window_stage(search, window, bracket, row)
        assert window.work[0].tobytes() == a0.tobytes()
        scaled = montecarlo._Window(below, gains * row, np.empty((4, n_rows)))
        assert found is not None and found == montecarlo._window_stage(search, scaled, bracket)

    @pytest.mark.parametrize("pathloss", [0.0, 3.0, 8.0])
    @pytest.mark.parametrize("n", [20_000, 70_000])
    def test_block_bounds_are_those_of_the_scaled_batches(self, monkeypatch, pathloss, n):
        # one short batch, or a full one and a short last one, through buffers of the longest; the block's
        # offsets and band are those of rates 2% either side of the closed form at the position before it
        snr, epsilon, seed = 0.01, 0.2, 4
        raw = [np.asfortranarray(gains_batch(UNIT, seed, j, rows)) for j, rows in batch_plan(n)]
        scales = np.array([_grid_row(pathloss, p) for p in range(30, 38)])
        rate = c_eps_baf_k(variances_from_geometry(NetworkGeometry((position_grid(101)[29],), pathloss)), snr, epsilon)
        (x_lo, low), (x_hi, high) = (decode_condition(r, snr, None, 1, "exact") for r in (0.98 * rate, 1.02 * rate))
        block = montecarlo._block_bounds(1, x_lo, x_hi, scales.min(axis=0), scales.max(axis=0))
        scaled, outputs = montecarlo._aggregate, []

        def recorded(aggregate):
            def call(gains, k, x, row, out, work):
                outputs.append(aggregate(gains, k, x, row, out, work).tobytes())
                return out
            return call

        def copied(gains, k, x, row, out, work):
            out[:] = aggregate_batch(gains * row, k, x)
            return out

        monkeypatch.setattr(montecarlo, "_aggregate", recorded(scaled))
        window = montecarlo._band_window(raw, block, low, high)
        monkeypatch.setattr(montecarlo, "_aggregate", recorded(copied))
        reference = montecarlo._band_window(raw, block, low, high)
        bounds = list(zip(outputs[::2], outputs[1::2]))  # (lower, upper) of each batch, before their margins
        assert len(bounds) == 2 * len(raw)
        assert bounds[: len(raw)] == bounds[len(raw) :]
        assert window.gains.tobytes() == reference.gains.tobytes() and len(window.gains) > 0
        assert window.below == reference.below
        assert window.work.shape == (4, len(window.gains))


def _read_only_draws(n, seed):
    raw = [np.asfortranarray(gains_batch(UNIT, seed, j, rows)) for j, rows in batch_plan(n)]
    for g in raw:
        g.flags.writeable = False
    return raw


class TestDrawsInPlace:
    """Placement reads its unit draws in place: windows are gathered by index, and a position solved on all the
    trials computes its a0 into one array, with no scaled copy of a batch."""

    @given(
        n=st.sampled_from([10_000, 70_000, 140_000]),
        band=st.tuples(_BOUNDS, _BOUNDS),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=70_000, band=(0.5, 1.0), seed=0)
    @settings(max_examples=20, deadline=None)
    def test_an_index_gathered_window_is_the_masked_trials_in_trial_order(self, n, band, seed):
        raw, (low, high) = _read_only_draws(n, seed), band

        def bounds(g, buf):
            np.copyto(buf[0], g[:, 0])
            return buf[0], np.add(g[:, 0], g[:, 1], out=buf[1])

        window = montecarlo._band_window(raw, bounds, low, high)
        everything = np.concatenate(raw)
        lower, upper = everything[:, 0], everything[:, 0] + everything[:, 1]
        expected = everything[(upper >= low) & (lower < high)]
        assert window.gains.flags.f_contiguous and window.gains.shape == expected.shape
        assert window.gains.tobytes(order="F") == np.asfortranarray(expected).tobytes(order="F")
        assert window.below == np.count_nonzero(upper < low)
        assert window.work.shape == (4, len(expected))

    @given(
        pathloss=st.sampled_from([0.0, 3.0, 8.0]),
        position=st.integers(1, 99),
        epsilon=st.one_of(st.floats(0.005, 0.3), st.just(0.9)),
        setting=st.sampled_from([("exact", 0.01), ("linearized", 0.01), ("exact", 1e6), ("linearized", 1e6)]),
        n=st.sampled_from([10_000, 70_000, 200_000]),
        start=st.sampled_from(["above", "below", "neighbour"]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(pathloss=3.0, position=50, epsilon=0.3, setting=("exact", 0.01), n=200_000, start="neighbour", seed=4)
    @example(pathloss=8.0, position=5, epsilon=0.9, setting=("linearized", 1e6), n=10_000, start="above", seed=1)
    @example(pathloss=0.0, position=95, epsilon=0.005, setting=("exact", 1e6), n=70_000, start="below", seed=2)
    @settings(max_examples=25, deadline=None)
    def test_exact_position_finds_the_exact_pass_root_on_the_scaled_draws(
        self, pathloss, position, epsilon, setting, n, start, seed
    ):
        assume(epsilon * n >= MIN_EVENTS)
        (mode, snr), raw, plan = setting, _read_only_draws(n, seed), batch_plan(n)
        k0 = montecarlo._max_allowed_count(epsilon, n)

        def exact_pass(p, start_rate):
            search = montecarlo._RateSearch(snr, k0, 1, None, mode, start_rate)
            found = montecarlo._exact_passes([search], _position_variances(raw, pathloss, p, seed), seed, plan)
            return search, _grid_row(pathloss, p), found[0][0]

        closed = c_eps_baf_k(variances_from_geometry(NetworkGeometry((position_grid(101)[position],), pathloss)),
                             snr, epsilon)
        *_, (root, _) = exact_pass(position, closed)
        if start == "neighbour":
            *_, (rate, _) = exact_pass(position - 1, closed)
        else:
            rate = 4.0 * root if start == "above" else root / 4.0
        search, row, expected = exact_pass(position, rate)
        assert montecarlo._exact_position(search, raw, row) == expected
        assert expected[0] == root


def _segment_tasks(pathloss, snr, epsilon, n_trials, seed, grid_points, mode, cuts):
    """``_placement_segment`` arguments for the grid parts [cuts[s], cuts[s + 1]), each started from the closed form,
    on one read-only cache of unit draws, as ``empirical_capacity_vs_position`` builds it."""
    k0 = montecarlo._max_allowed_count(epsilon, n_trials)
    per_position = [variances_from_geometry(NetworkGeometry((d,), pathloss)) for d in position_grid(grid_points)]
    scales = np.array([variance_row(v) for v in per_position])
    raw = _read_only_draws(n_trials, seed)
    return [
        (snr, k0, mode, raw, scales[a:b], c_eps_baf_k(per_position[a], snr, epsilon))
        for a, b in zip(cuts, cuts[1:])
    ]


# (snr, epsilon, n_trials, seed) of the segment tests
SEGMENT_CASE = (0.01, 0.1, 20_000, 1)


@functools.lru_cache(maxsize=None)
def _one_segment_curve(pathloss, grid_points, mode):
    (task,) = _segment_tasks(pathloss, *SEGMENT_CASE, grid_points, mode, [0, grid_points])
    return montecarlo._placement_segment(*task)


@st.composite
def _split_grid(draw):
    grid_points = draw(st.sampled_from([101, 201]))
    inner = draw(st.lists(st.integers(1, grid_points - 1), unique=True, max_size=12))
    return grid_points, [0, *sorted(inner), grid_points]


class TestPlacementSegments:
    @given(
        split=_split_grid(),
        pathloss=st.sampled_from([3.0, 5.0, 8.0]),
        mode=st.sampled_from(["exact", "linearized"]),
    )
    @example(split=(101, [0, 1, 2, 3, 50, 100, 101]), pathloss=8.0, mode="exact")
    @settings(max_examples=20, deadline=None)
    def test_any_split_gives_the_one_segment_curve(self, split, pathloss, mode):
        grid_points, cuts = split
        tasks = _segment_tasks(pathloss, *SEGMENT_CASE, grid_points, mode, cuts)
        caps = np.concatenate([montecarlo._placement_segment(*task) for task in tasks])
        assert np.array_equal(caps, _one_segment_curve(pathloss, grid_points, mode))

    def test_curve_does_not_depend_on_the_worker_count(self, monkeypatch):
        segments = []
        run_batches = montecarlo._run_batches

        def counted(worker, tasks):
            if worker is montecarlo._placement_segment:  # not a segment's exact passes
                segments.append(len(tasks))
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", counted)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        curves = []
        for workers in (1, 2, 3):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            curves.append(empirical_capacity_vs_position(8.0, *SEGMENT_CASE, grid_points=101)[1])
        # a segment per worker, at any trial count
        assert segments == [1, 2, 3]
        assert np.array_equal(curves[0], curves[1]) and np.array_equal(curves[0], curves[2])
        assert np.array_equal(curves[0], _one_segment_curve(8.0, 101, "exact"))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_unit_draws_are_made_once_in_the_calling_process(self, monkeypatch, workers):
        # the segments run in forked children, whose draws would not be counted here
        draws, segments, run_batches = [], [], montecarlo._run_batches

        def counted_draw(*args, **kwargs):
            draws.append(args[2])
            return gains_batch(*args, **kwargs)

        def counted(worker, tasks):
            if worker is montecarlo._placement_segment:
                segments.append(len(tasks))
                for task in tasks:
                    raw = inspect.signature(worker).bind(*task).arguments["raw"]
                    assert raw and not any(g.flags.writeable for g in raw)
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "gains_batch", counted_draw)
        monkeypatch.setattr(montecarlo, "_run_batches", counted)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("BAF_WORKERS", str(workers))
        pathloss, snr, epsilon, n, seed, grid_points, mode = FALLBACK_CASE
        empirical_capacity_vs_position(pathloss, snr, epsilon, n, seed, grid_points=grid_points, threshold_mode=mode)
        assert segments == [workers]
        assert draws == [j for j, _ in batch_plan(n)] and len(draws) == 2


class TestOneKernel:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_estimator_reaches_the_reference_aggregate(self, monkeypatch, workers):
        # ``aggregate_batch`` is the tests' reference: the capacity search, forced through a second pass, placement
        # and the outage sweep complete with it and every alias of it raising, in process and in forked parts
        def reference(*args, **kwargs):
            raise AssertionError("an estimator called aggregate_batch")

        aggregate = protocol.aggregate_batch
        for name, module in list(sys.modules.items()):
            if name == "bafsim" or name.startswith("bafsim."):
                for attr, value in list(vars(module).items()):
                    if value is aggregate:
                        monkeypatch.setattr(module, attr, reference)
        assert protocol.aggregate_batch is reference
        parts, run_batches = [], montecarlo._run_batches

        def counted(worker, tasks):
            parts.append(len(tasks))
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", counted)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # a part per worker
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("BAF_WORKERS", str(workers))
        (v, params), n, seed, margin = FLOOR_CASES["second-pass"]
        monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        results = empirical_eps_outage_capacity_sweep(v, params[:2], n, seed)
        assert [res.iterations for res in results] == [2, 2]
        pathloss, snr, epsilon, n_place, seed_place, grid_points, mode = FALLBACK_CASE
        empirical_capacity_vs_position(pathloss, snr, epsilon, n_place, seed_place, grid_points=grid_points,
                                       threshold_mode=mode)
        empirical_placement_argmax(pathloss, snr, epsilon, n_place, seed_place, grid_points=grid_points,
                                   threshold_mode=mode)
        estimate_outage_sweep(v, [SystemParams(snr=0.1, rate=r, k_relays=2) for r in (0.01, 0.05)], n, seed)
        assert parts and set(parts) == {workers}


# (pathloss, snr_db, epsilon, n_trials, seed, grid_points, mode), fixed before any result was seen: every position
# ties at pathloss 0; a flat curve at epsilon 0.001; clamped duty cycles at +20 dB; and a steep curve at pathloss 8
ARGMAX_PANEL = [
    (0.0, -20.0, 0.05, 20_000, 1, 101, "exact"),
    (1.5, -40.0, 0.001, 100_000, 3, 151, "exact"),
    (2.0, 20.0, 0.9, 20_000, 5, 1001, "linearized"),
    (3.0, -10.0, 0.3, 40_000, 7, 201, "linearized"),
    (3.0, 0.0, 0.01, 20_000, 9, 101, "linearized"),
    (5.0, 20.0, 0.05, 20_000, 2, 201, "exact"),
    (8.0, -20.0, 0.1, 70_000, 1, 101, "exact"),
]


def _argmax_args(case):
    pathloss, snr_db, epsilon, n, seed, grid_points, mode = case
    return pathloss, 10.0 ** (snr_db / 10.0), epsilon, n, seed, grid_points, mode


class TestPlacementArgmax:
    @pytest.mark.parametrize("case", ARGMAX_PANEL, ids=repr)
    def test_equals_the_curves_first_argmax_at_any_worker_count(self, monkeypatch, case):
        args = _argmax_args(case)
        monkeypatch.setenv("BAF_WORKERS", "1")
        grid, caps = empirical_capacity_vs_position(*args)
        expected = float(grid[int(caps.argmax())])
        if case[0] == 0.0:
            assert expected == grid[0]
        segments, run_batches = [], montecarlo._run_batches

        def counted(worker, tasks):
            if worker is montecarlo._argmax_segment:
                segments.append(len(tasks))
            return run_batches(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", counted)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # a segment per worker, merged by capacity then index
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        for workers in (1, 2, 3):
            monkeypatch.setenv("BAF_WORKERS", str(workers))
            assert empirical_placement_argmax(*args) == expected
        assert segments == [1, 2, 3]

    def test_a_tie_goes_to_the_first_position(self):
        # every position has the variances of the middle one, and the largest start is in the middle: every
        # position ties, so the block below the start, whose count at the start's capacity is exactly k0, is kept
        snr, epsilon, n, seed = 0.01, 0.05, 20_000, 1
        k0 = montecarlo._max_allowed_count(epsilon, n)
        scales = np.array([_grid_row(3.0, 50)] * 20)
        starts = np.zeros(len(scales))
        starts[12] = 1e-3
        cap, best = montecarlo._argmax_segment(snr, k0, "exact", _read_only_draws(n, seed), scales, starts)
        assert best == 0
        v = variances_from_geometry(NetworkGeometry((position_grid(101)[50],), 3.0))
        assert cap == empirical_eps_outage_capacity(v, SystemParams(snr=snr, rate=0.0, epsilon=epsilon), n, seed).rate

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_placement_command_solves_few_positions(self, monkeypatch, tmp_path, workers):
        # the benchmark's placement workload at seed 11: a segment solves the position of its largest closed
        # form, and then only positions whose capacity exceeds that one's; the curve and its segments never run
        argv = ["placement", "--snr-db=-20", "--epsilon", "0.3", "--pathloss", "3", "--grid", "101",
                "--trials", "800000", "--seed", "11"]
        snr, n, seed = 10.0 ** (-20.0 / 10.0), 800_000, 11
        grid, caps = empirical_capacity_vs_position(3.0, snr, 0.3, n, seed, grid_points=101)
        solved, segments = [], []
        exact = montecarlo._exact_position

        def counted(search, raw, row):
            solved.append(row)
            return exact(search, raw, row)

        def in_process(worker, tasks):  # so that the calls are counted here
            for task in tasks:
                bound = inspect.signature(worker).bind(*task).arguments
                segments.append((bound["scales"], bound["starts"]))
            return [worker(*task) for task in tasks]

        def unreachable(*args, **kwargs):
            raise AssertionError("the placement command solved the whole curve")

        monkeypatch.setattr(montecarlo, "_exact_position", counted)
        monkeypatch.setattr(montecarlo, "_run_batches", in_process)
        monkeypatch.setattr(montecarlo, "_placement_segment", unreachable)
        monkeypatch.setattr(montecarlo, "empirical_capacity_vs_position", unreachable)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: workers)
        monkeypatch.setenv("BAF_WORKERS", str(workers))
        out = tmp_path / "placement.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        rows = {line.split(",")[4]: line.split(",")[5] for line in out.read_text(encoding="utf-8").splitlines()[1:]}
        assert float(rows["placement_argmax_empirical"]) == float(grid[int(caps.argmax())])
        assert len(segments) == workers
        allowed, a = 0, 0
        for scales, starts in segments:
            seg_caps = caps[a : a + len(scales)]
            allowed += 1 + int(np.count_nonzero(seg_caps > seg_caps[int(np.argmax(starts))]))
            a += len(scales)
        assert a == len(grid)
        assert workers <= len(solved) <= allowed


def _counted_brackets(monkeypatch) -> list:
    """The k0-th a0 of every ``_RateSearch.bracket`` call from now on, in call order."""
    calls, bracket = [], montecarlo._RateSearch.bracket

    def counted(search, a_k0):
        calls.append(a_k0)
        return bracket(search, a_k0)

    monkeypatch.setattr(montecarlo._RateSearch, "bracket", counted)
    return calls


class TestOneBracketPerSearch:
    """Each search ranks its k0-th a0 and solves its bracket once; the window stage takes its caller's."""

    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_sweep_solves_one_bracket_per_point(self, monkeypatch, case, workers):
        (v, params), n, seed, margin = FLOOR_CASES[case]
        if margin is not None:
            monkeypatch.setattr(montecarlo, "_RUNNING_MARGIN", margin)
        monkeypatch.setattr(montecarlo, "_PART_WORK", 1)  # up to a part per batch
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("BAF_WORKERS", str(workers))
        parts = []

        def in_process(worker, tasks):  # so that the calls are counted here
            parts.append(len(tasks))
            return _in_process(worker, tasks)

        monkeypatch.setattr(montecarlo, "_run_batches", in_process)
        calls = _counted_brackets(monkeypatch)
        empirical_eps_outage_capacity_sweep(v, params, n, seed)
        assert set(parts) == {min(workers, len(batch_plan(n)))}
        assert len(calls) == len(params)

    def test_the_curve_solves_one_bracket_per_position(self, monkeypatch):
        pathloss, snr, epsilon, n, seed, grid_points, mode = FALLBACK_CASE
        monkeypatch.setenv("BAF_WORKERS", "1")
        calls = _counted_brackets(monkeypatch)
        grid, _ = empirical_capacity_vs_position(pathloss, snr, epsilon, n, seed, grid_points, mode)
        assert len(calls) == len(grid) == grid_points

    @pytest.mark.parametrize("case", ARGMAX_PANEL, ids=repr)
    def test_the_argmax_solves_one_bracket_per_solved_position(self, monkeypatch, case):
        monkeypatch.setenv("BAF_WORKERS", "1")
        solved, exact = [], montecarlo._exact_position

        def counted(search, raw, row):
            solved.append(row)
            return exact(search, raw, row)

        monkeypatch.setattr(montecarlo, "_exact_position", counted)
        calls = _counted_brackets(monkeypatch)
        empirical_placement_argmax(*_argmax_args(case))
        assert len(calls) == len(solved) >= 1
