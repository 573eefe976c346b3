"""Monte Carlo estimators with deterministic parallelism, plus a quadrature oracle.

Every estimator consumes trials through the fixed batch layout of
:mod:`bafsim.channel`.  Every pass splits into contiguous parts, ranges of
its batches or of the placement grid's positions, one per worker but at least
``_PART_WORK`` of work each (``_ranges``), and runs two or more in forked
worker processes, one part each (``_run_batches``): a child calls the worker
with its part's arguments on its copy of the parent, so only the results are
pickled, and it reads the parent's arrays, such as the placement draws,
without copying them.  A pass's work is n_trials * (1 + 2K + points): the
exponentials drawn per trial plus one read per operating point (placement's
are its grid positions, at K = 1).
No result depends on the split, so each is bit-identical for a given
(master_seed, n_trials) at any worker count.  Workers default to
``os.cpu_count()`` capped by ``BAF_WORKERS``, checked before any draw; without
``os.fork`` there is one, and every pass runs in process.

The quadrature oracle evaluates the one-relay outage probability
Pr(U + VW/(V+W+x) < t) by nested adaptive quadrature, giving an independent
deterministic cross-check of the simulation path.  It is the only user of
SciPy, which it imports when called, so the estimators need NumPy alone.

One pass task serves the outage probability, E(N) and Lemma 1's ratio: it
draws each batch of its range once for all points, since the draws depend
only on (master_seed, batch index, link variances), and counts the rows still
undecoded after every stage with ``undecoded_counts`` at every decode
condition (x, threshold) of a sweep.  It takes the points from the largest
threshold down, and whenever a point's direct link leaves at most half of the
rows in play undecoded, it compacts them to those rows, so the relay stages
skip the rows decoded at stage 0.  The parts' integer sums add up in part
order.
``estimate_outage`` and ``estimate_expected_n`` are one-point sweeps, and
``lemma1_ratio_experiment`` is a one-relay sweep over its points (x, g).

The empirical outage capacity, at operating points or across relay
positions, is the unique root of the outage count: the float rate at which
at most k0 seeded trials, the largest outage count below epsilon, are in
outage, and more are at the next float up.  The kernel, ``_window_stage``,
counts with the protocol's aggregate ``aggregate_batch`` on a window of
trials: those whose aggregate can fall in the band that brackets the
answer, plus a count of the trials surely below it.  Every window is built
from a lower and an upper bound on each trial's aggregate, in trial order.
Operating points take their windows from the exact pass ``_exact_passes``: a
capacity sweep draws each batch once for all its points, each keeping its
k0+1 smallest aggregates and the rows below a running bound (``_Rows``), and
draws it a second time only for the points whose rows do not fit the memory
of one array of n_trials aggregates, or whose kept rows miss the final
bracket.  The parts of a pass are merged in batch order.  The placement
grid's unit draws are made once, by the caller, and read-only, and every
placement pass reads them in place: it takes the unit draws with a variance
row and scales each column as it reads it, into buffers of its own
(``_scaled_aggregate``), and gathers its window's rows by index, column by
column (``_band_window``).  Each segment of the grid restarts its chain of
start rates from the closed form, and bounds each block of relay positions
in one pass over the unit draws, solving every position of the block on that
window.  The first two positions of a segment, and a position its block's
window cannot hold, are solved on all the trials (``_exact_position``): one
pass computes their a0 into one array, partitioned in place for the k0-th
a0, and a second gathers its bracket's band.  Every capacity is the unique
root of its outage count, whatever the split.
One float bisection, ``_solve_increasing``, finds every root the module needs:
the kernel's rate bracket, the capacity itself and lemma1's policy offset.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import _exp2m1, c_eps_baf_k, decode_condition, position_grid
from .channel import (
    TRIALS_PER_BATCH,
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    _is_integer,
    batch_plan,
    gains_batch,
    variance_row,
    variances_from_geometry,
)
from .errors import ConvergenceError, InvalidParameterError
from .protocol import _hops, _running_sums, _scaled_aggregate, _Workspace, aggregate_batch, undecoded_counts

MIN_TRIALS = 10_000
# 65 536 batches, a plan of about 6 MB: 200 times the 20 M trials that the
# largest example or benchmark run draws
MAX_TRIALS = 2**32
# the fewest outage events a plain Monte Carlo estimate is trusted on
MIN_EVENTS = 100


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo statistic with normal-approximation 95% interval."""

    mean: float
    stderr: float
    n_trials: int
    ci95: tuple[float, float]


@dataclass(frozen=True)
class RateSearchResult:
    """Empirical outage capacity, its achieved outage and the draw passes it took."""

    rate: float
    achieved_outage: float
    iterations: int


def worker_count(requested: int | None = None) -> int:
    """Effective worker count: requested (or cpu count) capped by BAF_WORKERS, both positive integers."""
    if requested is not None and not (_is_integer(requested) and requested >= 1):
        raise InvalidParameterError(f"workers must be a positive integer, got {requested!r}")
    env = os.environ.get("BAF_WORKERS")
    try:
        cap = math.inf if env is None else int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidParameterError(f"BAF_WORKERS must be a positive integer, got {env!r}")
    if not hasattr(os, "fork"):
        return 1  # pass parts run in forked children only
    return int(min(requested if requested is not None else (os.cpu_count() or 1), cap))


# Measured on 2 cores (Python 3.11), two parts lose to one up to 10.5 M work (a
# K=2 capacity sweep at 20 batches) and win at 14.2 M (22 K=2 outage points at 8).
_PART_WORK = 6_000_000


def _ranges(n_items: int, work: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ranges [a, b) splitting ``n_items`` items of ``work``: one per worker, ``_PART_WORK`` or more each."""
    parts = max(1, min(workers, n_items, work // _PART_WORK))
    cuts = [n_items * p // parts for p in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_batches(worker, tasks: list) -> list:
    """``worker(*task)`` for each of ``tasks``, in task order: one task in process, more in a forked child process each.

    A child calls the worker on its copy of this process, so tasks are not
    pickled and their arrays are read copy-on-write; it pickles (True, result),
    or (False, exception) if the worker raised, into a pipe of its own, and the
    exception is raised here with its type and message.  Each write end is
    closed here before the next fork, so a pipe's EOF means its child has
    exited, and the pipes are read to EOF in task order: a child whose result
    fills its pipe waits only for those ahead of it.  A child that sends
    nothing, or does not exit cleanly, raises ``ChildProcessError`` naming its
    exit status or signal.  No child outlives the call: on an error the
    children still running are killed, and every child is reaped.  Without
    ``os.fork`` there is one worker (``worker_count``), so every pass runs in
    process.
    """
    if len(tasks) <= 1:
        return [worker(*t) for t in tasks]
    children = []  # (pid, read end of its pipe), in task order, until reaped
    try:
        for task in tasks:
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns, in the parent, on a fork while this process has threads, as NumPy's
                    # OpenBLAS leaves it; the child runs NumPy kernels only and leaves through os._exit
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                            r"use of fork\(\) may lead to deadlocks in the child", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _child(worker, task, read, write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)  # in the parent only: the child never returns
            children.append((pid, open(read, "rb")))
        results = []
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            results.append(_received(payload, status))
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _child(worker, task, read: int, write: int) -> None:
    """Run ``worker(*task)`` in a forked child, pickle its outcome into its pipe (``read``, ``write``) and exit: never returns.

    The child closes its copy of the read end, so that once the parent has
    closed its own, a write fails instead of blocking on a full pipe.
    """
    code = 1  # nothing sent, as when the outcome does not pickle
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, worker(*task)))
        except BaseException as exc:  # the parent raises it
            payload = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _received(payload: bytes, status: int):
    """The result a child sent, or its exception raised; ``ChildProcessError`` if it sent nothing or did not exit cleanly."""
    code = os.waitstatus_to_exitcode(status)
    if code or not payload:
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise ChildProcessError(f"a pass part's worker process sent no result ({how})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def _bernoulli_estimate(count: int, n: int) -> Estimate:
    p = count / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, se, n, (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)))


def _mean_estimate(total: int, total_sq: int, n: int) -> Estimate:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / (n - 1.0))
    se = math.sqrt(var / n)
    return Estimate(mean, se, n, (mean - 1.96 * se, mean + 1.96 * se))


def _check_estimator_inputs(variances: LinkVariances, params: SystemParams) -> None:
    if variances.k_relays != params.k_relays:
        raise InvalidParameterError(
            f"variances describe {variances.k_relays} relays but params.k_relays={params.k_relays}"
        )
    if params.k_relays < 1:
        raise InvalidParameterError("protocol estimators require at least one relay")


def _check_trials(n_trials: int) -> int:
    """``n_trials`` as an int, checked: an integer of any integral type but bool, from MIN_TRIALS to MAX_TRIALS."""
    if not _is_integer(n_trials):
        raise InvalidParameterError(f"n_trials must be an integer, got {n_trials!r}")
    if n_trials < MIN_TRIALS:
        raise InvalidParameterError(f"n_trials must be >= {MIN_TRIALS}, got {n_trials!r}")
    if n_trials > MAX_TRIALS:
        raise InvalidParameterError(f"n_trials must be at most {MAX_TRIALS}, got {n_trials!r}")
    return int(n_trials)


def _sweep_part(variances: LinkVariances, master_seed: int, plan, points) -> list[tuple[int, int, int]]:
    """(outages, sum of N, sum of N^2) at every decode condition (x, thr) of ``points``, over the batches ``plan``.

    The relay stages run on the rows in play, which ``undecoded_counts``
    compacts as the points' direct links decode them.  Every batch is drawn
    into the part's one ``_Workspace``, whose draw the kernel only reads, and
    counted in its other buffers.  With u_m the rows still undecoded after
    stage m, a row uses one sub-block plus one for each u_m, m < K, that
    counts it: sum N = n + sum u_m, and sum N^2 = n + sum (2m+3) u_m, as
    (m+2)^2 - (m+1)^2 = 2m+3.
    """
    k, n, ws = variances.k_relays, sum(rows for _, rows in plan), _Workspace(variances.k_relays)
    counts = [undecoded_counts(gains_batch(variances, master_seed, j, rows, out=ws.gains), k, points, ws)
              for j, rows in plan]
    totals = []
    for point in zip(*counts):
        *entered, outages = (sum(column) for column in zip(*point))
        totals.append((outages, n + sum(entered), n + sum((2 * m + 3) * u for m, u in enumerate(entered))))
    return totals


def _sweep_points(variances: LinkVariances, params_seq, point_of) -> list:
    """``point_of(params)`` for every operating point of a sweep, each point checked before it is built."""
    points = []
    for params in params_seq:
        _check_estimator_inputs(variances, params)
        points.append(point_of(params))
    if not points:
        raise InvalidParameterError("a sweep needs at least one operating point")
    return points


def _outage_pass(variances: LinkVariances, points, n_trials: int, master_seed: int, workers: int | None) -> list:
    """(outages, sum of N, sum of N^2) at every decode condition (x, thr) of ``points``.

    One pass over the draws: each batch is drawn once and serves every point.
    Its parts add up in part order.
    """
    plan = batch_plan(n_trials)
    ranges = _ranges(len(plan), n_trials * (1 + 2 * variances.k_relays + len(points)), worker_count(workers))
    parts = _run_batches(_sweep_part, [(variances, master_seed, plan[a:b], points) for a, b in ranges])
    return [tuple(sum(column) for column in zip(*point)) for point in zip(*parts)]


def _decode_pass(
    variances: LinkVariances, params_seq, n_trials: int, master_seed: int, workers: int | None, threshold_mode: str
) -> list:
    """``_outage_pass`` at the decode condition of every operating point of ``params_seq``."""
    points = _sweep_points(variances, params_seq,
                           lambda p: decode_condition(p.rate, p.snr, p.tau, p.k_relays, threshold_mode))
    return _outage_pass(variances, points, n_trials, master_seed, workers)


def estimate_outage_sweep(
    variances: LinkVariances,
    params_seq,
    n_trials: int,
    master_seed: int,
    workers: int | None = None,
    threshold_mode: str = "exact",
) -> list[Estimate]:
    """``estimate_outage`` at every operating point of ``params_seq``, in order.

    Each batch of gains is drawn once and serves every point, so a sweep
    costs one pass over the draws; each estimate equals the one-point call's.
    """
    n_trials = _check_trials(n_trials)
    totals = _decode_pass(variances, params_seq, n_trials, master_seed, workers, threshold_mode)
    return [_bernoulli_estimate(outages, n_trials) for outages, _, _ in totals]


def estimate_outage(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    workers: int | None = None,
    threshold_mode: str = "exact",
) -> Estimate:
    """Fraction of protocol blocks ending in outage, with binomial stderr."""
    return estimate_outage_sweep(variances, [params], n_trials, master_seed, workers, threshold_mode)[0]


def estimate_expected_n(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    workers: int | None = None,
    threshold_mode: str = "exact",
) -> Estimate:
    """Sample mean of sub-blocks consumed per message (fixed relay order)."""
    n_trials = _check_trials(n_trials)
    [(_, total_n, total_n_sq)] = _decode_pass(variances, [params], n_trials, master_seed, workers, threshold_mode)
    return _mean_estimate(total_n, total_n_sq, n_trials)


# --- Lemma-style small-threshold ratio experiment ---------------------------


def policy_x_for_threshold(g: float) -> float:
    """x = tau/SNR consistent with the duty-cycle policy at threshold g.

    Under tau = sqrt(rate*snr), both the threshold and the offset are set by
    y = sqrt(rate/snr): g = y*(2^(2y) - 1) and x = y, the one-relay threshold
    of ``decode_condition`` through the same ``_exp2m1``.  Inverts the first
    relation for y, to adjacent floats.
    """
    if not (math.isfinite(g) and g > 0.0):
        raise InvalidParameterError(f"threshold must be positive, got {g!r}")
    _, y = _solve_increasing(lambda y: y * _exp2m1(2, y), g, math.sqrt(g))
    return y


def lemma1_ratio_experiment(
    sigma_u2: float,
    sigma_v2: float,
    sigma_w2: float,
    g_sequence,
    n_trials: int,
    master_seed: int,
    x_factor: float | None = None,
    workers: int | None = None,
) -> list[tuple[float, Estimate]]:
    """Estimate Pr(U + VW/(V+W+x) < g)/g^2 along a shrinking threshold sequence.

    ``g_sequence`` must be strictly decreasing, positive and finite.  The
    offset x is tied to g through the duty-cycle policy by default
    (``policy_x_for_threshold``), or set to x = x_factor*g.
    The event is the one-relay protocol's outage at the decode condition
    (x, g) on direct, source-relay and relay-destination gains U, V, W.  The
    ratio means converge toward ``lemma1_constant`` as g -> 0.  Raises
    ConvergenceError when the smallest threshold sees fewer than MIN_EVENTS events.
    """
    variances = LinkVariances(sigma_u2, (sigma_v2,), (sigma_w2,))
    gs = [float(g) for g in g_sequence]
    if not gs or not all(0.0 < g < math.inf for g in gs) or any(b >= a for a, b in zip(gs, gs[1:])):
        raise InvalidParameterError("g_sequence must be strictly decreasing, positive and finite")
    n_trials = _check_trials(n_trials)
    if x_factor is not None:
        if not (math.isfinite(x_factor) and x_factor >= 0.0):
            raise InvalidParameterError(f"x_factor must be finite and >= 0, got {x_factor!r}")
        xs = [x_factor * g for g in gs]
    else:
        xs = [policy_x_for_threshold(g) for g in gs]

    totals = _outage_pass(variances, list(zip(xs, gs)), n_trials, master_seed, workers)
    counts = [outages for outages, _, _ in totals]

    if counts[-1] < MIN_EVENTS:
        need = math.ceil(n_trials * MIN_EVENTS / max(counts[-1], 1))
        raise ConvergenceError(
            f"only {counts[-1]} events at the smallest threshold g={gs[-1]:g}; "
            f"increase n_trials (roughly {need} needed for {MIN_EVENTS} events)"
        )
    out = []
    for g, c in zip(gs, counts):
        p, scale = _bernoulli_estimate(c, n_trials), 1.0 / (g * g)
        ci = (p.ci95[0] * scale, p.ci95[1] * scale)
        out.append((g, Estimate(p.mean * scale, p.stderr * scale, n_trials, ci)))
    return out


# --- deterministic quadrature oracle ----------------------------------------

ORACLE_TAIL_MEANS = 40.0
ORACLE_REL_TOL = 1e-6


def quadrature_outage_oracle(variances: LinkVariances, threshold: float, x: float) -> float:
    """Pr(U + VW/(V+W+x) < t) for one relay, by deterministic quadrature.

    U is the direct-link gain (mean sigma_sd2), V and W the relay-hop gains.
    The W variable integrates in closed form: conditioned on V = v, the
    combined relay gain stays below s iff W < s*(v+x)/(v-s) (always, when
    v <= s), so

        Pr(VW/(V+W+x) < s) = 1 - int_s^inf f_V(v) exp(-s*(v+x)/((v-s)*sw2)) dv.

    The probability is the expectation of that CDF over U restricted to
    U < t, a second 1-D adaptive quadrature.  The V tail is truncated at
    ``ORACLE_TAIL_MEANS`` means beyond s (neglected mass below e-40), and a
    ConvergenceError reports the achieved tolerance if the combined error
    estimate exceeds ``ORACLE_REL_TOL`` relative to the result.
    """
    from scipy import integrate  # the one SciPy use: kept off the import path of the CLI

    if variances.k_relays != 1:
        raise InvalidParameterError("the quadrature oracle covers the one-relay case only")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise InvalidParameterError(f"threshold must be >= 0, got {threshold!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise InvalidParameterError(f"x must be >= 0, got {x!r}")
    if threshold == 0.0:
        return 0.0
    su2 = variances.sigma_sd2
    sv2 = variances.sigma_sr2[0]
    sw2 = variances.sigma_rd2[0]
    t = threshold
    inner_errs: list[float] = []

    def relay_cdf(s: float) -> float:
        if s <= 0.0:
            return 0.0

        def survival_density(r: float) -> float:
            # r = v - s > 0
            return math.exp(-(s + r) / sv2 - s * (s + r + x) / (r * sw2)) / sv2

        # breakpoints mark the suppression layer near r = 0 so the adaptive
        # rule resolves it even when it is microscopically thin
        upper = ORACLE_TAIL_MEANS * sv2
        layer = s * (s + x) / sw2
        peak = math.sqrt(max(s * (s + x) * sv2 / sw2, 1e-300))
        pts = sorted({min(max(v, 1e-290), 0.975 * upper) for v in (layer, peak, 10 * peak, 100 * peak)})
        tail, err = integrate.quad(
            survival_density, 0.0, upper, epsabs=0.0, epsrel=1e-11, limit=300, points=pts
        )
        inner_errs.append(err)
        return 1.0 - tail

    def outer(u: float) -> float:
        return math.exp(-u / su2) / su2 * relay_cdf(t - u)

    with warnings.catch_warnings():
        # accuracy is gated on the returned error estimates below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        p, outer_err = integrate.quad(outer, 0.0, t, epsabs=0.0, epsrel=1e-9, limit=200)
    if p <= 0.0:
        return 0.0
    err = outer_err + (max(inner_errs) * t / su2 if inner_errs else 0.0)
    if err > ORACLE_REL_TOL * p:
        raise ConvergenceError(
            f"quadrature achieved relative tolerance {err / p:.3e}, required {ORACLE_REL_TOL:g}"
        )
    return min(p, 1.0)


# --- empirical outage capacity ----------------------------------------------

# Relative widening of every bound the capacity kernel derives from
# floating-point values; far above their rounding error.
_BOUND_MARGIN = 1e-9
# The exact pass widens its running bound on a window by this relative
# margin: a bracket is found to a relative width only, so the bound from a
# smaller k0-th a0 may lie a little above the one from a larger.  A bound
# too tight only costs a second pass.
_RUNNING_MARGIN = 1e-6
# The placement sweep bounds this many relay positions in one pass over the
# draws, and widens the start rates and aggregate band it predicts for them
# by this relative margin.
_BLOCK_POSITIONS = 8
_PREDICTION_MARGIN = 0.02


def _max_allowed_count(epsilon: float, n_trials: int) -> int:
    """Largest outage count c with c/n_trials < epsilon in float arithmetic.

    Rejects epsilon*n_trials < MIN_EVENTS: too few outage events to resolve epsilon.
    """
    if epsilon * n_trials < MIN_EVENTS:
        raise InvalidParameterError(
            f"epsilon*n_trials must be >= {MIN_EVENTS} (got {epsilon * n_trials:g}); increase n_trials"
        )
    c = int(epsilon * n_trials)  # never below the answer, nor above n_trials: only a step down can be needed
    while c / n_trials >= epsilon:
        c -= 1
    return c


def _solve_increasing(
    f, target: float, start: float, rel_width: float = 0.0, upper: float | None = None
) -> tuple[float, float]:
    """Bracket (lo, hi) with f(lo) < target <= f(hi) for an increasing f, searched outward from ``start``.

    ``upper``, if given, is tried as the upper end before any doubling.
    Halving or doubling finds a bracket, and bisection narrows it until
    hi - lo <= rel_width*lo, or to adjacent floats.
    """
    lo = start
    hi = start if upper is None else upper
    while f(lo) >= target:
        lo, hi = 0.5 * lo, lo
    while f(hi) < target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel_width * lo:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


class _RateSearch:
    """The largest rate at which at most k0 of the trials at one set of variances are in outage.

    A trial is in outage at rate r iff its aggregate ``aggregate_batch`` at
    x(r) is below thr(r), with (x, thr) from ``decode_condition``; neither
    falls as r grows, float for float, so the outage count never falls with r
    and its root does not depend on where the search starts.  The search
    keeps each trial's aggregate a0 at x0, the offset of ``start_rate``
    (1e-6*SNR if that is not positive and finite), and brackets from there.
    """

    def __init__(self, snr: float, k0: int, k: int, tau: float | None, threshold_mode: str, start_rate: float):
        self.snr, self.k0, self.k, self.tau, self.mode = snr, k0, k, tau, threshold_mode
        self.start = float(start_rate) if math.isfinite(start_rate) and start_rate > 0.0 else 1e-6 * snr
        self.x0, _ = self.condition(self.start)

    def condition(self, rate: float) -> tuple[float, float]:
        return decode_condition(rate, self.snr, self.tau, self.k, self.mode)

    def _certain(self, rate: float) -> float:  # a0 below this: in outage at ``rate``
        x, thr = self.condition(rate)
        return thr - self.k / 4.0 * max(self.x0 - x, 0.0)

    def _possible(self, rate: float) -> float:  # a0 at or above this: not in outage at ``rate``
        x, thr = self.condition(rate)
        return thr + self.k / 4.0 * max(x - self.x0, 0.0)

    def bracket(self, a_k0: float) -> tuple[float, float, float, float]:
        """(r_lo, r_hi, a_below, a_above) around ``a_k0``, the k0-th smallest a0.

        As |d alpha/dx| = sum v*w/(v+w+x)^2 <= K/4, at most k0 trials are in
        outage at r_lo and more than k0 at r_hi; a trial with a0 below
        a_below is in outage on all of [r_lo, r_hi], one with a0 at or above
        a_above on none of it.
        """
        r_lo, _ = _solve_increasing(self._possible, a_k0, self.start, _BOUND_MARGIN)
        r_hi, a_above = self.upper(a_k0)
        # a0 > 0, so a negative a_below marks none
        return r_lo, r_hi, self._certain(r_lo) * (1.0 - _BOUND_MARGIN), a_above

    def upper(self, a_k0: float) -> tuple[float, float]:
        """(r_hi, a_above) of ``bracket(a_k0)``, without solving for its lower end."""
        _, r_hi = _solve_increasing(self._certain, a_k0, self.start, _BOUND_MARGIN)
        return r_hi, self._possible(r_hi) * (1.0 + _BOUND_MARGIN)


@dataclass(frozen=True)
class _Window:
    """The trials that can hold the order statistic of a search whose bracket lies in [low, high).

    ``gains`` holds their gains as the search sees them, in trial order; a
    placement window holds the unit draws, column-major, and each of its
    positions scales them by its variance row.  Of the other trials,
    ``below`` have a0 below ``low`` and the rest a0 at or above ``high``, at
    every offset x0 in [x_lo, x_hi] and, for a block, every variance row it
    was bounded for.  A placement window also holds ``work``, four rows of
    len(gains) floats, which every position's ``_window_stage`` reuses for
    its a0 (the last row only at K >= 2).
    """

    below: int
    gains: np.ndarray
    low: float
    high: float
    x_lo: float
    x_hi: float
    work: np.ndarray | None = None


class _Rows:
    """The rows of a capacity sweep's pass whose bounds on a0 meet the band [low, high), in trial order.

    Only the capacity sweep's ``_PassPoint`` uses it: its batches are drawn
    and dropped, so it copies the rows it keeps.  ``add`` takes a batch of
    gains with a lower and an upper bound on each row's a0 (a0 itself for
    both, where it is computed): it counts the rows surely below the band in
    ``below`` and keeps those that can lie in it.
    ``size`` is the number of floats kept.
    """

    def __init__(self, low: float, high: float):
        self.low, self.high = low, high
        self.below, self.chunks, self.size = 0, [], 0

    def add(self, gains: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        self.below += int(np.count_nonzero(upper < self.low))
        # faster than a boolean index on rows
        self.chunks.append(gains[np.flatnonzero((upper >= self.low) & (lower < self.high))])
        self.size += self.chunks[-1].size

    def prune(self, a0_of) -> None:
        """Keep only the rows whose a0, ``a0_of(rows)``, lies below ``high``."""
        for c, chunk in enumerate(self.chunks):
            self.chunks[c] = chunk[np.flatnonzero(a0_of(chunk) < self.high)]
        self.size = sum(chunk.size for chunk in self.chunks)

    def window(self, width: int, x_lo: float, x_hi: float) -> _Window:
        """The kept rows as the window bounded for offsets in [x_lo, x_hi]; the rows leave ``self``.

        Column-major, so that the aggregate reads whole columns.  Each chunk
        is released once copied, so that its memory can go.
        """
        gains = np.empty((sum(len(chunk) for chunk in self.chunks), width), order="F")
        s = 0
        while self.chunks:
            chunk = self.chunks.pop(0)
            gains[s : s + len(chunk)] = chunk
            s += len(chunk)
        return _Window(self.below, gains, self.low, self.high, x_lo, x_hi)


def _window_stage(search: _RateSearch, window: _Window, row: np.ndarray | None = None):
    """(rate, outage count there) of ``search`` on the ``window`` gains, scaled by the variance row ``row`` if given.

    Returns None when the window cannot hold the answer: x0 outside
    [x_lo, x_hi], or the bracket not inside [low, high).  Otherwise a_k0,
    the bracket and the candidates are those of the whole trial set.  The
    rate is the root of the outage count, the trials below the band plus the
    candidates in outage: at most k0 at the rate and more at the next float.

    With ``row``, the window is a placement window: a0 is computed column
    by column (``_scaled_aggregate``) into the window's ``work``, which also
    takes the copy that is partitioned, and only the candidates' rows are
    scaled.  Every float is the one that the window scaled by ``row`` gives
    without it.
    """
    if not window.x_lo <= search.x0 <= window.x_hi:
        return None
    k, k0 = search.k, search.k0
    if row is None:
        a0 = aggregate_batch(window.gains, k, search.x0)
        ranked = np.empty_like(a0)
    else:
        a0, ranked, *work = window.work
        _scaled_aggregate(window.gains, row, k, search.x0, a0, [ranked, *work])
    i = k0 - window.below
    if not 0 <= i < len(a0):
        return None
    np.copyto(ranked, a0)
    ranked.partition(i)
    r_lo, r_hi, a_below, a_above = search.bracket(float(ranked[i]))
    if not (window.low <= a_below and a_above <= window.high):
        return None
    below = window.below + int(np.count_nonzero(a0 < a_below))
    cand = np.flatnonzero((a0 >= a_below) & (a0 < a_above))
    # the candidates' hop terms do not depend on the rate: built once, and
    # summed at each rate into the same buffers, to the floats of aggregate_batch
    gains, rows = (window.gains, cand) if row is None else (window.gains[cand] * row, slice(None))
    g_sd, hops = gains[:, 0][rows], list(_hops(gains, k, rows))
    agg, term = np.empty(len(cand)), np.empty(len(cand))

    def outages(r: float) -> int:
        x, thr = search.condition(r)
        *_, alpha = _running_sums(g_sd, hops, x, agg, term)
        return below + int(np.count_nonzero(alpha < thr))

    rate, _ = _solve_increasing(outages, k0 + 1, r_lo * (1.0 - _BOUND_MARGIN), upper=r_hi * (1.0 + _BOUND_MARGIN))
    return rate, outages(rate)


class _PassPoint:
    """One search's share of a pass over the trials, or of a part of one, as the window its ``rows`` gather.

    ``add`` and ``prune`` take the gains as the search sees them.  A first
    pass (``band`` None) keeps the k0+1 smallest a0 seen in ``buf`` and,
    unless ``rows`` is None, every drawn row whose a0 lies below the running
    bound ``rows.high`` when its batch comes, or when the rows are pruned.
    The k0-th smallest a0 seen so far only falls, so the rows kept are a
    superset of the trials the final bracket needs.  A second pass keeps the
    rows with a0 in ``band``, the bracket's band [a_below, a_above) from the
    final k0-th smallest a0 that ``close`` sets after a first pass, and
    counts the trials below it.
    """

    def __init__(self, search: _RateSearch, band: tuple[float, float] | None = None):
        self.search, self.band, self.bounded, self.pruned = search, band, math.inf, math.inf
        if band is not None:
            self.rows, self.buf = _Rows(*band), None
            return
        self.rows = _Rows(-math.inf, math.inf)
        # room for up to as many values again (at most a batch), partitioned only when full
        spare = min(search.k0 + 1, TRIALS_PER_BATCH)
        self.buf, self.filled, self.settled = np.empty(search.k0 + 1 + spare), 0, math.inf

    @staticmethod
    def merged(parts: list[_PassPoint]) -> _PassPoint:
        """One point's state after a whole pass, from its states after the pass's parts, in part order.

        The k0+1 smallest a0 of the pass are among those the parts buffered.
        The rows and the counts below the band add up in trial order, under
        the least of the parts' running bounds: every trial with a0 below it
        is among them.  A point that a part kept no rows for keeps none.
        """
        point = parts[0]
        if len(parts) == 1:
            return point
        if point.buf is not None:
            point.buf = np.concatenate([p.buf[: p.filled] for p in parts])
            point.filled, point.settled = len(point.buf), math.inf
        if any(p.rows is None for p in parts):
            point.rows = None
            return point
        for p in parts[1:]:
            point.rows.below += p.rows.below
            point.rows.chunks += p.rows.chunks
            point.rows.size += p.rows.size
            point.rows.high = min(point.rows.high, p.rows.high)
        return point

    def _settle(self) -> float:
        """The k0-th smallest a0 seen, or inf before k0+1 have been."""
        k0 = self.search.k0
        if self.filled > k0 and (self.filled > k0 + 1 or self.settled == math.inf):
            self.buf[: self.filled].partition(k0)
            self.filled, self.settled = k0 + 1, float(self.buf[k0])
        return self.settled

    def cut(self) -> float:
        """The a0 at or above which a row of the next batch adds nothing."""
        if self.buf is None:
            return self.rows.high
        return self.settled if self.rows is None else max(self.settled, self.rows.high)

    def add(self, gains: np.ndarray, floor: np.ndarray | None = None) -> None:
        """Take one batch of drawn gains; ``floor``, if given, is a lower bound on each row's a0."""
        s = self.search
        if floor is not None and self.cut() < math.inf:
            gains = gains[np.flatnonzero(floor < self.cut())]
        a0 = aggregate_batch(gains, s.k, s.x0)
        if self.buf is not None:
            new = a0 if self.settled == math.inf else a0[a0 < self.settled]
            if new.size > s.k0 + 1:  # only the k0+1 smallest of a batch can count
                new = np.partition(new, s.k0)[: s.k0 + 1]
            if self.filled + new.size > self.buf.size:
                new = new[new < self._settle()]
            self.buf[self.filled : self.filled + new.size] = new
            self.filled += new.size
            if self.rows is None:
                return
            u = self._settle()
            if u < self.bounded:
                self.rows.high = min(self.rows.high, s.upper(u)[1] * (1.0 + _RUNNING_MARGIN))
                self.bounded = u
        self.rows.add(gains, a0, a0)

    def prune(self) -> int:
        """Keep only the kept rows whose a0 lies below the current running bound; returns the floats freed.

        Rows kept since the last prune lie below the bound, unless it has fallen since.
        """
        if self.rows is None or self.rows.high == self.pruned:
            return 0
        s, size, self.pruned = self.search, self.rows.size, self.rows.high
        self.rows.prune(lambda gains: aggregate_batch(gains, s.k, s.x0))
        return size - self.rows.size

    def drop(self) -> None:
        """Stop keeping rows."""
        self.rows = None

    def size(self) -> int:
        """The floats of the rows kept."""
        return 0 if self.rows is None else self.rows.size

    def close(self) -> tuple | None:
        """The window stage's result on the rows kept; releases the point's arrays.

        After a first pass whose window cannot hold the answer, or that kept
        no rows, returns None and sets ``band`` for the second pass.
        """
        s, rows, self.rows = self.search, self.rows, None
        if rows is not None:
            found = _window_stage(s, rows.window(1 + 2 * s.k, s.x0, s.x0))
            if found is not None or self.buf is None:
                return found
        _, _, a_below, a_above = s.bracket(self._settle())
        self.buf, self.band = None, (a_below, a_above)
        return None


def _pass_part(draw, plan, bands, keeps, room: int) -> list[_PassPoint]:
    """The state of every point of a pass after one contiguous part of its batches.

    ``draw(j, rows)`` returns the gains of batch j as the searches see them,
    and ``plan`` holds the part's batches.  ``bands`` holds a (search, band)
    pair per second pass and ``keeps`` a (search, keep) pair per first pass;
    the states come back in that order.  The first passes that keep rows share
    ``room`` floats for them.  Each batch is drawn once and serves every
    point.  Where a part serves two or more points, its aggregate at their
    largest x0 bounds all their a0 from below (every term falls as x grows,
    and so does its float), and each point computes its a0 only on the rows
    whose bound lies below its ``cut``, which changes no result.  When the
    kept rows of the first passes outgrow the room, points prune their rows
    to their current bounds, in order, until the rows fit; the point that
    grew drops its rows if they do not fit with every point pruned.
    """
    first = [_PassPoint(search) for search, _ in keeps]
    for point, (_, keep) in zip(first, keeps):
        if not keep:
            point.drop()
    points = [_PassPoint(search, band) for search, band in bands] + first
    x_floor = max(p.search.x0 for p in points) if len(points) > 1 else None
    kept = 0  # the floats the first passes keep
    for j, rows in plan:
        gains = draw(j, rows)
        floor = None
        if x_floor is not None and min(p.cut() for p in points) < math.inf:
            floor = aggregate_batch(gains, points[0].search.k, x_floor)
        for point in points:
            size = point.size()
            point.add(gains, floor)
            if point.buf is None:
                continue
            kept += point.size() - size
            for p in first:  # prune only until the rows fit
                if kept <= room:
                    break
                kept -= p.prune()
            if kept > room:
                kept -= point.size()
                point.drop()
    for point in first:  # a buffer leaves the part as its k0+1 smallest values alone
        point._settle()
        point.buf = point.buf[: point.filled]
    return points


def _exact_passes(
    searches: list[_RateSearch], draw, plan: list[tuple[int, int]], ranges: list[tuple[int, int]] | None = None
) -> list[tuple[tuple, int]]:
    """(``_window_stage`` result, passes over the trials taken) of every search of ``searches``.

    ``draw(j, rows)`` returns the gains of batch j of ``plan`` as the
    searches see them.  Each pass draws every batch once and serves all its
    points (see ``_pass_part``).  It is split into the contiguous parts
    plan[a:b] of ``ranges`` (one part if None), run in forked worker
    processes if there are two or more, and each point's states after
    the parts are merged in part order (``_PassPoint.merged``).  A point's
    first pass keeps its k0+1 smallest a0 and, in a ``_Rows``, the rows
    below a running bound on the window; where the final bracket lies inside
    that bound, the window stage runs on those rows and the point is done in
    one pass.  Otherwise, or where a part kept no rows for the point,
    ``close`` sets the exact band [a_below, a_above) of its final k0-th a0,
    and a second pass gathers it, so the stage always succeeds there.

    The state of first passes, k0+1 buffered values and the kept rows per
    point, stays within the n_trials floats one point's array of a0 would
    take, across all parts: each part buffers its own k0+1 values per point
    and keeps its rows within its own trials less its buffers.  A buffer's
    spare room, at most as large again, is not counted, as the parent
    array's partitioned copy was not.  Points start their first pass in
    order while they fit beside the points ahead of them in n_trials floats,
    each with its k0+1 values and, where it keeps rows, room for its k0+1
    smallest rows; a point whose k0+1 rows would not fit even alone keeps
    none.  A later pass serves the second passes of the previous one.
    Either way the window holds the trials with a0 in the final [a_below,
    a_above) in trial order, so the answer depends neither on the path nor
    on the split: at one part, the passes are those of an unsplit pass.

    The answer is the unique root of the outage count: the float rate with
    at most k0 trials in outage there and more at the next float up, the
    same whatever the start rate or the bracket.
    """
    n = sum(rows for _, rows in plan)
    ranges = ranges or [(0, len(plan))]
    found: list = [None] * len(searches)
    start, second = 0, []
    while start < len(searches) or second:
        first, used, room = [], 0, n
        while start < len(searches):
            search = searches[start]
            buf, least = search.k0 + 1, (search.k0 + 1) * (1 + 2 * search.k)
            keep = buf + least <= n
            if first and used + buf + keep * least > n:
                break
            first.append((start, keep))
            used, room, start = used + buf + keep * least, room - buf, start + 1
        bands, keeps = [(p.search, p.band) for _, p in second], [(searches[i], keep) for i, keep in first]
        # each part keeps its rows in its own trials less its buffers
        tasks = [
            (draw, plan[a:b], bands, keeps, room - n + sum(rows for _, rows in plan[a:b]))
            for a, b in ranges
        ]
        states = [_PassPoint.merged(list(p)) for p in zip(*_run_batches(_pass_part, tasks))]
        # first passes close first, to release their buffers before the second passes' stages
        done, second = list(zip(second, states)), []
        for (i, _), point in zip(first, states[len(done) :]):
            stage = point.close()
            if stage is None:
                second.append((i, point))
            else:
                found[i] = (stage, 1)
        for (i, _), point in done:
            found[i] = (point.close(), 2)
    return found


def empirical_eps_outage_capacity_sweep(
    variances: LinkVariances,
    params_seq,
    n_trials: int,
    master_seed: int,
    threshold_mode: str = "exact",
) -> list[RateSearchResult]:
    """``empirical_eps_outage_capacity`` at every operating point of ``params_seq``, in order.

    Every point is checked before any draw.  A pass over the draws serves
    every point (see ``_exact_passes``): each batch is drawn once, and once
    more only for the points whose state does not fit the memory of one
    point's array of a0, or whose window misses the bracket.  Each pass
    splits into parts (``_ranges``), which draw their own batches and
    together stay within that memory.  Each result's (rate, achieved_outage)
    equals the one-point call's at any split; only ``iterations`` may
    differ, as a part keeps its rows in its own share of the memory.
    """
    workers = worker_count()  # rejects an invalid BAF_WORKERS before any draw
    n_trials = _check_trials(n_trials)
    searches = _sweep_points(variances, params_seq, lambda p: _RateSearch(
        p.snr, _max_allowed_count(p.epsilon, n_trials), p.k_relays, p.tau,
        threshold_mode, c_eps_baf_k(variances, p.snr, p.epsilon),
    ))
    plan = batch_plan(n_trials)
    ranges = _ranges(len(plan), n_trials * (1 + 2 * variances.k_relays + len(searches)), workers)
    found = _exact_passes(searches, functools.partial(gains_batch, variances, master_seed), plan, ranges)
    return [
        RateSearchResult(rate=rate, achieved_outage=count / n_trials, iterations=passes)
        for (rate, count), passes in found
    ]


def empirical_eps_outage_capacity(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    threshold_mode: str = "exact",
) -> RateSearchResult:
    """Largest rate whose simulated outage probability stays below epsilon.

    The outage probability at a rate is the fraction of the seeded trials in
    outage there, so the answer is the unique root of the outage count: the
    rate with at most k0 trials in outage, the largest count below epsilon,
    and more at the next float up.  ``_exact_passes`` finds it from the
    closed form ``c_eps_baf_k``; ``iterations`` counts its passes over the
    draws, 1, or 2 where the point needs the second pass.  ``params.tau`` fixes the duty
    cycle, None selects the clamped policy; ``params.rate`` is ignored.
    """
    return empirical_eps_outage_capacity_sweep(variances, [params], n_trials, master_seed, threshold_mode)[0]


# --- empirical capacity across relay positions ------------------------------

PLACEMENT_TRIAL_LIMIT = 20_000_000


def _band_window(raw: list[np.ndarray], bounds, low: float, high: float, x_lo: float, x_hi: float) -> _Window:
    """The window of the trials of ``raw`` whose bounds on a0 meet the band [low, high), gathered by index.

    ``bounds(g, buf)`` returns a lower and an upper bound on the a0 of each
    row of the batch ``g``, computed in the rows of ``buf``: five of len(g)
    floats, reused batch after batch.  One pass keeps one index array per
    batch, the rows whose bounds meet the band, and counts in ``below`` the
    rows whose upper bound lies below it.  Its buffers are released, and the
    window is then allocated once, column-major, and filled column by column
    from the unit draws, in trial order, with its ``work`` for the stages.
    """
    below, picks = 0, []
    buf = np.empty((5, max(len(g) for g in raw)))
    for g in raw:
        lower, upper = bounds(g, buf[:, : len(g)])
        below += int(np.count_nonzero(upper < low))
        picks.append(np.flatnonzero((upper >= low) & (lower < high)))
    del buf, lower, upper
    gains = np.empty((sum(len(idx) for idx in picks), raw[0].shape[1]), order="F")
    s = 0
    for g, idx in zip(raw, picks):
        for c in range(g.shape[1]):
            # the indices are valid; mode="raise" would copy out first
            np.take(g[:, c], idx, out=gains[s : s + len(idx), c], mode="clip")
        s += len(idx)
    return _Window(below, gains, low, high, x_lo, x_hi, np.empty((4, len(gains))))


def _block_window(search: _RateSearch, raw: list[np.ndarray], scales: np.ndarray, recent_caps: np.ndarray) -> _Window:
    """Window for the positions with variance rows ``scales``, from one bounding pass over ``raw``.

    The positions' start rates are extrapolated from the last two capacities
    solved, ``recent_caps``, and widened by ``_PREDICTION_MARGIN`` to
    [rate_lo, rate_hi], with offsets x_lo, x_hi and thresholds thr_lo,
    thr_hi there.  The band is [thr_lo - K/4*(x_hi - x_lo), thr_hi +
    K/4*(x_hi - x_lo)), from the slope bound K/4 that ``_RateSearch``
    brackets with: a search whose start rate and bracket lie in
    [rate_lo, rate_hi] has its (a_below, a_above) in the band, but for
    ``_BOUND_MARGIN``.  The aggregate rises in every gain and falls in x, so
    a0 over the block lies between its value at the smallest entry of each
    variance column and the largest x, and its value at the largest entries
    and the smallest x.  Each batch's two bounds, the floats of
    ``aggregate_batch`` on the batch scaled by those rows, are computed column
    by column (``_scaled_aggregate``), and ``_band_window`` gathers the unit
    draws of the trials they cannot place outside the band.
    ``_window_stage`` checks every window, so a prediction that misses
    (or overflows, far past the clamp) only sends a position to
    ``_exact_position``.
    """
    steps = np.arange(len(scales))  # position t starts from the capacity of position t - 1
    with np.errstate(all="ignore"):
        rates = recent_caps[1] * (recent_caps[1] / recent_caps[0]) ** steps
    rate_lo = float(rates.min()) * (1.0 - _PREDICTION_MARGIN)
    # below the duty cycle's domain, x0 > 0 and thr > 0 are the only bounds
    # (every start rate is inside it)
    x_lo, thr_lo = search.condition(rate_lo) if rate_lo * search.snr >= sys.float_info.min else (0.0, 0.0)
    x_hi, thr_hi = search.condition(float(rates.max()) * (1.0 + _PREDICTION_MARGIN))
    slack = search.k / 4.0 * (x_hi - x_lo)
    row_lo, row_hi, k = scales.min(axis=0), scales.max(axis=0), search.k

    def bounds(g, buf):
        lower, upper, *work = buf  # the last work row untouched at K = 1
        np.multiply(_scaled_aggregate(g, row_lo, k, x_hi, lower, work), 1.0 - _BOUND_MARGIN, out=lower)
        np.multiply(_scaled_aggregate(g, row_hi, k, x_lo, upper, work), 1.0 + _BOUND_MARGIN, out=upper)
        return lower, upper

    return _band_window(raw, bounds, thr_lo - slack, thr_hi + slack, x_lo, x_hi)


def _exact_position(search: _RateSearch, raw: list[np.ndarray], row: np.ndarray) -> tuple[float, int]:
    """(rate, outage count there) of ``search`` on every trial of ``raw``, scaled by the variance row ``row``.

    One pass computes every trial's a0 at x0 (``_scaled_aggregate``) into
    one array of n_trials floats, the memory of one point's array of a0 in
    ``_exact_passes``, which is partitioned in place for the k0-th a0.  The
    array is released, and ``_band_window`` gathers the band [a_below,
    a_above) of its bracket, so ``_window_stage`` always succeeds there.
    The answer is the unique root of the outage count, that of
    ``_exact_passes`` on the scaled draws.
    """
    k, x0 = search.k, search.x0
    a0 = np.empty(sum(len(g) for g in raw))
    work = np.empty((3, max(len(g) for g in raw)))
    s = 0
    for g in raw:
        _scaled_aggregate(g, row, k, x0, a0[s : s + len(g)], work[:, : len(g)])
        s += len(g)
    del work
    a0.partition(search.k0)
    _, _, a_below, a_above = search.bracket(float(a0[search.k0]))
    del a0

    def bounds(g, buf):
        exact = _scaled_aggregate(g, row, k, x0, buf[0], buf[1:4])
        return exact, exact

    return _window_stage(search, _band_window(raw, bounds, a_below, a_above, x0, x0), row)


def _placement_segment(
    snr: float, k0: int, threshold_mode: str, raw: list[np.ndarray], scales: np.ndarray, start_rate: float
) -> np.ndarray:
    """Capacities at the contiguous run of positions with variance rows ``scales``.

    ``raw`` holds the unit draws, which the segment reads in place and never
    writes: every pass scales them column by column as it reads them, into
    buffers of its own, and every window gathers its trials' unit draws by
    index (``_band_window``).  The first position's search starts from
    ``start_rate``.  The first two positions are solved on all the trials
    (``_exact_position``); after them, positions come in blocks of
    ``_BLOCK_POSITIONS`` on one ``_block_window`` each, and a position the
    window cannot hold falls back to ``_exact_position``, after which the
    next block starts.  A block's window, and its buffers, are released
    before the next bounding pass or exact position.  Every capacity is the
    unique root of its outage count, so it does not depend on where its
    segment starts.
    """
    caps = np.empty(len(scales))
    window, block_end = None, 0
    for i, scale in enumerate(scales):
        search = _RateSearch(snr, k0, 1, None, threshold_mode, caps[i - 1] if i else start_rate)
        if window is None and i >= 2:
            block_end = min(i + _BLOCK_POSITIONS, len(scales))
            window = _block_window(search, raw, scales[i:block_end], caps[i - 2 : i])
        found = None if window is None else _window_stage(search, window, scale)
        if found is None or i + 1 == block_end:
            window = None
        if found is None:
            found = _exact_position(search, raw, scale)
        caps[i], _ = found
    return caps


def empirical_capacity_vs_position(
    pathloss_exponent: float,
    snr: float,
    epsilon: float,
    n_trials: int,
    master_seed: int,
    grid_points: int = 201,
    threshold_mode: str = "exact",
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical one-relay outage capacity across a relay-position grid.

    Uses the same trials (common random numbers) at every grid position: the
    raw exponentials are drawn from (master_seed, batch) and rescaled by the
    position-dependent variances, so the capacity curve is smooth in the
    position and its argmax is comparable across positions.  Each position's
    capacity is the unique root of its outage count under the clamped
    duty-cycle policy, so whatever its start rate, it is the rate that
    ``empirical_eps_outage_capacity``, started from the closed form, finds
    on the same variances and trials.

    The trials are drawn once, here, and made read-only.  The grid splits
    into segments (``_ranges``), which ``_placement_segment`` solves on those
    draws; a forked segment reads them without copying them.  Each segment
    starts from the closed form ``c_eps_baf_k`` at its first position, then
    from each capacity it solves.  Within a segment, positions come in blocks
    of ``_BLOCK_POSITIONS``: one bounding pass per block (``_block_window``)
    keeps the few trials whose aggregate can lie in the block's predicted
    band, and each position runs ``_window_stage`` on them alone, at its
    variance row.  A position whose start offset or bracket falls outside
    what the window was bounded for, and a segment's first two, are solved
    on all the trials instead (``_exact_position``).  No pass makes a scaled
    copy of the draws: each scales the columns it reads into buffers of its
    own, and each window gathers its rows' unit draws by index.  Either way
    the result is bit for bit that of the capacity sweep's exact pass, at
    any split and worker count.

    Returns (positions, capacities).
    """
    workers = worker_count()  # rejects an invalid BAF_WORKERS before any draw
    SystemParams(snr=snr, rate=0.0, epsilon=epsilon)  # rejects an invalid snr or epsilon
    n_trials = _check_trials(n_trials)
    if n_trials > PLACEMENT_TRIAL_LIMIT:
        raise InvalidParameterError(
            f"n_trials above {PLACEMENT_TRIAL_LIMIT} would exceed the in-memory draw cache"
        )
    k0 = _max_allowed_count(epsilon, n_trials)
    grid = position_grid(grid_points)
    # mapped before the draws, so that a position outside VARIANCE_RANGE is rejected first
    per_position = [variances_from_geometry(NetworkGeometry((d,), pathloss_exponent)) for d in grid]
    scales = np.array([variance_row(v) for v in per_position])
    plan = batch_plan(n_trials)
    # column-major, so that scaling by the variances runs down whole columns
    unit = LinkVariances(1.0, (1.0,), (1.0,))
    raw = [np.asfortranarray(gains_batch(unit, master_seed, j, rows)) for j, rows in plan]
    for g in raw:
        g.flags.writeable = False  # shared with the forked segments, which only read it
    tasks = [
        (snr, k0, threshold_mode, raw, scales[a:b], c_eps_baf_k(per_position[a], snr, epsilon))
        for a, b in _ranges(len(grid), n_trials * (3 + len(grid)), workers)
    ]
    return grid, np.concatenate(_run_batches(_placement_segment, tasks))
