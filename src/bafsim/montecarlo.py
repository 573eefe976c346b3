"""Monte Carlo estimators with deterministic parallelism, plus a quadrature oracle.

Every estimator consumes trials through the fixed batch layout of
:mod:`bafsim.channel`, reduces per-batch integer counts in batch order, and is
therefore bit-identical for a given (master_seed, n_trials) regardless of the
worker count.  Workers default to ``os.cpu_count()`` capped by the
``BAF_WORKERS`` environment variable.

The quadrature oracle evaluates the one-relay outage probability
Pr(U + VW/(V+W+x) < t) by nested adaptive quadrature, giving an independent
deterministic cross-check of the simulation path.  It is the only user of
SciPy, which it imports when called, so the estimators need NumPy alone.

One batch task serves the outage probability, E(N) and Lemma 1's ratio: it
draws each batch of gains once and runs the protocol kernel
``block_stats_batch`` at every decode condition (x, threshold) of a sweep,
since the draws depend only on (master_seed, batch index, link variances).
``estimate_outage`` and ``estimate_expected_n`` are one-point sweeps, and
``lemma1_ratio_experiment`` is a one-relay sweep over its points (x, g).

The empirical outage capacity, at one operating point or across relay
positions, comes from one order-statistic kernel over the protocol's
aggregate ``aggregate_batch``: each trial has a single boundary rate, and the
capacity is the boundary rate of order k0, the largest outage count below
epsilon.  The kernel, ``_window_stage``, runs on a window of trials: those
whose aggregate can fall in the band that brackets the answer, plus a count
of the trials surely below it.  A single operating point takes its window
from one exact pass over the draws.  The placement sweep bounds each block of
relay positions in one pass over its cached draws and solves every position
of the block on that window; a position the window cannot hold falls back to
the exact pass, so the curve is bit for bit the exact pass's.  One float
bisection, ``_solve_increasing``, finds every root the module needs: the
kernel's rate bracket and lemma1's policy offset.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import c_eps_baf_k, decode_condition, position_grid
from .channel import (
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    batch_plan,
    gains_batch,
    variance_row,
    variances_from_geometry,
)
from .errors import ConvergenceError, InvalidParameterError
from .protocol import aggregate_batch, block_stats_batch

MIN_TRIALS = 10_000


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
    """Effective worker count: requested (or cpu count) capped by BAF_WORKERS."""
    base = requested if requested is not None else (os.cpu_count() or 1)
    env = os.environ.get("BAF_WORKERS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidParameterError(f"BAF_WORKERS must be a positive integer, got {env!r}") from None
        if cap < 1:
            raise InvalidParameterError(f"BAF_WORKERS must be a positive integer, got {env!r}")
        base = min(base, cap)
    return max(1, int(base))


def _run_batches(worker, tasks: list, workers: int) -> list:
    """Evaluate ``worker`` over ``tasks``, results in task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    n_workers = min(workers, len(tasks))
    chunk = max(1, len(tasks) // (4 * n_workers))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _bernoulli_estimate(count: int, n: int) -> Estimate:
    p = count / n
    se = math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, se, n, (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se)))


def _mean_estimate(total: int, total_sq: int, n: int) -> Estimate:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * (n / (n - 1.0))
    se = math.sqrt(var / n)
    return Estimate(mean, se, n, (mean - 1.96 * se, mean + 1.96 * se))


def _check_estimator_inputs(variances: LinkVariances, params: SystemParams, n_trials: int) -> None:
    if variances.k_relays != params.k_relays:
        raise InvalidParameterError(
            f"variances describe {variances.k_relays} relays but params.k_relays={params.k_relays}"
        )
    if params.k_relays < 1:
        raise InvalidParameterError("protocol estimators require at least one relay")
    _check_trials(n_trials)


def _check_trials(n_trials: int) -> None:
    if n_trials < MIN_TRIALS:
        raise InvalidParameterError(f"n_trials must be >= {MIN_TRIALS}, got {n_trials!r}")


def _sweep_batch(task) -> list[tuple[int, int, int]]:
    variances, master_seed, batch_index, rows, points = task
    # column-major, so that every point's kernel call reads whole columns
    gains = np.asfortranarray(gains_batch(variances, master_seed, batch_index, rows))
    totals = []
    for x, thr in points:
        outage, n_used = block_stats_batch(gains, x, thr, variances.k_relays)
        totals.append((int(outage.sum()), int(n_used.sum()), int((n_used * n_used).sum())))
    return totals


def _decode_points(variances: LinkVariances, params_seq, n_trials: int, threshold_mode: str) -> list:
    """The decode condition (x, thr) of every operating point, each checked before any draw."""
    points = []
    for params in params_seq:
        _check_estimator_inputs(variances, params, n_trials)
        points.append(decode_condition(params.rate, params.snr, params.tau, params.k_relays, threshold_mode))
    if not points:
        raise InvalidParameterError("a sweep needs at least one operating point")
    return points


def _outage_pass(variances: LinkVariances, points, n_trials: int, master_seed: int, workers: int | None) -> list:
    """(outages, sum of N, sum of N^2) at every decode condition (x, thr) of ``points``.

    One pass over the draws: each batch is drawn once and serves every point.
    """
    tasks = [(variances, master_seed, j, rows, points) for j, rows in batch_plan(n_trials)]
    results = _run_batches(_sweep_batch, tasks, worker_count(workers))
    return [tuple(sum(column) for column in zip(*point)) for point in zip(*results)]


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
    points = _decode_points(variances, params_seq, n_trials, threshold_mode)
    totals = _outage_pass(variances, points, n_trials, master_seed, workers)
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
    points = _decode_points(variances, [params], n_trials, threshold_mode)
    [(_, total_n, total_n_sq)] = _outage_pass(variances, points, n_trials, master_seed, workers)
    return _mean_estimate(total_n, total_n_sq, n_trials)


# --- Lemma-style small-threshold ratio experiment ---------------------------


def policy_x_for_threshold(g: float) -> float:
    """x = tau/SNR consistent with the duty-cycle policy at threshold g.

    Under tau = sqrt(rate*snr), both the threshold and the offset are set by
    y = sqrt(rate/snr): g = y*(2^(2y) - 1) and x = y.  Inverts the first
    relation for y, to adjacent floats.
    """
    if not (math.isfinite(g) and g > 0.0):
        raise InvalidParameterError(f"threshold must be positive, got {g!r}")
    # expm1, as 2^(2y) - 1 cancels for small y; from y = 511 on, y*2^(2y) is beyond every float
    _, y = _solve_increasing(lambda y: y * math.expm1(2.0 * math.log(2.0) * min(y, 511.0)), g, math.sqrt(g))
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
    ConvergenceError when the smallest threshold sees fewer than 100 events.
    """
    variances = LinkVariances(sigma_u2, (sigma_v2,), (sigma_w2,))
    gs = [float(g) for g in g_sequence]
    if not gs or not all(0.0 < g < math.inf for g in gs) or any(b >= a for a, b in zip(gs, gs[1:])):
        raise InvalidParameterError("g_sequence must be strictly decreasing, positive and finite")
    _check_trials(n_trials)
    if x_factor is not None:
        if not (math.isfinite(x_factor) and x_factor >= 0.0):
            raise InvalidParameterError(f"x_factor must be finite and >= 0, got {x_factor!r}")
        xs = [x_factor * g for g in gs]
    else:
        xs = [policy_x_for_threshold(g) for g in gs]

    totals = _outage_pass(variances, list(zip(xs, gs)), n_trials, master_seed, workers)
    counts = [outages for outages, _, _ in totals]

    if counts[-1] < 100:
        need = math.ceil(n_trials * 100 / max(counts[-1], 1))
        raise ConvergenceError(
            f"only {counts[-1]} events at the smallest threshold g={gs[-1]:g}; "
            f"increase n_trials (roughly {need} needed for 100 events)"
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
# The placement sweep bounds this many relay positions in one pass over the
# draws, and widens the start rates and aggregate band it predicts for them
# by this relative margin.
_BLOCK_POSITIONS = 8
_PREDICTION_MARGIN = 0.02


def _max_allowed_count(epsilon: float, n_trials: int) -> int:
    """Largest outage count c with c/n_trials < epsilon in float arithmetic.

    Rejects epsilon*n_trials < 100: too few outage events to resolve epsilon.
    """
    if epsilon * n_trials < 100:
        raise InvalidParameterError(
            f"epsilon*n_trials must be >= 100 (got {epsilon * n_trials:g}); increase n_trials"
        )
    c = min(int(epsilon * n_trials), n_trials)
    while c / n_trials >= epsilon:
        c -= 1
    while (c + 1) / n_trials < epsilon:
        c += 1
    return c


def _solve_increasing(f, target: float, start: float, rel_width: float = 0.0) -> tuple[float, float]:
    """Bracket (lo, hi) with f(lo) < target <= f(hi) for an increasing f, searched outward from ``start``.

    Halving or doubling finds a bracket, and bisection narrows it until
    hi - lo <= rel_width*lo, or to adjacent floats.
    """
    lo = hi = start
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
    """The k0-th smallest boundary rate of the trials at one set of variances.

    A trial is in outage at rate r iff its aggregate ``aggregate_batch`` at
    x(r) is below thr(r), with (x, thr) from ``decode_condition``; both move
    against it as r grows, so each trial has one boundary rate.  The search
    keeps each trial's aggregate a0 at x0, the offset of ``start_rate``
    (1e-6*SNR if that is not positive and finite), and brackets from there.
    """

    def __init__(self, snr: float, k0: int, k: int, tau: float | None, threshold_mode: str, start_rate: float):
        self.snr, self.k0, self.k, self.tau, self.mode = snr, k0, k, tau, threshold_mode
        self.start = start_rate if math.isfinite(start_rate) and start_rate > 0.0 else 1e-6 * snr
        self.x0, _ = self.condition(self.start)

    def condition(self, rate):
        return decode_condition(rate, self.snr, self.tau, self.k, self.mode)

    def bracket(self, a_k0: float) -> tuple[float, float, float, float]:
        """(r_lo, r_hi, a_below, a_above) around ``a_k0``, the k0-th smallest a0.

        As |d alpha/dx| = sum v*w/(v+w+x)^2 <= K/4, at most k0 trials are in
        outage at r_lo and more than k0 at r_hi; a trial with a0 below
        a_below is in outage on all of [r_lo, r_hi], one with a0 at or above
        a_above on none of it.
        """
        def certain(rate):  # a0 below this: in outage at ``rate``
            x, thr = self.condition(rate)
            return thr - self.k / 4.0 * max(self.x0 - x, 0.0)

        def possible(rate):  # a0 at or above this: not in outage at ``rate``
            x, thr = self.condition(rate)
            return thr + self.k / 4.0 * max(x - self.x0, 0.0)

        r_lo, _ = _solve_increasing(possible, a_k0, self.start, _BOUND_MARGIN)
        _, r_hi = _solve_increasing(certain, a_k0, self.start, _BOUND_MARGIN)
        # a0 > 0, so a negative a_below marks none
        return r_lo, r_hi, certain(r_lo) * (1.0 - _BOUND_MARGIN), possible(r_hi) * (1.0 + _BOUND_MARGIN)


@dataclass(frozen=True)
class _Window:
    """The trials that can hold the order statistic of a search whose bracket lies in [low, high).

    ``gains`` holds their gains as drawn, in trial order.  Of the other trials,
    ``below`` have a0 below ``low`` and the rest a0 at or above ``high``, at
    every offset x0 in [x_lo, x_hi] and every variance row the window was
    bounded for.
    """

    below: int
    gains: np.ndarray
    low: float
    high: float
    x_lo: float
    x_hi: float


def _window(draw, plan, bounds, low: float, high: float, x_lo: float, x_hi: float, k: int) -> _Window:
    """Window of the trials whose bounds on a0 meet [low, high).

    ``bounds`` yields a (lower, upper) pair per batch of ``plan``, and
    ``draw(j, rows)`` returns the gains of batch j; only batches holding
    window trials are drawn.
    """
    below, picks = 0, []
    for (j, rows), (lower, upper) in zip(plan, bounds):
        below += int(np.count_nonzero(upper < low))
        picks.append((j, rows, np.flatnonzero((upper >= low) & (lower < high))))
    # column-major, so that scaling by the variances runs down whole columns
    gains = np.empty((sum(idx.size for _, _, idx in picks), 1 + 2 * k), order="F")
    s = 0
    for j, rows, idx in picks:
        if idx.size:
            gains[s : s + idx.size] = draw(j, rows)[idx]
            s += idx.size
    return _Window(below, gains, low, high, x_lo, x_hi)


def _scaled(gains: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """``gains`` times the variance row ``scale``; None leaves them as drawn."""
    return gains if scale is None else gains * scale


def _window_stage(search: _RateSearch, window: _Window, scale: np.ndarray | None):
    """(rate, outage count there, a_below, a_above) of ``search`` on the ``window`` gains times ``scale``.

    Returns None when the window cannot hold the answer: x0 outside
    [x_lo, x_hi], or the bracket not inside [low, high).  Otherwise a_k0,
    the bracket and the candidates are those of the whole trial set.  Only
    candidates are bisected, and the rate is settled on the scalar recount.
    """
    if not window.x_lo <= search.x0 <= window.x_hi:
        return None
    k, k0 = search.k, search.k0
    gains = _scaled(window.gains, scale)
    a0 = aggregate_batch(gains, k, search.x0)
    i = k0 - window.below
    if not 0 <= i < len(a0):
        return None
    r_lo, r_hi, a_below, a_above = search.bracket(float(np.partition(a0, i)[i]))
    if not (window.low <= a_below and a_above <= window.high):
        return None
    below = window.below + int(np.count_nonzero(a0 < a_below))
    cand = gains[(a0 >= a_below) & (a0 < a_above)]

    lo = np.full(len(cand), r_lo * (1.0 - _BOUND_MARGIN))
    hi = np.full(len(cand), r_hi * (1.0 + _BOUND_MARGIN))
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        x, thr = search.condition(mid)
        out = aggregate_batch(cand, k, x) < thr
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    rate = float(np.partition(lo, k0 - below)[k0 - below])

    def outages(r: float) -> int:
        x, thr = search.condition(r)
        return below + int(np.count_nonzero(aggregate_batch(cand, k, x) < thr))

    # vectorised and scalar powers may differ in the last bit: settle the
    # rate on the scalar recount, which is what a caller would repeat
    count = outages(rate)
    while count > k0:
        rate = math.nextafter(rate, 0.0)
        count = outages(rate)
    return rate, count, a_below, a_above


def _capacity_order_statistic(search: _RateSearch, draw, plan: list[tuple[int, int]], scale: np.ndarray | None):
    """``_window_stage`` of ``search`` on the window of one exact pass over the trials.

    ``draw(j, rows)`` returns the gains of batch j of ``plan``, to be scaled
    by the variance row ``scale`` (None: ``draw`` scales them).  The pass
    keeps every trial's a0 and brackets the k0-th smallest; its window is the
    trials with a0 in [a_below, a_above), so the stage always succeeds.  Only
    batches holding window trials are drawn again.

    The answer is the k0-th smallest of the trials' bisected boundary rates.
    The float threshold is not monotone in the rate at the ulp level
    (z = (K+1)*rate/tau divides two rising floats), so a trial's bisected
    boundary, and with it the answer, can move by an ulp with the bracket,
    that is with the start rate.
    """
    starts = np.cumsum([0] + [rows for _, rows in plan])
    a0 = np.empty(starts[-1])
    for (j, rows), s in zip(plan, starts):
        a0[s : s + rows] = aggregate_batch(_scaled(draw(j, rows), scale), search.k, search.x0)
    _, _, a_below, a_above = search.bracket(float(np.partition(a0, search.k0)[search.k0]))
    exact = ((a0[s : s + rows],) * 2 for (_, rows), s in zip(plan, starts))
    window = _window(draw, plan, exact, a_below, a_above, search.x0, search.x0, search.k)
    return _window_stage(search, window, scale)


def empirical_eps_outage_capacity(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    threshold_mode: str = "exact",
) -> RateSearchResult:
    """Largest rate whose simulated outage probability stays below epsilon.

    The outage probability at a rate is the fraction of the seeded trials in
    outage there.  Each trial has one boundary rate, so the answer is an
    order statistic of them, found by ``_capacity_order_statistic`` from the
    closed form ``c_eps_baf_k``; ``iterations`` counts its two passes over
    the draws.  ``params.tau`` fixes the duty cycle, None selects the clamped
    policy; ``params.rate`` is ignored.
    """
    _check_estimator_inputs(variances, params, n_trials)
    eps = params.epsilon
    search = _RateSearch(
        params.snr, _max_allowed_count(eps, n_trials), params.k_relays, params.tau, threshold_mode,
        c_eps_baf_k(variances, params.snr, eps),
    )
    rate, count, _, _ = _capacity_order_statistic(
        search, lambda j, rows: gains_batch(variances, master_seed, j, rows), batch_plan(n_trials), None
    )
    return RateSearchResult(rate=rate, achieved_outage=count / n_trials, iterations=2)


# --- empirical capacity across relay positions ------------------------------

PLACEMENT_TRIAL_LIMIT = 20_000_000


def _block_window(
    search: _RateSearch, raw: list[np.ndarray], plan, scales: np.ndarray, recent_caps: np.ndarray, recent_bands: np.ndarray
) -> _Window:
    """Window for the positions with variance rows ``scales``, from one bounding pass over ``raw``.

    The positions' start rates and (a_below, a_above) bands are extrapolated
    from the last two positions solved, ``recent_caps`` and ``recent_bands``,
    and widened by ``_PREDICTION_MARGIN``.  The aggregate rises in every gain
    and falls in x, so a0 over the block lies between its value at the
    smallest entry of each variance column and the largest x, and its value
    at the largest entries and the smallest x.
    """
    steps = np.arange(len(scales))  # position t starts from the capacity of position t - 1
    # a prediction that overflows (an infinite a_above far past the clamp) only
    # leaves the window empty or fails its checks, so the exact pass takes over
    with np.errstate(all="ignore"):
        rates = recent_caps[1] * (recent_caps[1] / recent_caps[0]) ** steps
        bands = recent_bands[1] + (steps + 1)[:, None] * (recent_bands[1] - recent_bands[0])
    rate_lo = float(rates.min()) * (1.0 - _PREDICTION_MARGIN)
    # below the duty cycle's domain, x0 > 0 is the only bound (every start rate is inside it)
    x_lo = search.condition(rate_lo)[0] if rate_lo * search.snr >= sys.float_info.min else 0.0
    x_hi, _ = search.condition(float(rates.max()) * (1.0 + _PREDICTION_MARGIN))
    low, high = float(bands.min()), float(bands.max())
    low, high = low - _PREDICTION_MARGIN * abs(low), high + _PREDICTION_MARGIN * abs(high)
    row_lo, row_hi = scales.min(axis=0), scales.max(axis=0)
    k = search.k
    bounds = (
        (aggregate_batch(g * row_lo, k, x_hi) * (1.0 - _BOUND_MARGIN),
         aggregate_batch(g * row_hi, k, x_lo) * (1.0 + _BOUND_MARGIN))
        for g in raw
    )
    return _window(lambda j, rows: raw[j], plan, bounds, low, high, x_lo, x_hi, k)


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
    raw exponentials are drawn once and rescaled by the position-dependent
    variances, so the capacity curve is smooth in the position and its argmax
    is comparable across positions.  Each position's capacity is the order
    statistic of ``_capacity_order_statistic`` under the clamped duty-cycle
    policy, started from the previous position's capacity, and equals
    ``empirical_eps_outage_capacity`` on the same variances and trials.

    Positions come in blocks of ``_BLOCK_POSITIONS``.  One bounding pass per
    block (``_block_window``) keeps the few trials whose aggregate can lie in
    the block's predicted band, and each position runs ``_window_stage`` on
    them alone.  A position whose start offset or bracket falls outside what
    the window was bounded for, and the first two, take an exact pass over
    all trials instead, and the next block starts after it.  Either way the
    result is bit for bit that of the exact pass.

    Returns (positions, capacities).
    """
    SystemParams(snr=snr, rate=0.0, epsilon=epsilon)  # rejects an invalid snr or epsilon
    _check_trials(n_trials)
    if n_trials > PLACEMENT_TRIAL_LIMIT:
        raise InvalidParameterError(
            f"n_trials above {PLACEMENT_TRIAL_LIMIT} would exceed the in-memory draw cache"
        )
    k0 = _max_allowed_count(epsilon, n_trials)
    grid = position_grid(grid_points)
    # mapped before the draws, so that a position outside VARIANCE_RANGE is rejected first
    per_position = [variances_from_geometry(NetworkGeometry((d,), pathloss_exponent)) for d in grid]
    scales = np.array([variance_row(v) for v in per_position])

    unit = LinkVariances(1.0, (1.0,), (1.0,))
    plan = batch_plan(n_trials)
    # column-major, so that scaling by the variances runs down whole columns
    raw = [np.asfortranarray(gains_batch(unit, master_seed, j, rows)) for j, rows in plan]

    caps = np.empty_like(grid)
    bands = np.empty((len(grid), 2))  # each position's (a_below, a_above)
    window, block_end = None, 0
    for i, scale in enumerate(scales):
        start = caps[i - 1] if i else c_eps_baf_k(per_position[0], snr, epsilon)
        search = _RateSearch(snr, k0, 1, None, threshold_mode, start)
        if window is None and i >= 2:
            block_end = min(i + _BLOCK_POSITIONS, len(grid))
            window = _block_window(search, raw, plan, scales[i:block_end], caps[i - 2 : i], bands[i - 2 : i])
        found = None if window is None else _window_stage(search, window, scale)
        if found is None or i + 1 == block_end:
            window = None
        if found is None:
            found = _capacity_order_statistic(search, lambda j, rows: raw[j], plan, scale)
        caps[i], _, bands[i, 0], bands[i, 1] = found
    return grid, caps
