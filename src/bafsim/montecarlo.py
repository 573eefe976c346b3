"""Monte Carlo estimators with deterministic parallelism, plus a quadrature oracle.

Every estimator consumes trials through the fixed batch layout of
:mod:`bafsim.channel`, reduces per-batch integer counts in batch order, and is
therefore bit-identical for a given (master_seed, n_trials) regardless of the
worker count.  Workers default to ``os.cpu_count()`` capped by the
``BAF_WORKERS`` environment variable.

The quadrature oracle evaluates the one-relay outage probability
Pr(U + VW/(V+W+x) < t) by nested adaptive quadrature, giving an independent
deterministic cross-check of the simulation path.

The empirical outage capacity, at one operating point or across relay
positions, comes from one order-statistic kernel: each trial has a single
boundary rate, and the capacity is the boundary rate of order k0, the largest
outage count below epsilon.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .capacity import c_eps_baf_k, position_grid, threshold_for
from .channel import (
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
from .errors import ConvergenceError, InvalidParameterError
from .protocol import block_stats_batch

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


def _protocol_batch(task) -> tuple[int, int, int]:
    variances, master_seed, batch_index, rows, snr, rate, tau, k, mode = task
    gains = gains_batch(variances, master_seed, batch_index, rows)
    outage, n_used = block_stats_batch(gains, snr, rate, tau, k, mode)
    return int(outage.sum()), int(n_used.sum()), int((n_used * n_used).sum())


def _protocol_totals(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    workers: int | None,
    threshold_mode: str,
) -> tuple[int, int, int]:
    tau = float(duty_cycle(params.rate, params.snr, params.tau))
    tasks = [
        (variances, master_seed, j, rows, params.snr, params.rate, tau, params.k_relays, threshold_mode)
        for j, rows in batch_plan(n_trials)
    ]
    results = _run_batches(_protocol_batch, tasks, worker_count(workers))
    outages = sum(r[0] for r in results)
    total_n = sum(r[1] for r in results)
    total_n_sq = sum(r[2] for r in results)
    return outages, total_n, total_n_sq


def estimate_outage(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    workers: int | None = None,
    threshold_mode: str = "exact",
) -> Estimate:
    """Fraction of protocol blocks ending in outage, with binomial stderr."""
    _check_estimator_inputs(variances, params, n_trials)
    outages, _, _ = _protocol_totals(variances, params, n_trials, master_seed, workers, threshold_mode)
    return _bernoulli_estimate(outages, n_trials)


def estimate_expected_n(
    variances: LinkVariances,
    params: SystemParams,
    n_trials: int,
    master_seed: int,
    workers: int | None = None,
    threshold_mode: str = "exact",
) -> Estimate:
    """Sample mean of sub-blocks consumed per message (fixed relay order)."""
    _check_estimator_inputs(variances, params, n_trials)
    _, total_n, total_n_sq = _protocol_totals(variances, params, n_trials, master_seed, workers, threshold_mode)
    return _mean_estimate(total_n, total_n_sq, n_trials)


# --- Lemma-style small-threshold ratio experiment ---------------------------


def policy_x_for_threshold(g: float) -> float:
    """x = tau/SNR consistent with the duty-cycle policy at threshold g.

    Under tau = sqrt(rate*snr), both the threshold and the offset are set by
    y = sqrt(rate/snr): g = y*(2^(2y) - 1) and x = y.  Inverts the first
    relation for y.
    """
    if not (math.isfinite(g) and g > 0.0):
        raise InvalidParameterError(f"threshold must be positive, got {g!r}")
    return float(optimize.brentq(lambda y: y * (2.0 ** (2.0 * y) - 1.0) - g, 1e-300, 64.0, rtol=1e-15))


def _lemma_batch(task) -> tuple[int, ...]:
    sigmas, master_seed, batch_index, rows, gs, xs = task
    gen = batch_stream(master_seed, batch_index)
    e = gen.standard_exponential((rows, 3)) * np.asarray(sigmas)
    u, v, w = e[:, 0], e[:, 1], e[:, 2]
    counts = []
    for g, x in zip(gs, xs):
        agg = u + v * w / (v + w + x)
        counts.append(int(np.count_nonzero(agg < g)))
    return tuple(counts)


def lemma1_ratio_experiment(
    sigma_u2: float,
    sigma_v2: float,
    sigma_w2: float,
    g_sequence,
    n_trials: int,
    master_seed: int,
    x_values=None,
    x_factor: float | None = None,
    workers: int | None = None,
) -> list[tuple[float, Estimate]]:
    """Estimate Pr(U + VW/(V+W+x) < g)/g^2 along a shrinking threshold sequence.

    ``g_sequence`` must be strictly decreasing, positive and finite.  The
    offset x is tied to g through the duty-cycle policy by default;
    ``x_factor`` scales it as x = x_factor*g, or pass explicit ``x_values``.
    The ratio means converge toward ``lemma1_constant`` as g -> 0.  Raises
    ConvergenceError when the smallest threshold sees fewer than 100 events.
    """
    sigmas = variance_row(LinkVariances(sigma_u2, (sigma_v2,), (sigma_w2,)))
    gs = [float(g) for g in g_sequence]
    if not gs or not all(0.0 < g < math.inf for g in gs) or any(b >= a for a, b in zip(gs, gs[1:])):
        raise InvalidParameterError("g_sequence must be strictly decreasing, positive and finite")
    _check_trials(n_trials)
    if x_values is not None and x_factor is not None:
        raise InvalidParameterError("give at most one of x_values and x_factor")
    if x_values is not None:
        xs = [float(x) for x in x_values]
        if len(xs) != len(gs) or any(x < 0.0 for x in xs):
            raise InvalidParameterError("x_values must be nonnegative, one per threshold")
    elif x_factor is not None:
        if not (math.isfinite(x_factor) and x_factor >= 0.0):
            raise InvalidParameterError(f"x_factor must be finite and >= 0, got {x_factor!r}")
        xs = [x_factor * g for g in gs]
    else:
        xs = [policy_x_for_threshold(g) for g in gs]

    tasks = [
        (sigmas, master_seed, j, rows, tuple(gs), tuple(xs))
        for j, rows in batch_plan(n_trials)
    ]
    results = _run_batches(_lemma_batch, tasks, worker_count(workers))
    counts = [sum(r[i] for r in results) for i in range(len(gs))]

    if counts[-1] < 100:
        need = math.ceil(n_trials * 100 / max(counts[-1], 1))
        raise ConvergenceError(
            f"only {counts[-1]} events at the smallest threshold g={gs[-1]:g}; "
            f"increase n_trials (roughly {need} needed for 100 events)"
        )
    out = []
    for g, c in zip(gs, counts):
        p = _bernoulli_estimate(c, n_trials)
        scale = 1.0 / (g * g)
        out.append(
            (g, Estimate(p.mean * scale, p.stderr * scale, n_trials, (p.ci95[0] * scale, p.ci95[1] * scale)))
        )
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


def _aggregate(gains: np.ndarray, k: int, x) -> np.ndarray:
    """alpha_K of every row of a ``gains_batch`` matrix; x is a scalar or a column."""
    g_sr = gains[:, 1 : 1 + k]
    g_rd = gains[:, 1 + k :]
    return gains[:, 0] + (g_rd * g_sr / (g_rd + g_sr + x)).sum(axis=1)


def _solve_increasing(f, target: float, start: float) -> float:
    """Rate r > 0 with f(r) = target for an increasing f, searched outward from ``start``."""
    lo = hi = start
    while f(lo) > target:
        lo *= 0.5
    while f(hi) < target:
        hi *= 2.0
    return optimize.brentq(lambda r: f(r) - target, lo, hi, xtol=lo * 1e-14, rtol=1e-14)


def _capacity_order_statistic(
    draw, plan: list[tuple[int, int]], snr: float, k0: int, k: int,
    tau: float | None, threshold_mode: str, start_rate: float,
) -> tuple[float, int]:
    """Largest rate at which at most k0 (from ``_max_allowed_count``) trials are in outage.

    ``draw(j, rows, idx)`` returns rows ``idx`` (default all) of the gains of
    batch j of ``plan``.  A trial is in outage at rate r iff alpha(x(r)) <
    thr(r), x = tau/SNR with tau from ``duty_cycle``, thr from
    ``threshold_for``; both move against it as r grows, so each trial has
    one boundary rate, and the answer is the boundary rate of order k0.
    One pass keeps each trial's aggregate a0 at ``start_rate``.  As
    |d alpha/dx| = sum v*w/(v+w+x)^2 <= K/4, the k0-th smallest a0 brackets
    the answer and marks each trial in outage on all of the bracket, on none
    of it, or a candidate.  Only batches holding candidates are drawn again,
    and only candidates are bisected.  Returns (rate, outage count there).
    """
    def offset_threshold(rate):
        t = duty_cycle(rate, snr, tau)
        return t / snr, threshold_for(rate, snr, t, k, threshold_mode)

    x0, _ = offset_threshold(start_rate)
    a0 = np.concatenate([_aggregate(draw(j, rows), k, x0) for j, rows in plan])
    a_k0 = float(np.partition(a0, k0)[k0])

    def certain(rate):  # a0 below this: in outage at ``rate``
        x, thr = offset_threshold(rate)
        return thr - k / 4.0 * max(x0 - x, 0.0)

    def possible(rate):  # a0 at or above this: not in outage at ``rate``
        x, thr = offset_threshold(rate)
        return thr + k / 4.0 * max(x - x0, 0.0)

    r_lo = _solve_increasing(possible, a_k0, start_rate)
    r_hi = _solve_increasing(certain, a_k0, start_rate)
    a_below = certain(r_lo) * (1.0 - _BOUND_MARGIN)  # a0 > 0, so a negative bound marks none
    a_above = possible(r_hi) * (1.0 + _BOUND_MARGIN)
    below = int(np.count_nonzero(a0 < a_below))
    keep = (a0 >= a_below) & (a0 < a_above)

    starts = np.cumsum([0] + [rows for _, rows in plan])
    picks = [(j, rows, np.flatnonzero(keep[s : s + rows])) for (j, rows), s in zip(plan, starts)]
    cand = np.concatenate([draw(j, rows, idx) for j, rows, idx in picks if idx.size])
    lo = np.full(len(cand), r_lo * (1.0 - _BOUND_MARGIN))
    hi = np.full(len(cand), r_hi * (1.0 + _BOUND_MARGIN))
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        x, thr = offset_threshold(mid)
        out = _aggregate(cand, k, np.reshape(x, (-1, 1))) < thr
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    rate = float(np.partition(lo, k0 - below)[k0 - below])

    def outages(r: float) -> int:
        x, thr = offset_threshold(r)
        return below + int(np.count_nonzero(_aggregate(cand, k, x) < thr))

    # vectorised and scalar powers may differ in the last bit: settle the
    # rate on the scalar recount, which is what a caller would repeat
    count = outages(rate)
    while count > k0:
        rate = math.nextafter(rate, 0.0)
        count = outages(rate)
    return rate, count


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
    order statistic of them, found exactly by ``_capacity_order_statistic``
    from the closed form ``c_eps_baf_k``; ``iterations`` counts its two
    passes over the draws.  ``params.tau`` fixes the duty cycle, None selects
    the clamped policy; ``params.rate`` is ignored.
    """
    _check_estimator_inputs(variances, params, n_trials)
    eps = params.epsilon
    rate, count = _capacity_order_statistic(
        lambda j, rows, idx=slice(None): gains_batch(variances, master_seed, j, rows)[idx],
        batch_plan(n_trials), params.snr, _max_allowed_count(eps, n_trials), params.k_relays,
        params.tau, threshold_mode, c_eps_baf_k(variances, params.snr, eps) or 1e-6 * params.snr,
    )
    return RateSearchResult(rate=rate, achieved_outage=count / n_trials, iterations=2)


# --- empirical capacity across relay positions ------------------------------

PLACEMENT_TRIAL_LIMIT = 20_000_000


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
    is comparable across positions.  At each position the capacity is the
    order statistic of ``_capacity_order_statistic`` under the clamped
    duty-cycle policy, started from the previous position's capacity; it
    equals ``empirical_eps_outage_capacity`` on the same variances and trials.

    Returns (positions, capacities).
    """
    SystemParams(snr=snr, rate=0.0, epsilon=epsilon)  # rejects an invalid snr or epsilon
    _check_trials(n_trials)
    if n_trials > PLACEMENT_TRIAL_LIMIT:
        raise InvalidParameterError(
            f"n_trials above {PLACEMENT_TRIAL_LIMIT} would exceed the in-memory draw cache"
        )
    k0 = _max_allowed_count(epsilon, n_trials)

    unit = LinkVariances(1.0, (1.0,), (1.0,))
    plan = batch_plan(n_trials)
    # column-major, so that scaling by the variances runs down whole columns
    raw = [np.asfortranarray(gains_batch(unit, master_seed, j, rows)) for j, rows in plan]

    grid = position_grid(grid_points)
    caps = np.empty_like(grid)
    for i, d in enumerate(grid):
        variances = variances_from_geometry(NetworkGeometry((d,), pathloss_exponent))
        scale = variance_row(variances)
        start = caps[i - 1] if i else c_eps_baf_k(variances, snr, epsilon) or 1e-6 * snr
        caps[i], _ = _capacity_order_statistic(
            lambda j, rows, idx=slice(None): raw[j][idx] * scale,
            plan, snr, k0, 1, None, threshold_mode, start,
        )
    return grid, caps
