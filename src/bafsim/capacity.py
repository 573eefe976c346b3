"""Closed-form capacities, outage thresholds, and bounds for bursty AF relaying.

Everything here is a deterministic function of the operating point.  The
central quantity is the channel aggregate

    alpha_K = g_sd + sum_k g_rd_k * g_sr_k / (g_rd_k + g_sr_k + tau/SNR),

which enters the instantaneous capacity (tau/(K+1)) * log2(1 + SNR/tau * alpha_K)
of a block split into K+1 equal sub-blocks.  The low-SNR outage capacity
closed forms below are asymptotic in g -> 0 and carry a finite-size residual
that the Monte Carlo layer quantifies (see README, "Closed-form accuracy").
The target outage epsilon is taken as given; SystemParams and the CLI check it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .channel import ChannelDraw, LinkVariances, SystemParams, _check_relay_count, _is_integer, duty_cycle
from .errors import InvalidParameterError

LOG2E = math.log2(math.e)

THRESHOLD_MODES = ("exact", "linearized")
EXPECTED_N_MODES = ("exact", "approx")


def _check_mode(mode: str, allowed: tuple[str, ...]) -> None:
    if mode not in allowed:
        raise InvalidParameterError(f"mode must be one of {allowed}, got {mode!r}")


def relay_term(g_sr: float, g_rd: float, x: float) -> float:
    """Aggregate contribution g_rd*g_sr/(g_rd+g_sr+x) of one relay hop."""
    den = g_rd + g_sr + x
    if den == 0.0:
        return 0.0
    return g_rd * g_sr / den


def channel_aggregate(draw: ChannelDraw, x: float) -> float:
    """alpha_K of one block, relay terms added in stage order; x = tau/SNR is the offset."""
    agg = draw.g_sd
    for s, r in zip(draw.g_sr, draw.g_rd):
        agg += relay_term(s, r, x)
    return agg


def instantaneous_capacity(draw: ChannelDraw, params: SystemParams) -> float:
    """Block capacity (tau/(K+1)) * log2(1 + SNR/tau * alpha_K) in bit/s/Hz at the duty cycle and K of ``params``, through ``_log2_1p``."""
    _check_relay_count(draw, params)
    k, tau = draw.k_relays, duty_cycle(params.rate, params.snr, params.tau)
    agg = channel_aggregate(draw, tau / params.snr)
    return (tau / (k + 1)) * _log2_1p((params.snr / tau) * agg)


def _exp2m1(n: int, q: float) -> float:
    """2^(n*q) - 1 as expm1(n*ln 2*q), which keeps its precision at small n*q; inf beyond the float range."""
    try:
        return math.expm1(n * math.log(2.0) * q)
    except OverflowError:
        return math.inf


def decode_condition(rate: float, snr: float, tau: float | None, k_relays: int, mode: str = "exact") -> tuple[float, float]:
    """(x, thr) of the decode test alpha >= thr at ``rate``: x = t/SNR for the duty cycle t.

    t is ``duty_cycle(rate, snr, tau)``, so ``tau`` None selects the clamped
    policy.  "exact" inverts (t/(K+1))*log2(1 + thr/x) = rate: thr is
    x*(2^((K+1)*q) - 1), inf beyond the float range, with q = rate/t, or x
    under the unclamped policy, where the two are equal and only rate/t
    falls at some ulp steps of the rate.  So neither x nor thr falls as the
    rate rises.  "linearized" is (K+1)*rate/(log2(e)*SNR).  Both thresholds
    are 0 at rate 0; a NumPy float rate gives Python floats as well.
    """
    _check_mode(mode, THRESHOLD_MODES)
    rate = float(rate)
    t = duty_cycle(rate, snr, tau)
    x = t / snr
    if mode == "linearized":
        return x, (k_relays + 1) * rate / (LOG2E * snr)
    return x, x * _exp2m1(k_relays + 1, x if tau is None and t < 1.0 else rate / t)


def lemma1_constant(sigma_u2: float, sigma_v2: float, sigma_w2: float) -> float:
    """Limit of Pr(U + VW/(V+W+x) < g)/g^2 for g, x -> 0.

    U, V, W are independent exponentials with the given means; the limit is
    (sigma_v2 + sigma_w2) / (2 * sigma_u2 * sigma_v2 * sigma_w2).
    """
    LinkVariances(sigma_u2, (sigma_v2,), (sigma_w2,))  # rejects means outside VARIANCE_RANGE
    return (sigma_v2 + sigma_w2) / (2.0 * sigma_u2 * sigma_v2 * sigma_w2)


def _normal(v: float) -> bool:
    return sys.float_info.min <= v <= sys.float_info.max


def _root_argument(variances: LinkVariances, epsilon: float) -> float:
    """(K+1)-th root of (K+1)! * sigma_sd2 * prod(sigma_rd2*sigma_sr2) * eps / prod(sigma_rd2+sigma_sr2).

    Where a product or the quotient leaves the normal float range (variances
    near the ends of ``VARIANCE_RANGE``, many relays), the root is taken in
    logarithms instead.
    """
    if epsilon == 0.0:
        return 0.0
    k = variances.k_relays
    num = math.factorial(k + 1) * variances.sigma_sd2 * epsilon
    den = 1.0
    for s, r in zip(variances.sigma_sr2, variances.sigma_rd2):
        num *= r * s
        den *= r + s
    if _normal(num) and _normal(den) and _normal(num / den):
        return (num / den) ** (1.0 / (k + 1))
    log_q = math.log(math.factorial(k + 1)) + math.log(variances.sigma_sd2) + math.log(epsilon)
    for s, r in zip(variances.sigma_sr2, variances.sigma_rd2):
        log_q += math.log(r) + math.log(s) - math.log(r + s)
    return math.exp(log_q / (k + 1))


def _log2_1p(v: float) -> float:
    """log2(1 + v) as log1p(v)/ln 2, which does not round to 0 where v is below the float epsilon."""
    return math.log1p(v) / math.log(2.0)


def c_eps_baf_no_feedback(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """One-relay outage capacity without feedback.

    (1/2) * log2(1 + SNR * sqrt(2*sigma_sd2*sigma_rd2*sigma_sr2*eps/(sigma_rd2+sigma_sr2)))
    """
    if variances.k_relays != 1:
        raise InvalidParameterError("c_eps_baf_no_feedback is the one-relay closed form")
    return c_eps_baf_k(variances, snr, epsilon)


def c_eps_baf_k(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """K-relay low-SNR closed form of the outage capacity without feedback.

    (1/(K+1)) * log2(1 + SNR * root) with the (K+1)-th root argument of
    ``_root_argument``, through ``_log2_1p`` so that it keeps its precision
    where SNR * root is small.  For K=1 this is exactly the no-feedback
    closed form.  It approximates the capacity and does not bound it: at one
    relay, pathloss 3, SNR -10 to -30 dB and epsilon 0.001 to 0.1, the
    empirical capacity lies between about 5% below it, near the midpoint,
    and up to 19% above it, near the ends of the segment.
    """
    k = variances.k_relays
    return (1.0 / (k + 1)) * _log2_1p(snr * _root_argument(variances, epsilon))


def c_eps_cutset(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """Cut-set-bound outage capacity with incremental relaying.

    (1/(1+K*eps)) * log2(1 + SNR * root); only the broadcast and multiple
    access cuts enter, and E(N) >= 1 + K*eps is already applied.
    """
    k = variances.k_relays
    return (1.0 / (1.0 + k * epsilon)) * _log2_1p(snr * _root_argument(variances, epsilon))


def expected_n_one_relay(variances: LinkVariances, params: SystemParams, mode: str = "exact") -> float:
    """Mean number of sub-blocks used per message, one relay.

    Decoding after the source burst depends only on the direct link, so
    E(N) = 1 + Pr(g_sd < t) with t the one-relay exact threshold of
    ``decode_condition``: "exact" evaluates the exponential CDF
    1 - exp(-t/sigma_sd2); "approx" uses the low-SNR linearization
    log2(e)*R/(sigma_sd2*SNR), clamped so the probability stays in [0, 1].
    """
    _check_mode(mode, EXPECTED_N_MODES)
    if variances.k_relays != 1 or params.k_relays != 1:
        raise InvalidParameterError("expected_n_one_relay requires exactly one relay")
    if mode == "exact":
        _, t = decode_condition(params.rate, params.snr, params.tau, 1)
        return 1.0 + (1.0 - math.exp(-t / variances.sigma_sd2))
    p = LOG2E * params.rate / (variances.sigma_sd2 * params.snr)
    return 1.0 + min(max(p, 0.0), 1.0)


def c_eps_baf_ir_k(variances: LinkVariances, snr: float, epsilon: float, expected_n_k: float) -> float:
    """K-relay incremental-relaying bound ((K+1)/E_K(N)) * c_eps_baf_k.

    For K=1 pass ``expected_n_one_relay``; E_K(N) has no closed form for
    K >= 2, so pass an estimate (Monte Carlo or quadrature).
    """
    k = variances.k_relays
    if not (1.0 <= expected_n_k <= k + 1):
        raise InvalidParameterError(f"expected_n_k must lie in [1, {k + 1}], got {expected_n_k!r}")
    return ((k + 1) / expected_n_k) * c_eps_baf_k(variances, snr, epsilon)


def delta_ratio_upper(epsilon: float, expected_n: float, k_relays: int = 1) -> float:
    """Upper bound (1 + K*eps)/E_K(N) on the ratio to the cut-set bound."""
    if not (1.0 <= expected_n <= k_relays + 1):
        raise InvalidParameterError(f"expected_n must lie in [1, {k_relays + 1}], got {expected_n!r}")
    return (1.0 + k_relays * epsilon) / expected_n


def epsilon_feasible(epsilon: float, expected_n: float, k_relays: int = 1) -> bool:
    """Whether the target outage satisfies eps <= (E_K(N) - 1)/K."""
    return epsilon <= (expected_n - 1.0) / k_relays


def position_grid(grid_points: int) -> np.ndarray:
    """Uniform grid of ``grid_points`` interior positions on (0, 1).

    Point i is (i+1)/(grid_points+1); an odd count places 0.5 exactly on the
    grid.
    """
    if not _is_integer(grid_points):
        raise InvalidParameterError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 101:
        raise InvalidParameterError(f"grid_points must be >= 101, got {grid_points!r}")
    n = int(grid_points)
    return np.arange(1, n + 1) / (n + 1)


def placement_objective(d: np.ndarray | float, pathloss_exponent: float) -> np.ndarray | float:
    """Variance aggregate 2*sigma_sd2*sigma_rd2*sigma_sr2/(sigma_rd2+sigma_sr2) at position d.

    With unit source-destination distance this is 2/(d^a + (1-d)^a), the
    quantity the one-relay outage capacity is increasing in.
    """
    d = np.asarray(d, dtype=float)
    a = pathloss_exponent
    return 2.0 / (d**a + (1.0 - d) ** a)


def optimal_relay_position(pathloss_exponent: float, grid_points: int = 201) -> float:
    """Grid argmax of the placement objective; 0.5 for any exponent > 1."""
    if not (math.isfinite(pathloss_exponent) and pathloss_exponent > 1.0):
        raise InvalidParameterError(f"pathloss_exponent must be > 1, got {pathloss_exponent!r}")
    grid = position_grid(grid_points)
    return float(grid[int(np.argmax(placement_objective(grid, pathloss_exponent)))])


def min_bound_check(x: float, y: float, delta: float) -> tuple[float, float, bool]:
    """Evaluate min(x, y) >= x*y/(x + y + delta) for positive arguments."""
    for name, v in (("x", x), ("y", y), ("delta", delta)):
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidParameterError(f"{name} must be positive and finite, got {v!r}")
    lhs = min(x, y)
    rhs = x * y / (x + y + delta)
    return lhs, rhs, lhs >= rhs
