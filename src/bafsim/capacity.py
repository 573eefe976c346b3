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

import numpy as np

from .channel import ChannelDraw, LinkVariances, SystemParams, resolve_tau
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
    """alpha_K of one block; x = tau/SNR is the noise-amplification offset."""
    return draw.g_sd + sum(relay_term(s, r, x) for s, r in zip(draw.g_sr, draw.g_rd))


def instantaneous_capacity(draw: ChannelDraw, params: SystemParams, tau: float) -> float:
    """Block capacity (tau/(K+1)) * log2(1 + SNR/tau * alpha_K) in bit/s/Hz."""
    k = draw.k_relays
    agg = channel_aggregate(draw, tau / params.snr)
    return (tau / (k + 1)) * math.log2(1.0 + (params.snr / tau) * agg)


def threshold_for(rate: float, snr: float, tau: float, k_relays: int, mode: str = "exact") -> float:
    """Aggregate level below which a block of K+1 sub-blocks is in outage.

    "exact" inverts the capacity condition: tau*(2^((K+1)*rate/tau) - 1)/SNR,
    inf where 2^((K+1)*rate/tau) exceeds the float range (every block is then
    in outage).  "linearized" is the low-SNR form (K+1)*rate/(log2(e)*SNR).
    Both are 0 at rate 0 and apply elementwise to arrays of rates and duty
    cycles.
    """
    _check_mode(mode, THRESHOLD_MODES)
    if mode == "exact":
        try:
            with np.errstate(over="ignore"):
                growth = 2.0 ** ((k_relays + 1) * rate / tau) - 1.0
        except OverflowError:  # raised by float powers; arrays give inf
            growth = math.inf
        return tau * growth / snr
    return (k_relays + 1) * rate / (LOG2E * snr)


def outage_threshold_g(params: SystemParams, mode: str = "exact") -> float:
    """Threshold g(R, SNR) for ``params`` under its resolved duty cycle.

    For K=1 the exact form reduces to sqrt(R/SNR)*(2^(2*sqrt(R/SNR)) - 1)
    under the default duty-cycle policy, and g*SNR/R -> 2*ln(2) as
    R/SNR -> 0.
    """
    return threshold_for(params.rate, params.snr, resolve_tau(params), params.k_relays, mode)


def lemma1_constant(sigma_u2: float, sigma_v2: float, sigma_w2: float) -> float:
    """Limit of Pr(U + VW/(V+W+x) < g)/g^2 for g, x -> 0.

    U, V, W are independent exponentials with the given means; the limit is
    (sigma_v2 + sigma_w2) / (2 * sigma_u2 * sigma_v2 * sigma_w2).
    """
    LinkVariances(sigma_u2, (sigma_v2,), (sigma_w2,))  # rejects means that are not positive and finite
    return (sigma_v2 + sigma_w2) / (2.0 * sigma_u2 * sigma_v2 * sigma_w2)


def _root_argument(variances: LinkVariances, epsilon: float) -> float:
    """(K+1)-th root of (K+1)! * sigma_sd2 * prod(sigma_rd2*sigma_sr2) * eps / prod(sigma_rd2+sigma_sr2)."""
    k = variances.k_relays
    num = math.factorial(k + 1) * variances.sigma_sd2 * epsilon
    den = 1.0
    for s, r in zip(variances.sigma_sr2, variances.sigma_rd2):
        num *= r * s
        den *= r + s
    return (num / den) ** (1.0 / (k + 1))


def c_eps_baf_no_feedback(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """One-relay outage capacity without feedback.

    (1/2) * log2(1 + SNR * sqrt(2*sigma_sd2*sigma_rd2*sigma_sr2*eps/(sigma_rd2+sigma_sr2)))
    """
    if variances.k_relays != 1:
        raise InvalidParameterError("c_eps_baf_no_feedback is the one-relay closed form")
    return c_eps_baf_k(variances, snr, epsilon)


def c_eps_baf_k(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """K-relay outage-capacity upper bound without feedback.

    (1/(K+1)) * log2(1 + SNR * root) with the (K+1)-th root argument of
    ``_root_argument``.  For K=1 this is exactly the no-feedback closed form.
    """
    k = variances.k_relays
    return (1.0 / (k + 1)) * math.log2(1.0 + snr * _root_argument(variances, epsilon))


def c_eps_cutset(variances: LinkVariances, snr: float, epsilon: float) -> float:
    """Cut-set-bound outage capacity with incremental relaying.

    (1/(1+K*eps)) * log2(1 + SNR * root); only the broadcast and multiple
    access cuts enter, and E(N) >= 1 + K*eps is already applied.
    """
    k = variances.k_relays
    return (1.0 / (1.0 + k * epsilon)) * math.log2(1.0 + snr * _root_argument(variances, epsilon))


def expected_n_one_relay(variances: LinkVariances, params: SystemParams, mode: str = "exact") -> float:
    """Mean number of sub-blocks used per message, one relay.

    Decoding after the source burst depends only on the direct link, so
    E(N) = 1 + Pr(g_sd < t) with t the one-relay exact threshold:
    "exact" evaluates the exponential CDF 1 - exp(-t/sigma_sd2); "approx"
    uses the low-SNR linearization log2(e)*R/(sigma_sd2*SNR), clamped so the
    probability stays in [0, 1].
    """
    _check_mode(mode, EXPECTED_N_MODES)
    if variances.k_relays != 1 or params.k_relays != 1:
        raise InvalidParameterError("expected_n_one_relay requires exactly one relay")
    if mode == "exact":
        t = threshold_for(params.rate, params.snr, resolve_tau(params), 1, "exact")
        return 1.0 + (1.0 - math.exp(-t / variances.sigma_sd2))
    p = LOG2E * params.rate / (variances.sigma_sd2 * params.snr)
    return 1.0 + min(max(p, 0.0), 1.0)


def c_eps_baf_ir_k(variances: LinkVariances, params: SystemParams, expected_n_k: float) -> float:
    """K-relay incremental-relaying bound ((K+1)/E_K(N)) * c_eps_baf_k.

    E_K(N) has no closed form for K >= 2; pass an estimate (Monte Carlo or
    quadrature).
    """
    k = variances.k_relays
    if not (1.0 <= expected_n_k <= k + 1):
        raise InvalidParameterError(f"expected_n_k must lie in [1, {k + 1}], got {expected_n_k!r}")
    return ((k + 1) / expected_n_k) * c_eps_baf_k(variances, params.snr, params.epsilon)


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
    if grid_points < 101:
        raise InvalidParameterError(f"grid_points must be >= 101, got {grid_points!r}")
    return np.arange(1, grid_points + 1) / (grid_points + 1)


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
