"""Network geometry, fading statistics, and reproducible channel draws.

The model is block-Rayleigh fading on a one-dimensional network: one source,
K relays on the open segment between source and destination, one destination.
Each link's channel gain is zero-mean circularly-symmetric complex Gaussian,
so the squared magnitude is exponential with mean sigma^2, and sigma^2 follows
the distance power law d^(-pathloss_exponent) with unit proportionality
constant (only variance ratios matter downstream).

Randomness is counter-based (Philox) and organised in fixed batches of
``TRIALS_PER_BATCH`` trials: batch j of master seed s is keyed by (s, j), and
trial i occupies row ``i % TRIALS_PER_BATCH`` of batch ``i // TRIALS_PER_BATCH``.
The gains of trial i are therefore a pure function of (master_seed, i),
independent of how many workers consume the batches or in which order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TRIALS_PER_BATCH = 1 << 16


class BurstClampWarning(UserWarning):
    """The duty-cycle policy sqrt(rate * snr) exceeded 1 and was clamped.

    Emitted because the bursty low-SNR operating assumption no longer holds
    at the requested (rate, snr) point.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def _positive_finite(name: str, value: float) -> None:
    _require(math.isfinite(value) and value > 0.0, f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class NetworkGeometry:
    """Relay placement on the source-destination line.

    Positions are distances from the source, strictly inside
    (0, sd_distance); endpoints would give an infinite link variance.
    """

    relay_positions: tuple[float, ...]
    pathloss_exponent: float
    sd_distance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "relay_positions", tuple(float(d) for d in self.relay_positions))
        _positive_finite("sd_distance", self.sd_distance)
        _require(
            math.isfinite(self.pathloss_exponent) and self.pathloss_exponent >= 0.0,
            f"pathloss_exponent must be finite and >= 0, got {self.pathloss_exponent!r}",
        )
        for d in self.relay_positions:
            _require(
                0.0 < d < self.sd_distance,
                f"relay position {d!r} must lie strictly between source (0) and destination ({self.sd_distance!r})",
            )

    @property
    def k_relays(self) -> int:
        return len(self.relay_positions)


@dataclass(frozen=True)
class LinkVariances:
    """Mean squared channel gains for the direct link and each relay hop."""

    sigma_sd2: float
    sigma_sr2: tuple[float, ...]
    sigma_rd2: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_sr2", tuple(float(v) for v in self.sigma_sr2))
        object.__setattr__(self, "sigma_rd2", tuple(float(v) for v in self.sigma_rd2))
        _positive_finite("sigma_sd2", self.sigma_sd2)
        _require(
            len(self.sigma_sr2) == len(self.sigma_rd2),
            "sigma_sr2 and sigma_rd2 must have one entry per relay",
        )
        for v in self.sigma_sr2 + self.sigma_rd2:
            _positive_finite("relay link variance", v)

    @property
    def k_relays(self) -> int:
        return len(self.sigma_sr2)


@dataclass(frozen=True)
class SystemParams:
    """Operating point of one experiment.

    ``snr`` is the linear transmit power to noise ratio, within about
    +-3076 dB so that snr and 1/snr are both normal floats, ``rate`` the target
    rate in bit/s/Hz (rate 0 is admitted as the degenerate never-in-outage
    case), ``epsilon`` the target outage probability.  ``tau`` is the burst
    duty cycle: ``None`` selects the policy min(sqrt(rate * snr), 1), a float
    in (0, 1] fixes it.
    """

    snr: float
    rate: float
    epsilon: float = 1e-3
    k_relays: int = 1
    tau: float | None = None

    def __post_init__(self):
        _require(
            sys.float_info.min <= self.snr <= 1.0 / sys.float_info.min,
            f"snr must lie within about +-3076 dB (snr and 1/snr normal floats), got {self.snr!r}",
        )
        _require(
            math.isfinite(self.rate) and self.rate >= 0.0,
            f"rate must be finite and >= 0, got {self.rate!r}",
        )
        _require(0.0 < self.epsilon < 1.0, f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        _require(
            isinstance(self.k_relays, int) and self.k_relays >= 0,
            f"k_relays must be a nonnegative integer, got {self.k_relays!r}",
        )
        if self.tau is not None:
            _require(
                math.isfinite(self.tau) and 0.0 < self.tau <= 1.0,
                f"fixed tau must lie in (0, 1], got {self.tau!r}",
            )


@dataclass(frozen=True)
class ChannelDraw:
    """Squared channel magnitudes of one fading block."""

    g_sd: float
    g_sr: tuple[float, ...]
    g_rd: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "g_sr", tuple(float(v) for v in self.g_sr))
        object.__setattr__(self, "g_rd", tuple(float(v) for v in self.g_rd))
        _require(len(self.g_sr) == len(self.g_rd), "g_sr and g_rd must have one entry per relay")
        for g in (self.g_sd,) + self.g_sr + self.g_rd:
            _require(math.isfinite(g) and g >= 0.0, f"squared magnitudes must be >= 0, got {g!r}")

    @property
    def k_relays(self) -> int:
        return len(self.g_sr)


def variances_from_geometry(geom: NetworkGeometry) -> LinkVariances:
    """Map distances to link variances via the d^(-exponent) power law."""
    a = geom.pathloss_exponent
    try:
        return LinkVariances(
            sigma_sd2=geom.sd_distance ** (-a),
            sigma_sr2=tuple(d ** (-a) for d in geom.relay_positions),
            sigma_rd2=tuple((geom.sd_distance - d) ** (-a) for d in geom.relay_positions),
        )
    except OverflowError:
        raise InvalidParameterError(f"pathloss_exponent {a!r} overflows the link variances") from None


def duty_cycle(rate, snr: float, fixed: float | None = None):
    """Burst duty cycle: ``fixed`` if given, else the policy min(sqrt(rate * snr), 1).

    Applies elementwise to an array of rates.  A scalar rate 0 resolves to
    1.0 (the value is immaterial, every decode condition is then trivially
    met).  The policy needs rate*snr in the normal float range: below it the
    duty cycle loses its precision and reaches 0, so such an operating point
    is rejected.
    """
    if fixed is not None:
        return fixed
    if np.ndim(rate) == 0 and rate == 0.0:
        return 1.0
    with np.errstate(over="ignore"):  # an infinite product clamps to 1
        product = np.multiply(rate, snr)
    if np.any(product < sys.float_info.min):
        raise InvalidParameterError(
            f"rate*snr = {float(np.min(product))!r} is below the normal float range, "
            "where the duty cycle sqrt(rate*snr) cannot be resolved"
        )
    return np.minimum(np.sqrt(product), 1.0)


def resolve_tau(params: SystemParams) -> float:
    """Return the duty cycle in (0, 1] for this operating point.

    ``duty_cycle`` of the operating point as a float; a BurstClampWarning is
    emitted when the policy's clamp engages.
    """
    tau = float(duty_cycle(params.rate, params.snr, params.tau))
    if params.tau is None and params.rate * params.snr > 1.0:
        warnings.warn(
            f"duty cycle sqrt(rate*snr) clamped to 1 at rate*snr = {params.rate * params.snr:.6g}; "
            "outside the bursty low-SNR regime",
            BurstClampWarning,
            stacklevel=2,
        )
    return tau


# --- reproducible random streams -------------------------------------------


def _check_seed(name: str, value: int) -> None:
    _require(
        isinstance(value, (int, np.integer)) and 0 <= int(value) < 2**64,
        f"{name} must be an unsigned 64-bit integer, got {value!r}",
    )


def batch_stream(master_seed: int, batch_index: int) -> np.random.Generator:
    """Counter-based generator for one batch of trials."""
    _check_seed("master_seed", master_seed)
    _check_seed("batch_index", batch_index)
    # an explicit uint64 key: a Python list goes through float64 once the seed reaches 2**63
    key = np.array([int(master_seed), int(batch_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_stream(master_seed: int, trial_index: int, k_relays: int = 1) -> np.random.Generator:
    """Generator positioned at trial ``trial_index``'s draws.

    The next 1 + 2*k_relays standard exponentials equal row
    ``trial_index % TRIALS_PER_BATCH`` of the trial's batch.  Positioning
    regenerates the batch prefix, so this is a debugging and testing path;
    bulk simulation uses ``gains_batch``.
    """
    _require(trial_index >= 0, f"trial_index must be >= 0, got {trial_index!r}")
    batch, local = divmod(int(trial_index), TRIALS_PER_BATCH)
    gen = batch_stream(master_seed, batch)
    if local:
        gen.standard_exponential(local * (1 + 2 * k_relays))
    return gen


def variance_row(variances: LinkVariances) -> np.ndarray:
    """Column scaling [sigma_sd2, sigma_sr2..., sigma_rd2...] for gain matrices."""
    return np.array((variances.sigma_sd2,) + variances.sigma_sr2 + variances.sigma_rd2)


def draw_channels(variances: LinkVariances, stream: np.random.Generator) -> ChannelDraw:
    """Draw one block's squared gains, consuming 1 + 2K exponentials."""
    k = variances.k_relays
    g = stream.standard_exponential(1 + 2 * k) * variance_row(variances)
    return ChannelDraw(g_sd=float(g[0]), g_sr=tuple(g[1 : 1 + k]), g_rd=tuple(g[1 + k :]))


def gains_batch(
    variances: LinkVariances,
    master_seed: int,
    batch_index: int,
    n_rows: int = TRIALS_PER_BATCH,
) -> np.ndarray:
    """Gains of ``n_rows`` consecutive trials of one batch, shape (n_rows, 1+2K).

    Row r holds trial ``batch_index * TRIALS_PER_BATCH + r`` in the column
    order of ``variance_row``.  A truncated batch is a row prefix of the full
    one, so per-trial values never depend on the requested row count.
    """
    _require(0 < n_rows <= TRIALS_PER_BATCH, f"n_rows must lie in [1, {TRIALS_PER_BATCH}], got {n_rows!r}")
    gen = batch_stream(master_seed, batch_index)
    e = gen.standard_exponential((n_rows, 1 + 2 * variances.k_relays))
    return e * variance_row(variances)


def batch_plan(n_trials: int) -> list[tuple[int, int]]:
    """(batch_index, rows) pairs covering ``n_trials`` trials in order."""
    _require(n_trials > 0, f"n_trials must be positive, got {n_trials!r}")
    full, rem = divmod(int(n_trials), TRIALS_PER_BATCH)
    plan = [(j, TRIALS_PER_BATCH) for j in range(full)]
    if rem:
        plan.append((full, rem))
    return plan
