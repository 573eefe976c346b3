"""Network geometry, fading statistics, and reproducible channel draws.

The model is block-Rayleigh fading on a one-dimensional network: one source,
K relays on the open unit segment between source (0) and destination (1).
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
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TRIALS_PER_BATCH = 1 << 16
_SCALE_ROWS = 64

# Beyond this range the product of two relay gains overflows or underflows;
# only variance ratios matter, so no model needs a wider one.
VARIANCE_RANGE = (1e-150, 1e150)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer of any integral type (``numbers.Integral``), a bool excepted."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _in_variance_range(name: str, value: float) -> None:
    low, high = VARIANCE_RANGE
    _require(low <= value <= high, f"{name} must lie in [{low:g}, {high:g}], got {value!r}")


@dataclass(frozen=True)
class NetworkGeometry:
    """Relay placement on the unit source-destination segment.

    Positions are distances from the source, strictly inside (0, 1);
    endpoints would give an infinite link variance.
    """

    relay_positions: tuple[float, ...]
    pathloss_exponent: float

    def __post_init__(self):
        object.__setattr__(self, "relay_positions", tuple(float(d) for d in self.relay_positions))
        _require(
            math.isfinite(self.pathloss_exponent) and self.pathloss_exponent >= 0.0,
            f"pathloss_exponent must be finite and >= 0, got {self.pathloss_exponent!r}",
        )
        for d in self.relay_positions:
            _require(
                0.0 < d < 1.0,
                f"relay position {d!r} must lie strictly between source (0) and destination (1.0)",
            )

    @property
    def k_relays(self) -> int:
        return len(self.relay_positions)


@dataclass(frozen=True)
class LinkVariances:
    """Mean squared channel gains for the direct link and each relay hop, each in ``VARIANCE_RANGE``."""

    sigma_sd2: float
    sigma_sr2: tuple[float, ...]
    sigma_rd2: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_sr2", tuple(float(v) for v in self.sigma_sr2))
        object.__setattr__(self, "sigma_rd2", tuple(float(v) for v in self.sigma_rd2))
        _in_variance_range("sigma_sd2", self.sigma_sd2)
        _require(
            len(self.sigma_sr2) == len(self.sigma_rd2),
            "sigma_sr2 and sigma_rd2 must have one entry per relay",
        )
        for v in self.sigma_sr2 + self.sigma_rd2:
            _in_variance_range("relay link variance", v)

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
    in (0, 1] with tau/snr a normal float fixes it.
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
            _is_integer(self.k_relays) and self.k_relays >= 0,
            f"k_relays must be a nonnegative integer, got {self.k_relays!r}",
        )
        object.__setattr__(self, "k_relays", int(self.k_relays))
        if self.tau is not None:
            _require(
                math.isfinite(self.tau) and 0.0 < self.tau <= 1.0,
                f"fixed tau must lie in (0, 1], got {self.tau!r}",
            )
            _require(
                self.tau / self.snr >= sys.float_info.min,
                f"tau/snr = {self.tau / self.snr!r} is below the normal float range, "
                "where the offset x = tau/snr cannot be resolved",
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


def _check_relay_count(draw: ChannelDraw, params: SystemParams) -> None:
    _require(draw.k_relays == params.k_relays, f"draw describes {draw.k_relays} relays but params.k_relays={params.k_relays}")


def variances_from_geometry(geom: NetworkGeometry) -> LinkVariances:
    """Map distances to link variances via the d^(-exponent) power law."""
    a = geom.pathloss_exponent
    try:
        return LinkVariances(
            sigma_sd2=1.0,
            sigma_sr2=tuple(d ** (-a) for d in geom.relay_positions),
            sigma_rd2=tuple((1.0 - d) ** (-a) for d in geom.relay_positions),
        )
    except OverflowError:
        raise InvalidParameterError(f"pathloss_exponent {a!r} overflows the link variances") from None


def duty_cycle(rate: float, snr: float, fixed: float | None = None) -> float:
    """Burst duty cycle: ``fixed`` if given, else the policy min(sqrt(rate * snr), 1).

    A Python or NumPy float rate gives a Python float, through ``math.sqrt``
    and ``min``, which round as ``np.sqrt`` and ``np.minimum`` do.  Rate 0
    resolves to 1.0 (the value is immaterial, every decode condition is then
    trivially met).  The policy needs rate*snr in the normal float range:
    below it the duty cycle loses its precision and reaches 0, so such an
    operating point is rejected.
    """
    if fixed is not None:
        return float(fixed)
    if rate == 0.0:
        return 1.0
    product = float(rate) * float(snr)  # an infinite product clamps to 1
    if product < sys.float_info.min:
        raise InvalidParameterError(
            f"rate*snr = {product!r} is below the normal float range, "
            "where the duty cycle sqrt(rate*snr) cannot be resolved"
        )
    return min(math.sqrt(product), 1.0)


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


def variance_row(variances: LinkVariances) -> np.ndarray:
    """Column scaling [sigma_sd2, sigma_sr2..., sigma_rd2...] for gain matrices."""
    return np.array((variances.sigma_sd2,) + variances.sigma_sr2 + variances.sigma_rd2)


def gains_batch(
    variances: LinkVariances,
    master_seed: int,
    batch_index: int,
    n_rows: int = TRIALS_PER_BATCH,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gains of ``n_rows`` consecutive trials of one batch, shape (n_rows, 1+2K).

    Row r holds trial ``batch_index * TRIALS_PER_BATCH + r`` in the column
    order of ``variance_row``.  A truncated batch is a row prefix of the full
    one, so per-trial values never depend on the requested row count.  Given
    ``out``, a C-contiguous float64 array of n_rows or more rows of 1+2K
    columns, the gains are drawn into its leading rows, which are returned:
    the same bytes as a fresh draw.
    """
    _require(_is_integer(n_rows), f"n_rows must be an integer, got {n_rows!r}")
    _require(0 < n_rows <= TRIALS_PER_BATCH, f"n_rows must lie in [1, {TRIALS_PER_BATCH}], got {n_rows!r}")
    n_rows, columns = int(n_rows), 1 + 2 * variances.k_relays
    if out is not None:
        _require(
            isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
            and out.ndim == 2 and out.shape[0] >= n_rows and out.shape[1] == columns,
            f"out must be a C-contiguous float64 array of at least {n_rows} rows of {columns} columns",
        )
        out = out[:n_rows]
    gen = batch_stream(master_seed, batch_index)
    e = gen.standard_exponential((n_rows, columns), out=out)
    # blocks of _SCALE_ROWS rows times the tiled row: the same products as
    # broadcasting the short row over every row, at about twice the speed
    row, head = variance_row(variances), n_rows - n_rows % _SCALE_ROWS
    block = e[:head].reshape(-1, _SCALE_ROWS * row.size)  # a view: ``e`` is C-contiguous
    block *= np.tile(row, _SCALE_ROWS)
    e[head:] *= row
    return e


def batch_plan(n_trials: int) -> list[tuple[int, int]]:
    """(batch_index, rows) pairs covering ``n_trials`` trials in order."""
    _require(n_trials > 0, f"n_trials must be positive, got {n_trials!r}")
    full, rem = divmod(int(n_trials), TRIALS_PER_BATCH)
    plan = [(j, TRIALS_PER_BATCH) for j in range(full)]
    if rem:
        plan.append((full, rem))
    return plan
