"""Incremental-relaying state machine for one fading block.

Sub-block 1 is the source burst.  After every sub-block the destination
compares the capacity of the accumulated aggregate against the target rate
and feeds back one bit: 1 stops the block, 0 asks the next relay to transmit.
If the aggregate is still insufficient after relay K, the block is an outage.
All sub-blocks use the uniform time fraction tau/(K+1), so the decode test at
stage n is alpha_n >= threshold with the same threshold at every stage, and
the outage event coincides with the one-shot capacity comparison on the full
aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import relay_term, threshold_for
from .channel import ChannelDraw, SystemParams
from .errors import InvalidParameterError


@dataclass(frozen=True)
class BlockOutcome:
    """Result of one protocol block.

    ``feedback_trace`` holds one bit per completed decode attempt; a decoded
    block ends in a single 1, an outage is all zeros of length K+1.
    """

    decoded: bool
    sub_blocks_used: int
    final_aggregate: float
    feedback_trace: tuple[int, ...]


def simulate_block(
    draw: ChannelDraw,
    params: SystemParams,
    tau: float,
    threshold_mode: str = "exact",
) -> BlockOutcome:
    """Run the feedback protocol on one channel draw, relays in index order."""
    if draw.k_relays < 1:
        raise InvalidParameterError("simulate_block requires at least one relay")
    k = draw.k_relays
    x = tau / params.snr
    thr = threshold_for(params.rate, params.snr, tau, k, threshold_mode)

    trace: list[int] = []
    agg = draw.g_sd
    if agg >= thr:
        return BlockOutcome(True, 1, agg, (1,))
    trace.append(0)
    for i in range(k):
        agg += relay_term(draw.g_sr[i], draw.g_rd[i], x)
        if agg >= thr:
            trace.append(1)
            return BlockOutcome(True, len(trace), agg, tuple(trace))
        trace.append(0)
    return BlockOutcome(False, k + 1, agg, tuple(trace))


def block_stats_batch(
    gains: np.ndarray,
    snr: float,
    rate: float,
    tau: float,
    k_relays: int,
    threshold_mode: str = "exact",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised protocol outcomes for a gain matrix from ``gains_batch``.

    Returns (outage flags, sub-blocks used) per row, with fixed relay order.
    Runs the protocol as a running sum: the aggregate starts at the direct
    link gain, each relay adds its term g_rd*g_sr/(g_rd+g_sr+tau/snr), and
    after every stage a row is decoded once the aggregate reaches the
    threshold.  A row counts one more sub-block for each relay stage it
    enters undecoded, and stays decoded even if a later term is NaN.
    Row-for-row identical to ``simulate_block`` on the same gains.
    """
    if gains.ndim != 2 or gains.shape[1] != 1 + 2 * k_relays:
        raise InvalidParameterError(f"gains must have shape (n, {1 + 2 * k_relays})")
    x = tau / snr
    thr = threshold_for(rate, snr, tau, k_relays, threshold_mode)
    agg = gains[:, 0].copy()
    decoded = agg >= thr
    n_used = np.ones(gains.shape[0], dtype=np.int64)
    for i in range(k_relays):
        n_used += ~decoded
        g_sr = gains[:, 1 + i]
        g_rd = gains[:, 1 + k_relays + i]
        agg += g_rd * g_sr / (g_rd + g_sr + x)
        decoded |= agg >= thr
    return ~decoded, n_used
