"""Incremental-relaying state machine for one fading block.

This module owns the aggregate alpha_n and its decode test alpha_n >=
threshold, summed in stage order: the direct-link gain, then one relay term
g_rd*g_sr/(g_rd+g_sr+x) per stage.  Every estimator evaluates them here, the
capacity kernel through ``aggregate_batch`` and the others through
``block_stats_batch``; ``simulate_block`` is the scalar reference.

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

from .capacity import decode_condition, relay_term
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
    x, thr = decode_condition(params.rate, params.snr, tau, k, threshold_mode)
    agg = draw.g_sd
    for n in range(k + 1):
        if n:
            agg += relay_term(draw.g_sr[n - 1], draw.g_rd[n - 1], x)
        if agg >= thr:
            return BlockOutcome(True, n + 1, agg, (0,) * n + (1,))
    return BlockOutcome(False, k + 1, agg, (0,) * (k + 1))


def _running_sums(gains: np.ndarray, k_relays: int, x: float):
    """Yield the aggregate of every row at offset ``x`` after each stage, as one array updated in place."""
    if gains.ndim != 2 or gains.shape[1] != 1 + 2 * k_relays:
        raise InvalidParameterError(f"gains must have shape (n, {1 + 2 * k_relays})")
    agg = gains[:, 0].copy()
    yield agg
    for i in range(k_relays):
        g_sr = gains[:, 1 + i]
        g_rd = gains[:, 1 + k_relays + i]
        agg += g_rd * g_sr / (g_rd + g_sr + x)
        yield agg


def aggregate_batch(gains: np.ndarray, k_relays: int, x: float) -> np.ndarray:
    """alpha_K of every row of a ``gains_batch`` matrix at the offset ``x``."""
    for agg in _running_sums(gains, k_relays, x):
        pass
    return agg


def block_stats_batch(gains: np.ndarray, x: float, thr: float, k_relays: int) -> tuple[np.ndarray, np.ndarray]:
    """Protocol outcomes (outage flags, sub-blocks used) of every row of a ``gains_batch`` matrix.

    The decode test is alpha >= ``thr`` at offset ``x`` (see
    ``decode_condition``), checked after every stage.  A row counts one more
    sub-block for each relay stage it enters undecoded, and stays decoded
    even if a later term is NaN.  Row-for-row identical to ``simulate_block``.
    """
    stages = _running_sums(gains, k_relays, x)
    decoded = next(stages) >= thr
    n_used = np.ones(gains.shape[0], dtype=np.int64)
    for agg in stages:
        n_used += ~decoded
        decoded |= agg >= thr
    return ~decoded, n_used
