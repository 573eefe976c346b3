"""Incremental-relaying state machine for one fading block.

This module owns the aggregate alpha_n and its decode test alpha_n >=
threshold, summed in stage order: the direct-link gain, then one relay term
g_rd*g_sr/(g_rd+g_sr+x) per stage, evaluated as product/(sum + x) from the
offset-free hop terms g_rd*g_sr and g_rd+g_sr, which ``_hops`` builds for a
batch as new arrays and ``_undecoded_rows`` in a workspace.  Every estimator
evaluates them here: the capacity kernel through ``aggregate_batch``, and the
outage, E(N) and Lemma 1 sweep through ``undecoded_counts``, whose relay
stages run only on the rows each point's direct link leaves undecoded, unless
every point leaves most rows.  A pass part draws each of its batches into one
``_Workspace``, which also holds every array of that kernel, so the part maps
its memory once, not once per batch.
``simulate_block`` is the scalar reference: it evaluates the estimators'
decode condition, that of its ``SystemParams``.

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
from .channel import TRIALS_PER_BATCH, ChannelDraw, SystemParams, _check_relay_count
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


def simulate_block(draw: ChannelDraw, params: SystemParams, threshold_mode: str = "exact") -> BlockOutcome:
    """Run the feedback protocol on one channel draw, relays in index order, at the duty cycle and K of ``params``."""
    _check_relay_count(draw, params)
    if draw.k_relays < 1:
        raise InvalidParameterError("simulate_block requires at least one relay")
    k = draw.k_relays
    x, thr = decode_condition(params.rate, params.snr, params.tau, k, threshold_mode)
    agg = draw.g_sd
    for n in range(k + 1):
        if n:
            agg += relay_term(draw.g_sr[n - 1], draw.g_rd[n - 1], x)
        if agg >= thr:
            return BlockOutcome(True, n + 1, agg, (0,) * n + (1,))
    return BlockOutcome(False, k + 1, agg, (0,) * (k + 1))


def _check_shape(gains: np.ndarray, k_relays: int) -> None:
    if gains.ndim != 2 or gains.shape[1] != 1 + 2 * k_relays:
        raise InvalidParameterError(f"gains must have shape (n, {1 + 2 * k_relays})")


def _hops(gains: np.ndarray, k_relays: int, rows=slice(None)):
    """Yield the offset-free terms (g_rd*g_sr, g_rd+g_sr) of every relay hop on ``rows``, every row by default, one contiguous array each."""
    for i in range(k_relays):
        g_sr, g_rd = gains[:, 1 + i][rows], gains[:, 1 + k_relays + i][rows]  # 1-D gathers, or views of every row
        yield g_rd * g_sr, np.add(g_rd, g_sr, out=g_rd if g_rd.flags.owndata else None)  # the sum reuses a gathered g_rd


def _running_sums(g_sd: np.ndarray, hops, x: float, agg: np.ndarray | None = None, term: np.ndarray | None = None):
    """Yield the aggregate of every row at offset ``x`` after each stage.

    Stage 0 is ``g_sd`` itself; each relay stage adds product/(sum + x) of
    its hop terms, the same float as g_rd*g_sr/(g_rd+g_sr+x), into ``agg``,
    one array updated in place.  The term goes to ``term``, or, if None,
    over the stage's sum, which must then be an array of its own.
    """
    if agg is None:
        agg = np.empty_like(g_sd)
    yield g_sd
    alpha = g_sd
    for product, total in hops:
        out = total if term is None else term
        np.add(total, x, out=out)
        np.divide(product, out, out=out)
        alpha = np.add(alpha, out, out=agg)
        yield alpha


def aggregate_batch(gains: np.ndarray, k_relays: int, x: float) -> np.ndarray:
    """alpha_K of every row of a ``gains_batch`` matrix at the offset ``x``."""
    _check_shape(gains, k_relays)
    for agg in _running_sums(gains[:, 0], _hops(gains, k_relays), x):
        pass
    return agg


class _Workspace:
    """The buffers of ``undecoded_counts`` for batches of up to ``n_rows`` rows, reused batch after batch.

    ``gains`` takes a batch's draw (``gains_batch(..., out=)``).  The kernel
    writes the leading rows of the others: the contiguous g_sd, one (product,
    sum) pair per relay hop, and the stages' ``agg``, ``term``, ``hit`` and
    ``decoded``.  The row rule's scratch lives in the stage buffers, which are
    free until the stages start: the stage-0 masks in ``hit`` and
    ``decoded``, the sort key and each gathered g_sr in ``agg``, and the
    sorted row indices in ``term`` viewed as int64, sorted from a copy in
    ``g_sd``'s buffer, which g_sd's gather fills last.
    """

    def __init__(self, k_relays: int, n_rows: int = TRIALS_PER_BATCH):
        self.gains = np.empty((n_rows, 1 + 2 * k_relays))
        self.g_sd, self.agg, self.term = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
        self.hit, self.decoded = np.empty(n_rows, dtype=bool), np.empty(n_rows, dtype=bool)
        self.hops = [(np.empty(n_rows), np.empty(n_rows)) for _ in range(k_relays)]


def _undecoded_rows(gains: np.ndarray, k_relays: int, thresholds: list[float], ws: _Workspace):
    """g_sd and the hop terms of the rows kept and, per threshold, how many leading rows hold those it leaves undecoded.

    If the smallest threshold leaves more than half of the rows undecoded at
    stage 0, every row is kept and leads at every threshold: gathering most
    of the rows costs more than the stages it saves.  Otherwise the rows kept
    are those the largest threshold leaves undecoded, ordered by g_sd if
    there are two or more thresholds, so that the rows each one leaves
    undecoded lead.  A NaN threshold keeps every row.  The arrays returned
    are leading rows of the buffers of ``ws``.
    """
    n, width = gains.shape
    g_sd = ws.g_sd[:n]
    np.copyto(g_sd, gains[:, 0])  # the stages read it whole if every row stays
    hi, lo = max(thresholds, key=lambda t: (t != t, t)), min(thresholds)  # cheaper than numpy's; NaN is the largest
    undecoded = np.logical_not(np.greater_equal(g_sd, hi, out=ws.hit[:n]), out=ws.hit[:n])
    left = np.count_nonzero(undecoded)
    # lo leaves no more rows than hi: counted only if hi leaves most
    every_row = 2 * left > n and 2 * (
        left if lo == hi else n - np.count_nonzero(np.greater_equal(g_sd, lo, out=ws.decoded[:n]))
    ) > n
    if every_row:
        m = n

        def column(c, out):
            return gains[:, c]  # read in place
    else:
        rows = np.flatnonzero(undecoded)
        m = len(rows)
        if len(thresholds) > 1:
            key = np.take(g_sd, rows, out=ws.agg[:m], mode="clip")
            unsorted = ws.g_sd.view(np.int64)[:m]  # the column copy is read no more, and g_sd is gathered last
            np.copyto(unsorted, rows)
            del rows  # so that argsort's result is the only index array allocated
            rows = np.take(unsorted, np.argsort(key), out=ws.term.view(np.int64)[:m], mode="clip")
        flat, offset = gains.ravel(), 0  # a view of a C-contiguous batch (a copy of any other), gathered without a copy
        np.multiply(rows, width, out=rows)  # the flat index of each kept row's g_sd

        def column(c, out):
            nonlocal offset
            np.add(rows, c - offset, out=rows)  # now the flat index of column c
            offset = c
            # mode="clip" writes into out directly (the indices are valid); "raise" would go through a temporary
            return np.take(flat, rows, out=out[:m], mode="clip")
    hops = []
    for i, (product, total) in enumerate(ws.hops):
        g_sr, g_rd = column(1 + i, ws.agg), column(1 + k_relays + i, total)  # a gathered g_rd is summed in place
        hops.append((np.multiply(g_rd, g_sr, out=product[:m]), np.add(g_rd, g_sr, out=total[:m])))
    if every_row:
        return g_sd, hops, [n] * len(thresholds)
    g_sd = column(0, ws.g_sd)
    return g_sd, hops, np.searchsorted(g_sd, thresholds, "left").tolist() if len(thresholds) > 1 else [m]


def undecoded_counts(gains: np.ndarray, k_relays: int, points, ws: _Workspace | None = None) -> list[list[int]]:
    """u_0..u_K at every decode condition (x, thr) of ``points``: the rows of a ``gains_batch`` matrix still undecoded after each stage.

    A row whose direct gain meets thr decodes at stage 0 whatever its relay
    terms, so the relay stages run only on the rows each point's direct link
    leaves undecoded: the leading rows of those ``_undecoded_rows`` keeps,
    every row if each point leaves most of them, whose hop terms g_rd*g_sr and
    g_rd+g_sr it builds once per batch.  Every array lives in the workspace
    ``ws``, new if None, which a pass reuses for each of its batches: a
    condition reads only the leading rows this batch wrote.  A row's floats
    do not depend on its position, so the counts are those of the whole
    batch.  The direct gains must not be NaN, as no draw is.

    A row stays decoded even if a later term is NaN, as in
    ``simulate_block``: u_K rows are in outage, and a row uses one more
    sub-block for each u_m, m < K, that counts it.
    """
    _check_shape(gains, k_relays)
    if ws is None:
        ws = _Workspace(k_relays, len(gains))
    g_sd, hops, leading = _undecoded_rows(gains, k_relays, [thr for _, thr in points], ws)
    out = []
    for (x, thr), u in zip(points, leading):
        hit_u, decoded_u = ws.hit[:u], ws.decoded[:u]
        stages = _running_sums(g_sd[:u], [(p[:u], s[:u]) for p, s in hops], x, ws.agg[:u], ws.term[:u])
        np.greater_equal(next(stages), thr, out=decoded_u)
        counts = [u - int(np.count_nonzero(decoded_u))]
        for alpha in stages:
            np.greater_equal(alpha, thr, out=hit_u)
            np.logical_or(decoded_u, hit_u, out=decoded_u)
            counts.append(u - int(np.count_nonzero(decoded_u)))
        out.append(counts)
    return out
