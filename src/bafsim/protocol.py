"""Incremental-relaying state machine for one fading block.

This module owns the aggregate alpha_n and its decode test alpha_n >=
threshold, summed in stage order: the direct-link gain, then one relay term
g_rd*g_sr/(g_rd+g_sr+x) per stage, evaluated as product/(sum + x) from the
offset-free hop terms g_rd*g_sr and g_rd+g_sr.  Every estimator evaluates
them here.  The capacity kernel computes alpha_K with one function,
``_aggregate``: column by column, of the gains as given or scaled by a
variance row, into the caller's buffers or new ones.  ``aggregate_batch``,
the same floats from ``_hops`` and ``_running_sums``, is the tests'
reference.  The outage, E(N) and Lemma 1 sweep counts through
``undecoded_counts``, which takes its points from the largest threshold down
and compacts the rows in play to those a point leaves undecoded at stage 0
whenever they are at most half of them, so the relay stages skip the rows
the direct link decodes.  A pass part draws each of its batches into one
``_Workspace``, which the kernel only reads and which also holds every array
the kernel writes, hop terms included, so the part maps its memory once, not
once per batch.
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


def _hops(gains: np.ndarray, k_relays: int, rows=slice(None), out=None):
    """Yield the offset-free terms (g_rd*g_sr, g_rd+g_sr) of every relay hop on ``rows``, every row by default: new contiguous arrays, or ``out``'s (product, sum) pair of len(rows) buffers per hop."""
    for i in range(k_relays):
        g_sr, g_rd = gains[:, 1 + i][rows], gains[:, 1 + k_relays + i][rows]  # 1-D gathers, or views of every row
        product, total = (None, None) if out is None else out[i]
        yield np.multiply(g_rd, g_sr, out=product), np.add(g_rd, g_sr, out=total)


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


def _aggregate(gains: np.ndarray, k_relays: int, x: float, row: np.ndarray | None = None, out=None, work=None):
    """``aggregate_batch(gains, k_relays, x)``, or of ``gains * row`` if ``row`` is given, float for float.

    Each column is read whole and scaled by its entry of ``row`` as it is
    read: no scaled copy is made, and ``gains`` is never written.  alpha_K
    goes to ``out``, of len(gains) floats, and ``work`` holds three rows of
    at least as many, the third used from the second relay on; either is new
    if None.
    The operations are those of ``_hops`` and ``_running_sums``: g_sr and
    g_rd, their product and sum, + x and the divide give each term, and g_sd
    plus the terms in stage order give alpha_K.  At K >= 1 only.
    """
    out = np.empty(len(gains)) if out is None else out
    g_sr, g_rd, rest = np.empty((3, len(gains))) if work is None else (w[: len(gains)] for w in work)
    for i in range(k_relays):
        term = out if i == 0 else rest
        sr, rd = gains[:, 1 + i], gains[:, 1 + k_relays + i]
        if row is not None:
            sr, rd = np.multiply(sr, row[1 + i], out=g_sr), np.multiply(rd, row[1 + k_relays + i], out=g_rd)
        np.multiply(rd, sr, out=term)
        np.add(np.add(rd, sr, out=g_rd), x, out=g_rd)
        np.divide(term, g_rd, out=term)
        if i == 0:
            sd = gains[:, 0] if row is None else np.multiply(gains[:, 0], row[0], out=g_sr)
        np.add(sd if i == 0 else out, term, out=out)
    return out


class _Workspace:
    """The buffers of ``undecoded_counts`` for batches of up to ``n_rows`` rows, reused batch after batch.

    ``gains`` takes the batch's draw (``gains_batch(..., out=)``), which the
    kernel only reads.  The kernel writes the leading rows of the others: the
    contiguous g_sd, one (product, sum) pair per relay hop, and the stages'
    ``agg``, ``term``, ``hit`` and ``decoded``.
    """

    def __init__(self, k_relays: int, n_rows: int = TRIALS_PER_BATCH):
        self.gains = np.empty((n_rows, 1 + 2 * k_relays))
        self.g_sd, self.agg, self.term = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
        self.hit, self.decoded = np.empty(n_rows, dtype=bool), np.empty(n_rows, dtype=bool)
        self.hops = [(np.empty(n_rows), np.empty(n_rows)) for _ in range(k_relays)]


def undecoded_counts(gains: np.ndarray, k_relays: int, points, ws: _Workspace) -> list[list[int]]:
    """u_0..u_K at every decode condition (x, thr) of ``points``: the rows of a ``gains_batch`` matrix still undecoded after each stage.

    A row whose direct gain meets thr decodes at stage 0 whatever its relay
    terms, and so at every smaller threshold.  The points are taken from the
    largest threshold down, NaN first, on the rows in play, at first the
    whole batch: whenever a point leaves at most half of them undecoded at
    stage 0, the rows in play become those, in order, compacted into the
    workspace ``ws``: g_sd, and each (product, sum) pair of hop terms once
    ``_hops`` has built them, at the first point, on the rows it keeps.  The
    rows dropped are decoded at every later point, so a point counts u_m on
    the rows in play, and the counts are those of the whole batch.  ``ws``
    holds at least len(gains) rows, and a pass reuses it for each of its
    batches: a point reads only the leading rows this batch wrote.  ``gains``,
    which may be ``ws.gains``, is never written.

    A row stays decoded even if a later term is NaN, as in
    ``simulate_block``: u_K rows are in outage, and a row uses one more
    sub-block for each u_m, m < K, that counts it.
    """
    _check_shape(gains, k_relays)
    m, rows, hops, out = len(gains), slice(None), None, [None] * len(points)
    g_sd = ws.g_sd[:m]
    np.copyto(g_sd, gains[:, 0])  # read once from the strided column
    for i in sorted(range(len(points)), key=lambda i: (points[i][1] == points[i][1], -points[i][1])):  # NaN first
        x, thr = points[i]
        decoded = np.greater_equal(g_sd, thr, out=ws.decoded[:m])
        u = m - int(np.count_nonzero(decoded))
        if 2 * u <= m:
            rows = np.flatnonzero(np.logical_not(decoded, out=ws.hit[:m]))
            # the indices are valid; mode="raise" would copy out first
            g_sd = np.take(g_sd, rows, out=g_sd[:u], mode="clip")
            if hops is not None:
                hops = [(np.take(p, rows, out=p[:u], mode="clip"), np.take(s, rows, out=s[:u], mode="clip"))
                        for p, s in hops]
            m, decoded = u, ws.decoded[:u]
            decoded.fill(False)
        if hops is None:  # the first point: ``rows`` are every row or those it kept
            hops = list(_hops(gains, k_relays, rows, [(p[:m], s[:m]) for p, s in ws.hops]))
        stages = _running_sums(g_sd, hops, x, ws.agg[:m], ws.term[:m])
        next(stages)
        counts = [u]
        for alpha in stages:
            np.logical_or(decoded, np.greater_equal(alpha, thr, out=ws.hit[:m]), out=decoded)
            counts.append(m - int(np.count_nonzero(decoded)))
        out[i] = counts
    return out
