"""Per-row protocol outcomes of a gains matrix, the tests' reference for the batch counts.

``TestBatchAgreement`` checks ``block_stats_batch`` row for row against the
scalar state machine ``simulate_block``; the counts tests compare the
estimators and ``undecoded_counts`` with sums of its rows.
"""

import numpy as np

from bafsim.protocol import _check_shape, _hops, _running_sums


def block_stats_batch(gains: np.ndarray, x: float, thr: float, k_relays: int) -> tuple[np.ndarray, np.ndarray]:
    """Protocol outcomes (outage flags, sub-blocks used) of every row of a ``gains_batch`` matrix.

    The decode test is alpha >= ``thr`` at offset ``x`` (see
    ``decode_condition``), checked after every stage.  A row counts one more
    sub-block for each relay stage it enters undecoded, and stays decoded
    even if a later term is NaN.
    """
    _check_shape(gains, k_relays)
    stages = _running_sums(gains[:, 0], _hops(gains, k_relays), x)
    decoded = next(stages) >= thr
    n_used = np.ones(gains.shape[0], dtype=np.int64)
    for agg in stages:
        n_used += ~decoded
        decoded |= agg >= thr
    return ~decoded, n_used
