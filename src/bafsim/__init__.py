"""Outage-capacity analysis and simulation of bursty AF relaying with one-bit feedback."""

from .capacity import (
    c_eps_baf_ir_k,
    c_eps_baf_k,
    c_eps_baf_no_feedback,
    c_eps_cutset,
    channel_aggregate,
    delta_ratio_upper,
    epsilon_feasible,
    instantaneous_capacity,
    lemma1_constant,
    min_bound_check,
    optimal_relay_position,
    expected_n_one_relay,
)
from .channel import (
    ChannelDraw,
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    variances_from_geometry,
)
from .errors import ConvergenceError, InvalidParameterError
from .montecarlo import (
    Estimate,
    RateSearchResult,
    empirical_capacity_vs_position,
    empirical_eps_outage_capacity,
    empirical_eps_outage_capacity_sweep,
    empirical_placement_argmax,
    estimate_expected_n,
    estimate_outage,
    estimate_outage_sweep,
    lemma1_ratio_experiment,
    quadrature_outage_oracle,
)
from .protocol import BlockOutcome, simulate_block

__version__ = "0.1.0"
