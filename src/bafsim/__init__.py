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
    outage_threshold_g,
    expected_n_one_relay,
)
from .channel import (
    BurstClampWarning,
    ChannelDraw,
    LinkVariances,
    NetworkGeometry,
    SystemParams,
    draw_channels,
    resolve_tau,
    trial_stream,
    variances_from_geometry,
)
from .errors import ConvergenceError, InvalidParameterError
from .montecarlo import (
    Estimate,
    RateSearchResult,
    empirical_capacity_vs_position,
    empirical_eps_outage_capacity,
    estimate_expected_n,
    estimate_outage,
    lemma1_ratio_experiment,
    quadrature_outage_oracle,
)
from .protocol import BlockOutcome, simulate_block

__version__ = "0.1.0"
