"""Event-triggered bipartite consensus on matrix-weighted networks.

A simulation library and CLI for multi-agent systems whose edges carry
symmetric sign-definite matrix weights.  Agents broadcast state only when a
per-agent dynamic threshold is violated; the package covers the leaderless
and leader-follower protocols, the structural checks they require, and full
post-run analytics.
"""

from .analysis import RunSummary, event_stats, fit_decay_rate, \
    lyapunov_leaderless, lyapunov_lf
from .errors import AssumptionViolated, Diverged, GraphFormatError, \
    InvalidMatrix, InvalidScenario, MwcError, NotPSD, UnsupportedWeight
from .linalg import DefinitenessClass, classify_definiteness, spectral_abs, \
    sym_eigen, sym_sqrt
from .mwgraph import InputCoupling, MatrixWeightedGraph, build_laplacian, \
    detect_structural_balance, leader_gauge, null_space, \
    predicted_bipartite_limit, verify_assumption1, verify_assumption2
from .sim import Scenario, TrajectoryRecord, chi_floor_check, \
    min_inter_event_from, run, step, validate_scenario
from .trigger import LeaderFollower, Leaderless, TriggerParams, gamma, \
    mu_bar, validate_params

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
