"""The dynamic event-triggering law shared by both protocols.

For every agent i the mechanism watches its measurement error
``e_i = xhat_i - x_i`` (last broadcast minus true state).  Both protocols
use one law (Girard's dynamic trigger) on the trigger excess
``g_i = K_i ||e_i||^2 - S_i``, with a per-agent gain ``K_i`` and slack ``S_i``:

    fire  iff  theta_i * g_i > chi_i
    chi_i' = -beta_i chi_i - delta_i * g_i

Only the gain and the slack differ between the protocols:

    leaderless       K_i = mu_bar_i * N_i
                     S_i = (sigma_i/4) * sum_j ||sqrt(|A_ij|) p_ij||^2
    leader-follower  K_i = gamma_i
                     S_i = sigma_i * ||qhat_i||^2

with N_i the neighbor count, ``p_ij = xhat_i - sgn(A_ij) xhat_j``,
``mu_bar_i`` the largest eigenvalue among the incident absolute weights and
``gamma_i`` the spectral constant of the incident weights and input
couplings.  The gain is a constant of the network; the slack depends only
on the broadcasts, so it stays constant between events.  At an event the
agent rebroadcasts and its error resets.

Equality never fires: the threshold inequality uses "<=" for staying silent,
so the fire condition is strict.

The engine applies the law to all agents at once: ``sim.CompiledScenario``
compiles the gains, each broadcast builds the excess as a quadratic in grid
steps, and ``sim.step`` reads it for the fire test and ``chi`` alike.
This module holds the parameters, their validation, ``mu_bar`` and ``gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .edges import float_array
from .errors import GraphFormatError
from .mwgraph import InputCoupling, MatrixWeightedGraph


@dataclass(frozen=True, eq=False)
class TriggerParams:
    """Per-agent trigger parameters, stored as aligned arrays of length n."""

    sigma: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    chi0: np.ndarray

    def __post_init__(self):
        fields = {}
        length = None
        for name in ("sigma", "theta", "beta", "delta", "chi0"):
            arr = np.atleast_1d(float_array(getattr(self, name), name))
            if length is None:
                length = arr.shape[0]
            if arr.shape != (length,):
                raise GraphFormatError(
                    "trigger parameter arrays must share one length")
            fields[name] = arr
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, n: int, sigma: float, theta: float, beta: float,
                delta: float, chi0: float) -> "TriggerParams":
        full = lambda v: np.full(n, float(v))
        return cls(full(sigma), full(theta), full(beta), full(delta), full(chi0))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class Leaderless:
    """Mode marker: pure neighbor coupling, no external input."""


@dataclass(frozen=True, eq=False)
class LeaderFollower:
    """Mode carrying the homogeneous input value and its attachment map."""

    u0: np.ndarray
    coupling: InputCoupling

    def __post_init__(self):
        object.__setattr__(self, "u0", float_array(self.u0, "u0"))


Mode = Union[Leaderless, LeaderFollower]


def mu_bar(g: MatrixWeightedGraph) -> np.ndarray:
    """Largest eigenvalue among the absolute weights incident to each node:
    one scatter-max of lambda_max(|A|) over the ends of the graph's edge
    table.  A node without neighbours gets 0."""
    t = g.table
    top = np.zeros(g.n)
    np.maximum.at(top, t.ends.reshape(-1), np.repeat(t.abs_lambda_max, 2))
    return top


def gamma(network: MatrixWeightedGraph, n: int) -> np.ndarray:
    """Error-amplification constant of the leader-follower trigger, for each
    agent i < n of ``network``:

        n * (sum_j mu(|A_ij|) + sum_l mu(|B_il|))^2 + n * sum_j mu(|A_ij|)^2

    over agent i's neighbours j < n and inputs l = j - n.  Each sum is one
    ``bincount`` over the CSR slots, which adds each node's slots left to
    right in ``network.neighbors(i)`` order.  Empty neighbor and input sets
    give 0; weights too large for the square give inf.
    """
    owner = np.repeat(np.arange(network.n), network.degrees)
    mu = network.table.abs_lambda_max[network.slot_edge]
    to_agent = network.slot_neighbor < n
    with np.errstate(over="ignore"):  # inf, as float arithmetic gives it
        total, total_b, squares = (
            np.bincount(owner[mask], weights=w[mask], minlength=network.n)[:n]
            for mask, w in ((to_agent, mu), (~to_agent, mu),
                            (to_agent, mu * mu)))
        return n * np.square(total + total_b) + n * squares


def validate_params(params: TriggerParams) -> list[str]:
    """Range checks (theta, beta and chi0 positive and finite) plus the
    stability bound theta > (1 - delta) / beta.

    Returns every violation found as a line ``agent {i}: {field}:
    {message}`` (empty list means valid), by agent, then in the order of
    the checks; never raises.  The bound is identical in both modes.
    """
    sigma, theta, beta, delta, chi0 = (params.sigma, params.theta,
                                       params.beta, params.delta, params.chi0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = (1.0 - delta) / beta
    finite = "{} must be positive and finite"
    # (field, its values, mask of the agents that fail, message), in the
    # order an agent's violations are reported.
    checks = (
        ("sigma", sigma, ~((0.0 <= sigma) & (sigma < 1.0)), "{} outside [0, 1)"),
        ("theta", theta, ~((0.0 < theta) & (theta < math.inf)), finite),
        ("beta", beta, ~((0.0 < beta) & (beta < math.inf)), finite),
        ("chi0", chi0, ~((0.0 < chi0) & (chi0 < math.inf)), finite),
        ("delta", delta, ~((0.0 <= delta) & (delta <= 1.0)), "{} outside [0, 1]"),
        ("theta", theta, (theta > 0.0) & (beta > 0.0) & ~(theta > bound),
         "{} does not exceed (1 - delta) / beta = {}"),
    )
    flagged = np.array([mask for _, _, mask, _ in checks])
    return [f"agent {k}: {checks[c][0]}: "
            + checks[c][3].format(checks[c][1][k], bound[k])
            for k, c in zip(*np.nonzero(flagged.T))]
