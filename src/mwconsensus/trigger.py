"""The dynamic event-triggering law shared by both protocols.

For every agent i the mechanism watches its measurement error
``e_i = xhat_i - x_i`` (last broadcast minus true state).  Both protocols
use one law (Girard's dynamic trigger), with a per-agent gain ``K_i`` and a
slack ``S_i``:

    fire  iff  theta_i * (K_i ||e_i||^2 - S_i) > chi_i
    chi_i' = -beta_i chi_i + delta_i * (S_i - K_i ||e_i||^2)

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

The engine evaluates the law for all agents at once (``sim.CompiledScenario``
compiles the gains, ``sim.step`` applies the law); this module holds the
trigger parameters, the spectral constants ``mu_bar`` and ``gamma``, and
parameter validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import NoNeighbors
from .mwgraph import InputCoupling, MatrixWeightedGraph


class AgentParams(NamedTuple):
    """Trigger parameters of a single agent."""

    sigma: float
    theta: float
    beta: float
    delta: float
    chi0: float


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
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float)).copy()
            if length is None:
                length = arr.shape[0]
            if arr.shape != (length,):
                raise ValueError("trigger parameter arrays must share one length")
            arr.setflags(write=False)
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

    def agent(self, i: int) -> AgentParams:
        return AgentParams(float(self.sigma[i]), float(self.theta[i]),
                           float(self.beta[i]), float(self.delta[i]),
                           float(self.chi0[i]))

    def replace(self, i: int, **values) -> "TriggerParams":
        arrays = {name: np.array(getattr(self, name)) for name in
                  ("sigma", "theta", "beta", "delta", "chi0")}
        for key, val in values.items():
            if key not in arrays:
                raise KeyError(key)
            arrays[key][i] = float(val)
        return TriggerParams(**arrays)


@dataclass(frozen=True)
class Leaderless:
    """Mode marker: pure neighbor coupling, no external input."""


@dataclass(frozen=True, eq=False)
class LeaderFollower:
    """Mode carrying the homogeneous input value and its attachment map."""

    u0: np.ndarray
    coupling: InputCoupling

    def __post_init__(self):
        arr = np.asarray(self.u0, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "u0", arr)


Mode = Union[Leaderless, LeaderFollower]


@dataclass(frozen=True)
class Violation:
    agent: int
    field: str
    message: str

    def __str__(self):
        return f"agent {self.agent}: {self.field}: {self.message}"


def mu_bar(i: int, g: MatrixWeightedGraph) -> float:
    """Largest eigenvalue among the absolute weights incident to agent i."""
    neigh = g.neighbors(i)
    if not neigh:
        raise NoNeighbors(f"agent {i} has no neighbors")
    return max(g.edge(i, j).abs_lambda_max for j in neigh)


def gamma(i: int, g: MatrixWeightedGraph, coupling: InputCoupling) -> float:
    """Error-amplification constant of the leader-follower trigger:

        n * (sum_j mu(|A_ij|) + sum_l mu(|B_il|))^2 + n * sum_j mu(|A_ij|)^2

    Empty neighbor and input sets give 0; weights too large for the square
    give inf.
    """
    n = g.n
    mus = [g.edge(i, j).abs_lambda_max for j in g.neighbors(i)]
    mus_b = [c.abs_lambda_max for c in coupling.entries_for_agent(i)]
    try:
        spread = n * (sum(mus) + sum(mus_b)) ** 2
    except OverflowError:  # float ** raises where float * returns inf
        spread = math.inf
    return spread + n * sum(m * m for m in mus)


def validate_params(params: TriggerParams) -> list[Violation]:
    """Range checks (theta, beta and chi0 positive and finite) plus the
    stability bound theta > (1 - delta) / beta.

    Returns every violation found (empty list means valid); never raises.
    The bound is identical in both modes.
    """
    out = []
    for i in range(params.n):
        a = params.agent(i)
        if not (0.0 <= a.sigma < 1.0):
            out.append(Violation(i, "sigma", f"{a.sigma} outside [0, 1)"))
        for name in ("theta", "beta", "chi0"):
            value = getattr(a, name)
            if not 0.0 < value < math.inf:
                out.append(Violation(i, name, f"{value} must be positive and "
                                              "finite"))
        if not (0.0 <= a.delta <= 1.0):
            out.append(Violation(i, "delta", f"{a.delta} outside [0, 1]"))
        if a.theta > 0.0 and a.beta > 0.0:
            bound = (1.0 - a.delta) / a.beta
            if not a.theta > bound:
                out.append(Violation(
                    i, "theta",
                    f"{a.theta} does not exceed (1 - delta) / beta = {bound}"))
    return out
