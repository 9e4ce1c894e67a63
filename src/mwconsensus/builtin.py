"""Bundled reference scenarios used by the ``replicate-paper`` command.

The network has six agents with 4-dimensional states and a fixed bipartition
{0, 1, 5} / {2, 3, 4}: edges inside a group carry positive (semi)definite
weights, edges across groups negative (semi)definite ones.  The
leader-follower variant attaches two external inputs, to agents 0 and 5.

The weight tables are stored exactly as published at four-decimal precision.
That has two visible consequences handled here rather than hidden:

* the semidefinite weights carry eigenvalue noise of order 1e-5, which the
  loader removes by declaring their class (the declaration projects the
  within-band eigenvalues to exactly zero);
* the stored (0, 1) weight is not symmetric, and its symmetric part is
  indefinite (eigenvalues -0.757, -0.599, -0.168, +2.576), so no declaration
  can validate it.  The operational scenarios therefore use its spectral
  absolute value, which keeps every eigenvalue magnitude (hence all derived
  spectral constants) and yields the positive definite class the table
  advertises.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .mwgraph import InputCoupling, MatrixWeightedGraph
from .sim import Scenario
from .trigger import LeaderFollower, Leaderless, TriggerParams

N_AGENTS = 6
BLOCK_DIM = 4

#: Transcribed as published; rows are not symmetric.  See module docstring.
RAW_EDGE_0_1 = np.array([
    [0.0975, 0.9649, 0.4854, 0.9157],
    [0.2785, 0.1576, 0.8003, 0.7922],
    [0.5469, 0.9706, 0.1419, 0.9595],
    [0.9575, 0.9572, 0.4218, 0.6557],
])

WEIGHT_0_5 = np.array([
    [8.1684, 1.0, -0.1160, 0.3328],
    [1.0, 6.7495, 1.2264, 0.4473],
    [-0.1160, 1.2264, 7.4303, 0.2236],
    [0.3328, 0.4473, 0.2236, 8.0775],
])

WEIGHT_1_5 = np.array([
    [4.6211, 0.8971, 0.8392, 2.7045],
    [0.8971, 1.1161, 2.1934, 0.0274],
    [0.8392, 2.1934, 4.5295, -0.5815],
    [2.7045, 0.0274, -0.5815, 1.8457],
])

WEIGHT_1_2 = np.array([
    [-6.6469, 0.4166, 0.044, 0.2922],
    [0.4166, -8.2131, 0.1152, -0.3055],
    [0.044, 0.1152, -6.2339, -0.1434],
    [0.2922, -0.3055, -0.1434, -6.6147],
])

WEIGHT_4_5 = np.array([
    [-4.7176, -1.6485, 1.5246, -3.1114],
    [-1.6485, -6.7837, -1.3214, 0.9421],
    [1.5246, -1.3214, -6.4716, -2.6201],
    [-3.1114, 0.9421, -2.6201, -6.0166],
])

WEIGHT_2_4 = np.array([
    [4.8630, -0.9583, -1.0002, 0.6242],
    [-0.9583, 4.9516, 1.1961, -0.8268],
    [-1.0002, 1.1961, 6.5071, -2.4257],
    [0.6242, -0.8268, -2.4257, 6.4197],
])

WEIGHT_2_3 = np.array([
    [4.6843, -0.5024, 1.2292, 0.5247],
    [-0.5024, 6.2876, 0.5766, 0.0968],
    [1.2292, 0.5766, 5.2446, 0.0118],
    [0.5247, 0.0968, 0.0118, 6.2167],
])

WEIGHT_3_4 = np.array([
    [0.7899, 1.5860, -0.3137, -0.498],
    [1.5860, 3.2857, -1.0541, -1.5607],
    [-0.3137, -1.0541, 1.9019, 2.5477],
    [-0.4980, -1.5607, 2.5477, 3.4211],
])

#: Published spectral constants max_j mu(|A_ij|), agents 0..5.  Agents 0, 1
#: and 5 touch the repaired edge, whose largest eigenvalue (2.576) never
#: attains any of these maxima, so the repair leaves the table intact.
PUBLISHED_MU_BAR = (9.2047, 8.396, 9.7599, 6.7454, 9.7599, 9.3996)

REFERENCE_BIPARTITION = (frozenset({0, 1, 5}), frozenset({2, 3, 4}))

LEADERLESS_THETA = 0.5
LEADER_FOLLOWER_THETA = 1.0
REFERENCE_SIGMA = 0.9
REFERENCE_DELTA = 1.0
REFERENCE_BETA = 1.0
REFERENCE_CHI0 = 0.5
LEADERLESS_HORIZON = 20.0
LEADER_FOLLOWER_HORIZON = 30.0
REFERENCE_DT = 1e-3
REFERENCE_U0 = (0.2, 0.4, 0.6, 0.8)


def repaired_first_edge() -> np.ndarray:
    """Spectral absolute value of the symmetrized (0, 1) weight."""
    return linalg.spectral_abs(*linalg.sym_eigen(linalg.symmetric(RAW_EDGE_0_1)))


def reference_graph() -> MatrixWeightedGraph:
    """The six-agent reference network, with the repaired (0, 1) weight."""
    return MatrixWeightedGraph.from_edges(N_AGENTS, BLOCK_DIM, [
        (0, 1, repaired_first_edge(), "pd"),
        (0, 5, WEIGHT_0_5, "pd"),
        (1, 5, WEIGHT_1_5, "psd"),
        (1, 2, WEIGHT_1_2, "nd"),
        (4, 5, WEIGHT_4_5, "nsd"),
        (2, 4, WEIGHT_2_4, "pd"),
        (2, 3, WEIGHT_2_3, "pd"),
        (3, 4, WEIGHT_3_4, "psd"),
    ])


def reference_coupling() -> InputCoupling:
    """Two external inputs: agent 0 through the (3, 4) weight (semidefinite),
    agent 5 through the (0, 5) weight (definite)."""
    return InputCoupling.from_entries(
        [(0, 0, WEIGHT_3_4, "psd"), (5, 1, WEIGHT_0_5, "pd")], BLOCK_DIM)


def reference_params(theta: float) -> TriggerParams:
    return TriggerParams.uniform(
        N_AGENTS, sigma=REFERENCE_SIGMA, theta=theta, beta=REFERENCE_BETA,
        delta=REFERENCE_DELTA, chi0=REFERENCE_CHI0)


def leaderless_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        graph=reference_graph(),
        mode=Leaderless(),
        params=reference_params(LEADERLESS_THETA),
        dt=REFERENCE_DT, horizon=LEADERLESS_HORIZON, seed=seed)


def leader_follower_scenario(seed: int = 0) -> Scenario:
    return Scenario(
        graph=reference_graph(),
        mode=LeaderFollower(u0=np.array(REFERENCE_U0),
                            coupling=reference_coupling()),
        params=reference_params(LEADER_FOLLOWER_THETA),
        dt=REFERENCE_DT, horizon=LEADER_FOLLOWER_HORIZON, seed=seed)
