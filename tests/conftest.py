"""Shared fixtures: the bundled reference network, some tiny graphs, the
benchmark's workload builders, and the leader-follower probe on its random
graph, whose document the CI run dumps."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mwconsensus import builtin, linalg
from mwconsensus.mwgraph import InputCoupling, MatrixWeightedGraph
from mwconsensus.trigger import LeaderFollower, TriggerParams


@pytest.fixture(scope="session")
def ref_graph():
    return builtin.reference_graph()


@pytest.fixture(scope="session")
def ref_coupling():
    return builtin.reference_coupling()


@pytest.fixture(scope="session")
def ref_leaderless_record():
    """One leaderless replication run, shared by the slower test modules."""
    from mwconsensus import sim
    return sim.run(builtin.leaderless_scenario(seed=0))


@pytest.fixture(scope="session")
def ref_lf_record():
    from mwconsensus import sim
    return sim.run(builtin.leader_follower_scenario(seed=0))


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the matrices passed to every eigendecomposition the package
    runs (all of them go through ``mwconsensus.linalg``)."""
    shapes = []
    eigh = linalg.np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "eigh", counting)
    return shapes


def two_node_graph(weight, d=None, declared=None):
    w = np.asarray(weight, dtype=float)
    d = d if d is not None else w.shape[0]
    spec = (0, 1, w) if declared is None else (0, 1, w, declared)
    return MatrixWeightedGraph.from_edges(2, d, [spec])


@pytest.fixture
def pd_pair():
    """Two nodes joined by a 2x2 positive definite weight."""
    return two_node_graph([[2.0, 0.3], [0.3, 1.0]])


def random_balanced_scalar_graph(rng, n, extra_edge_prob=0.4):
    """Connected signed scalar graph that is structurally balanced by
    construction: edge signs follow a random gauge."""
    gauge = rng.choice([-1.0, 1.0], size=n)
    edges = {}
    order = rng.permutation(n)
    for idx in range(1, n):
        i = int(order[idx])
        j = int(order[int(rng.integers(0, idx))])
        a, b = min(i, j), max(i, j)
        mag = float(rng.uniform(0.5, 2.5))
        edges[(a, b)] = gauge[a] * gauge[b] * mag
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.uniform() < extra_edge_prob:
                mag = float(rng.uniform(0.5, 2.5))
                edges[(a, b)] = gauge[a] * gauge[b] * mag
    return edges, gauge


def perfbench_workloads():
    """The benchmark's seeded workload builders, ``perfbench/workloads.py``
    (a script directory, not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def pinned_probe_scenario(n, horizon):
    """Leader-follower on the benchmark's random balanced graph (seed 1,
    d = 4): ``max(1, n // 100)`` agents drawn with ``default_rng(5)`` see one
    input through ``m m^T / 4 + 0.5 I`` signed by their gauge sign, so
    Assumption 2 holds; ``u0 = 1`` and the bundled leader-follower
    parameters."""
    leaderless, gauge = perfbench_workloads().random_balanced_scenario(
        1, n, horizon=horizon)
    d = leaderless.graph.d
    rng = np.random.default_rng(5)
    entries = []
    for i in rng.choice(n, size=max(1, n // 100), replace=False):
        m = rng.normal(size=(d, d))
        entries.append((int(i), 0, gauge[i] * (m @ m.T / 4 + 0.5 * np.eye(d))))
    params = TriggerParams.uniform(
        n, sigma=builtin.REFERENCE_SIGMA, theta=builtin.LEADER_FOLLOWER_THETA,
        beta=builtin.REFERENCE_BETA, delta=builtin.REFERENCE_DELTA,
        chi0=builtin.REFERENCE_CHI0)
    mode = LeaderFollower(u0=np.ones(d),
                          coupling=InputCoupling.from_entries(entries, d))
    return dataclasses.replace(leaderless, mode=mode, params=params)
