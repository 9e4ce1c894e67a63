"""Seeded benchmark inputs and the command line of one operation per workload.

Every workload is built from the benchmark seed alone; the package only sees
the generated scenarios (a builtin token with a seed, or a JSON file written
through ``scenario_io.dump_scenario``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mwconsensus import builtin, scenario_io, sim, trigger
from mwconsensus.mwgraph import MatrixWeightedGraph

REFERENCE_GAUGE = np.array(
    [1 if i in builtin.REFERENCE_BIPARTITION[0] else -1
     for i in range(builtin.N_AGENTS)])

_SMALL = np.random.default_rng(0).normal(size=(24, 24))
_ROWS = np.random.default_rng(1).normal(size=(400, 24))
_DENSE = np.random.default_rng(2).normal(size=(400, 400))
_DENSE = _DENSE + _DENSE.T


def step_loop_reference() -> None:
    """Fixed work in the mix of a small-network run: small numpy products,
    float formatting and plain Python arithmetic."""
    x = _ROWS[0]
    for _ in range(2000):
        x = _SMALL @ x
        x = x / np.abs(x).max()
    "\n".join(",".join(repr(float(v)) for v in row) for row in _ROWS)
    total = 0
    for i in range(200_000):
        total += i * i


def dense_reference() -> None:
    """Fixed work in the mix of a large-network run: a dense eigh."""
    np.linalg.eigh(_DENSE)


@dataclass
class Workload:
    """One workload: how to run an operation and what its output must show.

    ``argv`` is the ``mwconsensus`` command line of one operation, without
    ``--out``.  ``source`` rebuilds the scenario it runs, for the set-up
    measurement.  ``gauge`` holds the +-1 group signs of the (leaderless)
    network, whose gauge-signed state sum the dynamics conserve.  ``limits``
    bounds summary fields from above.

    ``reference`` does fixed work of the kind the operation does, and
    ``reference_s`` is its wall time on the baseline machine while that ran
    fast; the benchmark times it around each operation to scale the
    operation's time to that speed.
    """

    argv: list[str]
    source: Callable[[], sim.Scenario]
    gauge: np.ndarray
    reference: Callable[[], None]
    reference_s: float
    limits: dict[str, float] = field(default_factory=dict)


def random_balanced_scenario(seed: int, n: int, d: int = 4,
                             mean_degree: int = 4, horizon: float = 0.2,
                             dt: float = 1e-3) -> tuple[sim.Scenario, np.ndarray]:
    """Connected, structurally balanced graph with definite weights.

    A random spanning tree plus uniformly drawn extra edges up to the mean
    degree; edge signs follow a random gauge, so Assumption 1 holds.  Returns
    the leaderless scenario and the gauge.
    """
    rng = np.random.default_rng(seed)
    gauge = rng.choice([-1, 1], size=n)
    order = rng.permutation(n)
    pairs = set()
    for k in range(1, n):
        # Plain ints: graph_to_dict cannot JSON-serialise numpy integers.
        a, b = int(order[k]), int(order[rng.integers(0, k)])
        pairs.add((min(a, b), max(a, b)))
    target = max(n - 1, n * mean_degree // 2)
    while len(pairs) < target:
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    edges = []
    for a, b in sorted(pairs):
        m = rng.normal(size=(d, d))
        w = m @ m.T / d + 0.5 * np.eye(d)
        w = 0.5 * (w + w.T)
        sign = int(gauge[a] * gauge[b])
        edges.append((a, b, sign * w, "pd" if sign > 0 else "nd"))
    params = trigger.TriggerParams.uniform(
        n, sigma=builtin.REFERENCE_SIGMA, theta=builtin.LEADERLESS_THETA,
        beta=builtin.REFERENCE_BETA, delta=builtin.REFERENCE_DELTA,
        chi0=builtin.REFERENCE_CHI0)
    scenario = sim.Scenario(
        graph=MatrixWeightedGraph.from_edges(n, d, edges),
        mode=trigger.Leaderless(), params=params, dt=dt, horizon=horizon,
        seed=seed)
    return scenario, gauge


def build(name: str, seed: int, workdir: Path, toy: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` under ``workdir``.

    ``toy`` shrinks ``random-n500`` (n=20, short horizon) for the benchmark's
    own smoke test.
    """
    if name == "paper-leaderless":
        return Workload(
            ["replicate-paper", "leaderless", "--seed", str(seed)],
            lambda: builtin.leaderless_scenario(seed=seed), REFERENCE_GAUGE,
            step_loop_reference, 0.030, {"final_relative_error": 1e-3})
    if name == "random-n500":
        scenario, gauge = random_balanced_scenario(
            seed, n=20 if toy else 500, horizon=0.05 if toy else 0.2)
        path = workdir / "random.json"
        path.write_text(scenario_io.dump_scenario(scenario), encoding="utf-8")
        return Workload(["run", str(path)],
                        lambda: scenario_io.load_scenario_file(path)[0], gauge,
                        dense_reference, 0.0165)
    raise ValueError(f"unknown workload {name!r}")
