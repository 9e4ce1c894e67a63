"""Post-run analytics, and the one place where the run summary is derived.

:func:`event_stats` builds the :class:`RunSummary` that ``summary.json``
holds: run settings, final and predicted limit states, consensus error and
decay rate, event counts, inter-event times, chi floor margins and warnings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import mwgraph, sim
from .sim import TrajectoryRecord
from .trigger import LeaderFollower

#: The decay fit ignores grid points once V drops below this fraction of V(0),
#: where the remaining signal is numerical noise.
FIT_FLOOR_RATIO = 1e-10


@dataclass(frozen=True)
class RunSummary:
    """Digest of a run; its fields are exactly the keys of ``summary.json``.

    The error and decay fields are measured against the predicted limit
    state; they are ``None`` for a record without one (a forced run whose
    structural assumptions fail).
    """

    mode: str
    n: int
    d: int
    dt: float
    T: float
    seed: Optional[int]
    baseline: str
    final_state: tuple[float, ...]
    limit_state: Optional[tuple[float, ...]]
    final_bipartite_error: Optional[float]
    final_relative_error: Optional[float]
    fitted_decay_rate: Optional[float]
    event_counts: tuple[int, ...]
    min_dwell: tuple[float, ...]
    max_consecutive: tuple[int, ...]
    chi_floor_margins: tuple[float, ...]
    warnings: tuple[str, ...]

    def as_dict(self) -> dict:
        """JSON-ready form: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


def bipartite_error(record: TrajectoryRecord, xtilde: np.ndarray) -> np.ndarray:
    """Euclidean distance of the stacked state from the predicted limit,
    at every grid point."""
    diff = record.states - np.asarray(xtilde, dtype=float)[None, :]
    return np.linalg.norm(diff, axis=1)


def lyapunov_leaderless(record: TrajectoryRecord,
                        xtilde: np.ndarray) -> np.ndarray:
    """V(t) = 0.5 * ||x - xtilde||^2 + sum_i chi_i."""
    diff = record.states - np.asarray(xtilde, dtype=float)[None, :]
    return 0.5 * np.einsum("ij,ij->i", diff, diff) + record.chi.sum(axis=1)


def lyapunov_lf(record: TrajectoryRecord, xtilde: np.ndarray,
                grounded_laplacian) -> np.ndarray:
    """V(t) = xi^T L_B xi + sum_i chi_i with xi = x - xtilde, where xtilde
    holds the gauge-signed input copies (the record's limit state)."""
    lb = np.asarray(grounded_laplacian)
    xi = record.states - np.asarray(xtilde, dtype=float)[None, :]
    return np.einsum("ij,jk,ik->i", xi, lb, xi) + record.chi.sum(axis=1)


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values); returned as a positive rate.

    Points below ``FIT_FLOOR_RATIO * values[0]`` (and nonpositive points) are
    excluded.  Returns nan when fewer than two usable points remain.
    """
    values = np.asarray(values, dtype=float)
    keep = values > max(FIT_FLOOR_RATIO * values[0], 0.0)
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(times[keep], np.log(values[keep]), 1)[0]
    return float(-slope)


def event_stats(record: TrajectoryRecord) -> RunSummary:
    """Aggregate a (complete or partial) record into a :class:`RunSummary`.

    A record without a predicted limit state (its scenario's assumptions
    fail) gets ``None`` for the error and decay fields, which are defined
    relative to the limit.
    """
    sc = record.scenario
    lf = isinstance(sc.mode, LeaderFollower)
    xtilde = record.limit_state
    final_err = rel_err = decay = None
    if xtilde is not None:
        final_err = float(bipartite_error(record, xtilde)[-1])
        rel_err = final_err / max(1.0, float(np.linalg.norm(xtilde)))
        if lf:
            grounded = mwgraph.build_grounded_laplacian(sc.graph, sc.mode.coupling)
            v = lyapunov_lf(record, xtilde, grounded.entries)
        else:
            v = lyapunov_leaderless(record, xtilde)
        decay = fit_decay_rate(record.times, v)
    dwell = sim.min_inter_event(record)
    warnings = dwell.warnings
    if np.min(record.chi) <= 0.0:
        warnings = ("auxiliary variable dropped to a nonpositive value",
                    *warnings)
    return RunSummary(
        mode="leader-follower" if lf else "leaderless",
        n=record.n,
        d=record.d,
        dt=sc.dt,
        T=sc.horizon,
        seed=sc.seed,
        baseline=sc.baseline,
        final_state=tuple(record.states[-1].tolist()),
        limit_state=None if xtilde is None else tuple(xtilde.tolist()),
        final_bipartite_error=final_err,
        final_relative_error=rel_err,
        fitted_decay_rate=decay,
        event_counts=tuple(len(e) for e in record.events),
        min_dwell=tuple(dwell.min_dwell.tolist()),
        max_consecutive=tuple(dwell.max_consecutive.tolist()),
        chi_floor_margins=tuple(sim.chi_floor_check(record).tolist()),
        warnings=warnings,
    )
