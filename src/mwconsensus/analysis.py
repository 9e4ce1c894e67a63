"""Post-run analytics, and the one place where the run summary is derived.

:func:`event_stats` builds the :class:`RunSummary` that ``summary.json``
holds: run settings, final and predicted limit states, consensus error and
decay rate, event counts, inter-event times, chi floor margins and warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import sim
from .sim import TrajectoryRecord
from .trigger import LeaderFollower

#: The decay fit ignores grid points once V drops below this fraction of V(0),
#: where the remaining signal is numerical noise.
FIT_FLOOR_RATIO = 1e-10


@dataclass(frozen=True)
class RunSummary:
    """Digest of a run; its fields are exactly the keys of ``summary.json``.
    ``diverged`` is true for a record cut short by divergence.

    The error and decay fields are measured against the predicted limit
    state; they are ``None`` for a record without one (a forced run whose
    structural assumptions fail), the decay rate also where it has no fit.
    """

    mode: str
    n: int
    d: int
    dt: float
    T: float
    seed: Optional[int]
    baseline: str
    diverged: bool
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
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values}


def lyapunov_leaderless(xtilde: np.ndarray, states: np.ndarray,
                        chi: np.ndarray) -> np.ndarray:
    """V(t) = 0.5 * ||x - xtilde||^2 + sum_i chi_i on the grid rows
    ``states``, ``chi``."""
    diff = states - np.asarray(xtilde, dtype=float)[None, :]
    return 0.5 * np.einsum("ij,ij->i", diff, diff) + chi.sum(axis=1)


def lyapunov_lf(record: TrajectoryRecord, xtilde: np.ndarray,
                states: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """V(t) = xi^T L_B xi + sum_i chi_i with xi = x - xtilde on the grid
    rows ``states``, ``chi`` of ``record``, where xtilde holds the
    gauge-signed input copies (the record's limit state).  L_B is the
    agents' block of the network's Laplacian, so the form is the sum of
    ``p_e^T |A_e| p_e``, ``p_e = xi_i - sgn(A_e) xi_j``, over its edges,
    with every input j >= n held at xi = 0: the compiled scenario's
    ``pair_form`` of xi, one column per row.  Each row's value depends on
    that row alone, not on the rows read with it or the record's length."""
    sc = record.scenario
    n, d, rows = record.n, record.d, len(states)
    nodes = np.zeros((sc.network.n, d, rows))
    np.subtract(states.T.reshape(n, d, rows),
                np.asarray(xtilde, dtype=float).reshape(n, d, 1),
                out=nodes[:n])
    return sc.compiled.pair_form(nodes) + chi.sum(axis=1)


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Least-squares slope of log(values); returned as a positive rate.

    Points below ``FIT_FLOOR_RATIO * values[0]`` (and nonpositive points) are
    excluded.  Returns ``None`` (JSON ``null``, never NaN) when fewer than
    two usable points remain or the rate is not finite.  The slope is from
    sums over the times, centred and in units of their span (no underflow).
    """
    values = np.asarray(values, dtype=float)
    keep = values > max(FIT_FLOOR_RATIO * values[0], 0.0)
    if keep.sum() < 2:
        return None
    t = times[keep]
    span = float(t[-1] - t[0])
    t = (t - t.mean()) / span
    y = np.log(values[keep])
    y -= y.mean()
    # Python floats: a quotient past the float range is inf, not a warning.
    rate = -float(np.sum(t * y)) / float(np.sum(t * t)) / span
    return rate if np.isfinite(rate) else None


def event_stats(record: TrajectoryRecord) -> RunSummary:
    """Aggregate a (complete or partial) record into a :class:`RunSummary`.

    A record without a predicted limit state (its scenario's assumptions
    fail) gets ``None`` for the error and decay fields, which are defined
    relative to the limit.  A partial record reports the dwell it observed:
    an agent with a single event gets the record's last grid time, not T.
    """
    sc = record.scenario
    diverged = record.rows <= sc.step_count
    lf = isinstance(sc.mode, LeaderFollower)
    xtilde = record.limit_state
    # One pass over the rebuilt rows: V, the chi floor margins, the least
    # chi, and the last row, the final state.
    v = None if xtilde is None else np.empty(record.rows)
    margins, chi_min = np.inf, np.inf
    for lo, states, chi, _ in record.blocks():
        if v is not None:
            with np.errstate(over="ignore"):  # V past float64 is inf
                v[lo:lo + len(chi)] = (
                    lyapunov_lf(record, xtilde, states, chi) if lf
                    else lyapunov_leaderless(xtilde, states, chi))
        margins = np.minimum(margins, sim.chi_floor_check(
            sc.params, record.times[lo:lo + len(chi)], chi))
        chi_min = np.minimum(chi_min, chi.min())
    final = states[-1]
    final_err = rel_err = decay = None
    if xtilde is not None:
        # np.sum's pairwise order, not np.linalg.norm's kernel-bound BLAS dot.
        diff = final - xtilde
        final_err = float(np.sqrt(np.sum(diff * diff)))
        rel_err = final_err / max(1.0, float(np.sqrt(np.sum(xtilde * xtilde))))
        decay = fit_decay_rate(record.times, v)
    dwell = sim.min_inter_event_from(
        record.events, sc.dt,
        float(record.times[-1]) if diverged else sc.horizon)
    warnings = dwell.warnings
    if chi_min <= 0.0:
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
        diverged=diverged,
        final_state=tuple(final.tolist()),
        limit_state=None if xtilde is None else tuple(xtilde.tolist()),
        final_bipartite_error=final_err,
        final_relative_error=rel_err,
        fitted_decay_rate=decay,
        event_counts=tuple(len(e) for e in record.events),
        min_dwell=tuple(dwell.min_dwell.tolist()),
        max_consecutive=tuple(dwell.max_consecutive.tolist()),
        chi_floor_margins=tuple(margins.tolist()),
        warnings=warnings,
    )
