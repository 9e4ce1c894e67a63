"""Hybrid fixed-step simulation engine.

Both protocols run one trigger law with a compiled gain and a slack (see
:mod:`mwconsensus.trigger`).  The slack and the control ``qhat`` depend only
on the broadcasts, so the state holds them until the next broadcast and the
flow is exactly affine on each step: ``x(t + dt) = x(t) + dt * qhat``.  The
auxiliary variables are advanced with a classical 4-stage explicit
integration; inside a step the error is affine in time and the slack is
frozen, so the drive is a polynomial and the per-step error comes from the
decay ``-beta_i chi_i`` alone.  The update multiplies chi_i by the stability
function ``R(-beta_i dt)`` per step, which decays only while ``beta_i dt``
stays below :data:`CHI_STEP_LIMIT`; validation refuses larger steps.

Triggers are checked only at step boundaries and reported event times are
grid times.  The mechanisms guarantee strictly positive dwell times, so a
sufficiently small step (default 1e-3) resolves the event sequence; this is
a documented approximation, not a root-finding event detector.  When several
agents violate their thresholds at the same boundary, all broadcasts apply
atomically before the next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import mwgraph, trigger
from .errors import Diverged, InvalidScenario
from .linalg import sym_sqrt
from .mwgraph import MatrixWeightedGraph
from .trigger import LeaderFollower, Mode, TriggerParams

#: Abort when the state infinity-norm exceeds this.
DIVERGENCE_GUARD = 1e9

#: Relative tolerance on T being an integer multiple of dt.
STEP_GRID_RTOL = 1e-9

#: Largest beta_i * dt whose 4-stage chi update still decays.  Per step
#: the update multiplies chi_i by R(-z) = 1 - z + z^2/2 - z^3/6 + z^4/24 at
#: z = beta_i * dt, and R(-z) < 1 exactly while z is below the real root of
#: z^3 - 4 z^2 + 12 z - 24 = 0 (from R(-z) = 1, z > 0).
CHI_STEP_LIMIT = 2.785293563405282

#: More adjacent-step firings than this raise a dwell warning.
CONSECUTIVE_FIRE_WARN = 10

BASELINE_DYNAMIC = "dynamic"
BASELINE_STATIC = "static"


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete, runnable description of one simulation."""

    graph: MatrixWeightedGraph
    mode: Mode
    params: TriggerParams
    dt: float
    horizon: float
    x0: Optional[np.ndarray] = None
    seed: Optional[int] = 0
    baseline: str = BASELINE_DYNAMIC

    def __post_init__(self):
        if self.x0 is not None:
            arr = np.asarray(self.x0, dtype=float).reshape(-1).copy()
            arr.setflags(write=False)
            object.__setattr__(self, "x0", arr)

    def initial_state(self) -> np.ndarray:
        """Explicit x0 if given, otherwise seeded uniform draws from [-1, 1]."""
        if self.x0 is not None:
            return np.array(self.x0)
        rng = np.random.default_rng(0 if self.seed is None else self.seed)
        return rng.uniform(-1.0, 1.0, self.graph.n * self.graph.d)

    @property
    def step_count(self) -> int:
        return int(round(self.horizon / self.dt))

    @cached_property
    def network(self) -> MatrixWeightedGraph:
        """The coupling network, built once: the graph, extended by one node
        per input (``mwgraph.extended_graph``) in leader-follower mode."""
        if isinstance(self.mode, LeaderFollower):
            return mwgraph.extended_graph(self.graph, self.mode.coupling)
        return self.graph

    @cached_property
    def gains(self) -> np.ndarray:
        """Per-agent trigger gain ``K_i``, computed once: ``gamma_i`` on the
        network (leader-follower), else ``mu_bar_i * N_i``.  Isolated agents
        never accumulate error (their control is zero), so a zero gain keeps
        their leaderless trigger permanently silent."""
        g = self.graph
        if isinstance(self.mode, LeaderFollower):
            return np.array([trigger.gamma(i, self.network, g.n)
                             for i in range(g.n)])
        return np.array([trigger.mu_bar(i, g) * g.degree(i) if g.degree(i)
                         else 0.0 for i in range(g.n)])


def validate_scenario(sc: Scenario, assumptions: bool = True) -> list[str]:
    """Every reason the scenario may not run, as printable strings.

    ``assumptions=False`` skips the structural checks (used by the forced
    run path); the parameter and shape checks always apply.
    """
    out = []
    if not sc.dt > 0.0:
        out.append(f"dt must be positive, got {sc.dt}")
    if not 0.0 < sc.horizon < np.inf or (sc.dt > 0.0 and sc.dt > sc.horizon):
        out.append(f"horizon must satisfy 0 < dt <= T < inf, got dt={sc.dt} "
                   f"T={sc.horizon}")
    elif sc.dt > 0.0:
        steps, n, nd = sc.horizon / sc.dt, sc.graph.n, sc.graph.n * sc.graph.d
        # The record keeps states, broadcasts and controls (nd each), chi (n)
        # and the time at every grid point, all float64.
        need, have = (8.0 * (steps + 1.0) * (3 * nd + n + 1),
                      mwgraph.physical_memory())
        if not need < have:
            out.append(f"T/dt = {steps:.6g} steps need {need / 2**30:.3g} GiB "
                       f"of arrays, more than the {have / 2**30:.3g} GiB of "
                       "physical memory")
        elif not (abs(sc.step_count * sc.dt - sc.horizon)
                  <= STEP_GRID_RTOL * sc.horizon):
            # The grid ends at step_count * dt; the summary reports T.
            out.append(f"T={sc.horizon} is not an integer multiple of dt={sc.dt}")
    if sc.baseline not in (BASELINE_DYNAMIC, BASELINE_STATIC):
        out.append(f"unknown baseline {sc.baseline!r}")
    if sc.seed is not None and sc.seed < 0:
        out.append(f"seed must be non-negative, got {sc.seed}")
    if sc.params.n != sc.graph.n:
        out.append(f"params cover {sc.params.n} agents, graph has {sc.graph.n}")
    out.extend(str(v) for v in trigger.validate_params(sc.params))
    if 0.0 < sc.dt < np.inf:
        # Agents whose beta validate_params refuses already have their line.
        beta = sc.params.beta
        with np.errstate(over="ignore"):  # an overflowed product is refused
            z = beta * sc.dt
        out.extend(f"agent {i}: beta * dt = {z[i]:.6g} must be below "
                   f"{CHI_STEP_LIMIT:.6g}, where the 4-stage chi update "
                   "stops decaying"
                   for i in np.flatnonzero((0.0 < beta) & (beta < np.inf)
                                           & (z >= CHI_STEP_LIMIT)))
    if sc.x0 is not None and sc.x0.shape != (sc.graph.n * sc.graph.d,):
        out.append(f"x0 must have length n*d={sc.graph.n * sc.graph.d}, "
                   f"got {sc.x0.shape}")
    lf = isinstance(sc.mode, LeaderFollower)
    if lf and sc.mode.u0.shape != (sc.graph.d,):
        out.append(f"u0 must have length d={sc.graph.d}, got {sc.mode.u0.shape}")
    # A state beyond the guard could only end the run as a divergence (the
    # leader-follower state converges to +-u0), and squares of it overflow.
    for name, value in (("x0", sc.x0), ("u0", sc.mode.u0 if lf else None)):
        if value is not None and not np.all(np.abs(value) <= DIVERGENCE_GUARD):
            out.append(f"{name} has non-finite entries or entries beyond the "
                       f"divergence guard {DIVERGENCE_GUARD:g}")
    # Weights near the float maximum can overflow a gain to inf.
    out.extend(f"agent {i}: trigger gain {sc.gains[i]} is not finite (edge "
               "weights too large for float64)"
               for i in np.flatnonzero(~np.isfinite(sc.gains)))
    if not assumptions:
        return out
    report = mwgraph.verify_assumption1(sc.graph)
    if not report.holds:
        out.append(
            "assumption 1 fails: "
            + ("graph is structurally imbalanced" if sc.graph.signs is None else
               f"Laplacian nullity {report.nullity} != d={sc.graph.d} or kernel "
               "mismatch"))
    if lf and not mwgraph.verify_assumption2(sc.network, sc.graph.n):
        out.append("assumption 2 fails: extended graph imbalanced, coupled "
                   "inputs of opposite gauge sign, or total input grounding "
                   "not positive definite")
    return out


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Full grid-sampled history of one run.

    ``broadcasts`` holds the post-event value at every grid time, so the
    measurement error ``broadcasts - states`` is exactly zero at each agent's
    event instants.  ``controls[k]`` is the control applied on the segment
    ``[times[k], times[k+1])``; the final row repeats the terminal control.
    """

    times: np.ndarray
    states: np.ndarray
    broadcasts: np.ndarray
    chi: np.ndarray
    controls: np.ndarray
    events: tuple[np.ndarray, ...]
    scenario: Scenario
    limit_state: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return self.scenario.graph.n

    @property
    def d(self) -> int:
        return self.scenario.graph.d


@dataclass
class SimState:
    """Between-step state: time, states, broadcasts, thresholds, held terms."""

    t: float
    x: np.ndarray
    xhat: np.ndarray
    chi: np.ndarray
    q: np.ndarray
    slack: np.ndarray


class CompiledScenario:
    """Scenario with every per-step constant precomputed: the trigger gain
    and the arcs of the coupling.

    Both protocols share one edge-list coupling (Trinh et al., Automatica
    2018): ``qhat_i = -sum_j |A_ij| p_ij`` with ``p_ij = xhat_i - sgn(A_ij)
    xhat_j``, over the arcs that leave agent i.  In leader-follower mode the
    arcs run over the input-extended graph, so each input is one more
    neighbour whose state stays at ``u0``.  The test suite cross-checks the
    vectorized trigger quantities against independent per-agent oracles.
    """

    def __init__(self, sc: Scenario):
        g, network = sc.graph, sc.network
        self.scenario = sc
        self.n, self.d = g.n, g.d
        self.leader_follower = isinstance(sc.mode, LeaderFollower)
        self.static_baseline = sc.baseline == BASELINE_STATIC

        self.gain = sc.gains
        # Input nodes carry u0; the leaderless network has none.
        self.pinned = np.tile(sc.mode.u0, network.n - self.n) \
            if self.leader_follower else np.zeros(0)
        # Arcs leave agents only: an input node is pinned and has no flow.
        arcs = [(a, b, e) for e in network.edges
                for a, b in ((e.i, e.j), (e.j, e.i)) if a < self.n]
        d = self.d
        self.arc_src = np.array([a for a, _, _ in arcs], dtype=int)
        self.arc_dst = np.array([b for _, b, _ in arcs], dtype=int)
        self.arc_sign = np.array([float(e.sign) for _, _, e in arcs])
        self.arc_abs = np.array(
            [e.abs_weight for _, _, e in arcs]).reshape(-1, d, d)
        if not self.leader_follower:
            root = {e: sym_sqrt(*e.abs_eigen) for e in network.edges}
            self.arc_sqrt = np.array(
                [root[e] for _, _, e in arcs]).reshape(-1, d, d)
        # Flat state index of every coordinate an arc's flow lands on.
        self.arc_slots = (self.arc_src[:, None] * d + np.arange(d)).reshape(-1)

        p = sc.params
        self.sigma, self.theta, self.beta = p.sigma, p.theta, p.beta
        self.delta = np.zeros_like(p.delta) if self.static_baseline else p.delta
        self.chi0 = p.chi0

    def _relative(self, xhat: np.ndarray) -> np.ndarray:
        """``p_ij`` per arc; input nodes carry their pinned state."""
        nodes = np.concatenate((xhat, self.pinned)).reshape(-1, self.d)
        # take(axis=0) gathers rows several times faster than nodes[idx].
        return (nodes.take(self.arc_src, axis=0)
                - self.arc_sign[:, None] * nodes.take(self.arc_dst, axis=0))

    def control(self, xhat: np.ndarray) -> np.ndarray:
        flow = np.einsum("eij,ej->ei", self.arc_abs, self._relative(xhat))
        return -np.bincount(self.arc_slots, weights=flow.reshape(-1),
                            minlength=self.n * self.d)

    def disagreement_terms(self, xhat: np.ndarray) -> np.ndarray:
        """Per-agent sum of ||sqrt(|A_ij|) p_ij||^2 (leaderless trigger only)."""
        rp = np.einsum("eij,ej->ei", self.arc_sqrt, self._relative(xhat))
        return np.bincount(self.arc_src, weights=np.einsum("ei,ei->e", rp, rp),
                           minlength=self.n)

    def held_terms(self, xhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Control and trigger slack under the broadcasts ``xhat``; both hold
        until the next broadcast."""
        q = self.control(xhat)
        if self.leader_follower:
            blocks = q.reshape(self.n, self.d)
            return q, self.sigma * np.einsum("ij,ij->i", blocks, blocks)
        return q, self.sigma / 4.0 * self.disagreement_terms(xhat)


def compile_scenario(sc: Scenario) -> CompiledScenario:
    return CompiledScenario(sc)


def initial_sim_state(compiled: CompiledScenario,
                      x0: Optional[np.ndarray] = None) -> SimState:
    sc = compiled.scenario
    x = sc.initial_state() if x0 is None else np.array(x0, dtype=float)
    # Every agent broadcasts at t = 0, so the error starts at exactly zero.
    return SimState(0.0, x, x.copy(), np.array(compiled.chi0),
                    *compiled.held_terms(x))


def step(state: SimState, dt: float,
         compiled: CompiledScenario) -> tuple[SimState, np.ndarray]:
    """Advance one step and apply any triggered broadcasts.

    Order of operations: (a) exact affine state update under the held
    control, checked against the divergence guard before anything else is
    computed from it; (b) 4-stage explicit update of the auxiliary variables
    along the segment; (c) threshold evaluation at the segment end with the
    advanced values; (d) atomic rebroadcast for every agent that fired, which
    renews the held terms.  Returns the post-broadcast state and the fired
    agents.
    """
    n, d = compiled.n, compiled.d
    x_next = state.x + dt * state.q
    if not np.all(np.isfinite(x_next)) or np.max(np.abs(x_next)) > DIVERGENCE_GUARD:
        raise Diverged(
            f"state norm exceeded {DIVERGENCE_GUARD:g} at t={state.t + dt:g}")

    e0 = (state.xhat - state.x).reshape(n, d)
    q_blocks = state.q.reshape(n, d)

    def drive(s: float) -> np.ndarray:
        shifted = e0 - s * q_blocks
        e_sq = np.einsum("ij,ij->i", shifted, shifted)
        return compiled.delta * (state.slack - compiled.gain * e_sq)

    g0 = drive(0.0)
    gh = drive(dt / 2.0)
    g1 = drive(dt)
    beta = compiled.beta
    chi = state.chi
    k1 = -beta * chi + g0
    k2 = -beta * (chi + dt / 2.0 * k1) + gh
    k3 = -beta * (chi + dt / 2.0 * k2) + gh
    k4 = -beta * (chi + dt * k3) + g1
    chi_next = chi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    e_end = (state.xhat - x_next).reshape(n, d)
    e_sq_end = np.einsum("ij,ij->i", e_end, e_end)
    lhs = compiled.theta * (compiled.gain * e_sq_end - state.slack)
    threshold = np.zeros(n) if compiled.static_baseline else chi_next
    fired = np.flatnonzero(lhs > threshold)

    xhat, q, slack = state.xhat, state.q, state.slack
    if fired.size:
        xhat = xhat.copy()
        xhat.reshape(n, d)[fired] = x_next.reshape(n, d)[fired]
        q, slack = compiled.held_terms(xhat)
    return SimState(state.t + dt, x_next, xhat, chi_next, q, slack), fired


def run(sc: Scenario, *, check_assumptions: bool = True) -> TrajectoryRecord:
    """Validate, simulate over [0, horizon], and record everything.

    Raises :class:`InvalidScenario` with the full violation list before
    touching the integrator, and :class:`Diverged` (carrying the partial
    record) if the divergence guard trips.
    """
    violations = validate_scenario(sc, assumptions=check_assumptions)
    if violations:
        raise InvalidScenario(violations)

    compiled = compile_scenario(sc)
    n, d = compiled.n, compiled.d
    steps = sc.step_count
    times = np.arange(steps + 1) * sc.dt

    states = np.empty((steps + 1, n * d))
    broadcasts = np.empty_like(states)
    chi = np.empty((steps + 1, n))
    controls = np.empty_like(states)
    events: list[list[float]] = [[0.0] for _ in range(n)]

    state = initial_sim_state(compiled)
    states[0] = state.x
    broadcasts[0] = state.xhat
    chi[0] = state.chi

    limit_state = _limit_state(sc)

    def finish(upto: int) -> TrajectoryRecord:
        ev = tuple(np.array(e) for e in events)
        return TrajectoryRecord(
            times=times[:upto + 1], states=states[:upto + 1],
            broadcasts=broadcasts[:upto + 1], chi=chi[:upto + 1],
            controls=controls[:upto + 1], events=ev, scenario=sc,
            limit_state=limit_state)

    for k in range(steps):
        controls[k] = state.q
        try:
            state, fired = step(state, sc.dt, compiled)
        except Diverged as exc:
            controls[k + 1:] = 0.0
            raise Diverged(str(exc), partial_record=finish(k)) from None
        states[k + 1] = state.x
        broadcasts[k + 1] = state.xhat
        chi[k + 1] = state.chi
        for i in fired:
            events[i].append(float(times[k + 1]))
    controls[steps] = state.q
    return finish(steps)


def _limit_state(sc: Scenario) -> Optional[np.ndarray]:
    """Predicted asymptotic state: gauge-signed mean (leaderless) or
    copies of the input signed by each agent's leader gauge
    (leader-follower)."""
    if not mwgraph.verify_assumption1(sc.graph).holds:
        return None
    if isinstance(sc.mode, LeaderFollower):
        gauge = mwgraph.leader_gauge(sc.network, sc.graph.n)
        return None if gauge is None else np.kron(gauge, sc.mode.u0)
    return mwgraph.predicted_bipartite_limit(sc.graph, sc.initial_state())


def chi_floor_check(record: TrajectoryRecord) -> np.ndarray:
    """Minimum over the grid of chi_i(t) - chi_i(0) exp(-(beta_i + delta_i /
    theta_i) t), per agent.  Values at or above the (negated) integration
    tolerance certify the guaranteed positive lower envelope."""
    p = record.scenario.params
    rate = p.beta + p.delta / p.theta
    floor = p.chi0[None, :] * np.exp(-np.outer(record.times, rate))
    return (record.chi - floor).min(axis=0)


@dataclass(frozen=True)
class DwellStats:
    min_dwell: np.ndarray
    max_consecutive: np.ndarray
    warnings: tuple[str, ...]


def min_inter_event_from(events, dt: float, horizon: float) -> DwellStats:
    n = len(events)
    min_dwell = np.empty(n)
    max_consec = np.zeros(n, dtype=int)
    warnings = []
    for i, ev in enumerate(events):
        ev = np.asarray(ev, dtype=float)
        if len(ev) < 2:
            # No dwell constraint binds with a single event; report the horizon.
            min_dwell[i] = horizon
            max_consec[i] = min(len(ev), 1)
            continue
        diffs = np.diff(ev)
        min_dwell[i] = float(diffs.min())
        steps = np.rint(diffs / dt).astype(int)
        streak = best = 1
        for s in steps:
            streak = streak + 1 if s == 1 else 1
            best = max(best, streak)
        max_consec[i] = best
        if best > CONSECUTIVE_FIRE_WARN:
            warnings.append(
                f"agent {i} fired on {best} consecutive steps "
                f"(threshold {CONSECUTIVE_FIRE_WARN})")
    return DwellStats(min_dwell, max_consec, tuple(warnings))


def min_inter_event(record: TrajectoryRecord) -> DwellStats:
    """Per-agent minimum inter-event time, plus adjacent-step firing streaks."""
    return min_inter_event_from(record.events, record.scenario.dt,
                                record.scenario.horizon)
