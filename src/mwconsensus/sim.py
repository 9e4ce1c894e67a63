"""Hybrid fixed-step simulation engine.

Both protocols run one trigger law with a compiled gain and a slack (see
:mod:`mwconsensus.trigger`).  The slack and the control ``qhat`` depend only
on the broadcasts, so the state holds them until the next broadcast and the
flow is exactly affine between broadcasts: ``x(t_a + tau) = x(t_a) + tau *
qhat`` from the last one at ``t_a``.

Between broadcasts each error is affine in time, ``e_i = e0_i - tau q_i``,
so each agent's trigger excess ``g = K |e|^2 - S`` is a quadratic
``c0 + c1 s + c2 s^2`` in the ``s = tau / dt`` grid steps since the last
broadcast (the anchor).  The agent fires when ``theta g > chi``, and the
auxiliary variable obeys ``chi' = -beta chi - delta g``, whose exact solution,

    chi(tau) = e^z chi_s - delta tau (phi1(z) c0 + s phi2(z) c1
                                      + 2 s^2 phi3(z) c2),    z = -beta tau,

with the exponential-integrator functions ``phi_k`` (Hochbruck & Ostermann,
Acta Numerica 2010), is evaluated from the anchor, so no step limit applies
and every value is independent of how the grid is split.  Its factors
``e^z``, ``delta tau`` and ``phi_1..phi_3`` depend on the offset ``s`` alone,
so each scenario builds them once per offset
(:meth:`CompiledScenario.chi_factors`) into a table of at most a quarter of
:data:`WINDOW_VALUES` float64 values; windows past it build their own rows.

:func:`step` advances a window of grid steps and stops at the first step
at which an agent fires.  Its states, like chi, are the closed form from
the anchor, ``x_anchor + s (dt qhat)``, so every row depends on its anchor
alone, whatever the window, and rounding does not build up from step to
step.  It evaluates only the rows it uses: the window's last row for the
divergence guard and the row at which agents fire.  The record keeps no
states either: it rebuilds any grid row from x0 and the held controls
(:meth:`TrajectoryRecord.blocks`), by the same closed form.  Triggers are
checked only at step boundaries and reported event times are grid times.
The mechanisms guarantee strictly positive dwell times, so a sufficiently
small step (default 1e-3) resolves the event sequence; this is a documented
approximation, not a root-finding event detector.  When several agents
violate their thresholds at the same boundary, all broadcasts apply
atomically before the next step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import mwgraph, trigger
from .edges import float_array
from .errors import Diverged, GraphFormatError, InvalidScenario, MwcError
from .linalg import sym_sqrt
from .mwgraph import MatrixWeightedGraph
from .trigger import LeaderFollower, Mode, TriggerParams

#: Abort when the state infinity-norm exceeds this.
DIVERGENCE_GUARD = 1e9

#: Relative tolerance on T being an integer multiple of dt.
STEP_GRID_RTOL = 1e-9

#: Float64 values in one window's (rows x n*d) temporaries.  A window holds
#: at most max(1, WINDOW_VALUES // (n*d)) rows, so its scratch arrays stay
#: a few MiB at most next to the record.
WINDOW_VALUES = 1 << 16

#: Below this |z|, phi_1..phi_3 come from the series of phi_3; above it
#: from expm1, whose downward recurrence loses about 6 eps / z^2 in phi_3.
PHI_SERIES_CUT = 0.05

#: 1/(m+3)! for m = 7..0: the first eight terms of phi_3's series, highest
#: first for Horner's rule.  The next term is below 1e-17 of phi_3 at the cut.
_PHI3_SERIES = tuple(1.0 / math.factorial(m + 3) for m in range(7, -1, -1))

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
        if isinstance(self.mode, LeaderFollower):
            agents = self.mode.coupling.table.ends[:, 0]
            inside = ((agents >= 0) & (agents < self.graph.n)).astype(bool)
            bad = np.flatnonzero(~inside)
            if bad.size:
                raise GraphFormatError(
                    f"coupling agent {agents[bad[0]]} out of range")
        if self.x0 is not None:
            object.__setattr__(self, "x0",
                               float_array(self.x0, "x0").reshape(-1))

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
        network (leader-follower), else ``mu_bar_i * N_i``, which is 0 * 0
        for an isolated agent; its control is zero, so it never fires."""
        g = self.graph
        if isinstance(self.mode, LeaderFollower):
            return trigger.gamma(self.network, g.n)
        with np.errstate(over="ignore"):  # validation refuses an inf gain
            return trigger.mu_bar(g) * g.degrees

    @cached_property
    def compiled(self) -> "CompiledScenario":
        """The scenario's per-step constants, compiled once."""
        return CompiledScenario(self)


def validate_scenario(sc: Scenario, assumptions: bool = True) -> list[str]:
    """Every reason the scenario may not run, as printable strings.

    ``assumptions=False`` skips the structural checks (used by the forced
    run path); the parameter and shape checks always apply.  Of the record
    only ``chi`` and the times are sized here: :func:`run` sizes each
    anchor's changes as it keeps them, and may refuse one mid-run.
    """
    out = []
    if not sc.dt > 0.0:
        out.append(f"dt must be positive, got {sc.dt}")
    if not 0.0 < sc.horizon < np.inf or (sc.dt > 0.0 and sc.dt > sc.horizon):
        out.append(f"horizon must satisfy 0 < dt <= T < inf, got dt={sc.dt} "
                   f"T={sc.horizon}")
    elif sc.dt > 0.0:
        steps = sc.horizon / sc.dt
        # 8 bytes each for the time and chi (n) of every grid point.
        refusal = mwgraph.memory_refusal(
            8.0 * (steps + 1.0) * (sc.graph.n + 1),
            f"T/dt = {steps:.6g} steps", "of arrays")
        if refusal:
            out.append(refusal)
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
    out.extend(trigger.validate_params(sc.params))
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
               f"Laplacian nullity {report.nullity} != d={sc.graph.d}"))
    if lf and not mwgraph.verify_assumption2(sc.network, sc.graph.n):
        out.append("assumption 2 fails: extended graph imbalanced, coupled "
                   "inputs of opposite gauge sign, or total input grounding "
                   "not positive definite")
    return out


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Grid-sampled history of one run: ``chi`` per grid row, and the held
    broadcasts and control as changes, once per *anchor* (row 0 and every
    row at which some agent fired).  Anchor ``a`` is grid row
    ``anchors[a]``; its changes are the entries
    ``change_offsets[a]:change_offsets[a + 1]`` of ``change_cols`` (flat
    state columns, ascending), ``change_xhat`` and ``change_q``: every
    column at anchor 0, later the columns whose held ``xhat`` or ``q``
    differs in bits from the anchor before.  A column's held pair at anchor
    ``a`` is its latest change at or before ``a``, and holds from grid row
    ``anchors[a]`` up to the next anchor; the error ``xhat - x`` is exactly
    zero at each agent's event instants.

    The states are not kept: :meth:`blocks` rebuilds them from x0 (anchor
    0's held ``xhat``) and the held controls, bit for bit as :func:`step`
    computed them, and hands each range the held pairs that take effect in
    it, so its readers never walk the anchors themselves.  ``chi`` stays
    dense, since rebuilding it takes more values per anchor than a row
    holds when nearly every row is an anchor.  :func:`run` keeps the
    anchors as they happen, and refuses mid-run one that would not fit.
    """

    chi: np.ndarray
    anchors: np.ndarray
    change_offsets: np.ndarray
    change_cols: np.ndarray
    change_xhat: np.ndarray
    change_q: np.ndarray
    events: tuple[np.ndarray, ...]
    scenario: Scenario

    @property
    def n(self) -> int:
        return self.scenario.graph.n

    @property
    def d(self) -> int:
        return self.scenario.graph.d

    @property
    def rows(self) -> int:
        """Grid rows recorded: ``step_count + 1``, fewer for a partial run."""
        return len(self.chi)

    @cached_property
    def times(self) -> np.ndarray:
        """Grid time of every row, derived: ``k * dt``."""
        return np.arange(self.rows) * self.scenario.dt

    @cached_property
    def limit_state(self) -> Optional[np.ndarray]:
        """Predicted asymptotic state, derived on first read: gauge-signed
        mean of x0, row 0 (leaderless), or copies of the input signed by
        each agent's leader gauge (leader-follower).  x0 is anchor 0's held
        ``xhat``, which holds every column, in order."""
        sc = self.scenario
        if not mwgraph.verify_assumption1(sc.graph).holds:
            return None
        if isinstance(sc.mode, LeaderFollower):
            gauge = mwgraph.leader_gauge(sc.network, sc.graph.n)
            return None if gauge is None else np.kron(gauge, sc.mode.u0)
        return mwgraph.predicted_bipartite_limit(
            sc.graph, self.change_xhat[:self.n * self.d])

    def blocks(self, start: int = 0, stop: Optional[int] = None):
        """Grid rows ``start .. stop - 1`` (every row by default), as
        consecutive ranges of at most a quarter of :data:`WINDOW_VALUES`
        state values, so that a range, the one before it that its reader
        may still hold and what the summary forms from them stay within a
        window's values.  Yields ``(lo, states, chi, held)`` per range: its
        first row, its states, rebuilt into a new array, its view of
        ``chi``, and the held pairs that take effect in it, as ``(row,
        cols, xhat, q)`` in row order.  The first range's ``held`` starts
        with every column's pair at ``start``; after it come the anchors
        past ``start``, each with the columns it changed.  A range outside
        ``0 <= start <= stop <= rows`` raises :class:`MwcError`.

        This is the one place that reads the anchors and their changes.
        Row 0 is x0, anchor 0's held ``xhat``.  A row ``k`` after anchor
        ``a``'s row ``k_a``, up to and including the next anchor's row, is
        ``x_a + (k - k_a) (dt q_a)`` (:func:`_affine_rows`, as :func:`step`
        evaluates it), where ``x_a`` is the row of anchor ``a``; row ``k_a``
        is ``x_a`` itself, not its closed form at zero steps, so an anchor's
        -0.0 keeps its sign.  A range that starts past row 0 first replays
        the anchors up to ``start``, one closed form each, and writes each
        one's changes over the held pairs of anchor 0: the pairs at
        ``start``."""
        stop = self.rows if stop is None else stop
        if not 0 <= start <= stop <= self.rows:
            raise MwcError(f"rows {start}..{stop} are not a range of the "
                           f"record's {self.rows} rows")
        nd, dt = self.n * self.d, self.scenario.dt
        per = max(1, WINDOW_VALUES // (4 * nd))
        # Each anchor's row, then one no row reaches.
        at = [*self.anchors.tolist(), math.inf]
        offsets = self.change_offsets.tolist()
        cols, held_xhat, held_q = \
            self.change_cols, self.change_xhat, self.change_q
        x, dq, a = held_xhat[:nd], dt * held_q[:nd], 0
        xhat, q = held_xhat[:nd].copy(), held_q[:nd].copy()

        def advance() -> slice:
            """Move ``x`` and ``dq`` on to the next anchor; its changes."""
            nonlocal x, a
            x = _affine_rows(x, dq, float(at[a + 1] - at[a]))
            a += 1
            span = slice(offsets[a], offsets[a + 1])
            dq[cols[span]] = dt * held_q[span]
            return span

        while at[a + 1] <= start:
            span = advance()
            xhat[cols[span]], q[cols[span]] = held_xhat[span], held_q[span]
        held = [(start, np.arange(nd), xhat, q)]
        for lo in range(start, stop, per):
            hi = min(stop, lo + per)
            states = np.empty((hi - lo, nd))
            row = lo
            while row < hi:
                while at[a + 1] <= row:
                    span = advance()
                    held.append((at[a], cols[span], held_xhat[span],
                                 held_q[span]))
                top = min(hi, at[a + 1])
                _affine_rows(x, dq, np.arange(row - at[a], top - at[a],
                                              dtype=float)[:, None],
                             states[row - lo:top - lo])
                if row == at[a]:
                    states[row - lo] = x
                row = top
            yield lo, states, self.chi[lo:hi], held
            held = []


@dataclass
class SimState:
    """State at grid index ``k``: broadcasts, the held control ``q`` and its
    step ``dq = dt q``, and the anchor (grid index ``anchor`` of the last
    broadcast, with the state ``x_anchor`` and the threshold ``chi_anchor``
    there and the coefficients ``excess`` = (c0, c1, c2) of each agent's
    trigger excess in grid steps since it).  ``x_anchor`` is the closed form
    of the step at which the agents fired, or the compiled ``x0`` at t = 0:
    the record keeps no rows."""

    k: int
    xhat: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    anchor: int
    x_anchor: np.ndarray
    chi_anchor: np.ndarray
    excess: np.ndarray


class CompiledScenario:
    """Scenario with every per-step constant precomputed: the step ``dt``,
    the initial state ``x0``, the trigger gain and the arcs of the
    coupling.  Built once per scenario (``Scenario.compiled``), and holds
    no reference to it, so a dropped scenario is freed at once.

    Both protocols share one edge-list coupling (Trinh et al., Automatica
    2018): ``qhat_i = -sum_j |A_ij| p_ij`` with ``p_ij = xhat_i - sgn(A_ij)
    xhat_j``, over the arcs that leave agent i.  In leader-follower mode the
    arcs run over the input-extended graph, so each input is one more
    neighbour whose state stays at ``u0``.  The same ``p_ij`` and
    ``|A_ij| p_ij`` give the edge form ``sum_e p_e^T |A_e| p_e`` of the
    network's Laplacian (:meth:`pair_form`), which ``analysis.lyapunov_lf``
    reads.  The arc layout is known to this class alone.
    """

    def __init__(self, sc: Scenario):
        g, network = sc.graph, sc.network
        self.n, self.d, self.dt = g.n, g.d, sc.dt
        self.x0 = sc.initial_state()
        self.leader_follower = isinstance(sc.mode, LeaderFollower)
        self.static_baseline = sc.baseline == BASELINE_STATIC

        self.gain = sc.gains
        # Input nodes carry u0; the leaderless network has none.
        self.pinned = np.tile(sc.mode.u0, network.n - self.n) \
            if self.leader_follower else np.zeros(0)
        # Each edge's arcs i -> j and j -> i, in edge order, gathered from
        # the edge table; arcs leave agents only: an input node is pinned
        # and has no flow.
        d, table = self.d, network.table
        src, dst = table.ends.reshape(-1), table.ends[:, ::-1].reshape(-1)
        keep = src < self.n
        arc_edge = np.repeat(np.arange(len(table)), 2)[keep]
        self.arc_src, self.arc_dst = src[keep], dst[keep]
        self.arc_sign = table.sign.astype(float)[arc_edge]
        self.arc_abs = table.abs_weight[arc_edge]
        if not self.leader_follower:
            self.arc_sqrt = sym_sqrt(*table.abs_eigen)[arc_edge]
        # Flat state index of every coordinate an arc's flow lands on.
        self.arc_slots = (self.arc_src[:, None] * d + np.arange(d)).reshape(-1)

        p = sc.params
        self.sigma, self.theta, self.beta = p.sigma, p.theta, p.beta
        self.delta = np.zeros_like(p.delta) if self.static_baseline else p.delta
        self.chi0 = p.chi0
        # chi_factors' table of rows from offset 0: none until a step asks.
        self._chi_table = [np.empty((0, 1))]

    def chi_factors(self, lo: int, hi: int) -> list[np.ndarray]:
        """The factors of chi's closed form at the offsets ``s = lo .. hi -
        1`` grid steps since the anchor, one row per offset: ``s`` (a
        column), ``e^z``, ``delta tau``, ``phi_1(z)``, ``phi_2(z)`` and ``2 s
        phi_3(z)`` per agent, for ``tau = s dt`` and ``z = -beta tau``.

        They depend on the offset alone, so the rows from offset 0 are kept
        in a table that doubles as windows reach further offsets, up to a
        quarter of :data:`WINDOW_VALUES` float64 values in all; a window
        past that gets rows built for it alone, by the same formula.  Each
        value depends on its own offset and agent alone, so a row has the
        same bits from the table as built for one window."""
        table = self._chi_table
        if hi > len(table[0]):
            # Rows in the cap: a row holds s and five values per agent.
            cap = WINDOW_VALUES // 4 // (5 * self.n + 1)
            rows = min(cap, max(hi, 2 * len(table[0])))
            first, last = (0, rows) if hi <= rows else (lo, hi)
            s = np.arange(float(first), float(last))[:, None]
            tau = s * self.dt
            z = tau * -self.beta
            phi1, phi2, phi3 = _phi(z)
            table = [s, np.exp(z), self.delta * tau, phi1, phi2,
                     2.0 * s * phi3]
            if hi > rows:
                return table
            self._chi_table = table
        return [f[lo:hi] for f in table]

    def _relative(self, nodes: np.ndarray, arcs=slice(None)) -> np.ndarray:
        """``p_ij`` of the arcs ``arcs`` (all by default) from the states of
        all nodes, ``(N, d)`` or a stack of k broadcasts ``(N, d, k)``."""
        sign = self.arc_sign[arcs].reshape((-1,) + (1,) * (nodes.ndim - 1))
        # take() gathers rows several times faster than fancy indexing.
        return (nodes.take(self.arc_src[arcs], axis=0)
                - sign * nodes.take(self.arc_dst[arcs], axis=0))

    def _flow(self, rel: np.ndarray, arcs=slice(None)) -> np.ndarray:
        """``|A_ij| p_ij`` of the arcs ``arcs``, given their ``p_ij``."""
        return np.einsum("eij,ej...->ei...", self.arc_abs[arcs], rel)

    def control(self, rel: np.ndarray) -> np.ndarray:
        return -np.bincount(self.arc_slots, weights=self._flow(rel).reshape(-1),
                            minlength=self.n * self.d)

    def disagreement_terms(self, rel: np.ndarray) -> np.ndarray:
        """Per-agent sum of ||sqrt(|A_ij|) p_ij||^2 (leaderless trigger only)."""
        rp = np.einsum("eij,ej->ei", self.arc_sqrt, rel)
        return np.bincount(self.arc_src, weights=np.einsum("ei,ei->e", rp, rp),
                           minlength=self.n)

    def held_terms(self, xhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Control and trigger slack under the broadcasts ``xhat``, both read
        from one ``p_ij`` per arc; they hold until the next broadcast."""
        nodes = np.concatenate((xhat, self.pinned)).reshape(-1, self.d)
        rel = self._relative(nodes)
        q = self.control(rel)
        if self.leader_follower:
            blocks = q.reshape(self.n, self.d)
            return q, self.sigma * np.einsum("ij,ij->i", blocks, blocks)
        return q, self.sigma / 4.0 * self.disagreement_terms(rel)

    def pair_form(self, nodes: np.ndarray) -> np.ndarray:
        """``sum_e p_e^T |A_e| p_e`` over the edges of the network, for each
        of the k columns of the node states ``nodes`` ``(N, d, k)``.

        Each edge is read from its arc with ``src < dst`` (an agent-agent
        edge's two arcs have bitwise-equal terms), n arcs over all k
        columns at a time, so a block's ``p`` holds as many values as the k
        columns' agent states.  The blocks depend on the network alone, so
        a column's sum has the same bits however many columns come with
        it."""
        k = nodes.shape[-1]
        # numpy's einsum sums one or two columns in another order than three
        # or more, so fewer are padded with zero columns.
        if k < 3:
            nodes = np.concatenate(
                (nodes, np.zeros(nodes.shape[:-1] + (3 - k,))), axis=-1)
        once = np.flatnonzero(self.arc_src < self.arc_dst)
        v = np.zeros(nodes.shape[-1])
        for lo in range(0, len(once), self.n):
            arcs = once[lo:lo + self.n]
            rel = self._relative(nodes, arcs)
            v += np.einsum("ei...,ei...->...", self._flow(rel, arcs), rel)
        return v[:k]


def compile_scenario(sc: Scenario) -> CompiledScenario:
    """The scenario's :class:`CompiledScenario` (``Scenario.compiled``)."""
    return sc.compiled


def _anchored(compiled: CompiledScenario, k: int, x: np.ndarray,
              xhat: np.ndarray, chi: np.ndarray) -> SimState:
    """State just after the broadcasts ``xhat`` at grid index ``k``: the held
    control, and the trigger excess ``gain |e0 - s dt q|^2 - slack`` as a
    polynomial in the number ``s`` of grid steps since ``k``.  In step units
    a coefficient stays finite whenever one step's error does."""
    n, d = compiled.n, compiled.d
    q, slack = compiled.held_terms(xhat)
    dq = compiled.dt * q
    e0, dqb = (xhat - x).reshape(n, d), dq.reshape(n, d)
    # For huge weights the gain times a square may still exceed float64.
    with np.errstate(over="ignore"):
        excess = np.array([
            compiled.gain * np.einsum("ij,ij->i", e0, e0) - slack,
            -2.0 * compiled.gain * np.einsum("ij,ij->i", e0, dqb),
            compiled.gain * np.einsum("ij,ij->i", dqb, dqb)])
    return SimState(k, xhat, q, dq, k, x, chi, excess)


def initial_sim_state(compiled: CompiledScenario) -> SimState:
    x = compiled.x0
    # Every agent broadcasts at t = 0, so the error starts at exactly zero.
    return _anchored(compiled, 0, x, x.copy(), np.array(compiled.chi0))


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_1, phi_2, phi_3 at z < 0, elementwise: phi_k(z) = sum_m z^m /
    (m + k)!, so phi_1 = (e^z - 1) / z and phi_{k+1} = (phi_k - 1/k!) / z.

    Where |z| < PHI_SERIES_CUT that recurrence cancels, so phi_3 is summed
    from its series and phi_2, phi_1 follow upward, which is stable.  Every
    value depends on its own z alone."""
    small = z > -PHI_SERIES_CUT
    if small.all():
        return _phi_series(z)
    if not small.any():
        return _phi_expm1(z)
    series = _phi_series(z)
    # The expm1 branch never sees a small z, so it never divides by zero.
    rec = _phi_expm1(np.where(small, -1.0, z))
    return tuple(np.where(small, s, r) for s, r in zip(series, rec))


def _phi_series(z):
    phi3 = np.full_like(z, _PHI3_SERIES[0])
    for c in _PHI3_SERIES[1:]:
        phi3 *= z
        phi3 += c
    phi2 = z * phi3 + 0.5
    return z * phi2 + 1.0, phi2, phi3


def _phi_expm1(z):
    phi1 = np.expm1(z) / z
    phi2 = (phi1 - 1.0) / z
    return phi1, phi2, (phi2 - 0.5) / z


def _affine_rows(x_anchor: np.ndarray, dq: np.ndarray, s,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x_anchor + s dq``, into ``out`` if given, for ``s`` grid steps
    since the anchor (a column of them for rows): the one rule by which
    :func:`step` evaluates states and :meth:`TrajectoryRecord.blocks`
    rebuilds them."""
    out = np.multiply(s, dq, out=out)
    out += x_anchor
    return out


def step(state: SimState, compiled: CompiledScenario, chi: np.ndarray
         ) -> tuple[SimState, np.ndarray]:
    """Advance a window of grid steps under the held terms, up to the first
    step at which an agent fires, and apply its broadcasts.

    ``chi`` holds record rows ``k + 1 .. k + w``, for ``k = state.k`` and
    a window of ``w >= 1`` steps; the rows up to the step the window ends
    at are filled, later ones are left unspecified.  Every value is the
    closed form in the ``s`` grid steps since the anchor: (a) the exact
    affine state ``state.x_anchor + s state.dq``, checked against the
    divergence guard (a window ends before the first step that fails the
    guard; :class:`Diverged` is raised when that is its first step); (b)
    the threshold and (c) the trigger test at the step's end, both from the
    excess polynomial ``state.excess``, the threshold with the factors of
    its offsets from :meth:`CompiledScenario.chi_factors` (rows of a table
    of at most a quarter of :data:`WINDOW_VALUES` values, or built for the
    window past it).  At the first step where an agent
    fires, (d) every agent that fired rebroadcasts atomically, which renews
    the held terms and the anchor.  A window of one step is one grid step.
    Returns the state where the window ended and the agents that fired
    there.

    ``state.x_anchor`` must be within the guard, as x0 (validated) and
    every fired row are.  The guard then reads the window's last row alone:
    each column of ``fl(x + fl(s dq))`` is monotone in ``s`` (rounding to
    nearest is), so the steps within the guard are a prefix of the window.
    Only a window whose last row fails evaluates its rows, to find the
    first that fails; otherwise the fired row is the one row evaluated.
    """
    n, d = compiled.n, compiled.d
    w = len(chi)
    offset = state.k - state.anchor
    factors = compiled.chi_factors(offset + 1, offset + w + 1)
    s, dq = factors[0], state.dq
    # Rows past a divergence may overflow; they are cut before any use.
    with np.errstate(over="ignore", invalid="ignore"):
        # False for inf and nan too.
        if not np.abs(_affine_rows(state.x_anchor, dq, s[-1])).max() \
                <= DIVERGENCE_GUARD:
            peak = np.abs(_affine_rows(state.x_anchor, dq, s)).max(axis=1)
            w = int(np.argmin(peak <= DIVERGENCE_GUARD))
            if w == 0:
                raise Diverged(f"state norm exceeded {DIVERGENCE_GUARD:g} "
                               f"at t={(state.k + 1) * compiled.dt:g}")
            chi, factors = chi[:w], [f[:w] for f in factors]

    s, ez, dtau, phi1, phi2, phi3s = factors
    c0, c1, c2 = state.excess
    lhs = compiled.theta * (c0 + s * (c1 + s * c2))
    chi[:] = ez * state.chi_anchor - dtau * (
        phi1 * c0 + s * (phi2 * c1 + phi3s * c2))
    hits = lhs > (0.0 if compiled.static_baseline else chi)
    fire_rows = np.flatnonzero(hits.any(axis=1))
    if not fire_rows.size:
        return replace(state, k=state.k + w), fire_rows
    j = int(fire_rows[0])
    fired = np.flatnonzero(hits[j])
    x = _affine_rows(state.x_anchor, dq, s[j])
    xhat = state.xhat.copy()
    xhat.reshape(n, d)[fired] = x.reshape(n, d)[fired]
    return _anchored(compiled, state.k + j + 1, x, xhat, chi[j].copy()), fired


def run(sc: Scenario, *, check_assumptions: bool = True) -> TrajectoryRecord:
    """Validate, simulate over [0, horizon], and record everything.

    Raises :class:`InvalidScenario` with the full violation list before
    touching the integrator, or mid-run with one line if the record with
    its next anchor would not fit in physical memory, and :class:`Diverged`
    (carrying the partial record) if the divergence guard trips.

    Each window is twice as wide as the time since the last broadcast (one
    step at the start), capped by :data:`WINDOW_VALUES`; no value depends
    on the width.
    """
    violations = validate_scenario(sc, assumptions=check_assumptions)
    if violations:
        raise InvalidScenario(violations)

    compiled = compile_scenario(sc)
    n, d = compiled.n, compiled.d
    steps = sc.step_count
    max_rows = max(1, WINDOW_VALUES // (n * d))

    chi = np.empty((steps + 1, n))
    grid_bytes = chi.nbytes + 8.0 * len(chi)  # with the times, as validated
    anchors, offsets = array("q"), array("q", [0])
    change_cols, change_xhat, change_q = array("q"), array("d"), array("d")
    events: list[list[float]] = [[0.0] for _ in range(n)]

    def hold(state: SimState, changed: np.ndarray) -> None:
        """Record ``state``'s broadcast as the next anchor: its grid row and
        the held pair of the ``changed`` columns, if the record fits with
        them, each buffer counted twice, as it may move when it grows."""
        c = np.flatnonzero(changed)
        size = len(change_cols) + len(c)
        # len(offsets) anchor rows and one more offset, 3 values per change.
        refusal = mwgraph.memory_refusal(
            grid_bytes + 16.0 * (2 * len(offsets) + 1 + 3 * size),
            f"{len(offsets)} anchors with {size} changes at "
            f"t={state.k * sc.dt:g}", "of record arrays")
        if refusal:
            raise InvalidScenario([refusal])
        anchors.append(state.k)
        change_cols.frombytes(c.tobytes())
        change_xhat.frombytes(state.xhat[c].tobytes())
        change_q.frombytes(state.q[c].tobytes())
        offsets.append(len(change_cols))

    state = initial_sim_state(compiled)
    chi[0] = compiled.chi0
    hold(state, np.ones(n * d, dtype=bool))

    def finish(upto: int) -> TrajectoryRecord:
        # Views of the buffers, typed by their typecodes: no copy.
        return TrajectoryRecord(
            chi=chi[:upto + 1], anchors=np.asarray(anchors),
            change_offsets=np.asarray(offsets),
            change_cols=np.asarray(change_cols),
            change_xhat=np.asarray(change_xhat), change_q=np.asarray(change_q),
            events=tuple(np.array(e) for e in events), scenario=sc)

    k, width = 0, 1
    while k < steps:
        end = k + min(width, steps - k, max_rows)
        try:
            nxt, fired = step(state, compiled, chi[k + 1:end + 1])
        except Diverged as exc:
            raise Diverged(str(exc), partial_record=finish(k)) from None
        if fired.size:
            # Bits, not floats: 0.0 == -0.0, but their texts differ.
            hold(nxt, (nxt.xhat.view(np.int64) != state.xhat.view(np.int64))
                 | (nxt.q.view(np.int64) != state.q.view(np.int64)))
        for i in fired:
            events[i].append(nxt.k * sc.dt)
        width = 2 * (nxt.k - state.anchor)
        state, k = nxt, nxt.k
    return finish(steps)


def chi_floor_check(params: TriggerParams, times: np.ndarray,
                    chi: np.ndarray) -> np.ndarray:
    """Minimum over the grid rows ``chi`` at ``times`` of chi_i(t) -
    chi_i(0) exp(-(beta_i + delta_i / theta_i) t), per agent, in one
    temporary of the rows' shape; rows taken a block at a time give the
    same minimum.  Values at or above the (negated) integration tolerance
    certify the guaranteed positive lower envelope."""
    rate = params.beta + params.delta / params.theta
    gap = np.multiply.outer(times, rate)
    np.negative(gap, out=gap)
    np.exp(gap, out=gap)
    gap *= params.chi0
    np.subtract(chi, gap, out=gap)
    return gap.min(axis=0)


@dataclass(frozen=True)
class DwellStats:
    min_dwell: np.ndarray
    max_consecutive: np.ndarray
    warnings: tuple[str, ...]


def min_inter_event_from(events, dt: float, horizon: float) -> DwellStats:
    """Per-agent minimum inter-event time, plus adjacent-step firing streaks."""
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
