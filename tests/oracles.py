"""Independent reference implementations used to cross-check the library.

The balance search and the scalar consensus run are written against plain
Python floats, lists and dicts on purpose: they must not share code paths
(or bugs) with the package.

The CSV writers format every value of every row in one pass: the plain
form of the package's writer, which formats only what changed and splits
the rows over processes.  The trajectory writer reads the held broadcasts
and controls through ``held_rows``, which expands the record's anchor rows
to one row per grid point.  The record stores, per anchor, only the held
columns that changed; ``held_anchors`` applies those changes one anchor at
a time to rebuild a dense row per anchor, and ``with_held`` stores dense
per-anchor rows in a record the way ``sim.run`` does.  The record keeps no
states; every test reads them through ``grid_states``, which joins the
blocks of the record's one reader.

The per-agent trigger formulas below evaluate one agent at a time from the
graph's neighbour lookups and the rows of its edge table, with small numpy
products.  The engine (``sim.CompiledScenario`` and ``sim.step``) evaluates
the same formulas vectorized over all agents from the edge arrays, so the
two paths share the graph model but none of the trigger arithmetic.  They
read one agent's parameters as an ``AgentParams`` of Python floats
(``agent_params``); the package keeps only the per-agent arrays.

``assumption1_dense`` decides Assumption 1 the direct way, from the
spectrum of the full nd x nd Laplacian, against which the package's verdict
on the graph's definite quotient is checked.

``mu_bar``, ``gamma`` and ``gains`` are the per-agent trigger gains the
package computed before it read them from the graph's edge table for all
agents at once: a ``max`` and left-to-right sums over each agent's
``neighbors(i)``, read one ``edge(i, j)`` row at a time.
``validate_params`` is the per-agent parameter check that masks over all
agents replaced.

``chi_floor_margins`` is the chi floor check formed from dense ``(rows,
n)`` arrays, which the package forms a block of rows at a time.
``dwell_certificate`` checks Zeno-freeness on a record: the least dwell
that the trigger law certifies for each inter-event interval, against the
one observed.

``four_stage_run`` is the step-at-a-time loop with the classical 4-stage
update of the thresholds, against which the engine's windows and its
closed-form thresholds are checked.

``load_edge`` is the per-edge loader the package had before it loaded a
graph's weights as one stack: it checks, decomposes, projects and
classifies one weight at a time, so ``load_edges`` refuses the first faulty
spec in the order the specs come.  It builds one ``LoadedEdge`` per spec;
the batched loader must build the same rows bit for bit, and refuse with
the same line.  ``matrix_sgn`` is the sign of a class by cases, against
which the package's one table of class signs is checked, and
``matrix_abs`` is the per-matrix |M| of a sign-definite matrix from its
class, which the package computes for a whole stack from the signs.
``json_floats_walk`` is the item-by-item type walk of a weight array that
the reader's level-wise check replaced.

``json_entries`` is the document reader's per-entry check of an edge array,
which its column checks replaced: it yields each entry's spec in turn and
refuses the first faulty entry when it reaches it.  ``read_graph`` reads a
graph section through it and ``load_edges``, in the order the package
loaded a section when its loader pulled specs from that generator: the
specs before the first refused entry, their memory check, their values,
then the entry's refusal.  ``definite_quotient`` merges the components of
the definite edges with a union-find, one edge at a time, against which the
package's array passes are checked.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from mwconsensus import linalg, sim
from mwconsensus.errors import GraphFormatError, MwcError, UnsupportedWeight
from mwconsensus.edges import EdgeTable, float_array
from mwconsensus.linalg import ND, NSD, PD, PSD, ZERO, DefinitenessClass
from mwconsensus.mwgraph import CLASS_DECLARATION_TOL, SYMMETRY_REJECT_TOL, \
    TOO_LARGE, InputCoupling, MatrixWeightedGraph, _CLASS_NAMES, \
    _weights_refusal, kernel_mask
from mwconsensus.scenario_io import _json_value, _json_weight, _section
from mwconsensus.trigger import LeaderFollower


class AgentParams(NamedTuple):
    """Trigger parameters of a single agent, as Python floats."""

    sigma: float
    theta: float
    beta: float
    delta: float
    chi0: float


def agent_params(params, i: int) -> AgentParams:
    """Agent ``i``'s row of the per-agent arrays of ``TriggerParams``."""
    return AgentParams(float(params.sigma[i]), float(params.theta[i]),
                       float(params.beta[i]), float(params.delta[i]),
                       float(params.chi0[i]))


def matrix_sgn(cls: DefinitenessClass) -> int:
    """Scalar sign attached to a definiteness class: +1, -1 or 0."""
    if cls in (PD, PSD):
        return 1
    if cls in (ND, NSD):
        return -1
    if cls is ZERO:
        return 0
    raise UnsupportedWeight("sign is undefined for indefinite matrices")


def matrix_abs(m, cls: DefinitenessClass) -> np.ndarray:
    """Absolute value of a sign-definite matrix: M itself if nonnegative
    definite, -M if nonpositive definite.  Indefinite input is rejected."""
    if cls in (PD, PSD, ZERO):
        return linalg.symmetric(m)
    if cls in (ND, NSD):
        return linalg.symmetric(-np.asarray(m, dtype=float))
    raise UnsupportedWeight("absolute value is undefined for indefinite matrices")


def edge_rows(table) -> list[tuple]:
    """Each row of an edge table as ``(i, j, weight, cls)``, with the ends
    as Python ints."""
    return [(i, j, w, c) for (i, j), w, c
            in zip(table.ends.tolist(), table.weight, table.cls)]


class NotNeighbors(MwcError):
    """Requested a relative quantity for a pair of agents that share no edge."""


def brute_force_balance(n, signed_edges):
    """Exhaustively search sign assignments certifying structural balance.

    ``signed_edges`` is a list of (i, j, sign) with sign in {+1, -1}.
    Returns a tuple (group_plus, group_minus) of sorted node lists, or None.
    The first node of each connected component is pinned to +1, matching the
    deterministic convention of the detector under test.
    """
    adj = {i: [] for i in range(n)}
    for i, j, s in signed_edges:
        adj[i].append(j)
        adj[j].append(i)
    comps = []
    seen = set()
    for root in range(n):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))

    assignment = {}
    for comp in comps:
        comp_edges = [(i, j, s) for (i, j, s) in signed_edges
                      if i in comp and j in comp]
        free = comp[1:]
        found = None
        for bits in itertools.product((1, -1), repeat=len(free)):
            cand = {comp[0]: 1}
            cand.update(dict(zip(free, bits)))
            if all(cand[i] * cand[j] == s for (i, j, s) in comp_edges):
                found = cand
                break
        if found is None:
            return None
        assignment.update(found)
    plus = sorted(i for i in range(n) if assignment[i] == 1)
    minus = sorted(i for i in range(n) if assignment[i] == -1)
    return plus, minus


def check_gauge_identity(g: MatrixWeightedGraph, signs) -> bool:
    """True iff signs[i] * signs[j] * A_ij equals |A_ij| entrywise on every
    edge, i.e. the gauge transformation makes every weight nonnegative."""
    for i, j, w, cls in edge_rows(g.table):
        gauged = (signs[i] * signs[j]) * w
        absw = matrix_abs(w, cls)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(absw))))
        if np.max(np.abs(gauged - absw)) > tol:
            return False
    return True


def scalar_consensus_run(n, edges, x0, sigma, theta, beta, delta, chi0,
                         dt, horizon):
    """Reference event-triggered consensus on a scalar-weighted signed graph.

    ``edges`` maps (i, j) with i < j to a signed scalar weight.  Returns
    (trajectory, chi_trajectory, events): trajectory[k][i] is agent i's state
    at time k*dt, chi_trajectory[k][i] its threshold variable, events[i] the
    list of firing times (every agent broadcasts at t = 0).

    The step structure mirrors the block engine contract: exact affine state
    update under held broadcasts, classical 4-stage threshold integration,
    boundary-only strict trigger checks, atomic rebroadcast.
    """
    neighbors = {i: [] for i in range(n)}
    for (i, j), a in edges.items():
        neighbors[i].append(j)
        neighbors[j].append(i)

    def weight(i, j):
        return edges[(i, j)] if (i, j) in edges else edges[(j, i)]

    mu = {i: max((abs(weight(i, j)) for j in neighbors[i]), default=0.0)
          for i in range(n)}

    x = list(map(float, x0))
    xhat = list(x)
    chi = [float(chi0)] * n
    steps = int(round(horizon / dt))
    traj = [list(x)]
    chi_traj = [list(chi)]
    events = [[0.0] for _ in range(n)]

    for k in range(steps):
        q = []
        disagreement = []
        for i in range(n):
            qi = 0.0
            si = 0.0
            for j in neighbors[i]:
                a = weight(i, j)
                sgn = 1.0 if a > 0 else -1.0
                p = xhat[i] - sgn * xhat[j]
                qi -= abs(a) * p
                si += abs(a) * p * p
            q.append(qi)
            disagreement.append(si)

        new_chi = []
        for i in range(n):
            e0 = xhat[i] - x[i]

            def rate(c, s):
                e = e0 - s * q[i]
                drive = sigma / 4.0 * disagreement[i] \
                    - mu[i] * len(neighbors[i]) * e * e
                return -beta * c + delta * drive

            c = chi[i]
            k1 = rate(c, 0.0)
            k2 = rate(c + dt / 2.0 * k1, dt / 2.0)
            k3 = rate(c + dt / 2.0 * k2, dt / 2.0)
            k4 = rate(c + dt * k3, dt)
            new_chi.append(c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        chi = new_chi

        x = [x[i] + dt * q[i] for i in range(n)]
        t = (k + 1) * dt

        fired = []
        for i in range(n):
            e = xhat[i] - x[i]
            lhs = theta * (mu[i] * len(neighbors[i]) * e * e
                           - sigma / 4.0 * disagreement[i])
            if lhs > chi[i]:
                fired.append(i)
        for i in fired:
            xhat[i] = x[i]
            events[i].append(t)

        traj.append(list(x))
        chi_traj.append(list(chi))

    return traj, chi_traj, events


def four_stage_run(sc):
    """Step-at-a-time reference of ``sim.run`` (no validation, no
    divergence guard): per grid step, the exact affine state from the last
    broadcast, ``x_a + (k + 1 - a) (dt q)``, the classical 4-stage update of
    the thresholds along the step, the trigger test at its end and the
    atomic rebroadcast.  Returns (states, broadcasts, chi, controls, events)
    in the layout of the record."""
    compiled = sim.compile_scenario(sc)
    n, d, dt = compiled.n, compiled.d, sc.dt
    beta = compiled.beta
    x = sc.initial_state()
    xhat = x.copy()
    chi = np.array(compiled.chi0)
    q, slack = compiled.held_terms(xhat)
    states, broadcasts, chis, controls = [x], [xhat], [chi], []
    events = [[0.0] for _ in range(n)]
    a, x_a = 0, x
    for k in range(sc.step_count):
        controls.append(q)
        x_next = (k + 1 - a) * (dt * q) + x_a
        e0 = (xhat - x).reshape(n, d)
        q_blocks = q.reshape(n, d)

        def drive(s):
            shifted = e0 - s * q_blocks
            e_sq = np.einsum("ij,ij->i", shifted, shifted)
            return compiled.delta * (slack - compiled.gain * e_sq)

        g0, gh, g1 = drive(0.0), drive(dt / 2.0), drive(dt)
        k1 = -beta * chi + g0
        k2 = -beta * (chi + dt / 2.0 * k1) + gh
        k3 = -beta * (chi + dt / 2.0 * k2) + gh
        k4 = -beta * (chi + dt * k3) + g1
        chi = chi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        e_end = (xhat - x_next).reshape(n, d)
        lhs = compiled.theta * (compiled.gain
                                * np.einsum("ij,ij->i", e_end, e_end) - slack)
        threshold = np.zeros(n) if compiled.static_baseline else chi
        fired = np.flatnonzero(lhs > threshold)
        if fired.size:
            xhat = xhat.copy()
            xhat.reshape(n, d)[fired] = x_next.reshape(n, d)[fired]
            q, slack = compiled.held_terms(xhat)
            a, x_a = k + 1, x_next
            for i in fired:
                events[i].append((k + 1) * dt)
        x = x_next
        states.append(x)
        broadcasts.append(xhat)
        chis.append(chi)
    controls.append(q)
    return (np.array(states), np.array(broadcasts), np.array(chis),
            np.array(controls), [np.array(e) for e in events])


def held_anchors(record) -> tuple[np.ndarray, np.ndarray]:
    """The record's held broadcasts and controls, one dense row per anchor:
    the row before it with the anchor's changes written over it."""
    nd = record.n * record.d
    xhat = np.full((len(record.anchors), nd), np.nan)
    q = np.full_like(xhat, np.nan)
    row_h, row_q = xhat[0].copy(), q[0].copy()
    offsets = record.change_offsets.tolist()
    for a, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        for c, h, v in zip(record.change_cols[lo:hi].tolist(),
                           record.change_xhat[lo:hi].tolist(),
                           record.change_q[lo:hi].tolist()):
            row_h[c], row_q[c] = h, v
        xhat[a], q[a] = row_h, row_q
    return xhat, q


def with_held(record, anchors, held_xhat, held_q):
    """``record`` with the anchors ``anchors`` and the dense held rows
    ``held_xhat``/``held_q`` (one per anchor) stored as ``sim.run`` stores
    them: every column at the first anchor, then the columns whose held
    ``xhat`` or ``q`` differs in bits from the anchor before."""
    bits_h = np.asarray(held_xhat, dtype=float).view(np.int64)
    bits_q = np.asarray(held_q, dtype=float).view(np.int64)
    changed = np.ones(bits_h.shape, dtype=bool)
    changed[1:] = (bits_h[1:] != bits_h[:-1]) | (bits_q[1:] != bits_q[:-1])
    return dataclasses.replace(
        record, anchors=np.asarray(anchors, dtype=np.int64),
        change_offsets=np.concatenate(([0], np.cumsum(changed.sum(axis=1)))),
        change_cols=np.nonzero(changed)[1],
        change_xhat=np.asarray(held_xhat)[changed],
        change_q=np.asarray(held_q)[changed])


def held_rows(record) -> tuple[np.ndarray, np.ndarray]:
    """The record's held broadcasts and controls, one row per grid point:
    each anchor's dense row (``held_anchors``) repeated up to the next
    anchor."""
    counts = np.diff(np.append(record.anchors, len(record.times)))
    return tuple(np.repeat(held, counts, axis=0)
                 for held in held_anchors(record))


def grid_states(record) -> np.ndarray:
    """The record's states, one row per grid point, ``(rows, n * d)``: the
    blocks of its reader (``record.blocks``), joined."""
    return np.concatenate([states for _, states, _, _ in record.blocks()])


def write_trajectory_csv(record, path) -> None:
    """Reference ``trajectory.csv`` writer: every value of every grid row is
    formatted with ``repr``, with no text kept from the row above.  The
    package's writer formats a held ``xhat``/``qhat`` pair only when it
    changes, and must produce these bytes."""
    n, d = record.n, record.d
    labels = [f",{i},{c}," for i in range(n) for c in range(d)]
    broadcasts, controls = held_rows(record)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,agent,dim,x,xhat,qhat\n")
        for t, xs, hs, qs in zip(record.times, grid_states(record),
                                 broadcasts, controls):
            ts = repr(float(t))
            row_x, row_h, row_q = xs.tolist(), hs.tolist(), qs.tolist()
            fh.writelines(
                f"{ts}{labels[c]}{row_x[c]!r},{row_h[c]!r},{row_q[c]!r}\n"
                for c in range(n * d))


def write_chi_csv(record, path) -> None:
    """Reference ``chi.csv`` writer: every grid row in one pass, whatever
    number of processes the package's writer splits the rows over."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,agent,chi\n")
        for t, chis in zip(record.times, record.chi):
            ts = repr(float(t))
            fh.writelines(f"{ts},{i},{v!r}\n"
                          for i, v in enumerate(chis.tolist()))


def quadratic_roots(b, c):
    """Real roots of x^2 + b x + c, ascending (used for 2x2 eigenvalues)."""
    disc = math.sqrt(b * b - 4.0 * c)
    return sorted(((-b - disc) / 2.0, (-b + disc) / 2.0))


def relative_broadcast(i: int, j: int, xhat: np.ndarray,
                       g: MatrixWeightedGraph) -> np.ndarray:
    """p_ij = xhat_i - sgn(A_ij) * xhat_j, from the stacked broadcast vector."""
    k = g.edge(i, j)
    if k is None:
        raise NotNeighbors(f"agents {i} and {j} share no edge")
    d = g.d
    xi = xhat[i * d:(i + 1) * d]
    xj = xhat[j * d:(j + 1) * d]
    return xi - int(g.table.sign[k]) * xj


def control_leaderless(i: int, xhat: np.ndarray,
                       g: MatrixWeightedGraph) -> np.ndarray:
    """qhat_i = -sum_j |A_ij| p_ij.  Stacking over all agents equals -L @ xhat."""
    out = np.zeros(g.d)
    for j in g.neighbors(i):
        p = relative_broadcast(i, j, xhat, g)
        out -= g.table.abs_weight[g.edge(i, j)] @ p
    return out


def control_leader_follower(i: int, xhat: np.ndarray, g: MatrixWeightedGraph,
                            coupling: InputCoupling,
                            u0: np.ndarray) -> np.ndarray:
    """Leaderless control plus input tracking terms
    ``-sum_l |B_il| (xhat_i - sgn(B_il) u0)``."""
    out = control_leaderless(i, xhat, g)
    d = g.d
    xi = xhat[i * d:(i + 1) * d]
    for agent, _, w, cls in edge_rows(coupling.table):
        if agent == i:
            out -= matrix_abs(w, cls) @ (
                xi - matrix_sgn(cls) * np.asarray(u0, dtype=float))
    return out


def input_drive(g: MatrixWeightedGraph, coupling: InputCoupling,
                u0: np.ndarray) -> np.ndarray:
    """Constant part of the stacked leader-follower control:
    ``sum_l sgn(B_il) |B_il| u0`` on each agent's block."""
    drive = np.zeros((g.n, g.d))
    for agent, _, w, cls in edge_rows(coupling.table):
        drive[agent] += matrix_sgn(cls) * matrix_abs(w, cls) @ u0
    return drive.reshape(-1)


@dataclass(frozen=True)
class DenseAssumption1:
    """Assumption 1 read from the full Laplacian's spectrum: ``nullity`` is
    -1 for an imbalanced graph, ``residual`` the sine of the largest angle
    between the kernel and the gauge-signed consensus subspace (NaN unless
    the nullity is d), and ``eigenvalues`` the ascending spectrum."""

    nullity: int
    holds: bool
    residual: float = float("nan")
    eigenvalues: np.ndarray | None = None


def assumption1_dense(g: MatrixWeightedGraph) -> DenseAssumption1:
    """Balance, a kernel of dimension d by ``kernel_mask``'s zero rule, and
    that kernel within 1e-8 of the gauge-signed consensus subspace."""
    signs = g.signs
    if signs is None:
        return DenseAssumption1(-1, False)
    vals, vecs = linalg.sym_eigen(g.laplacian)
    basis = vecs[:, kernel_mask(vals)]
    nullity = basis.shape[1]
    if nullity != g.d:
        return DenseAssumption1(nullity, False, eigenvalues=vals)
    ref = np.kron(signs[:, None], np.eye(g.d)) / np.sqrt(g.n)
    resid = float(np.linalg.norm(ref - basis @ (basis.T @ ref), ord=2))
    return DenseAssumption1(nullity, resid <= 1e-8, resid, vals)


def grounded_laplacian(g: MatrixWeightedGraph,
                       coupling: InputCoupling) -> np.ndarray:
    """Dense nd x nd grounded Laplacian L_B: the block Laplacian plus each
    agent's summed |B_il| on its diagonal block.  The stacked
    leader-follower control is ``input_drive - L_B @ xhat``."""
    d = g.d
    lb = g.laplacian.copy()
    for agent, _, w, cls in edge_rows(coupling.table):
        block = slice(agent * d, (agent + 1) * d)
        lb[block, block] += matrix_abs(w, cls)
    return lb


def lyapunov_lf_dense(record, xtilde: np.ndarray) -> np.ndarray:
    """Leader-follower V(t) = xi^T L_B xi + sum_i chi_i, xi = x - xtilde,
    contracted with the dense grounded Laplacian of the record's scenario."""
    sc = record.scenario
    lb = grounded_laplacian(sc.graph, sc.mode.coupling)
    xi = grid_states(record) - np.asarray(xtilde, dtype=float)[None, :]
    return np.einsum("ij,jk,ik->i", xi, lb, xi) + record.chi.sum(axis=1)


def chi_floor_margins(record) -> np.ndarray:
    """Per-agent minimum over the whole grid of chi_i(t) - chi_i(0)
    exp(-(beta_i + delta_i / theta_i) t), from dense ``(rows, n)``
    arrays."""
    p = record.scenario.params
    rate = p.beta + p.delta / p.theta
    floor = p.chi0[None, :] * np.exp(-np.outer(record.times, rate))
    return (record.chi - floor).min(axis=0)


class DwellCertificate(NamedTuple):
    """Observed over certified dwell of every inter-event interval that
    ends in a fire with chi > 0, and the number of fires with chi <= 0,
    for which the bound says nothing."""

    ratios: np.ndarray
    nonpositive: int


def dwell_certificate(record) -> DwellCertificate:
    """The Zeno certificate of each inter-event interval ``[t_p, t_n)`` of
    each agent i.  Its error is 0 at t_p and moves at its held rate, so
    ``|e_i(t_n)| <= (t_n - t_p) Q_i``, with ``Q_i`` the largest held
    ``|q_i|`` on the interval.  A fire needs ``theta_i (K_i |e_i|^2 - S_i)
    > chi_i`` with ``S_i >= 0``, so the dwell is at least ``sqrt(chi_i(t_n)
    / (theta_i K_i)) / Q_i`` wherever ``chi_i(t_n) > 0``."""
    sc = record.scenario
    n, d = record.n, record.d
    theta, gain = sc.params.theta, gains(sc)
    _, q = held_rows(record)
    speed = np.linalg.norm(q.reshape(len(q), n, d), axis=2)
    ratios, nonpositive = [], 0
    for i, ev in enumerate(record.events):
        if len(ev) < 2:
            continue
        rows = np.rint(ev / sc.dt).astype(np.int64)
        peak = np.maximum.reduceat(speed[:, i], rows)[:-1]
        chi = record.chi[rows[1:], i]
        live = chi > 0.0
        nonpositive += int((~live).sum())
        certified = np.sqrt(chi[live] / (theta[i] * gain[i])) / peak[live]
        ratios.append(np.diff(ev)[live] / certified)
    return DwellCertificate(np.concatenate(ratios or [np.zeros(0)]),
                            nonpositive)


PList = Sequence[tuple[np.ndarray, np.ndarray]]


def weighted_disagreement(p_list: PList) -> float:
    """sum_j ||sqrt(|A_ij|) p_ij||^2 over (sqrt-weight, p) pairs."""
    total = 0.0
    for sqrt_w, p in p_list:
        v = np.asarray(sqrt_w) @ np.asarray(p)
        total += float(v @ v)
    return total


def leaderless_threshold_lhs(e_i: np.ndarray, p_list: PList,
                             params: AgentParams, mu_bar_i: float,
                             deg: int) -> float:
    e_i = np.asarray(e_i, dtype=float)
    quad = mu_bar_i * deg * float(e_i @ e_i)
    return params.theta * (quad - (params.sigma / 4.0) * weighted_disagreement(p_list))


def leaderless_fires(e_i: np.ndarray, p_list: PList, chi: float,
                     params: AgentParams, mu_bar_i: float, deg: int) -> bool:
    """Strict threshold violation; equality stays silent."""
    return leaderless_threshold_lhs(e_i, p_list, params, mu_bar_i, deg) > chi


def chi_rate_leaderless(e_i: np.ndarray, p_list: PList, chi: float,
                        params: AgentParams, mu_bar_i: float,
                        deg: int) -> float:
    e_i = np.asarray(e_i, dtype=float)
    drive = (params.sigma / 4.0) * weighted_disagreement(p_list) \
        - mu_bar_i * deg * float(e_i @ e_i)
    return -params.beta * chi + params.delta * drive


def lf_threshold_lhs(e_i: np.ndarray, qhat_i: np.ndarray,
                     params: AgentParams, gamma_i: float) -> float:
    e_i = np.asarray(e_i, dtype=float)
    q = np.asarray(qhat_i, dtype=float)
    return params.theta * (gamma_i * float(e_i @ e_i) - params.sigma * float(q @ q))


def lf_fires(e_i: np.ndarray, qhat_i: np.ndarray, chi: float,
             params: AgentParams, gamma_i: float) -> bool:
    return lf_threshold_lhs(e_i, qhat_i, params, gamma_i) > chi


def chi_rate_lf(e_i: np.ndarray, qhat_i: np.ndarray, chi: float,
                params: AgentParams, gamma_i: float) -> float:
    e_i = np.asarray(e_i, dtype=float)
    q = np.asarray(qhat_i, dtype=float)
    drive = params.sigma * float(q @ q) - gamma_i * float(e_i @ e_i)
    return -params.beta * chi + params.delta * drive


class LoadedEdge(NamedTuple):
    """An edge as :func:`load_edge` builds it: its ends, its read-only and
    exactly symmetric weight, the weight's ``eigh`` pair and its class."""

    i: int
    j: int
    weight: np.ndarray
    eigen: tuple[np.ndarray, np.ndarray]
    cls: DefinitenessClass


def load_edge(spec: tuple, d: int, kind: str) -> LoadedEdge:
    """Edge of an ``(i, j, weight)`` or ``(i, j, weight, declared_class)``
    spec, whose weight is validated, decomposed once, optionally projected
    and classified: the one check every weight gets.  ``kind`` names the
    spec in error messages."""
    i, j, raw, declared = spec if len(spec) == 4 else (*spec, None)
    where = f"{kind} ({i},{j})"
    arr = float_array(raw, f"{where}: weight")
    if arr.size == d * d:
        arr = arr.reshape(d, d)
    if arr.shape != (d, d):
        raise GraphFormatError(f"{where}: weight must be {d}x{d}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GraphFormatError(f"{where}: weight has non-finite entries")
    dev = float(np.max(np.abs(arr - arr.T)))
    if dev > SYMMETRY_REJECT_TOL * max(1.0, float(np.max(np.abs(arr)))):
        raise GraphFormatError(f"{where}: weight is asymmetric (max deviation {dev:.6g})")
    target = None
    if declared is not None:
        if declared not in _CLASS_NAMES:
            raise GraphFormatError(
                f"{where}: unknown class {declared!r}; expected one of "
                f"{sorted(_CLASS_NAMES)}")
        target = _CLASS_NAMES[declared]
        if not target.is_sign_definite:
            raise GraphFormatError(f"{where}: declared class must be sign-definite")
    weight = linalg.symmetric(arr)
    eigen = linalg.sym_eigen(weight)
    if not np.all(np.isfinite(eigen[0])):  # inf would widen the zero band
        raise GraphFormatError(f"{where}: {TOO_LARGE}")
    cls = linalg.classify_definiteness(eigen[0])
    # A spectrum that already agrees at strict tolerance keeps the weight
    # bit-exact, so that dump/load round trips are stable.
    if target is not None and not (
            cls.is_sign_definite and matrix_sgn(cls) == matrix_sgn(target)):
        try:
            weight = linalg.project_to_class(*eigen, target,
                                             CLASS_DECLARATION_TOL)
        except linalg.UnsupportedWeight as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        eigen = linalg.sym_eigen(weight)
        cls = linalg.classify_definiteness(eigen[0])
        if matrix_sgn(cls) != matrix_sgn(target):
            raise GraphFormatError(
                f"{where}: declared class {declared!r} inconsistent with "
                f"spectrum (classified {cls.value})")
    if not cls.is_sign_definite:
        raise GraphFormatError(
            f"{where}: weight classified {cls.value}; only sign-definite "
            "(pd/psd/nd/nsd) weights are admissible")
    return LoadedEdge(i, j, weight, eigen, cls)


def load_edges(specs, d: int, kind: str) -> tuple[LoadedEdge, ...]:
    """Each spec through :func:`load_edge` in turn."""
    return tuple(load_edge(s, d, kind) for s in specs)


def json_entries(doc: dict, key: str, fields: tuple[str, ...]):
    """``(*fields, weight, declared class)`` per entry of the array
    ``doc[key]``, type-checked one entry at a time; the ``fields`` are
    integers and required with the weight, and a class, when present, is a
    string."""
    allowed, required = {*fields, "weight", "class"}, (*fields, "weight")
    for k, entry in enumerate(_json_value(doc.get(key, []), "array", key)):
        where = f"{key}[{k}]"
        _section(entry, where, allowed, required)
        declared = entry.get("class")
        if "class" in entry:
            _json_value(declared, "string", f"{where}.class")
        ints = (_json_value(entry[f], "integer", f"{where}.{f}") for f in fields)
        yield (*ints, _json_weight(entry["weight"], f"{where}.weight"), declared)


def read_edges(doc: dict, key: str, fields: tuple[str, ...], d: int,
               kind: str) -> EdgeTable:
    """The table of the array ``doc[key]``: the specs :func:`json_entries`
    yields before it refuses an entry, refused when their stack would not
    fit in memory, then each through :func:`load_edge`, then the entry's
    refusal."""
    specs, late = [], None
    try:
        specs.extend(json_entries(doc, key, fields))
    except GraphFormatError as exc:
        late = exc
    refusal = _weights_refusal(d, len(specs))
    if refusal:
        raise GraphFormatError(refusal)
    edges = load_edges(specs, d, kind)
    if late is not None:
        raise late
    if not edges:
        return EdgeTable.empty(d)
    return EdgeTable(
        np.array([(e.i, e.j) for e in edges]),
        np.array([e.weight for e in edges]),
        *(np.array([e.eigen[k] for e in edges]) for k in (0, 1)),
        np.array([e.cls for e in edges], dtype=object))


def read_graph(doc: dict) -> tuple[MatrixWeightedGraph, InputCoupling]:
    """The graph and input coupling of a graph section, its edge arrays
    read by :func:`read_edges`."""
    _section(doc, "graph", {"n", "d", "edges", "inputs"}, ("n", "d"))
    for key in ("n", "d"):
        if _json_value(doc[key], "integer", f"graph.{key}") < 1:
            raise GraphFormatError(f"graph.{key}: must be a positive integer")
    n, d = doc["n"], doc["d"]
    g = MatrixWeightedGraph(n, d, read_edges(doc, "edges", ("i", "j"), d,
                                             "edge"))
    return g, InputCoupling(read_edges(doc, "inputs", ("agent", "input"), d,
                                       "input coupling"))


def definite_quotient(g: MatrixWeightedGraph) -> MatrixWeightedGraph:
    """The quotient of ``g`` by the components of its definite edges, as
    :func:`mwconsensus.mwgraph.definite_quotient` defines it, each
    component found by a union-find over the definite edges."""
    t = g.table
    parent = list(range(g.n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    definite = np.fromiter(map({PD, ND}.__contains__, t.cls), dtype=bool,
                           count=len(t))
    for i, j in t.ends[definite].tolist():
        a, b = root(i), root(j)
        parent[max(a, b)] = min(a, b)  # a root is its component's minimum
    roots = [root(i) for i in range(g.n)]
    label = {r: k for k, r in enumerate(dict.fromkeys(roots))}
    ends = np.array(roots, dtype=np.int64)[t.ends]
    across = np.flatnonzero(ends[:, 0] != ends[:, 1])
    between: dict[tuple[int, int], int] = {}
    group = [between.setdefault((min(a, b), max(a, b)), len(between))
             for a, b in ((label[i], label[j]) for i, j in ends[across].tolist())]
    if not between:
        return MatrixWeightedGraph(len(label), g.d, EdgeTable.empty(g.d))
    w = np.zeros((len(between), g.d, g.d))
    with np.errstate(over="ignore"):
        np.add.at(w, group, t.abs_weight[across])
        w = linalg.symmetric(w)
    if not np.isfinite(w).all():
        raise GraphFormatError(TOO_LARGE)
    vals, vecs = linalg.sym_eigen(w)
    return MatrixWeightedGraph(len(label), g.d, EdgeTable(
        np.array(list(between), dtype=np.int64).reshape(-1, 2), w, vals, vecs,
        linalg.classify_definiteness(vals)))


def json_floats_walk(value, where: str) -> None:
    """Type-check a (possibly nested) weight array item by item, last to
    first, as the reader once did."""
    pending = [_json_value(value, "array", where)]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _json_value(item, "number", f"{where} entries")


def mu_bar(i: int, g: MatrixWeightedGraph) -> float:
    """lambda_max(|A_ij|), maximised over agent i's edges."""
    lam = g.table.abs_lambda_max
    return max(float(lam[g.edge(i, j)]) for j in g.neighbors(i))


def _left_to_right(values) -> float:
    """The sum of ``values`` in order, as Python's ``sum`` of floats took it
    before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def gamma(i: int, network: MatrixWeightedGraph, n: int) -> float:
    """n (sum_j mu(|A_ij|) + sum_l mu(|B_il|))^2 + n sum_j mu(|A_ij|)^2,
    each sum in ``network.neighbors(i)`` order."""
    mus, mus_b, lam = [], [], network.table.abs_lambda_max
    for j in network.neighbors(i):
        (mus if j < n else mus_b).append(float(lam[network.edge(i, j)]))
    total = _left_to_right(mus) + _left_to_right(mus_b)
    return n * (total * total) + n * _left_to_right(m * m for m in mus)


def gains(sc) -> list[float]:
    """Each agent's trigger gain: gamma_i, or mu_bar_i N_i (0 for an agent
    without neighbours)."""
    g = sc.graph
    if isinstance(sc.mode, LeaderFollower):
        return [gamma(i, sc.network, g.n) for i in range(g.n)]
    return [mu_bar(i, g) * len(g.neighbors(i)) if g.neighbors(i) else 0.0
            for i in range(g.n)]


def validate_params(params) -> list[str]:
    """Range checks and the stability bound, one agent at a time, as the
    lines ``agent {i}: {field}: {message}``."""
    out = []
    for i in range(params.n):
        a = agent_params(params, i)
        if not (0.0 <= a.sigma < 1.0):
            out.append(f"agent {i}: sigma: {a.sigma} outside [0, 1)")
        for name in ("theta", "beta", "chi0"):
            value = getattr(a, name)
            if not 0.0 < value < math.inf:
                out.append(f"agent {i}: {name}: {value} must be positive and "
                           "finite")
        if not (0.0 <= a.delta <= 1.0):
            out.append(f"agent {i}: delta: {a.delta} outside [0, 1]")
        if a.theta > 0.0 and a.beta > 0.0:
            bound = (1.0 - a.delta) / a.beta
            if not a.theta > bound:
                out.append(f"agent {i}: theta: {a.theta} does not exceed "
                           f"(1 - delta) / beta = {bound}")
    return out
