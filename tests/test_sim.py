"""Engine tests: exact flow, event semantics, thresholds, dwell statistics."""

import dataclasses
import functools
import gc
import math
import sys
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mwconsensus import analysis, sim, trigger
from mwconsensus.builtin import leader_follower_scenario, leaderless_scenario
from mwconsensus.errors import Diverged, GraphFormatError, InvalidScenario, \
    MwcError
from mwconsensus.linalg import sym_eigen, sym_sqrt
from mwconsensus.mwgraph import EdgeTable, InputCoupling, \
    MatrixWeightedGraph, build_laplacian, detect_structural_balance, \
    predicted_bipartite_limit
from mwconsensus.sim import Scenario, chi_floor_check, \
    min_inter_event_from, run, validate_scenario
from mwconsensus.trigger import LeaderFollower, Leaderless, TriggerParams

import oracles
from conftest import perfbench_workloads, random_balanced_scalar_graph
from oracles import grid_states, scalar_consensus_run
from test_mwgraph import scalar_graph


def uniform_params(n, **over):
    base = dict(sigma=0.9, theta=0.5, beta=1.0, delta=1.0, chi0=0.5)
    base.update(over)
    return TriggerParams.uniform(n, **base)


def tiny_scenario(**over):
    g = scalar_graph(2, {(0, 1): 1.0})
    defaults = dict(graph=g, mode=Leaderless(), params=uniform_params(2),
                    dt=1e-3, horizon=0.5, seed=1)
    defaults.update(over)
    return Scenario(**defaults)


class TestValidation:
    def test_reference_scenarios_valid(self):
        assert validate_scenario(leaderless_scenario()) == []
        assert validate_scenario(leader_follower_scenario()) == []

    def test_bad_dt(self):
        assert any("dt" in v for v in
                   validate_scenario(tiny_scenario(dt=0.0)))
        assert any("horizon" in v for v in
                   validate_scenario(tiny_scenario(dt=1.0, horizon=0.5)))
        assert any("horizon" in v for v in
                   validate_scenario(tiny_scenario(horizon=np.inf)))
        # 0.05 / 0.03 steps would integrate to t = 0.06
        assert any("multiple of dt" in v for v in
                   validate_scenario(tiny_scenario(dt=0.03, horizon=0.05)))
        assert validate_scenario(tiny_scenario(dt=0.1, horizon=0.3)) == []

    def test_negative_seed_rejected(self):
        # numpy's generator refuses a negative seed; say so before running.
        assert any("seed" in v for v in validate_scenario(tiny_scenario(seed=-1)))
        assert validate_scenario(tiny_scenario(seed=None)) == []

    def test_param_violations_reported(self):
        sc = tiny_scenario(params=uniform_params(2, sigma=1.5))
        assert any("sigma" in v for v in validate_scenario(sc))

    def test_params_of_another_length_refused(self):
        """A Python caller's parameters for more agents than the graph
        has: the one line names both counts."""
        sc = tiny_scenario(params=uniform_params(3))
        assert validate_scenario(sc) == ["params cover 3 agents, graph has 2"]

    def test_imbalanced_graph_rejected(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        sc = tiny_scenario(graph=g, params=uniform_params(3))
        assert any("assumption 1" in v for v in validate_scenario(sc))
        with pytest.raises(InvalidScenario):
            run(sc)

    def test_assumption_check_can_be_skipped(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        sc = tiny_scenario(graph=g, params=uniform_params(3), horizon=0.05)
        rec = run(sc, check_assumptions=False)
        assert rec.limit_state is None

    def test_lf_requires_assumption2(self):
        g = scalar_graph(2, {(0, 1): 1.0})
        mode = LeaderFollower(u0=np.array([0.5]),
                              coupling=InputCoupling(EdgeTable.empty(1)))
        sc = tiny_scenario(graph=g, mode=mode)
        assert any("assumption 2" in v for v in validate_scenario(sc))

    @pytest.mark.parametrize("agent", [6, 7, -1])
    def test_coupling_agent_out_of_range_refused(self, agent):
        """A coupling attaches an input to one of the graph's agents; the
        model refuses any other at construction, so no input-input edge
        reaches the network."""
        sc = leader_follower_scenario()
        eye = np.eye(sc.graph.d)
        coupling = InputCoupling.from_entries(
            [(agent, 0, eye), (0, 1, eye)], sc.graph.d)
        mode = LeaderFollower(u0=sc.mode.u0, coupling=coupling)
        with pytest.raises(GraphFormatError,
                           match=f"^coupling agent {agent} out of range$"):
            dataclasses.replace(sc, mode=mode)

    @pytest.mark.parametrize("build,field", [
        (lambda: TriggerParams(["x"], [1.0], [1.0], [1.0], [1.0]), "sigma"),
        (lambda: dataclasses.replace(leaderless_scenario(), x0=["a"] * 24),
         "x0"),
        (lambda: LeaderFollower(["z"] * 4,
                                leader_follower_scenario().mode.coupling),
         "u0"),
        (lambda: MatrixWeightedGraph.from_edges(2, 1, [(0, 1, ["w"])]),
         r"edge \(0,1\): weight"),
    ], ids=["params", "x0", "u0", "weight"])
    def test_non_numeric_refused(self, build, field):
        """A Python caller's non-numeric entries are an MwcError, one line
        naming the field, not numpy's bare ValueError."""
        with pytest.raises(GraphFormatError,
                           match=f"^{field} must hold numbers: could not "
                                 "convert string to float: '[xazw]'$"):
            build()

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(leaderless_scenario(), horizon=0.05),
        lambda: dataclasses.replace(leader_follower_scenario(), horizon=0.05),
        lambda: perfbench_workloads().random_balanced_scenario(
            1, 500, horizon=0.01)[0],
    ], ids=["leaderless", "leader-follower", "random-n500"])
    def test_memory_refusal_counts_the_record_bytes(self, make, monkeypatch):
        """Validation sizes exactly what is certain, ``chi`` and ``times``;
        each anchor then counts the record with it, its anchor and change
        arrays twice (a buffer may move as it grows), so the last count is
        that of the finished record."""
        sc, needs = make(), {"of arrays": [], "of record arrays": []}
        refusal = sim.mwgraph.memory_refusal

        def spy(need, what, use):
            if use in needs:
                needs[use].append(need)
            return refusal(need, what, use)

        monkeypatch.setattr(sim.mwgraph, "memory_refusal", spy)
        record = run(sc)
        grid = record.chi.base.nbytes + record.times.nbytes
        held = sum(getattr(record, name).nbytes for name in (
            "anchors", "change_offsets", "change_cols", "change_xhat",
            "change_q"))
        assert needs["of arrays"] == [grid]
        assert len(needs["of record arrays"]) == len(record.anchors)
        assert needs["of record arrays"][-1] == grid + 2 * held

    def test_x0_shape_checked(self):
        sc = tiny_scenario(x0=np.zeros(5))
        assert any("x0" in v for v in validate_scenario(sc))
        for bad in (np.nan, np.inf):
            sc = tiny_scenario(x0=np.array([0.5, bad]))
            assert any("non-finite" in v for v in validate_scenario(sc))


def random_balanced_scenario():
    edges, _ = random_balanced_scalar_graph(np.random.default_rng(5), 7)
    return tiny_scenario(graph=scalar_graph(7, edges, d=3),
                         params=uniform_params(7), horizon=0.05)


def random_params_scenario():
    """Leaderless scenario on a random balanced graph with definite 2 x 2
    weights and seeded per-agent parameters: sigma, chi0, beta from
    {0.5, 2, 5, 20}, delta in [0.1, 1] and theta above (1 - delta) / beta."""
    n, d = 8, 2
    rng = np.random.default_rng(0)
    edges, _ = random_balanced_scalar_graph(rng, n)
    specs = []
    for (a, b), w in sorted(edges.items()):
        m = rng.normal(size=(d, d))
        specs.append((a, b, np.sign(w) * (m @ m.T / d + 0.5 * np.eye(d))))
    beta = rng.choice([0.5, 2.0, 5.0, 20.0], size=n)
    delta = rng.uniform(0.1, 1.0, n)
    params = TriggerParams(
        sigma=rng.uniform(0.1, 0.9, n),
        theta=(1.0 - delta) / beta + rng.uniform(0.05, 1.0, n),
        beta=beta, delta=delta, chi0=rng.uniform(0.05, 1.0, n))
    return Scenario(graph=MatrixWeightedGraph.from_edges(n, d, specs),
                    mode=Leaderless(), params=params, dt=1e-3, horizon=2.0,
                    seed=0)


class TestStructureComputedOnce:
    """The graph decides Assumption 1 once, on its definite quotient;
    validation, the limit state, compilation and the analytics all reuse
    it, and no run decomposes or assembles an nd x nd matrix."""

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(leaderless_scenario(), horizon=0.05),
        lambda: dataclasses.replace(leader_follower_scenario(), horizon=0.05),
        random_balanced_scenario,
    ], ids=["leaderless", "leader-follower", "random-balanced"])
    def test_one_laplacian_eigh_per_run(self, make, eigh_shapes, monkeypatch):
        """One Laplacian is decomposed per run, with or without the
        assumption checks: the quotient's, which has one node here."""
        kernels = []
        null_space = sim.mwgraph.null_space

        def counting(lap):
            kernels.append(lap.shape)
            return null_space(lap)

        monkeypatch.setattr(sim.mwgraph, "null_space", counting)
        for check in (True, False):
            sc = make()
            d = sc.graph.d
            kernels.clear()
            analysis.event_stats(run(sc, check_assumptions=check))
            assert kernels == [(d, d)]
            # No nd x nd eigh: every matrix decomposed is d x d.
            assert max(shape[-2:] for shape in eigh_shapes) == (d, d)

    def test_no_edge_eigh_after_load(self, eigh_shapes):
        """Leaderless run: lambda_max(|A_ij|) for mu_bar and the square root
        of |A_ij| are read from the eigh pair each edge keeps from load."""
        sc = random_balanced_scenario()
        g = sc.graph
        eigh_shapes.clear()  # drop the load-time decomposition
        analysis.event_stats(run(sc))
        trigger.mu_bar(g)
        trigger.gamma(g, g.n)
        # Only the one-node quotient's Laplacian: it has no edges.
        assert eigh_shapes == [(g.d, g.d)]

    def test_lf_gamma_reads_cached_lambda_max(self, eigh_shapes):
        sc = dataclasses.replace(leader_follower_scenario(), horizon=0.05)
        g = sc.graph
        eigh_shapes.clear()
        analysis.event_stats(run(sc))
        # Only the one-node quotient's Laplacian (it has no edges) and
        # Assumption 2's grounding test: every edge and coupling keeps its
        # load-time pair.
        decomposed = [(g.d, g.d), (g.d, g.d)]
        assert eigh_shapes == decomposed
        trigger.gamma(sc.network, g.n)
        assert eigh_shapes == decomposed

    def test_one_extended_graph_per_lf_run(self, monkeypatch):
        """Validation, the limit state, compile and the analytics all read
        the scenario's one network; only the one-node quotient's Laplacian
        is assembled, neither the agents' nor the network's."""
        built, assembled = [], []
        extend = sim.mwgraph.extended_graph
        laplacian = MatrixWeightedGraph.laplacian.func

        def counting(*args):
            built.append(args)
            return extend(*args)

        def assembling(g):
            assembled.append(g.n)
            return laplacian(g)

        monkeypatch.setattr(sim.mwgraph, "extended_graph", counting)
        counted = functools.cached_property(assembling)
        counted.__set_name__(MatrixWeightedGraph, "laplacian")
        monkeypatch.setattr(MatrixWeightedGraph, "laplacian", counted)
        sc = dataclasses.replace(leader_follower_scenario(), horizon=0.05)
        analysis.event_stats(run(sc))
        assert len(built) == 1 and sc.network.n == sc.graph.n + 2
        assert assembled == [1]


def dense_coupling(sc):
    """Dense reference of the control: the (grounded) Laplacian and the
    constant input drive, ``qhat = drive - L xhat``."""
    g = sc.graph
    if not isinstance(sc.mode, LeaderFollower):
        return build_laplacian(g), np.zeros(g.n * g.d)
    coupling = sc.mode.coupling
    return (oracles.grounded_laplacian(g, coupling),
            oracles.input_drive(g, coupling, sc.mode.u0))


def isolated_psd_nsd_scenario(lf=False):
    """Balanced random graph, d = 3, with PD/PSD/ND/NSD weights and an
    isolated last agent; ``lf`` attaches two inputs through PSD, NSD and PD
    couplings."""
    rng = np.random.default_rng(11)
    n, d = 8, 3
    gauge = rng.choice([-1, 1], size=n)
    edges = []
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            if b == a + 1 or rng.uniform() < 0.3:
                m = rng.normal(size=(d, d - int(rng.integers(0, 2))))
                w = m @ m.T  # rank d (PD) or d - 1 (PSD)
                edges.append((a, b, int(gauge[a] * gauge[b]) * w))
    g = MatrixWeightedGraph.from_edges(n, d, edges)
    mode = Leaderless()
    if lf:
        m = rng.normal(size=(d, d - 1))
        psd = m @ m.T
        coupling = InputCoupling.from_entries(
            [(0, 0, psd), (3, 1, -psd), (5, 0, np.eye(d))], d)
        mode = LeaderFollower(u0=rng.uniform(-1.0, 1.0, d), coupling=coupling)
    return Scenario(graph=g, mode=mode, params=uniform_params(n), dt=1e-3,
                    horizon=0.05, seed=2)


def zero_error_fire_scenario():
    """Two agents whose coarse steps reach consensus at step 5 with chi < 0:
    from then on both fire at every step with zero error, so anchors 6-10
    repeat the held pair of the anchor before them bit for bit (qhat is
    -0.0)."""
    return tiny_scenario(x0=np.array([1.0, 0.0]), dt=0.5, horizon=5.0)


def fire_steps(record) -> int:
    """Grid steps at which at least one agent broadcast (t = 0 excluded)."""
    return len({t for ev in record.events for t in ev[1:].tolist()})


class TestHeldTerms:
    """The control and the trigger slack are recomputed only at broadcasts,
    and the recorded controls are exactly those of the recorded broadcasts
    at every grid row."""

    @pytest.fixture(params=["leaderless", "leader-follower", "static"])
    def make(self, request):
        return {
            "leaderless": lambda: dataclasses.replace(
                leaderless_scenario(seed=1), horizon=2.0),
            "leader-follower": lambda: dataclasses.replace(
                leader_follower_scenario(seed=1), horizon=2.0),
            "static": lambda: dataclasses.replace(
                leaderless_scenario(seed=1), horizon=2.0, baseline="static"),
        }[request.param]

    def test_controls_bitwise_from_broadcasts(self, make):
        sc = make()
        rec = run(sc)
        compiled = sim.compile_scenario(sc)
        broadcasts, controls = oracles.held_rows(rec)
        for k in range(len(rec.times)):
            assert np.array_equal(controls[k],
                                  compiled.held_terms(broadcasts[k])[0]), k

    def test_held_terms_computed_once_per_broadcast(self, make, monkeypatch):
        """Each broadcast forms the arcs' ``p_ij`` once, and the control and
        the leaderless slack are both read from it."""
        calls = {"_relative": 0, "control": 0, "disagreement_terms": 0}
        for name in calls:
            original = getattr(sim.CompiledScenario, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(sim.CompiledScenario, name, counting)
        sc = make()
        rec = run(sc)
        want = 1 + fire_steps(rec)
        assert want < len(rec.times) // 2
        assert calls["_relative"] == calls["control"] == want \
            == len(rec.anchors)
        leaderless = not isinstance(sc.mode, LeaderFollower)
        assert calls["disagreement_terms"] == (want if leaderless else 0)


@pytest.mark.parametrize("make", [leaderless_scenario,
                                  leader_follower_scenario],
                         ids=["leaderless", "leader-follower"])
def test_dropped_scenario_frees_its_compiled_tables(make):
    """The compiled scenario holds no reference back to its scenario, so
    dropping the scenario and its record frees the compiled tables at once,
    with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sc = dataclasses.replace(make(seed=0), horizon=0.01)
        record = run(sc)
        compiled = weakref.ref(sc.compiled)
        del sc
        assert compiled() is not None  # the record keeps the scenario
        del record
        assert compiled() is None
    finally:
        if enabled:
            gc.enable()


class TestLeaderlessSlack:
    """The slack ``held_terms`` reads from the ``p_ij`` it shares with the
    control is the paper's ``(sigma/4) sum_j ||sqrt(|A_ij|) p_ij||^2``, and
    never negative."""

    def test_rounding_negative_eigenvalue_adds_nothing(self):
        """diag(1, -1e-17) classifies PSD and keeps its bits; along its
        second axis ``p^T |A| p`` is -4e-17 on both arcs, which the square
        root's zero band drops."""
        g = MatrixWeightedGraph.from_edges(2, 2, [(0, 1, np.diag([1.0,
                                                                -1e-17]))])
        assert g.table.abs_weight[0, 1, 1] == -1e-17
        x0 = np.array([0.0, 1.0, 0.0, -1.0])
        compiled = sim.compile_scenario(tiny_scenario(graph=g, x0=x0))
        np.testing.assert_array_equal(compiled.held_terms(x0)[1], [0.0, 0.0])

    def test_matches_square_root_oracle(self):
        """On PD, PSD, ND and NSD weights and an isolated agent, with random
        broadcasts and with broadcasts that put ``p_ij`` along a kernel
        eigenvector of each semidefinite arc, the slack is the oracle's
        within 1e-12 of the scale ``(sigma/4) sum_j lambda_max ||p_ij||^2``."""
        sc = isolated_psd_nsd_scenario()
        g = sc.graph
        compiled = sim.compile_scenario(sc)
        t = g.table
        roots = [sym_sqrt(*sym_eigen(absw)) for absw in t.abs_weight]
        semidefinite = [k for k, c in enumerate(t.cls)
                        if c.value in ("psd", "nsd")]
        assert semidefinite and {c.value for c in t.cls} \
            == {"pd", "psd", "nd", "nsd"}
        rng = np.random.default_rng(8)
        xhats = list(rng.uniform(-1.0, 1.0, (20, g.n * g.d)))
        for k in semidefinite:
            (i, j), kernel = t.ends[k], sym_eigen(t.abs_weight[k])[1][:, 0]
            xhat = rng.uniform(-1.0, 1.0, g.n * g.d)
            # p_ij = xhat_i - sgn(A_ij) xhat_j = 3 * kernel
            xhat[i * g.d:(i + 1) * g.d] = \
                t.sign[k] * xhat[j * g.d:(j + 1) * g.d] + 3.0 * kernel
            xhats.append(xhat)
        for xhat in xhats:
            slack = compiled.held_terms(xhat)[1]
            assert np.all(slack >= 0.0)
            for i in range(g.n):
                pairs = [(g.edge(i, j),
                          oracles.relative_broadcast(i, j, xhat, g))
                         for j in g.neighbors(i)]
                quarter = sc.params.sigma[i] / 4.0
                want = quarter * oracles.weighted_disagreement(
                    [(roots[k], p) for k, p in pairs])
                scale = quarter * sum(t.abs_lambda_max[k] * float(p @ p)
                                      for k, p in pairs)
                assert abs(slack[i] - want) <= 1e-12 * scale, (i, want)


class TestAnchors:
    """The record keeps the held pair once per anchor: row 0 and every grid
    row at which some agent fired, as the columns that changed there."""

    @pytest.fixture(params=["leaderless", "leader-follower", "static",
                            "random-balanced", "random-n500", "zero-error",
                            "diverged"])
    def record(self, request, ref_leaderless_record, ref_lf_record):
        if request.param == "diverged":
            sc = tiny_scenario(graph=scalar_graph(2, {(0, 1): 1000.0}),
                               dt=0.1, horizon=50.0)
            with pytest.raises(Diverged) as info:
                run(sc)
            return info.value.partial_record
        return {
            "leaderless": lambda: ref_leaderless_record,
            "leader-follower": lambda: ref_lf_record,
            "static": lambda: run(dataclasses.replace(
                leaderless_scenario(seed=2), horizon=5.0, baseline="static")),
            "random-balanced": lambda: run(dataclasses.replace(
                random_balanced_scenario(), horizon=2.0)),
            "random-n500": lambda: run(
                perfbench_workloads().random_balanced_scenario(1, 500)[0]),
            "zero-error": lambda: run(zero_error_fire_scenario()),
        }[request.param]()

    def test_changes_are_the_changed_columns(self, record):
        """Anchor 0 stores every column, and each later anchor exactly the
        columns, ascending, whose held xhat or q differs in bits from the
        anchor before in the dense view: a signed zero counts as a change,
        an equal value does not."""
        offsets = record.change_offsets
        nd = record.n * record.d
        assert offsets.tolist()[:2] == [0, nd]
        assert len(offsets) == len(record.anchors) + 1
        assert offsets[-1] == len(record.change_cols) \
            == len(record.change_xhat) == len(record.change_q)
        held_xhat, held_q = oracles.held_anchors(record)
        bits_h, bits_q = held_xhat.view(np.int64), held_q.view(np.int64)
        want = [np.arange(nd)] + [
            np.flatnonzero((bits_h[a] != bits_h[a - 1])
                           | (bits_q[a] != bits_q[a - 1]))
            for a in range(1, len(record.anchors))]
        for a, cols in enumerate(want):
            np.testing.assert_array_equal(
                record.change_cols[offsets[a]:offsets[a + 1]], cols)

    def test_anchor_invariants(self, record):
        """Anchors start at row 0 and increase strictly; the grid times of
        the later ones are exactly the distinct nonzero event times; each
        held control is bitwise the control of its held broadcasts."""
        rec = record
        anchors = rec.anchors
        held_xhat, held_q = oracles.held_anchors(rec)
        assert anchors[0] == 0 and np.all(np.diff(anchors) > 0)
        assert held_xhat.shape == held_q.shape \
            == (len(anchors), rec.n * rec.d)
        fired = np.unique(np.concatenate(rec.events))
        np.testing.assert_array_equal(rec.times[anchors[1:]],
                                      fired[fired > 0.0])
        compiled = sim.compile_scenario(rec.scenario)
        for a, (xhat, q) in enumerate(zip(held_xhat, held_q)):
            assert compiled.held_terms(xhat)[0].tobytes() == q.tobytes(), a

    def test_rows_are_closed_forms_of_their_anchor(self, record):
        """Every row after anchor ``a``, up to and including the next
        anchor's row, is ``x_a + (k - k_a) (dt q_a)`` from the anchor's row
        and held control, bit for bit: rows rebuild from the anchors alone,
        with no step-by-step replay."""
        rec, dt = record, record.scenario.dt
        held_q = oracles.held_anchors(rec)[1]
        states = grid_states(rec)
        ends = np.append(rec.anchors[1:], rec.rows - 1)
        for a, (lo, hi) in enumerate(zip(rec.anchors.tolist(), ends.tolist())):
            s = np.arange(1, hi - lo + 1)[:, None]
            want = states[lo] + s * (dt * held_q[a])
            assert states[lo + 1:hi + 1].tobytes() == want.tobytes(), a

    def test_times_derived_from_rows(self, record):
        """The record stores no times: row k's time is k * dt, bit for bit,
        on full and diverged records alike."""
        assert "times" not in {f.name for f in dataclasses.fields(record)}
        want = np.arange(len(record.chi)) * record.scenario.dt
        assert record.times.tobytes() == want.tobytes()

    def test_anchor_rows_keep_signed_zeros(self):
        """Row 0 is x0 itself, and an anchor's row is the closed form of the
        anchor before it, never one at zero steps.  Both columns start at
        -0.0 and hold +0.0 controls from row 100 on; column 1 holds a -0.0
        control before it, column 0 a +0.0 one, so column 0 is -0.0 in row
        0 alone and column 1 up to and including row 100."""
        rec = run(tiny_scenario(x0=np.array([-0.0, -0.0]), horizon=0.3))
        held_xhat, held_q = (h[[0, 0]] for h in oracles.held_anchors(rec))
        held_q[:] = [[0.0, -0.0], [0.0, 0.0]]
        states = grid_states(oracles.with_held(rec, [0, 100], held_xhat,
                                               held_q))
        assert np.signbit(states).tolist() \
            == [[True, True]] + [[False, True]] * 100 + [[False, False]] * 200

    def test_held_buffers_grow_with_what_they_hold(self):
        """On a run that fires at nearly every one of its 10 001 rows, the
        buffers behind the anchor and change arrays, their unused room
        included, hold at most twice their 8 bytes per anchor row and
        offset and 24 per change: nothing is reserved for rows that are no
        anchor or columns that did not change."""
        rec = run(dataclasses.replace(zero_error_fire_scenario(),
                                      horizon=5000.0))
        assert len(rec.anchors) > 0.99 * rec.rows
        buffers = sum(sys.getsizeof(getattr(rec, name).base.obj)
                      for name in ("anchors", "change_offsets", "change_cols",
                                   "change_xhat", "change_q"))
        assert buffers <= 2 * (16 * len(rec.anchors)
                               + 24 * len(rec.change_cols))

    def test_blocks_read_any_range(self, record, monkeypatch):
        """``blocks`` reads any row range in consecutive ranges of at most a
        quarter of ``WINDOW_VALUES`` state values (or one row), with their
        views of chi, bit for bit as the whole record: a range that starts
        past row 0 replays the anchors before it.  Each range's held pairs,
        applied in row order from every column's pair at ``start``, give
        the held pair of every row of the range."""
        states, rows = grid_states(record), record.rows
        want_h, want_q = oracles.held_rows(record)
        nd = record.n * record.d
        rng = np.random.default_rng(4)
        spans = [(rows - 1, rows)] + [
            (int(a), int(min(rows, a + 1 + rng.integers(0, 300))))
            for a in rng.integers(0, rows, size=3)]
        cases = [(None, (0, rows)), (7, (0, rows))] + [
            (per, span) for per in (1, 2, 7) for span in spans]
        for per, (start, stop) in cases:
            if per is not None:
                monkeypatch.setattr(sim, "WINDOW_VALUES", 4 * nd * per)
            most = max(1, sim.WINDOW_VALUES // (4 * nd))
            got = list(record.blocks(start, stop))
            assert [lo for lo, *_ in got] == list(range(start, stop, most))
            first_row, first_cols = got[0][3][0][:2]
            assert first_row == start
            assert first_cols.tolist() == list(range(nd))
            h, q = np.full(nd, np.nan), np.full(nd, np.nan)
            for lo, x, chi, held in got:
                assert len(x) == len(chi) <= most
                assert x.tobytes() == states[lo:lo + len(x)].tobytes()
                assert chi.base is record.chi.base
                assert chi.tobytes() == record.chi[lo:lo + len(x)].tobytes()
                changes = {row: pair for row, *pair in held}
                assert list(changes) == sorted(changes)
                assert len(changes) == len(held)
                assert all(lo <= row < lo + len(x) for row in changes)
                for row in range(lo, lo + len(x)):
                    if row in changes:
                        cols, xhat, held_q = changes[row]
                        h[cols], q[cols] = xhat, held_q
                    assert h.tobytes() == want_h[row].tobytes(), row
                    assert q.tobytes() == want_q[row].tobytes(), row

    def test_blocks_refuse_rows_outside_the_record(self):
        """A range that is not ``0 <= start <= stop <= rows`` of a 51-row
        record is refused in one line, not extrapolated, cut or read as
        empty."""
        record = run(tiny_scenario(horizon=0.05))
        assert record.rows == 51
        for start, stop in ((-3, 2), (40, 80), (10, 5)):
            with pytest.raises(MwcError) as info:
                list(record.blocks(start, stop))
            assert str(info.value) == f"rows {start}..{stop} are not a " \
                                      "range of the record's 51 rows"


class TestStepSemantics:
    def test_step_direct_call(self):
        from mwconsensus.sim import compile_scenario, initial_sim_state, step
        g = scalar_graph(2, {(0, 1): 1.0})
        x0 = np.array([0.5, 0.5])  # consensus already reached
        sc = tiny_scenario(graph=g, x0=x0)
        compiled = compile_scenario(sc)
        state = initial_sim_state(compiled)
        chi = np.empty((3, 2))
        nxt, fired = step(state, compiled, chi)
        assert fired.size == 0 and nxt.k == 3 and nxt.anchor == 0
        assert nxt.x_anchor is state.x_anchor
        np.testing.assert_array_equal(nxt.q, [0.0, 0.0])  # rows stay x0
        np.testing.assert_array_equal(nxt.chi_anchor, compiled.chi0)
        assert np.all(np.diff(np.vstack([state.chi_anchor, chi]), axis=0) < 0)

    def test_step_writes_closed_form_from_anchor(self):
        """The fired row comes from the anchor state, whatever the
        broadcasts and the record: ``step`` reads no record row, leaves
        ``x_anchor``'s bytes as they are (a -0.0 too) and takes the row
        ``k`` at which agents fire as ``x_anchor + (k - anchor) (dt q)``
        bit for bit."""
        from mwconsensus.sim import compile_scenario, initial_sim_state, step
        sc = tiny_scenario(x0=np.array([1.0, -1.0]))
        compiled = compile_scenario(sc)
        anchor = np.array([-0.0, 0.25])
        # Excess -10 + s^2 in both agents: they fire at the fourth step.
        state = dataclasses.replace(
            initial_sim_state(compiled), x_anchor=anchor,
            excess=np.array([[-10.0, -10.0], [0.0, 0.0], [1.0, 1.0]]))
        nxt, fired = step(state, compiled, np.empty((6, 2)))
        assert fired.tolist() == [0, 1] and nxt.k == nxt.anchor == 4
        assert anchor.tobytes() == np.array([-0.0, 0.25]).tobytes()
        want = anchor + 4 * (sc.dt * state.q)
        assert nxt.x_anchor.tobytes() == nxt.xhat.tobytes() == want.tobytes()

    def test_equilibrium_fixed_point(self):
        """Gauge-consensus initial state: no motion, no fires, chi decays."""
        edges = {(0, 1): 1.0, (1, 2): -2.0}
        g = scalar_graph(3, edges)
        x0 = np.array([0.7, 0.7, -0.7])
        sc = tiny_scenario(graph=g, params=uniform_params(3), x0=x0,
                           horizon=0.2)
        rec = run(sc)
        np.testing.assert_array_equal(grid_states(rec)[-1], x0)
        assert all(len(e) == 1 for e in rec.events)
        assert np.all(np.diff(rec.chi, axis=0) < 0)

    def test_single_agent_lf_fixed_point(self):
        g = MatrixWeightedGraph(1, 2, EdgeTable.empty(2))
        w = np.array([[1.0, 0.1], [0.1, 2.0]])
        u0 = np.array([0.4, -0.2])
        mode = LeaderFollower(u0=u0,
                              coupling=InputCoupling.from_entries(
                                  [(0, 0, w)], 2))
        sc = Scenario(graph=g, mode=mode, params=uniform_params(1, theta=1.0),
                      dt=1e-3, horizon=0.2, x0=u0)
        rec = run(sc)
        np.testing.assert_allclose(grid_states(rec)[-1], u0, atol=1e-15)
        assert len(rec.events[0]) == 1

    def test_zero_edge_single_agent_constant(self):
        g = MatrixWeightedGraph(1, 3, EdgeTable.empty(3))
        sc = Scenario(graph=g, mode=Leaderless(), params=uniform_params(1),
                      dt=1e-3, horizon=0.3, seed=5)
        rec = run(sc)
        states = grid_states(rec)
        np.testing.assert_array_equal(states[0], states[-1])
        np.testing.assert_array_equal(rec.limit_state, states[0])

    def test_piecewise_linear_flow_matches_closed_form(self):
        """Before the first event the flow is exactly x0 - t * L x0."""
        g = scalar_graph(2, {(0, 1): 1.0})
        x0 = np.array([1.0, -1.0])
        sc = tiny_scenario(x0=x0, horizon=0.5,
                           params=uniform_params(2, sigma=0.0, chi0=0.01))
        rec = run(sc)
        lap = build_laplacian(g)
        later = [ev[1] for ev in rec.events if len(ev) > 1]
        assert later, "expected at least one re-broadcast inside the horizon"
        first_event = min(later)
        compared = 0
        states = grid_states(rec)
        for k, t in enumerate(rec.times):
            if t >= first_event:
                break
            np.testing.assert_allclose(states[k], x0 - t * (lap @ x0),
                                       atol=1e-12)
            compared += 1
        assert compared > 10

    def test_flow_exactness_by_finite_difference(self, ref_leaderless_record):
        """Within every step the recorded state moves exactly by dt * control."""
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        dx = np.diff(grid_states(rec)[:2000], axis=0)
        controls = oracles.held_rows(rec)[1]
        np.testing.assert_allclose(dx, dt * controls[:1999], atol=1e-13)

    def test_controls_recomputable_from_broadcasts(self, ref_leaderless_record,
                                                   ref_lf_record):
        """The edge-list control equals the dense one, ``-L xhat`` or
        ``input_drive - L_B xhat``.  The atol covers entries near consensus,
        where the dense product itself cancels and a pure rtol cannot hold."""
        cases = [(rec.scenario, *oracles.held_anchors(rec))
                 for rec in (ref_leaderless_record, ref_lf_record)]
        for lf in (False, True):
            sc = isolated_psd_nsd_scenario(lf)
            xhats = np.random.default_rng(3).uniform(
                -1.0, 1.0, (40, sc.graph.n * sc.graph.d))
            compiled = sim.compile_scenario(sc)
            cases.append((sc, xhats, np.array([compiled.held_terms(x)[0]
                                               for x in xhats])))
        for sc, xhats, controls in cases:
            dense, drive = dense_coupling(sc)
            want = drive[None, :] - xhats @ dense.T
            np.testing.assert_allclose(controls, want, rtol=1e-12, atol=1e-12)

    def test_engine_builds_no_laplacian(self, monkeypatch):
        """Compiling builds no Laplacian; a run builds only that of the
        graph's definite quotient, for Assumption 1."""
        built = []
        assemble = sim.mwgraph.build_laplacian

        def counting(g):
            built.append(g)
            return assemble(g)

        monkeypatch.setattr(sim.mwgraph, "build_laplacian", counting)
        for make in (leaderless_scenario, leader_follower_scenario):
            sc = dataclasses.replace(make(), horizon=0.05)
            sim.compile_scenario(sc)
            assert built == []
            run(sc)
            assert [(g.n, g.d, len(g.table)) for g in built] \
                == [(1, sc.graph.d, 0)]
            built.clear()

    def test_error_zero_at_events(self, ref_leaderless_record):
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        d = rec.d
        broadcasts = oracles.held_rows(rec)[0]
        states = grid_states(rec)
        for i, ev in enumerate(rec.events):
            idx = np.rint(np.asarray(ev) / dt).astype(int)
            block = slice(i * d, (i + 1) * d)
            np.testing.assert_array_equal(broadcasts[idx, block],
                                          states[idx, block])

    def test_broadcasts_piecewise_constant(self, ref_leaderless_record):
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        d = rec.d
        broadcasts = oracles.held_rows(rec)[0]
        for i, ev in enumerate(rec.events):
            idx = set(np.rint(np.asarray(ev) / dt).astype(int))
            block = slice(i * d, (i + 1) * d)
            changed = np.flatnonzero(
                np.any(np.diff(broadcasts[:, block], axis=0) != 0.0,
                       axis=1)) + 1
            assert set(changed) <= idx

    def test_chi_positive(self, ref_leaderless_record, ref_lf_record):
        assert np.min(ref_leaderless_record.chi) > 0.0
        assert np.min(ref_lf_record.chi) > 0.0


class TestTriggerEngineConsistency:
    """The vectorized engine must agree with the per-agent oracles."""

    def test_leaderless_fire_decisions(self):
        sc = dataclasses.replace(leaderless_scenario(seed=3), horizon=0.25)
        rec = run(sc)
        g = sc.graph
        d = g.d
        roots = [sym_sqrt(*sym_eigen(absw)) for absw in g.table.abs_weight]

        def sqrt_weight(i, j):
            return roots[g.edge(i, j)]

        event_steps = [set(np.rint(np.asarray(ev) / sc.dt).astype(int))
                       for ev in rec.events]
        mu = trigger.mu_bar(g)
        broadcasts = oracles.held_rows(rec)[0]
        states = grid_states(rec)
        for k in range(len(rec.times) - 1):
            xhat_pre = broadcasts[k]
            x_next = states[k + 1]
            for i in range(g.n):
                e_i = xhat_pre[i * d:(i + 1) * d] - x_next[i * d:(i + 1) * d]
                p_list = [(sqrt_weight(i, j),
                           oracles.relative_broadcast(i, j, xhat_pre, g))
                          for j in g.neighbors(i)]
                want = oracles.leaderless_fires(
                    e_i, p_list, float(rec.chi[k + 1, i]), oracles.agent_params(sc.params, i),
                    mu[i], g.degrees[i])
                assert want == ((k + 1) in event_steps[i]), (k, i)

    def test_lf_fire_decisions(self):
        sc = dataclasses.replace(leader_follower_scenario(seed=3),
                                 horizon=0.25)
        rec = run(sc)
        g = sc.graph
        d = g.d
        gam = trigger.gamma(sc.network, g.n)
        event_steps = [set(np.rint(np.asarray(ev) / sc.dt).astype(int))
                       for ev in rec.events]
        broadcasts = oracles.held_rows(rec)[0]
        states = grid_states(rec)
        for k in range(len(rec.times) - 1):
            xhat_pre = broadcasts[k]
            x_next = states[k + 1]
            for i in range(g.n):
                e_i = xhat_pre[i * d:(i + 1) * d] - x_next[i * d:(i + 1) * d]
                qhat_i = oracles.control_leader_follower(
                    i, xhat_pre, g, sc.mode.coupling, sc.mode.u0)
                want = oracles.lf_fires(e_i, qhat_i, float(rec.chi[k + 1, i]),
                                        oracles.agent_params(sc.params, i), gam[i])
                assert want == ((k + 1) in event_steps[i]), (k, i)

    def test_chi_integration_matches_rate_function(self):
        sc = dataclasses.replace(leaderless_scenario(seed=7), horizon=0.1)
        rec = run(sc)
        g = sc.graph
        d = g.d
        dt = sc.dt
        roots = [sym_sqrt(*sym_eigen(absw)) for absw in g.table.abs_weight]

        def sqrt_weight(i, j):
            return roots[g.edge(i, j)]

        mu = trigger.mu_bar(g)
        broadcasts, controls = oracles.held_rows(rec)
        states = grid_states(rec)
        for k in range(len(rec.times) - 1):
            xhat = broadcasts[k]
            qhat = controls[k]
            for i in range(g.n):
                pr = oracles.agent_params(sc.params, i)
                p_list = [(sqrt_weight(i, j),
                           oracles.relative_broadcast(i, j, xhat, g))
                          for j in g.neighbors(i)]
                e0 = xhat[i * d:(i + 1) * d] - states[k, i * d:(i + 1) * d]
                qi = qhat[i * d:(i + 1) * d]

                def rate(c, s):
                    return oracles.chi_rate_leaderless(
                        e0 - s * qi, p_list, c, pr, mu[i], g.degrees[i])

                c = rec.chi[k, i]
                k1 = rate(c, 0.0)
                k2 = rate(c + dt / 2 * k1, dt / 2)
                k3 = rate(c + dt / 2 * k2, dt / 2)
                k4 = rate(c + dt * k3, dt)
                want = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                assert rec.chi[k + 1, i] == pytest.approx(want, rel=1e-12,
                                                          abs=1e-15)

    def test_chi_closed_form_when_delta_zero(self):
        sc = tiny_scenario(params=uniform_params(2, delta=0.0, theta=1.5),
                           horizon=1.0)
        rec = run(sc)
        want = 0.5 * np.exp(-rec.times)
        np.testing.assert_allclose(rec.chi[:, 0], want, rtol=1e-10)


class TestDeterminismAndGuards:
    def test_bit_identical_repeat(self):
        a = run(dataclasses.replace(leaderless_scenario(seed=9), horizon=0.5))
        b = run(dataclasses.replace(leaderless_scenario(seed=9), horizon=0.5))
        assert np.array_equal(grid_states(a), grid_states(b))
        assert np.array_equal(a.chi, b.chi)
        assert all(np.array_equal(x, y) for x, y in zip(a.events, b.events))

    def test_seed_changes_trajectory(self):
        a = run(dataclasses.replace(leaderless_scenario(seed=0), horizon=0.1))
        b = run(dataclasses.replace(leaderless_scenario(seed=1), horizon=0.1))
        assert not np.array_equal(grid_states(a), grid_states(b))

    def test_divergence_guard(self):
        g = scalar_graph(2, {(0, 1): 1000.0})
        sc = tiny_scenario(graph=g, dt=0.1, horizon=50.0)
        with pytest.raises(Diverged) as info:
            run(sc)
        partial = info.value.partial_record
        assert partial is not None
        assert np.all(np.isfinite(grid_states(partial)))
        assert len(partial.times) < 501

    @pytest.mark.parametrize("x0", [None, np.array([0.25, -0.5])],
                             ids=["seeded", "explicit"])
    def test_limit_state_from_initial_state(self, x0):
        sc = tiny_scenario(x0=x0, seed=7, horizon=0.01)
        want = predicted_bipartite_limit(sc.graph, sc.initial_state())
        assert run(sc).limit_state.tobytes() == want.tobytes()

    def test_explicit_x0_overrides_seed(self):
        x0 = np.array([0.25, -0.5])
        rec = run(tiny_scenario(x0=x0, seed=123, horizon=0.01))
        np.testing.assert_array_equal(grid_states(rec)[0], x0)


class TestStaticBaseline:
    def test_static_fires_more_and_chi_decays(self):
        dyn = run(dataclasses.replace(leaderless_scenario(seed=2),
                                      horizon=2.0))
        stat = run(dataclasses.replace(leaderless_scenario(seed=2),
                                       horizon=2.0, baseline="static"))
        assert sum(len(e) for e in stat.events) > sum(len(e) for e in dyn.events)
        # threshold variable reduces to passive decay in the static variant
        np.testing.assert_allclose(
            stat.chi[:, 0], 0.5 * np.exp(-stat.times), rtol=1e-10)

    @pytest.mark.parametrize("beta_dt", [2.0, 3.0, 100.0])
    @pytest.mark.parametrize("sigma", [0.9, 0.0], ids=["silent", "every-step"])
    def test_chi_exact_at_large_steps(self, beta_dt, sigma):
        """With no drive chi is chi0 e^{-beta t} to rounding at any beta dt,
        whether it is read from t = 0 (no broadcast) or carried from one
        broadcast to the next (sigma = 0: every agent fires at every step).
        Five steps keep e^{-beta t} a normal float at beta dt = 100."""
        sc = tiny_scenario(params=uniform_params(2, beta=beta_dt / 1e-3,
                                                 sigma=sigma),
                           baseline="static", horizon=5e-3)
        rec = run(sc)
        want = 0.5 * np.exp(-sc.params.beta[None, :] * rec.times[:, None])
        np.testing.assert_allclose(rec.chi, want, rtol=1e-15, atol=0.0)
        assert [len(ev) for ev in rec.events] == [6 if sigma == 0.0 else 1] * 2


class TestChiFloor:
    def test_delta_zero_exact(self):
        sc = tiny_scenario(params=uniform_params(2, delta=0.0, theta=2.0),
                           horizon=1.0)
        rec = run(sc)
        # rate = beta + 0: chi rides the floor up to integrator error
        margins = chi_floor_check(rec.scenario.params, rec.times, rec.chi)
        assert np.all(margins >= -1e-12)
        assert np.all(margins <= 1e-10)

    def test_floor_value_direct(self):
        # chi0=0.5, beta=1, delta=1, theta=0.5 at t=1: floor = 0.5 e^{-3}
        p = uniform_params(1)
        rate = p.beta[0] + p.delta[0] / p.theta[0]
        assert rate == pytest.approx(3.0)
        assert p.chi0[0] * np.exp(-rate * 1.0) == pytest.approx(0.5 * np.exp(-3))

    def test_reference_run_margins(self, ref_leaderless_record):
        rec = ref_leaderless_record
        assert np.all(chi_floor_check(rec.scenario.params, rec.times,
                                      rec.chi) >= -1e-6)


@pytest.mark.parametrize("make", [
    lambda: leaderless_scenario(seed=0),
    lambda: leaderless_scenario(seed=1),
    lambda: dataclasses.replace(leaderless_scenario(seed=0),
                                baseline="static"),
    lambda: perfbench_workloads().random_balanced_scenario(0, 500)[0],
    lambda: perfbench_workloads().random_balanced_scenario(1, 500)[0],
], ids=["leaderless-0", "leaderless-1", "static", "random-n500-0",
        "random-n500-1"])
def test_gauge_signed_sum_conserved(make):
    """The leaderless control is orthogonal to every gauge-signed consensus
    vector, so ``sum_i s_i x_i`` moves by rounding alone: on every row it
    stays within 2e-15 of its value at t = 0, relative to max(1, sum_i
    |x_i(0)|) per dimension."""
    rec = run(make())
    g = rec.scenario.graph
    signs = np.asarray(detect_structural_balance(g), dtype=float)
    x = grid_states(rec).reshape(-1, g.n, g.d)
    sums = np.einsum("i,kij->kj", signs, x)
    scale = max(1.0, float(np.abs(x[0]).sum(axis=0).max()))
    assert np.abs(sums - sums[0]).max() <= 2e-15 * scale


class TestDwell:
    def test_min_dwell_simple(self):
        rec = run(dataclasses.replace(leaderless_scenario(seed=0),
                                      horizon=1.0))
        stats = min_inter_event_from(rec.events, rec.scenario.dt,
                                     rec.scenario.horizon)
        for i, ev in enumerate(rec.events):
            if len(ev) > 1:
                assert stats.min_dwell[i] == pytest.approx(np.diff(ev).min())
            else:
                assert stats.min_dwell[i] == rec.scenario.horizon

    def test_single_event_reports_horizon(self):
        g = MatrixWeightedGraph(1, 1, EdgeTable.empty(1))
        sc = Scenario(graph=g, mode=Leaderless(), params=uniform_params(1),
                      dt=0.01, horizon=2.5, seed=0)
        stats = min_inter_event_from(run(sc).events, sc.dt, sc.horizon)
        assert stats.min_dwell[0] == 2.5

    def test_one_dwell_pass_per_run_and_summary(self, monkeypatch):
        """The run leaves the dwell statistics to the summary, which derives
        them once."""
        calls = []
        dwell = sim.min_inter_event_from

        def counting(*args):
            calls.append(args)
            return dwell(*args)

        monkeypatch.setattr(sim, "min_inter_event_from", counting)
        analysis.event_stats(run(dataclasses.replace(leaderless_scenario(seed=0),
                                                     horizon=0.05)))
        assert len(calls) == 1

    def test_consecutive_warning(self):
        from mwconsensus.sim import min_inter_event_from
        times = np.arange(101) * 0.01
        events = [list(times[:40])]  # fires every step for 40 steps
        stats = min_inter_event_from(events, 0.01, 1.0)
        assert stats.max_consecutive[0] == 40
        assert stats.warnings and "consecutive" in stats.warnings[0]


class TestScalarOracleEquivalence:
    """Identity-block scenarios must match an independent scalar simulator."""

    def lift(self, n, edges, x0_scalar, pr, dt, horizon, d=2):
        graph = scalar_graph(n, edges, d=d)
        x0 = np.repeat(np.asarray(x0_scalar, dtype=float), d)
        params = TriggerParams.uniform(
            n, sigma=pr["sigma"], theta=pr["theta"], beta=pr["beta"],
            delta=pr["delta"], chi0=d * pr["chi0"])
        return Scenario(graph=graph, mode=Leaderless(), params=params,
                        dt=dt, horizon=horizon, x0=x0)

    @pytest.mark.parametrize("case", range(20))
    def test_block_matches_scalar_oracle(self, case):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(2, 7))
        edges, _ = random_balanced_scalar_graph(rng, n)
        x0 = rng.uniform(-1, 1, n)
        delta = float(rng.uniform(0.3, 1.0))
        beta = float(rng.uniform(0.5, 1.5))
        pr = dict(sigma=float(rng.uniform(0.0, 0.95)),
                  theta=(1.0 - delta) / beta + float(rng.uniform(0.1, 1.0)),
                  beta=beta, delta=delta, chi0=float(rng.uniform(0.1, 1.0)))
        dt, horizon = 1e-3, 2.0
        d = 2

        rec = run(self.lift(n, edges, x0, pr, dt, horizon, d=d))
        traj, chi_traj, events = scalar_consensus_run(
            n, edges, x0, pr["sigma"], pr["theta"], pr["beta"], pr["delta"],
            pr["chi0"], dt, horizon)

        scalar_states = np.asarray(traj)
        states = grid_states(rec)
        for k in range(d):
            block_dim = states[:, k::d]
            assert np.max(np.abs(block_dim - scalar_states)) <= 1e-9, case
        scalar_chi = np.asarray(chi_traj)
        assert np.max(np.abs(rec.chi - d * scalar_chi)) <= 1e-9, case
        for i in range(n):
            assert list(rec.events[i]) == events[i], (case, i)


def flip_gauge(sc, s):
    """The scenario in the gauge D = diag(s) ⊗ I_d: every weight becomes
    s_i s_j A_ij, every input coupling s_i B_il, and x0 becomes D x0."""
    g, d = sc.graph, sc.graph.d
    graph = MatrixWeightedGraph.from_edges(
        g.n, d, [(i, j, s[i] * s[j] * w)
                 for i, j, w, _ in oracles.edge_rows(g.table)])
    mode = sc.mode
    if isinstance(mode, LeaderFollower):
        coupling = InputCoupling.from_entries(
            [(i, j, s[i] * w)
             for i, j, w, _ in oracles.edge_rows(mode.coupling.table)], d)
        mode = LeaderFollower(u0=mode.u0, coupling=coupling)
    return dataclasses.replace(sc, graph=graph, mode=mode,
                               x0=np.repeat(s, d) * sc.initial_state())


class TestGaugeCovariance:
    """Flipping the gauge of a node set is a change of coordinates: the run
    in the new gauge is the old run times D, bit for bit, with the same
    thresholds and the same events."""

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(leaderless_scenario(seed=4), horizon=2.0),
        lambda: dataclasses.replace(leader_follower_scenario(seed=4),
                                    horizon=2.0),
        lambda: dataclasses.replace(random_balanced_scenario(), horizon=1.0),
        lambda: isolated_psd_nsd_scenario(lf=True),
    ], ids=["leaderless", "leader-follower", "random-balanced",
            "psd-nsd-inputs"])
    @pytest.mark.parametrize("flip_seed", range(3))
    def test_flip_is_bitwise_covariant(self, make, flip_seed):
        sc = make()
        n = sc.graph.n
        rng = np.random.default_rng(flip_seed)
        s = np.ones(n)
        s[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = -1.0
        # A change of coordinates needs no structural assumption, and the
        # isolated agent of the PSD/NSD case fails Assumption 1.
        base = run(dataclasses.replace(sc, x0=sc.initial_state()),
                   check_assumptions=False)
        flipped = run(flip_gauge(sc, s), check_assumptions=False)
        D = np.repeat(s, sc.graph.d)
        np.testing.assert_array_equal(grid_states(flipped),
                                      grid_states(base) * D)
        np.testing.assert_array_equal(flipped.anchors, base.anchors)
        np.testing.assert_array_equal(oracles.held_anchors(flipped)[0],
                                      oracles.held_anchors(base)[0] * D)
        assert flipped.chi.tobytes() == base.chi.tobytes()
        for a, b in zip(flipped.events, base.events):
            np.testing.assert_array_equal(a, b)
        assert sum(len(ev) for ev in base.events) > n  # not only t = 0


def phi_decimal(z: float, k: int) -> Decimal:
    """phi_k(z) at 40 digits: its series below |z| = 1, else
    (e^z - sum_{m<k} z^m / m!) / z^k, which cancels little there."""
    with localcontext() as ctx:
        ctx.prec = 40
        z = Decimal(z)
        if abs(z) < 1:
            term, total, m = 1 / Decimal(math.factorial(k)), Decimal(0), 0
            while abs(term) > Decimal("1e-50"):
                total += term
                m += 1
                term = term * z / (m + k)
            return +total
        head = sum(z ** m / math.factorial(m) for m in range(k))
        return (z.exp() - head) / z ** k


class TestClosedFormThresholds:
    """The thresholds come in closed form from the last broadcast; the
    step-at-a-time 4-stage loop of ``oracles.four_stage_run`` checks them."""

    def test_phi_against_decimal(self):
        """Series side: a few ulps.  expm1 side: phi_{k+1} = (phi_k -
        1/k!) / z cancels for small |z|, to at most about 4 k! eps /
        |z|^(k-1)."""
        cut = sim.PHI_SERIES_CUT
        z = -np.concatenate([np.geomspace(1e-12, cut, 120, endpoint=False),
                             np.geomspace(cut, 700.0, 200)])
        small = z > -cut
        assert small.sum() == 120
        eps = np.finfo(float).eps
        for k, got in enumerate(sim._phi(z), start=1):
            want = np.array([float(phi_decimal(v, k)) for v in z.tolist()])
            rel = np.abs(got - want) / want
            assert rel[small].max() <= 4 * eps, k
            bound = 4 * math.factorial(k) * eps \
                * np.maximum(1.0, np.abs(z) ** (1 - k))
            assert np.all(rel[~small] <= bound[~small]), k

    @pytest.fixture(params=["leaderless", "leader-follower", "static",
                            "random-balanced", "random-params"])
    def pair(self, request, ref_leaderless_record, ref_lf_record):
        """A record of ``sim.run`` and the scenario it ran: both builtins at
        their full horizon, the static baseline, a random balanced graph,
        and one with per-agent parameters, beta and delta other than 1."""
        return {
            "leaderless": lambda: ref_leaderless_record,
            "leader-follower": lambda: ref_lf_record,
            "static": lambda: run(dataclasses.replace(
                leaderless_scenario(seed=2), horizon=5.0, baseline="static")),
            "random-balanced": lambda: run(dataclasses.replace(
                random_balanced_scenario(), horizon=2.0)),
            "random-params": lambda: run(random_params_scenario()),
        }[request.param]()

    def test_run_matches_four_stage_oracle(self, pair):
        """States, broadcasts and controls bitwise, the same events, and
        chi within the 4-stage update's own error."""
        rec = pair
        states, broadcasts, chi, controls, events = \
            oracles.four_stage_run(rec.scenario)
        held_xhat, held_q = oracles.held_rows(rec)
        np.testing.assert_array_equal(grid_states(rec), states)
        np.testing.assert_array_equal(held_xhat, broadcasts)
        np.testing.assert_array_equal(held_q, controls)
        for got, want in zip(rec.events, events):
            np.testing.assert_array_equal(got, want)
        assert np.max(np.abs(rec.chi - chi)) <= 1e-8
        assert sum(len(ev) for ev in events) > 2 * rec.n


class TestDtRefinement:
    """Up to the first event after t = 0 every threshold and excess is the
    closed form from t = 0, and each halved grid holds the coarser one, so
    the first event never moves later when dt halves, and moves earlier by
    less than the coarser dt.  Later events shift by O(dt) as agents
    reorder."""

    @pytest.mark.parametrize("make", [leaderless_scenario,
                                      leader_follower_scenario],
                             ids=["leaderless", "leader-follower"])
    def test_first_event_converges_from_above(self, make):
        steps = [1e-3 / 2 ** k for k in range(4)]
        firsts = [min(ev[1] for ev in run(dataclasses.replace(
            make(), dt=dt, horizon=0.5)).events if len(ev) > 1)
            for dt in steps]
        for dt, coarse, fine in zip(steps, firsts, firsts[1:]):
            assert coarse - dt < fine <= coarse
        assert firsts[-1] < firsts[0]


def stepwise_run(sc):
    """``sim.run``'s record built by calling ``sim.step`` with a window of
    one grid step at every step, each row the closed form of the anchor
    before it.  Returns ((times, states, chi, anchors,
    held_xhat, held_q), events, divergence message or None), cut at the last
    finite step on divergence."""
    compiled = sim.compile_scenario(sc)
    n, nd, steps = compiled.n, compiled.n * compiled.d, sc.step_count
    times = np.arange(steps + 1) * sc.dt
    states = np.empty((steps + 1, nd))
    chi = np.empty((steps + 1, n))
    events = [[0.0] for _ in range(n)]
    state = sim.initial_sim_state(compiled)
    states[0], chi[0] = state.xhat, compiled.chi0
    anchors, held_xhat, held_q = [0], [state.xhat], [state.q]
    message, k = None, 0
    for k in range(steps):
        # The row the step ends at, from the anchor it starts under.
        row = state.x_anchor + (k + 1 - state.anchor) * (sc.dt * state.q)
        try:
            state, fired = sim.step(state, compiled, chi[k + 1:k + 2])
        except Diverged as exc:
            message = str(exc)
            break
        assert state.k == k + 1
        states[k + 1] = row
        if fired.size:
            anchors.append(k + 1)
            held_xhat.append(state.xhat)
            held_q.append(state.q)
        for i in fired:
            events[i].append(float(times[k + 1]))
    else:
        k = steps
    arrays = (times[:k + 1], states[:k + 1], chi[:k + 1],
              np.array(anchors, dtype=np.int64), np.array(held_xhat),
              np.array(held_q))
    return arrays, events, message


def assert_same_record(rec, arrays, events):
    for got, want in zip((rec.times, grid_states(rec), rec.chi, rec.anchors,
                          *oracles.held_anchors(rec)), arrays):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [e.tolist() for e in rec.events] == events


class TestWindowWidth:
    """Windows are an implementation detail: one grid step at a time gives
    the record of ``sim.run`` bit for bit."""

    @pytest.mark.parametrize("make, gap", [
        (lambda: dataclasses.replace(leaderless_scenario(seed=1),
                                     horizon=5.0), 50),
        (lambda: dataclasses.replace(leader_follower_scenario(seed=1),
                                     horizon=5.0), 50),
        (lambda: dataclasses.replace(leaderless_scenario(seed=1),
                                     horizon=5.0, baseline="static"), 50),
        # Rows of n * d = 2000 values: windows of at most 32 rows.
        (lambda: perfbench_workloads().random_balanced_scenario(
            1, 500, horizon=0.05)[0], 16),
    ], ids=["leaderless", "leader-follower", "static", "random-n500"])
    def test_one_step_windows_equal_run(self, make, gap):
        sc = make()
        rec = run(sc)
        arrays, events, message = stepwise_run(sc)
        assert message is None
        assert_same_record(rec, arrays, events)
        # The windows of run really were wider than one step.
        longest = max(np.diff(np.unique(np.concatenate(rec.events))))
        assert longest > gap * sc.dt

    @pytest.mark.parametrize("make", [
        lambda: tiny_scenario(graph=scalar_graph(2, {(0, 1): 1000.0}),
                              dt=0.1, horizon=50.0),
        # No broadcast after t = 0: the state leaves the guard at step 51,
        # inside the sixth window (steps 32-63).
        lambda: tiny_scenario(graph=scalar_graph(2, {(0, 1): 1e10}),
                              params=uniform_params(2, chi0=1e300),
                              x0=np.array([1.0, -1.0]), horizon=1.0),
    ], ids=["firing", "silent"])
    def test_divergence_equal_to_one_step_windows(self, make):
        sc = make()
        with pytest.raises(Diverged) as info:
            run(sc)
        arrays, events, message = stepwise_run(sc)
        assert str(info.value) == message
        assert_same_record(info.value.partial_record, arrays, events)

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(leaderless_scenario(seed=0), horizon=2.0),
        lambda: dataclasses.replace(leader_follower_scenario(seed=0),
                                    horizon=1.0),
        lambda: dataclasses.replace(leaderless_scenario(seed=0), horizon=2.0,
                                    baseline="static"),
    ], ids=["leaderless", "leader-follower", "static"])
    def test_factors_past_the_table_equal_run(self, make, monkeypatch):
        """With ``WINDOW_VALUES`` patched so that the table of chi's factors
        holds two offsets, nearly every window builds its own rows (and
        windows hold at most 10 rows): the record is the unpatched one bit
        for bit."""
        want = record_bytes(run(make()))
        sc = make()
        monkeypatch.setattr(sim, "WINDOW_VALUES", 4 * (5 * sc.graph.n + 1) * 2)
        rec = run(sc)
        assert record_bytes(rec) == want
        assert len(sc.compiled._chi_table[0]) == 2
        # Windows reached offsets far past the table's two.
        longest = max(np.diff(np.unique(np.concatenate(rec.events))))
        assert longest > 20 * sc.dt


def record_bytes(rec):
    """Everything ``sim.run`` records, as bytes: chi, the anchors, their
    changes and every agent's events."""
    return [getattr(rec, name).tobytes() for name in (
        "chi", "anchors", "change_offsets", "change_cols", "change_xhat",
        "change_q")] + [e.tobytes() for e in rec.events]


class TestChiFactorTable:
    """chi's per-offset factors are kept per scenario in a table of at
    most a quarter of ``WINDOW_VALUES`` float64 values."""

    def test_second_run_on_grown_table_equal(self):
        """A second run of one scenario starts on the table that the first
        grew, and records the same bits."""
        sc = leaderless_scenario(seed=0)
        first = record_bytes(run(sc))
        grown = len(sc.compiled._chi_table[0])
        assert grown > 200
        assert record_bytes(run(sc)) == first
        assert len(sc.compiled._chi_table[0]) == grown

    def test_table_capped(self):
        """At consensus nothing fires, so the windows of 5000 steps reach
        offsets far past the cap of 16384 // 11 = 1489 rows for n = 2: the
        table stops below it (at the 730 offsets of the last window that
        fit), and the rows built for a window past it have the table's
        bits."""
        sc = tiny_scenario(x0=np.array([0.5, 0.5]), horizon=5.0)
        rec = run(sc)
        assert len(rec.anchors) == 1 and rec.rows == 5001
        compiled = sc.compiled
        table = compiled._chi_table
        assert sum(f.size for f in table) <= sim.WINDOW_VALUES // 4
        assert len(table[0]) == 730
        past = compiled.chi_factors(500, 2000)
        assert compiled._chi_table is table and len(past[0]) == 1500
        for got, kept in zip(past, table):
            assert got[:230].tobytes() == kept[500:].tobytes()


class TestGuardPrefix:
    """``step`` checks the divergence guard on a window's last row alone.
    That is exact because each column of ``x + s dq`` is monotone in ``s``
    (rounding to nearest is monotone), so from an anchor within the guard
    the rows within it are a prefix of any window."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_within_the_guard_are_a_prefix(self, seed):
        guard, w, cols = sim.DIVERGENCE_GUARD, 64, 6
        rng = np.random.default_rng(seed)
        s = np.arange(1.0, w + 1.0)[:, None]
        cut = overflowed = 0
        for _ in range(200):
            x = np.where(rng.random(cols) < 0.5,
                         rng.choice([0.0, -0.0, guard, -guard, 1.0], cols),
                         rng.uniform(-guard, guard, cols))
            sign = rng.choice([-1.0, 1.0], cols)
            dq = sign * np.choose(rng.integers(0, 5, cols), [
                rng.choice([0.0, -0.0], cols),
                rng.integers(1, 1 << 20, cols) * 5e-324,  # subnormals
                10.0 ** rng.uniform(-300.0, 0.0, cols),
                # leaves the guard inside the window
                (guard + np.abs(x)) / rng.uniform(1.0, w, cols),
                # rare: near the float maximum, s dq overflows to inf
                np.where(rng.random(cols) < 0.2,
                         rng.uniform(1e306, 1.7e308, cols), 1.0),
            ])
            with np.errstate(over="ignore"):
                rows = sim._affine_rows(x, dq, s)
            inside = np.abs(rows) <= guard
            for within in (*inside.T, inside.all(axis=1)):
                k = int(within.sum())
                assert within[:k].all(), (x, dq)
            k = int(inside.all(axis=1).sum())
            cut += 0 < k < w
            overflowed += bool(np.isinf(rows[1:]).any()
                               and np.isfinite(rows[0]).all())
        # The windows really are cut inside, and reach inf inside.
        assert cut and overflowed


def relabel(sc, perm):
    """The scenario with agent i renamed ``perm[i]``: edges, input
    couplings, per-agent parameters and x0 follow their agent."""
    g, d = sc.graph, sc.graph.d
    old = np.argsort(perm)  # old[new label] = old label
    graph = MatrixWeightedGraph.from_edges(
        g.n, d, [(perm[i], perm[j], w)
                 for i, j, w, _ in oracles.edge_rows(g.table)])
    mode = sc.mode
    if isinstance(mode, LeaderFollower):
        coupling = InputCoupling.from_entries(
            [(perm[i], j, w)
             for i, j, w, _ in oracles.edge_rows(mode.coupling.table)], d)
        mode = LeaderFollower(u0=mode.u0, coupling=coupling)
    p = sc.params
    params = TriggerParams(p.sigma[old], p.theta[old], p.beta[old],
                           p.delta[old], p.chi0[old])
    x0 = sc.initial_state().reshape(g.n, d)[old].reshape(-1)
    return dataclasses.replace(sc, graph=graph, mode=mode, params=params,
                               x0=x0)


class TestRelabellingInvariance:
    """Renaming the agents renames the run: the same events and, up to the
    changed summation order of the coupling, the same states."""

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(leaderless_scenario(seed=4), horizon=5.0),
        lambda: dataclasses.replace(leader_follower_scenario(seed=4),
                                    horizon=5.0),
        lambda: dataclasses.replace(random_balanced_scenario(), horizon=1.0),
    ], ids=["leaderless", "leader-follower", "random-balanced"])
    @pytest.mark.parametrize("perm_seed", range(2))
    def test_permuted_agents(self, make, perm_seed):
        sc = make()
        n, d = sc.graph.n, sc.graph.d
        perm = np.random.default_rng(perm_seed).permutation(n)
        base = run(sc)
        renamed = run(relabel(sc, perm))
        for i in range(n):
            np.testing.assert_array_equal(renamed.events[perm[i]],
                                          base.events[i])
        want = grid_states(base)
        back = grid_states(renamed).reshape(-1, n, d)[:, perm].reshape(
            want.shape)
        np.testing.assert_allclose(back, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(renamed.chi[:, perm], base.chi, rtol=1e-12,
                                   atol=1e-12)
        assert sum(len(ev) for ev in base.events) > n
