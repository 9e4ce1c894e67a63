"""Analytics: error series, energy traces, decay fitting, run summaries."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mwconsensus import builtin, sim
from mwconsensus.analysis import RunSummary, event_stats, fit_decay_rate, \
    lyapunov_leaderless, lyapunov_lf
from mwconsensus.builtin import WEIGHT_0_5, WEIGHT_3_4, \
    leader_follower_scenario
from mwconsensus.mwgraph import EdgeTable, InputCoupling, \
    MatrixWeightedGraph, detect_structural_balance
from mwconsensus.sim import Scenario
from mwconsensus.trigger import LeaderFollower, Leaderless, TriggerParams

import oracles
from conftest import perfbench_workloads, pinned_probe_scenario, \
    random_balanced_scalar_graph
from test_mwgraph import scalar_graph
from test_sim import uniform_params


def random_lf_scenario(n, d, horizon, seed=0):
    """Balanced random leader-follower scenario: a spanning tree of PD
    weights plus n PSD chords, signed by a random gauge, and one input that
    agent 0 sees through a PD weight and agent 1 through a PSD one."""
    rng = np.random.default_rng(seed)
    gauge = rng.choice([-1, 1], size=n)
    tree = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    chords = {tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False)))
              for _ in range(n)} - tree

    def weight(sign, rank):
        m = rng.normal(size=(d, rank))
        return sign * (m @ m.T + (0.1 * np.eye(d) if rank == d else 0.0))

    edges = [(a, b, weight(gauge[a] * gauge[b], d)) for a, b in sorted(tree)]
    edges += [(a, b, weight(gauge[a] * gauge[b], d - 1))
              for a, b in sorted(chords)]
    # The input's gauge sign is +1.
    coupling = InputCoupling.from_entries(
        [(0, 0, weight(gauge[0], d)), (1, 0, weight(gauge[1], d - 1))], d)
    return Scenario(graph=MatrixWeightedGraph.from_edges(n, d, edges),
                    mode=LeaderFollower(u0=rng.uniform(-1.0, 1.0, d),
                                        coupling=coupling),
                    params=uniform_params(n), dt=1e-3, horizon=horizon,
                    seed=seed)


def probe_scenario(horizon, dt=1e-3):
    """The n = 500 pinned leader-follower probe at ``horizon`` and ``dt``."""
    return dataclasses.replace(pinned_probe_scenario(500, horizon), dt=dt)


def summary_lf_v(rec):
    """Leader-follower V over every row, formed as ``event_stats`` forms
    it: one ``record.blocks`` range at a time."""
    return np.concatenate([lyapunov_lf(rec, rec.limit_state, states, chi)
                           for _, states, chi, _ in rec.blocks()])


@pytest.fixture
def flow_sizes(monkeypatch):
    """The arc count of every ``CompiledScenario._flow`` call from now on."""
    sizes = []
    flow = sim.CompiledScenario._flow

    def sizing(self, rel, arcs=slice(None)):
        sizes.append(len(rel))
        return flow(self, rel, arcs)

    monkeypatch.setattr(sim.CompiledScenario, "_flow", sizing)
    return sizes


def error_series(rec):
    """Distance of the stacked state from the predicted limit at every grid
    point."""
    return np.linalg.norm(oracles.grid_states(rec) - rec.limit_state, axis=1)


class TestBipartiteError:
    def test_zero_at_limit(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0}, d=2)
        v = np.array([0.3, -0.4])
        x0 = np.tile(v, 3)
        rec = sim.run(Scenario(graph=g, mode=Leaderless(),
                               params=uniform_params(3), dt=1e-3,
                               horizon=0.05, x0=x0))
        np.testing.assert_allclose(error_series(rec), 0.0, atol=1e-12)

    def test_single_agent_constant_zero(self):
        g = MatrixWeightedGraph(1, 2, EdgeTable.empty(2))
        rec = sim.run(Scenario(graph=g, mode=Leaderless(),
                               params=uniform_params(1), dt=1e-3,
                               horizon=0.05, seed=3))
        np.testing.assert_array_equal(error_series(rec),
                                      np.zeros(len(rec.times)))

    def test_reference_final_error_small(self, ref_leaderless_record):
        series = error_series(ref_leaderless_record)
        assert series[-1] < 1e-3
        assert series[0] > 1.0

    def test_gauge_flip_consistency(self):
        """Recomputing the limit under the flipped gauge signs gives the same
        limit point, hence the same error series."""
        rng = np.random.default_rng(8)
        edges, _ = random_balanced_scalar_graph(rng, 4)
        g = scalar_graph(4, edges, d=2)
        x0 = rng.uniform(-1, 1, 8)
        detected = detect_structural_balance(g)
        for signs in (detected, -detected):
            mean = sum(signs[i] * x0[2 * i:2 * i + 2] for i in range(4)) / 4.0
            xt = np.concatenate([signs[i] * mean for i in range(4)])
            if signs is detected:
                first = xt
            else:
                np.testing.assert_allclose(xt, first, atol=1e-15)


class TestLyapunov:
    def test_initial_value_closed_form(self, ref_leaderless_record):
        rec = ref_leaderless_record
        states = oracles.grid_states(rec)
        v = lyapunov_leaderless(rec.limit_state, states, rec.chi)
        x0 = states[0]
        want = 0.5 * float((x0 - rec.limit_state) @ (x0 - rec.limit_state)) \
            + float(rec.chi[0].sum())
        assert v[0] == pytest.approx(want, rel=1e-12)

    def test_limit_value_near_zero(self, ref_leaderless_record):
        rec = ref_leaderless_record
        v = lyapunov_leaderless(rec.limit_state, oracles.grid_states(rec),
                                rec.chi)
        assert v[-1] < 1e-6

    def test_monotone_on_reference_run(self, ref_leaderless_record):
        rec = ref_leaderless_record
        v = lyapunov_leaderless(rec.limit_state, oracles.grid_states(rec),
                                rec.chi)
        assert np.max(np.diff(v)) <= 1e-9

    def test_lf_initial_value_closed_form(self, ref_lf_record):
        rec = ref_lf_record
        sc = rec.scenario
        xtilde = np.kron(detect_structural_balance(sc.graph), sc.mode.u0)
        lb = oracles.grounded_laplacian(sc.graph, sc.mode.coupling)
        states = oracles.grid_states(rec)
        v = lyapunov_lf(rec, xtilde, states, rec.chi)
        xi0 = states[0] - rec.limit_state
        want = float(xi0 @ lb @ xi0) + float(rec.chi[0].sum())
        assert v[0] == pytest.approx(want, rel=1e-12)

    def test_lf_monotone_and_vanishing(self, ref_lf_record):
        rec = ref_lf_record
        sc = rec.scenario
        signs = detect_structural_balance(sc.graph)
        v = lyapunov_lf(rec, np.kron(signs, sc.mode.u0),
                        oracles.grid_states(rec), rec.chi)
        assert np.max(np.diff(v)) <= 1e-9
        assert v[-1] < 1e-2 * v[0]

    def test_monotone_across_random_delta_one_scenarios(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            edges, _ = random_balanced_scalar_graph(rng, n)
            g = scalar_graph(n, edges, d=2)
            params = TriggerParams.uniform(
                n, sigma=float(rng.uniform(0.0, 0.95)),
                theta=float(rng.uniform(0.2, 2.0)), beta=1.0, delta=1.0,
                chi0=float(rng.uniform(0.1, 1.0)))
            sc = Scenario(graph=g, mode=Leaderless(), params=params, dt=1e-3,
                          horizon=3.0, seed=int(rng.integers(0, 100)))
            rec = sim.run(sc)
            v = lyapunov_leaderless(rec.limit_state,
                                    oracles.grid_states(rec), rec.chi)
            assert np.max(np.diff(v)) <= 1e-9


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 400)
        v = 3.0 * np.exp(-1.7 * t)
        assert fit_decay_rate(t, v) == pytest.approx(1.7, rel=1e-10)

    def test_floor_window_excluded(self):
        t = np.linspace(0.0, 5.0, 400)
        v = np.exp(-8.0 * t)
        v[v < 1e-10] = 1e-16  # numerical floor garbage
        assert fit_decay_rate(t, v) == pytest.approx(8.0, rel=1e-2)

    def test_undefined_fit_is_none(self):
        """Fewer than two usable points give ``None``, never NaN, so that
        ``summary.json`` stays strict JSON."""
        t = np.array([0.0, 1.0, 2.0])
        for v in ([1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [2.0, 1e-12, 1e-13],
                  [np.nan, 1.0, 1.0]):
            assert fit_decay_rate(t, np.array(v)) is None, v

    def test_isolated_agent_delta_zero_rate_is_beta(self):
        g = MatrixWeightedGraph(1, 2, EdgeTable.empty(2))
        beta = 1.3
        sc = Scenario(graph=g, mode=Leaderless(),
                      params=uniform_params(1, delta=0.0, beta=beta, theta=1.0),
                      dt=1e-3, horizon=4.0, seed=0)
        summary = event_stats(sim.run(sc))
        assert summary.fitted_decay_rate == pytest.approx(beta, rel=0.01)


class TestEventStats:
    def test_counts_match_record(self, ref_leaderless_record):
        s = event_stats(ref_leaderless_record)
        assert s.event_counts == tuple(
            len(e) for e in ref_leaderless_record.events)
        assert isinstance(s, RunSummary)
        assert s.mode == "leaderless"
        assert s.n == 6 and s.d == 4

    def test_no_event_agent(self):
        g = MatrixWeightedGraph(1, 1, EdgeTable.empty(1))
        sc = Scenario(graph=g, mode=Leaderless(), params=uniform_params(1),
                      dt=1e-2, horizon=1.0, seed=0)
        s = event_stats(sim.run(sc))
        assert s.event_counts == (1,)  # only the t=0 broadcast

    def test_lf_summary(self, ref_lf_record):
        s = event_stats(ref_lf_record)
        assert s.mode == "leader-follower"
        assert s.final_bipartite_error < 1e-2
        assert min(s.chi_floor_margins) >= -1e-6

    def test_as_dict_round_trips_through_json(self, ref_leaderless_record):
        import json
        doc = event_stats(ref_leaderless_record).as_dict()
        text = json.dumps(doc)
        assert json.loads(text) == doc

    @pytest.mark.parametrize("make", [builtin.leaderless_scenario,
                                      leader_follower_scenario])
    def test_run_and_summary_compile_once(self, make, monkeypatch):
        """A run and its summary (the leader-follower Lyapunov function
        included) share one compiled scenario."""
        built = []
        init = sim.CompiledScenario.__init__

        def counting(self, sc):
            built.append(sc)
            init(self, sc)

        monkeypatch.setattr(sim.CompiledScenario, "__init__", counting)
        sc = dataclasses.replace(make(), horizon=0.05)
        event_stats(sim.run(sc))
        assert built == [sc]


def negated_lf_scenario(horizon):
    """The bundled leader-follower scenario with both couplings negated."""
    coupling = InputCoupling.from_entries(
        [(0, 0, -WEIGHT_3_4, "nsd"), (5, 1, -WEIGHT_0_5, "nd")], 4)
    sc = dataclasses.replace(leader_follower_scenario(), horizon=horizon)
    return dataclasses.replace(
        sc, mode=LeaderFollower(u0=sc.mode.u0, coupling=coupling))


def two_couplings_on_one_agent_scenario(horizon):
    """Agent 2 carries two inputs of opposite gauge sign, so Assumption 2
    fails and the run is forced; the Lyapunov form is algebraic and holds
    for any state."""
    coupling = InputCoupling.from_entries([
        (2, 0, WEIGHT_0_5, "pd"), (2, 1, -WEIGHT_3_4, "nsd"),
        (4, 2, WEIGHT_3_4, "psd")], 4)
    sc = dataclasses.replace(leader_follower_scenario(), horizon=horizon)
    return dataclasses.replace(
        sc, mode=LeaderFollower(u0=sc.mode.u0, coupling=coupling))


class TestLyapunovLfOracle:
    """The edge form of xi^T L_B xi against the dense grounded Laplacian."""

    @staticmethod
    def assert_matches_dense(rec, xtilde):
        got = lyapunov_lf(rec, xtilde, oracles.grid_states(rec), rec.chi)
        want = oracles.lyapunov_lf_dense(rec, xtilde)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_builtin_record(self, ref_lf_record):
        self.assert_matches_dense(ref_lf_record, ref_lf_record.limit_state)

    def test_negated_coupling(self):
        rec = sim.run(negated_lf_scenario(horizon=0.5))
        assert rec.limit_state is not None
        self.assert_matches_dense(rec, rec.limit_state)

    def test_two_couplings_on_one_agent(self):
        rec = sim.run(two_couplings_on_one_agent_scenario(horizon=0.2),
                      check_assumptions=False)
        assert rec.limit_state is None
        xtilde = np.random.default_rng(8).uniform(-1.0, 1.0, 24)
        self.assert_matches_dense(rec, xtilde)

    def test_random_graph_psd_coupling(self):
        rec = sim.run(random_lf_scenario(n=12, d=3, horizon=0.2, seed=3))
        assert rec.limit_state is not None
        self.assert_matches_dense(rec, rec.limit_state)

    @pytest.mark.parametrize("per", [1, 7])
    def test_pinned_probe_in_arc_blocks(self, per, flow_sizes, monkeypatch):
        """n = 200 agents, two of them pinned: 402 edge arcs, summed in
        blocks of n arcs (200, 200 and 2) over all rows.  V matches the
        dense form, and keeps its bits when :data:`sim.WINDOW_VALUES` makes
        the summary read ``per`` rows at a time."""
        sc = pinned_probe_scenario(200, horizon=0.02)
        rec = sim.run(sc)
        assert len(sc.mode.coupling.table) == 2
        assert len(sc.network.table) == 402
        flow_sizes.clear()
        self.assert_matches_dense(rec, rec.limit_state)
        assert flow_sizes == [200, 200, 2]
        v = summary_lf_v(rec)
        monkeypatch.setattr(sim, "WINDOW_VALUES", 4 * rec.n * rec.d * per)
        assert len(list(rec.blocks())) == -(-rec.rows // per)
        assert summary_lf_v(rec).tobytes() == v.tobytes()


class TestRowSplits:
    """The summary reads a record a block of rows at a time: V and the chi
    floor margins have the same bits however the rows are split."""

    @pytest.mark.parametrize("split", [1, 2, 3, 7, 250])
    @pytest.mark.parametrize("make", [builtin.leaderless_scenario,
                                      leader_follower_scenario],
                             ids=["leaderless", "leader-follower"])
    def test_same_bits_for_any_split(self, make, split):
        rec = sim.run(dataclasses.replace(make(seed=3), horizon=0.5))
        states, xtilde, p = oracles.grid_states(rec), rec.limit_state, \
            rec.scenario.params
        lf = isinstance(rec.scenario.mode, LeaderFollower)

        def v(rows):
            if lf:
                return lyapunov_lf(rec, xtilde, states[rows], rec.chi[rows])
            return lyapunov_leaderless(xtilde, states[rows], rec.chi[rows])

        parts = [slice(lo, lo + split) for lo in range(0, rec.rows, split)]
        whole = v(slice(None))
        assert np.concatenate([v(rows) for rows in parts]).tobytes() \
            == whole.tobytes()
        margins = np.min([sim.chi_floor_check(p, rec.times[rows],
                                              rec.chi[rows])
                          for rows in parts], axis=0)
        assert margins.tobytes() == oracles.chi_floor_margins(rec).tobytes()

    @pytest.mark.parametrize("make, short, long", [
        (lambda horizon: dataclasses.replace(leader_follower_scenario(),
                                             horizon=horizon), 1.0, 30.0),
        (probe_scenario, 0.05, 0.2)], ids=["leader-follower", "pinned-probe"])
    def test_same_bits_for_any_horizon(self, make, short, long):
        """A row's V depends on that row alone: the run to ``short`` gives
        the bits of the first rows of the run to ``long``."""
        head, whole = sim.run(make(short)), sim.run(make(long))
        rows = slice(0, head.rows)
        assert oracles.grid_states(whole)[rows].tobytes() \
            == oracles.grid_states(head).tobytes()
        assert whole.chi[rows].tobytes() == head.chi.tobytes()
        assert summary_lf_v(whole)[rows].tobytes() \
            == summary_lf_v(head).tobytes()

    def test_summary_cost_is_linear_in_rows(self, flow_sizes):
        """The summary forms V a range of rows at a time, each range in
        blocks of n edge arcs, so the probe at T = 0.2 (201 rows, 26
        ranges, 1005 edge arcs) takes at most 26 * 3 flows."""
        rec = sim.run(probe_scenario(0.2))
        compiled = rec.scenario.compiled
        arcs = np.count_nonzero(compiled.arc_src < compiled.arc_dst)
        ranges = len(list(rec.blocks()))
        assert (ranges, arcs) == (26, 1005)
        flow_sizes.clear()
        event_stats(rec)
        assert len(flow_sizes) <= ranges * -(-arcs // rec.n)

    @pytest.mark.parametrize("make", [builtin.leaderless_scenario,
                                      leader_follower_scenario],
                             ids=["leaderless", "leader-follower"])
    def test_summary_reads_the_rows(self, make):
        """``event_stats``' one pass gives the last rebuilt row as the
        final state, the margins of the dense formula, and the decay fit
        of V over every row."""
        rec = sim.run(dataclasses.replace(make(seed=3), horizon=0.5))
        states, xtilde = oracles.grid_states(rec), rec.limit_state
        summary = event_stats(rec)
        assert summary.final_state == tuple(states[-1].tolist())
        assert summary.chi_floor_margins \
            == tuple(oracles.chi_floor_margins(rec).tolist())
        v = (lyapunov_lf(rec, xtilde, states, rec.chi)
             if isinstance(rec.scenario.mode, LeaderFollower)
             else lyapunov_leaderless(xtilde, states, rec.chi))
        assert summary.fitted_decay_rate == fit_decay_rate(rec.times, v)


class TestDwellCertificate:
    """Zeno-freeness, checked on records: every inter-event interval lasts
    at least the dwell that the trigger law certifies from chi at its
    closing fire and the agent's largest held control
    (``oracles.dwell_certificate``)."""

    @pytest.mark.parametrize("make", [
        builtin.leaderless_scenario,
        leader_follower_scenario,
        lambda: perfbench_workloads().random_balanced_scenario(0, 500)[0],
        lambda: probe_scenario(0.02, dt=1e-4),
        pytest.param(lambda: probe_scenario(0.2), marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: the grid detector fires up "
            "to a step after a crossing, and 280 of the probe's 23 995 "
            "fires at dt = 1e-3 come with chi <= 0"))],
        ids=["leaderless", "leader-follower", "random-n500",
             "pinned-probe-dt1e-4", "pinned-probe-dt1e-3"])
    def test_observed_dwell_is_certified(self, make):
        cert = oracles.dwell_certificate(sim.run(make()))
        assert cert.nonpositive == 0
        assert cert.ratios.size and cert.ratios.min() >= 1.0


def test_lf_summary_memory_stays_near_record():
    """``event_stats`` on a leader-follower record allocates about one copy
    of the grid's states, not an (nd)^2 grounded Laplacian: its traced
    peak stays below four times a dense grid of states."""
    rec = sim.run(random_lf_scenario(n=300, d=4, horizon=0.05))
    assert rec.limit_state is not None
    tracemalloc.start()
    try:
        event_stats(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = rec.rows * rec.n * rec.d * 8
    assert peak < 4 * grid, (peak, grid)
