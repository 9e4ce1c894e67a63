"""Trigger formulas: controls, spectral constants, firing rules, thresholds.

The per-agent formulas live in ``oracles``; the engine's vectorized form is
cross-checked against them in ``test_sim``.
"""

import tracemalloc

import numpy as np
import pytest

from mwconsensus import cli, scenario_io
from mwconsensus.builtin import WEIGHT_0_5, WEIGHT_3_4, \
    leader_follower_scenario, leaderless_scenario
from mwconsensus.errors import GraphFormatError
from mwconsensus.linalg import sym_eigen, sym_sqrt
from mwconsensus.mwgraph import EdgeTable, InputCoupling, \
    MatrixWeightedGraph, build_laplacian, extended_graph
from mwconsensus.sim import Scenario
from mwconsensus.trigger import LeaderFollower, Leaderless, TriggerParams, \
    gamma, mu_bar, validate_params

import oracles
from conftest import pinned_probe_scenario, random_balanced_scalar_graph
from oracles import AgentParams, NotNeighbors, chi_rate_leaderless, \
    chi_rate_lf, control_leader_follower, control_leaderless, \
    leaderless_fires, lf_fires, relative_broadcast
from test_mwgraph import scalar_graph
from test_sim import isolated_psd_nsd_scenario


def params(sigma=0.9, theta=0.5, beta=1.0, delta=1.0, chi0=0.5):
    return AgentParams(sigma, theta, beta, delta, chi0)


class TestRelativeBroadcast:
    def test_pd_edge_agreement(self, pd_pair):
        xhat = np.array([0.3, -0.7, 0.3, -0.7])
        np.testing.assert_array_equal(
            relative_broadcast(0, 1, xhat, pd_pair), np.zeros(2))

    def test_nd_edge_bipartite_agreement(self):
        g = scalar_graph(2, {(0, 1): -1.5}, d=2)
        xhat = np.array([0.3, -0.7, -0.3, 0.7])
        np.testing.assert_array_equal(
            relative_broadcast(0, 1, xhat, g), np.zeros(2))

    def test_direct_subtraction(self, pd_pair):
        xhat = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            relative_broadcast(0, 1, xhat, pd_pair), [1.0, -1.0])

    def test_non_edge(self):
        g = scalar_graph(3, {(0, 1): 1.0})
        with pytest.raises(NotNeighbors):
            relative_broadcast(0, 2, np.zeros(3), g)


class TestControls:
    def test_consensus_is_equilibrium(self):
        edges = {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 0.5}
        g = scalar_graph(3, edges, d=2)
        xhat = np.tile([0.4, -0.2], 3)
        for i in range(3):
            np.testing.assert_allclose(control_leaderless(i, xhat, g),
                                       np.zeros(2), atol=1e-15)

    def test_two_node_direct_form(self):
        w = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = MatrixWeightedGraph.from_edges(2, 2, [(0, 1, w)])
        a, b = np.array([0.5, -1.0]), np.array([0.2, 0.1])
        got = control_leaderless(0, np.concatenate([a, b]), g)
        np.testing.assert_allclose(got, -w @ (a - b), atol=1e-15)

    def test_stacked_equals_laplacian_product(self, ref_graph):
        rng = np.random.default_rng(2)
        xhat = rng.uniform(-1, 1, 24)
        stacked = np.concatenate(
            [control_leaderless(i, xhat, ref_graph) for i in range(6)])
        np.testing.assert_allclose(
            stacked, -build_laplacian(ref_graph) @ xhat, atol=1e-12)

    def test_lf_without_inputs_matches_leaderless(self, ref_graph):
        rng = np.random.default_rng(3)
        xhat = rng.uniform(-1, 1, 24)
        empty = InputCoupling(EdgeTable.empty(4))
        u0 = np.zeros(4)
        for i in range(6):
            np.testing.assert_array_equal(
                control_leader_follower(i, xhat, ref_graph, empty, u0),
                control_leaderless(i, xhat, ref_graph))

    def test_lf_tracking_equilibrium(self):
        g = MatrixWeightedGraph(1, 2, EdgeTable.empty(2))
        w = np.array([[1.5, 0.2], [0.2, 2.0]])
        coupling = InputCoupling.from_entries([(0, 0, w)], 2)
        u0 = np.array([0.4, -0.1])
        np.testing.assert_allclose(
            control_leader_follower(0, u0.copy(), g, coupling, u0),
            np.zeros(2), atol=1e-15)

    def test_lf_stacked_equals_grounded_affine_form(self, ref_graph,
                                                    ref_coupling):
        rng = np.random.default_rng(5)
        xhat = rng.uniform(-1, 1, 24)
        u0 = np.array([0.2, 0.4, 0.6, 0.8])
        stacked = np.concatenate(
            [control_leader_follower(i, xhat, ref_graph, ref_coupling, u0)
             for i in range(6)])
        lb = oracles.grounded_laplacian(ref_graph, ref_coupling)
        drive = oracles.input_drive(ref_graph, ref_coupling, u0)
        np.testing.assert_allclose(stacked, drive - lb @ xhat, atol=1e-12)


class TestSpectralConstants:
    def test_reference_mu_bar_published_values(self, ref_graph):
        published = (9.2047, 8.396, 9.7599, 6.7454, 9.7599, 9.3996)
        np.testing.assert_allclose(mu_bar(ref_graph), published, rtol=0,
                                   atol=1e-3)

    def test_identity_weight(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=3)
        assert mu_bar(g).tolist() == pytest.approx([1.0, 1.0])

    def test_isolated_agent_has_zero_mu_bar_and_gain(self, tmp_path, capsys):
        """Agent 2 has no neighbours: its mu_bar and its leaderless gain are
        0, and ``check`` prints nan for its mu_bar."""
        g = scalar_graph(3, {(0, 1): 2.0}, d=1)
        assert mu_bar(g).tolist() == [2.0, 2.0, 0.0]
        sc = Scenario(graph=g, mode=Leaderless(),
                      params=TriggerParams.uniform(3, 0.5, 2.0, 1.0, 0.5, 0.5),
                      dt=1e-3, horizon=0.01)
        assert sc.gains.tolist() == [2.0, 2.0, 0.0]
        assert sc.gains.tobytes() == np.array(oracles.gains(sc)).tobytes()
        path = tmp_path / "isolated.json"
        path.write_text(scenario_io.dump_scenario(sc), encoding="utf-8")
        cli.main(["check", str(path)])
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("mu_bar:"))
        assert row.split()[1:] == ["2.0000", "2.0000", "nan"]

    def test_scalar_degeneration(self):
        rng = np.random.default_rng(19)
        edges, _ = random_balanced_scalar_graph(rng, 5)
        g = scalar_graph(5, edges, d=3)
        for i in range(5):
            neigh = g.neighbors(i)
            if not neigh:
                continue
            want = max(abs(edges.get((min(i, j), max(i, j)))) for j in neigh)
            assert mu_bar(g)[i] == pytest.approx(want, abs=1e-12)

    def test_gamma_empty(self):
        g = MatrixWeightedGraph(2, 1, EdgeTable.empty(1))
        assert gamma(g, g.n).tolist() == [0.0, 0.0]

    def test_gamma_two_node_identity(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        # n * (sum mu)^2 + n * sum mu^2 = 2 * 1 + 2 * 1
        assert gamma(g, g.n).tolist() == pytest.approx([4.0, 4.0])

    def test_gamma_overflows_to_inf(self):
        # float ** raises OverflowError where float * returns inf
        g = scalar_graph(2, {(0, 1): 1e300}, d=2)
        assert gamma(g, g.n).tolist() == [np.inf, np.inf]

    def test_gamma_formula_against_direct_evaluation(self, ref_graph,
                                                     ref_coupling):
        network = extended_graph(ref_graph, ref_coupling)
        got = gamma(network, 6)
        for i in range(6):
            mus = [float(sym_eigen(
                ref_graph.table.abs_weight[ref_graph.edge(i, j)])[0][-1])
                   for j in ref_graph.neighbors(i)]
            mus_b = [float(sym_eigen(oracles.matrix_abs(w, cls))[0][-1])
                     for a, _, w, cls in oracles.edge_rows(ref_coupling.table)
                     if a == i]
            want = 6 * (sum(mus) + sum(mus_b)) ** 2 + 6 * sum(m * m for m in mus)
            assert got[i] == pytest.approx(want)

    def test_gamma_splits_agents_from_inputs(self, ref_graph):
        """Agent 2 carries two inputs: both enter the squared sum only, and
        the agents' own terms are those of the leaderless graph."""
        coupling = InputCoupling.from_entries([
            (2, 0, WEIGHT_0_5, "pd"), (2, 1, -WEIGHT_3_4, "nsd"),
            (4, 2, WEIGHT_3_4, "psd")], 4)
        network = extended_graph(ref_graph, coupling)
        got = gamma(network, 6)
        for i in range(6):
            mus = [ref_graph.table.abs_lambda_max[ref_graph.edge(i, j)]
                   for j in ref_graph.neighbors(i)]
            mus_b = [float(sym_eigen(oracles.matrix_abs(w, cls))[0][-1])
                     for a, _, w, cls in oracles.edge_rows(coupling.table)
                     if a == i]
            assert len(mus_b) == {2: 2, 4: 1}.get(i, 0)
            want = 6 * (sum(mus) + sum(mus_b)) ** 2 + 6 * sum(m * m for m in mus)
            assert got[i] == pytest.approx(want, rel=1e-12)


class TestLeaderlessTrigger:
    def test_zero_error_never_fires(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            w = np.eye(d) * rng.uniform(0.5, 3.0)
            p_list = [(sym_sqrt(*sym_eigen(w)), rng.uniform(-2, 2, d))
                      for _ in range(int(rng.integers(0, 4)))]
            chi = float(rng.uniform(1e-6, 2.0))
            assert not leaderless_fires(np.zeros(d), p_list, chi, params(),
                                        2.0, len(p_list))

    def test_huge_chi_never_fires(self):
        e = np.array([5.0, -3.0])
        assert not leaderless_fires(e, [], 1e12, params(sigma=0.0), 10.0, 3)

    def test_direct_arithmetic(self):
        # theta=0.5, mu=1, one neighbor, ||e||^2=3, sigma=0: lhs = 1.5 > 1
        e = np.array([np.sqrt(3.0)])
        p = params(sigma=0.0, theta=0.5)
        assert leaderless_fires(e, [], 1.0, p, 1.0, 1)
        assert not leaderless_fires(e, [], 1.5, p, 1.0, 1)  # equality: silent

    def test_chi_rate_pure_decay(self):
        p = params(beta=2.0)
        assert chi_rate_leaderless(np.zeros(2), [], 0.7, p, 1.0, 1) \
            == pytest.approx(-1.4)

    def test_chi_rate_delta_zero(self):
        p = params(beta=1.5, delta=0.0, theta=1.0)
        e = np.array([3.0, 1.0])
        p_list = [(np.eye(2), np.array([4.0, 0.0]))]
        assert chi_rate_leaderless(e, p_list, 0.5, p, 2.0, 1) \
            == pytest.approx(-0.75)

    def test_chi_rate_direct_arithmetic(self):
        # beta=1, delta=1, sigma=0.9, identity weight, ||p||^2=4, mu=1,
        # one neighbor, ||e||^2=0.1, chi=0.5:
        # -1 * 0.5 + 1 * (0.9/4 * 4 - 1 * 1 * 0.1) = -0.5 + 0.8 = 0.3
        p = params(sigma=0.9, beta=1.0, delta=1.0)
        e = np.array([np.sqrt(0.1)])
        p_list = [(np.eye(1), np.array([2.0]))]
        got = chi_rate_leaderless(e, p_list, 0.5, p, 1.0, 1)
        assert got == pytest.approx(0.3)

    def test_homogeneity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            d = 3
            e = rng.uniform(-1, 1, d)
            w = np.abs(rng.uniform(0.2, 2.0)) * np.eye(d)
            p_list = [(sym_sqrt(*sym_eigen(w)), rng.uniform(-1, 1, d))]
            pr = params(sigma=float(rng.uniform(0, 0.99)))
            mu = float(rng.uniform(0.5, 3.0))
            chi = float(rng.uniform(0.01, 1.0))
            c = float(rng.uniform(0.1, 10.0))
            lhs = oracles.leaderless_threshold_lhs(e, p_list, pr, mu, 1)
            lhs_scaled = oracles.leaderless_threshold_lhs(
                c * e, [(r, c * p) for r, p in p_list], pr, mu, 1)
            assert lhs_scaled == pytest.approx(c * c * lhs, rel=1e-9, abs=1e-12)
            assert leaderless_fires(e, p_list, chi, pr, mu, 1) == \
                leaderless_fires(c * e, [(r, c * p) for r, p in p_list],
                                 c * c * chi, pr, mu, 1)

    def test_weighted_term_matches_quadratic_form(self, ref_graph):
        """||sqrt(|A|) p||^2 agrees with p^T |A| p."""
        rng = np.random.default_rng(43)
        for absw in ref_graph.table.abs_weight:
            root = sym_sqrt(*sym_eigen(absw))
            for _ in range(10):
                p = rng.uniform(-2, 2, ref_graph.d)
                direct = float(p @ absw @ p)
                via_root = oracles.weighted_disagreement([(root, p)])
                assert via_root == pytest.approx(direct, abs=1e-10)


class TestLeaderFollowerTrigger:
    def test_zero_error_never_fires(self):
        q = np.array([1.0, -2.0])
        assert not lf_fires(np.zeros(2), q, 0.5, params(), 10.0)

    def test_boundary_equality_is_silent(self):
        # sigma=0, gamma ||e||^2 = chi / theta exactly
        p = params(sigma=0.0, theta=1.0)
        e = np.array([1.0])
        assert not lf_fires(e, np.zeros(1), 4.0, p, 4.0)
        assert lf_fires(e, np.zeros(1), 4.0 - 1e-9, p, 4.0)

    def test_direct_arithmetic(self):
        # theta=1, gamma=4, ||e||^2=1, sigma=0.9, ||q||^2=2, chi=2:
        # 4 - 1.8 = 2.2 > 2
        p = params(sigma=0.9, theta=1.0)
        assert lf_fires(np.array([1.0]), np.array([np.sqrt(2.0)]), 2.0, p, 4.0)

    def test_chi_rate_cases(self):
        p = params(beta=1.0, delta=1.0, sigma=0.9)
        assert chi_rate_lf(np.zeros(2), np.zeros(2), 0.5, p, 4.0) \
            == pytest.approx(-0.5)
        p0 = params(beta=1.0, delta=0.0)
        assert chi_rate_lf(np.array([9.0]), np.array([5.0]), 0.5, p0, 4.0) \
            == pytest.approx(-0.5)
        # -0.5 + (0.9 * 1 - 4 * 0.1) = 0
        got = chi_rate_lf(np.array([np.sqrt(0.1)]), np.array([1.0]), 0.5, p, 4.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            e = rng.uniform(-1, 1, 4)
            q = rng.uniform(-1, 1, 4)
            pr = params(sigma=float(rng.uniform(0, 0.99)), theta=1.0)
            gam = float(rng.uniform(1.0, 10.0))
            chi = float(rng.uniform(0.01, 1.0))
            c = float(rng.uniform(0.1, 10.0))
            assert lf_fires(e, q, chi, pr, gam) == \
                lf_fires(c * e, c * q, c * c * chi, pr, gam)


def random_weighted_graph(rng, n, d, extra_edge_prob):
    """Balanced graph on a random spanning tree plus extra edges: definite
    weights (plus 0.5 I) and semidefinite ones of rank d - 1, signed by a
    random gauge.  Returns the graph and the gauge."""
    edges, gauge = random_balanced_scalar_graph(rng, n, extra_edge_prob)
    specs = []
    for (a, b), w in sorted(edges.items()):
        rank = int(rng.choice([d, d - 1])) if d > 1 else 1
        m = rng.normal(size=(d, rank)) * 10.0 ** rng.uniform(-2, 2)
        w_ab = m @ m.T / d + (0.5 * np.eye(d) if rank == d else 0.0)
        specs.append((a, b, np.sign(w) * w_ab))
    return MatrixWeightedGraph.from_edges(n, d, specs), gauge


def random_leader_follower(rng, n, d):
    """Leader-follower scenario on a random balanced graph: agents drawn at
    random are coupled to input 0 or 1, through ``m m^T / 4 + 0.5 I``
    signed by the agent's gauge sign, so Assumption 2 holds."""
    g, gauge = random_weighted_graph(rng, n, d, 4.0 / n)
    entries = []
    for k, i in enumerate(rng.choice(n, size=max(2, n // 8), replace=False)):
        m = rng.normal(size=(d, d))
        entries.append((int(i), k % 2,
                        gauge[i] * (m @ m.T / 4 + 0.5 * np.eye(d))))
    mode = LeaderFollower(u0=np.ones(d),
                          coupling=InputCoupling.from_entries(entries, d))
    return Scenario(graph=g, mode=mode,
                    params=TriggerParams.uniform(n, 0.5, 2.0, 1.0, 0.5, 0.5),
                    dt=1e-3, horizon=0.01)


def random_leaderless(rng, n, d):
    """Leaderless scenario on a dense random balanced graph."""
    g, _ = random_weighted_graph(rng, n, d, 0.3)
    return Scenario(graph=g, mode=Leaderless(),
                    params=TriggerParams.uniform(n, 0.5, 2.0, 1.0, 0.5, 0.5),
                    dt=1e-3, horizon=0.01)


def hub_scenario(rng, n, d, leader):
    """Star on n agents: agent 0 joined to every other through definite
    weights whose scales span eight decades, signed by a random gauge; with
    ``leader``, the hub and agent 1 are coupled to inputs 0 and 1."""
    gauge = rng.choice([-1, 1], size=n)
    specs = []
    for k in range(1, n):
        m = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-4, 4)
        specs.append((0, k, gauge[0] * gauge[k] * (m @ m.T + np.eye(d))))
    mode = Leaderless()
    if leader:
        mode = LeaderFollower(u0=np.ones(d), coupling=InputCoupling.from_entries(
            [(i, i, gauge[i] * np.eye(d)) for i in (0, 1)], d))
    return Scenario(graph=MatrixWeightedGraph.from_edges(n, d, specs),
                    mode=mode,
                    params=TriggerParams.uniform(n, 0.5, 2.0, 1.0, 0.5, 0.5),
                    dt=1e-3, horizon=0.01)


class TestGainsFromTable:
    """The gains read from the edge table for all agents at once are, bit
    for bit, the per-agent ``max`` and left-to-right sums over
    ``neighbors(i)``, in both protocols."""

    @pytest.mark.parametrize("make", [
        lambda: leaderless_scenario(),
        lambda: leader_follower_scenario(),
        lambda: random_leaderless(np.random.default_rng(8), 30, 3),
        lambda: random_leader_follower(np.random.default_rng(9), 60, 3),
        lambda: hub_scenario(np.random.default_rng(10), 300, 2, False),
        lambda: hub_scenario(np.random.default_rng(11), 300, 2, True),
        lambda: isolated_psd_nsd_scenario(),
        lambda: isolated_psd_nsd_scenario(lf=True),
    ], ids=["leaderless", "leader-follower", "random-dense", "random-lf-n60",
            "hub", "hub-lf", "isolated", "isolated-lf"])
    def test_gains_match_per_agent_reference(self, make):
        sc = make()
        want = np.array(oracles.gains(sc))
        assert sc.gains.tobytes() == want.tobytes()
        g = sc.graph
        if isinstance(sc.mode, LeaderFollower):
            assert len(sc.mode.coupling.table) >= 2
            assert max(len(sc.network.neighbors(i)) - g.degrees[i]
                       for i in range(g.n)) >= 1
        else:
            assert g.n < 10 or g.degrees.max() >= 9
            mu, linked = mu_bar(g), np.flatnonzero(g.degrees)
            assert mu[linked].tobytes() == np.array(
                [oracles.mu_bar(int(i), g) for i in linked]).tobytes()
            assert not mu[g.degrees == 0].any()
            # gamma's sums over the same neighbour lists, inputs aside.
            assert gamma(g, g.n).tobytes() == np.array(
                [oracles.gamma(i, g, g.n) for i in range(g.n)]).tobytes()

    def test_hub_gains_in_edge_memory(self):
        """A star of n = 20 000 scalar edges: the gains take memory in
        proportion to the edges, not to n times the hub's degree."""
        sc = hub_scenario(np.random.default_rng(12), 20_000, 1, True)
        tracemalloc.start()
        try:
            got = gamma(sc.network, sc.graph.n)
            mu = mu_bar(sc.graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24
        for i in (0, 1, 2, 19_999):
            assert got[i] == oracles.gamma(i, sc.network, sc.graph.n)
            assert mu[i] == oracles.mu_bar(i, sc.graph)

    def test_probe_gains_square_by_multiplication(self):
        """At n = 2000 on the pinned probe, one agent's sum is a value whose
        square ``pow(x, 2)`` rounds one ulp away from ``x * x``: every gain
        is the oracle's ``n * (x * x)`` form, bit for bit."""
        sc = pinned_probe_scenario(2000, 0.2)
        n = sc.graph.n
        assert gamma(sc.network, n).tobytes() == np.array(
            [oracles.gamma(i, sc.network, n) for i in range(n)]).tobytes()

    def test_overflowing_gamma_is_inf_per_agent(self):
        g = scalar_graph(3, {(0, 1): 1e300, (1, 2): 1.0}, d=1)
        got = gamma(g, g.n)
        assert got.tolist() == [oracles.gamma(i, g, g.n) for i in range(3)]
        assert got.tolist() == [np.inf, np.inf, 6.0]


def fields(lines: list[str]) -> list[str]:
    """The field each ``agent {i}: {field}: {message}`` line names."""
    return [line.split(": ")[1] for line in lines]


class TestValidateParams:
    def test_matches_per_agent_reference(self):
        """Seeded parameter arrays, most of them invalid somewhere, give the
        per-agent loop's violations in its order: by agent, then field."""
        rng = np.random.default_rng(12)
        pool = [0.0, -0.0, 0.5, 1.0, 1.5, -0.1, 2.0, 1e-300, 1e300, np.inf,
                -np.inf, np.nan, 0.3, 0.999]
        flagged = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            arrays = [rng.choice(pool, size=n) if rng.uniform() < 0.6
                      else rng.uniform(0.0, 3.0, n) for _ in range(5)]
            p = TriggerParams(*arrays)
            want = oracles.validate_params(p)
            assert validate_params(p) == want
            flagged += bool(want)
        assert flagged > 200

    def test_reference_values_ok(self):
        p = TriggerParams.uniform(6, sigma=0.9, theta=0.5, beta=1.0,
                                  delta=1.0, chi0=0.5)
        assert validate_params(p) == []

    def test_theta_bound(self):
        p = TriggerParams.uniform(2, sigma=0.5, theta=0.5, beta=1.0,
                                  delta=0.0, chi0=0.5)
        assert fields(validate_params(p)) == ["theta", "theta"]

    def test_sigma_boundary_strict(self):
        p = TriggerParams.uniform(1, sigma=1.0, theta=2.0, beta=1.0,
                                  delta=1.0, chi0=0.5)
        assert "sigma" in fields(validate_params(p))

    def test_each_range(self):
        base = dict(sigma=0.5, theta=2.0, beta=1.0, delta=0.5, chi0=0.5)
        for field, bad in (("sigma", -0.1), ("theta", 0.0), ("beta", -1.0),
                           ("delta", 1.5), ("chi0", 0.0), ("theta", np.inf),
                           ("beta", np.inf), ("chi0", np.inf),
                           ("beta", np.nan)):
            kwargs = dict(base)
            kwargs[field] = bad
            p = TriggerParams.uniform(1, **kwargs)
            assert field in fields(validate_params(p)), field

    def test_floor_rate_overflow(self):
        """A theta so small that beta + delta / theta overflows is refused
        in one line, as the reference refuses it; an infinite beta has its
        own line."""
        p = TriggerParams(sigma=[0.5] * 4, theta=[1e-310, 1e-300, 1e-310, 5e-324],
                          beta=[1.0, 1.0, np.inf, 1.0], delta=[1.0] * 4,
                          chi0=[0.5] * 4)
        lines = validate_params(p)
        assert lines == oracles.validate_params(p)
        overflow = "makes the chi floor rate beta + delta / theta overflow"
        assert lines == [f"agent 0: theta: 1e-310 {overflow}",
                         "agent 2: beta: inf must be positive and finite",
                         f"agent 3: theta: 5e-324 {overflow}"]

    @pytest.mark.parametrize("arrays", [
        ([0.9, 0.9], [0.5], [1.0], [1.0], [0.5]),
        ([0.9], [0.5], [1.0], [1.0], [0.5, 0.5]),
        ([[0.9, 0.9]], [0.5], [1.0], [1.0], [0.5]),
    ], ids=["theta-short", "chi0-long", "two-dimensional"])
    def test_mismatched_lengths_refused(self, arrays):
        """The refusal is an MwcError, which a library caller catches."""
        with pytest.raises(GraphFormatError, match="share one length"):
            TriggerParams(*arrays)
