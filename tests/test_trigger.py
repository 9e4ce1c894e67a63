"""Trigger formulas: controls, spectral constants, firing rules, thresholds.

The per-agent formulas live in ``oracles``; the engine's vectorized form is
cross-checked against them in ``test_sim``.
"""

import numpy as np
import pytest

from mwconsensus.errors import NoNeighbors, NotNeighbors
from mwconsensus.linalg import sym_eigen, sym_sqrt
from mwconsensus.mwgraph import InputCoupling, MatrixWeightedGraph, \
    build_grounded_laplacian, build_laplacian
from mwconsensus.trigger import AgentParams, TriggerParams, gamma, mu_bar, \
    validate_params

import oracles
from conftest import random_balanced_scalar_graph
from oracles import chi_rate_leaderless, chi_rate_lf, \
    control_leader_follower, control_leaderless, leaderless_fires, lf_fires, \
    relative_broadcast
from test_mwgraph import scalar_graph


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
            stacked, -build_laplacian(ref_graph).entries @ xhat, atol=1e-12)

    def test_lf_without_inputs_matches_leaderless(self, ref_graph):
        rng = np.random.default_rng(3)
        xhat = rng.uniform(-1, 1, 24)
        empty = InputCoupling.empty()
        u0 = np.zeros(4)
        for i in range(6):
            np.testing.assert_array_equal(
                control_leader_follower(i, xhat, ref_graph, empty, u0),
                control_leaderless(i, xhat, ref_graph))

    def test_lf_tracking_equilibrium(self):
        g = MatrixWeightedGraph(1, 2, ())
        w = np.array([[1.5, 0.2], [0.2, 2.0]])
        coupling = InputCoupling.from_entries(1, [(0, 0, w)], 2)
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
        lb = build_grounded_laplacian(ref_graph, ref_coupling).entries
        drive = np.zeros(24)
        for c in ref_coupling.entries:
            block = (c.sign * c.abs_weight().entries) @ u0
            drive[c.agent * 4:(c.agent + 1) * 4] += block
        np.testing.assert_allclose(stacked, drive - lb @ xhat, atol=1e-12)


class TestSpectralConstants:
    def test_reference_mu_bar_published_values(self, ref_graph):
        published = (9.2047, 8.396, 9.7599, 6.7454, 9.7599, 9.3996)
        for i, want in enumerate(published):
            assert mu_bar(i, ref_graph) == pytest.approx(want, abs=1e-3)

    def test_identity_weight(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=3)
        assert mu_bar(0, g) == pytest.approx(1.0)

    def test_isolated_agent_raises(self):
        g = MatrixWeightedGraph(2, 1, ())
        with pytest.raises(NoNeighbors):
            mu_bar(0, g)

    def test_scalar_degeneration(self):
        rng = np.random.default_rng(19)
        edges, _ = random_balanced_scalar_graph(rng, 5)
        g = scalar_graph(5, edges, d=3)
        for i in range(5):
            neigh = g.neighbors(i)
            if not neigh:
                continue
            want = max(abs(edges.get((min(i, j), max(i, j)))) for j in neigh)
            assert mu_bar(i, g) == pytest.approx(want, abs=1e-12)

    def test_gamma_empty(self):
        g = MatrixWeightedGraph(2, 1, ())
        assert gamma(0, g, InputCoupling.empty()) == 0.0

    def test_gamma_two_node_identity(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        # n * (sum mu)^2 + n * sum mu^2 = 2 * 1 + 2 * 1
        assert gamma(0, g, InputCoupling.empty()) == pytest.approx(4.0)

    def test_gamma_overflows_to_inf(self):
        # float ** raises OverflowError where float * returns inf
        g = scalar_graph(2, {(0, 1): 1e300}, d=2)
        assert gamma(0, g, InputCoupling.empty()) == np.inf

    def test_gamma_formula_against_direct_evaluation(self, ref_graph,
                                                     ref_coupling):
        for i in range(6):
            mus = [float(sym_eigen(ref_graph.abs_weight(i, j)).lambda_max)
                   for j in ref_graph.neighbors(i)]
            mus_b = [float(sym_eigen(c.abs_weight()).lambda_max)
                     for c in ref_coupling.entries_for_agent(i)]
            want = 6 * (sum(mus) + sum(mus_b)) ** 2 + 6 * sum(m * m for m in mus)
            assert gamma(i, ref_graph, ref_coupling) == pytest.approx(want)


class TestLeaderlessTrigger:
    def test_zero_error_never_fires(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            w = np.eye(d) * rng.uniform(0.5, 3.0)
            p_list = [(sym_sqrt(w).entries, rng.uniform(-2, 2, d))
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
            p_list = [(sym_sqrt(w).entries, rng.uniform(-1, 1, d))]
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
        for e in ref_graph.edges:
            absw = e.abs_weight().entries
            root = sym_sqrt(absw).entries
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


class TestValidateParams:
    def test_reference_values_ok(self):
        p = TriggerParams.uniform(6, sigma=0.9, theta=0.5, beta=1.0,
                                  delta=1.0, chi0=0.5)
        assert validate_params(p) == []

    def test_theta_bound(self):
        p = TriggerParams.uniform(2, sigma=0.5, theta=0.5, beta=1.0,
                                  delta=0.0, chi0=0.5)
        violations = validate_params(p)
        assert len(violations) == 2
        assert all(v.field == "theta" for v in violations)

    def test_sigma_boundary_strict(self):
        p = TriggerParams.uniform(1, sigma=1.0, theta=2.0, beta=1.0,
                                  delta=1.0, chi0=0.5)
        assert any(v.field == "sigma" for v in validate_params(p))

    def test_each_range(self):
        base = dict(sigma=0.5, theta=2.0, beta=1.0, delta=0.5, chi0=0.5)
        for field, bad in (("sigma", -0.1), ("theta", 0.0), ("beta", -1.0),
                           ("delta", 1.5), ("chi0", 0.0), ("theta", np.inf),
                           ("beta", np.inf), ("chi0", np.inf),
                           ("beta", np.nan)):
            kwargs = dict(base)
            kwargs[field] = bad
            p = TriggerParams.uniform(1, **kwargs)
            assert any(v.field == field for v in validate_params(p)), field

    def test_per_agent_replace(self):
        p = TriggerParams.uniform(3, sigma=0.9, theta=1.0, beta=1.0,
                                  delta=1.0, chi0=0.5)
        p2 = p.replace(1, theta=5.0)
        assert p2.agent(1).theta == 5.0
        assert p2.agent(0).theta == 1.0
        assert p.agent(1).theta == 1.0
