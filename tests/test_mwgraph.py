"""Graph model, Laplacians, balance, gauge, and the structural assumptions."""

import numpy as np
import pytest

from mwconsensus.errors import AssumptionViolated, GraphFormatError, NotPSD
from mwconsensus.linalg import PSD, sym_eigen
from mwconsensus.mwgraph import Bipartition, GaugeMatrix, InputCoupling, \
    MatrixWeightedGraph, build_grounded_laplacian, build_laplacian, \
    check_gauge_identity, detect_structural_balance, extended_graph, \
    gauge_matrix, graph_from_dict, graph_to_dict, null_space, \
    predicted_bipartite_limit, verify_assumption1, verify_assumption2

from conftest import random_balanced_scalar_graph, two_node_graph
from oracles import brute_force_balance


def scalar_graph(n, edges, d=1):
    """Graph with a_ij * I_d weights from a {(i, j): a} dict."""
    specs = [(i, j, a * np.eye(d)) for (i, j), a in edges.items()]
    return MatrixWeightedGraph.from_edges(n, d, specs)


class TestGraphModel:
    def test_basic_accessors(self, ref_graph):
        assert ref_graph.n == 6 and ref_graph.d == 4
        assert ref_graph.neighbors(0) == (1, 5)
        assert ref_graph.degree(3) == 2
        assert ref_graph.sgn(1, 2) == -1
        assert ref_graph.sgn(0, 3) == 0
        np.testing.assert_array_equal(ref_graph.weight(5, 0).entries,
                                      ref_graph.weight(0, 5).entries)
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            edges, _ = random_balanced_scalar_graph(
                rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.8)))
            g = scalar_graph(n, edges, d=2)
            for i in range(n):
                want = sorted(e.j if e.i == i else e.i
                              for e in g.edges if i in (e.i, e.j))
                assert g.neighbors(i) == tuple(want)
                assert g.degree(i) == len(want)
                for j in range(n):
                    scan = [e for e in g.edges if {e.i, e.j} == {i, j}]
                    assert g.edge(i, j) is (scan[0] if scan else None)

    def test_abs_weight_built_once(self, ref_graph, ref_coupling):
        """|A| is built and validated once per edge and per coupling."""
        for e in (*ref_graph.edges, *ref_coupling.entries):
            assert e.abs_weight() is e.abs_weight()
            np.testing.assert_array_equal(e.abs_weight().entries,
                                          e.sign * e.weight.entries)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            MatrixWeightedGraph.from_edges(2, 1, [(0, 0, [[1.0]])])

    def test_indefinite_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="indefinite"):
            MatrixWeightedGraph.from_edges(2, 2, [(0, 1, np.diag([1.0, -1.0]))])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            MatrixWeightedGraph.from_edges(2, 2, [(0, 1, np.zeros((2, 2)))])

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="asymmetric"):
            MatrixWeightedGraph.from_edges(2, 2, [(0, 1, [[1.0, 0.5], [0.2, 1.0]])])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            MatrixWeightedGraph.from_edges(
                2, 1, [(0, 1, [[1.0]]), (1, 0, [[2.0]])])

    def test_declared_class_projects_noise(self):
        noisy = np.diag([4.0, 3e-5, -3e-5])
        g = MatrixWeightedGraph.from_edges(2, 3, [(0, 1, noisy, "psd")])
        e = g.edges[0]
        assert e.cls is PSD
        vals = sym_eigen(e.weight).eigenvalues
        assert vals[0] == 0.0 and vals[1] == 0.0

    def test_declared_class_contradiction_rejected(self):
        with pytest.raises(GraphFormatError, match="contradicts"):
            MatrixWeightedGraph.from_edges(
                2, 2, [(0, 1, np.diag([1.0, -1.0]), "pd")])


class TestLaplacian:
    def test_two_node_pd_block_form(self):
        w = np.array([[2.0, 0.5], [0.5, 1.0]])
        lap = build_laplacian(two_node_graph(w)).entries
        np.testing.assert_array_equal(lap[:2, :2], w)
        np.testing.assert_array_equal(lap[2:, 2:], w)
        np.testing.assert_array_equal(lap[:2, 2:], -w)

    def test_two_node_nd_block_form(self):
        w = -np.array([[2.0, 0.5], [0.5, 1.0]])  # negative definite
        lap = build_laplacian(two_node_graph(w)).entries
        np.testing.assert_array_equal(lap[:2, :2], -w)
        np.testing.assert_array_equal(lap[2:, 2:], -w)
        # -A_ij = -w = |w|
        np.testing.assert_array_equal(lap[:2, 2:], -w)

    def test_reference_laplacian_psd(self, ref_graph):
        vals = sym_eigen(build_laplacian(ref_graph)).eigenvalues
        assert vals.shape == (24,)
        assert vals[0] >= -1e-8 * vals[-1]

    def test_balanced_random_graphs_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            edges, _ = random_balanced_scalar_graph(rng, n)
            g = scalar_graph(n, edges, d=2)
            vals = sym_eigen(build_laplacian(g)).eigenvalues
            assert vals[0] >= -1e-8 * max(vals[-1], 1.0)

    def test_scalar_degeneration_kron(self):
        rng = np.random.default_rng(29)
        n, d = 5, 3
        edges, _ = random_balanced_scalar_graph(rng, n)
        block = build_laplacian(scalar_graph(n, edges, d=d)).entries
        ls = np.zeros((n, n))
        for (i, j), a in edges.items():
            ls[i, i] += abs(a)
            ls[j, j] += abs(a)
            ls[i, j] = -a
            ls[j, i] = -a
        np.testing.assert_array_equal(block, np.kron(ls, np.eye(d)))


class TestBalance:
    def test_reference_bipartition(self, ref_graph):
        bip = detect_structural_balance(ref_graph)
        assert bip is not None
        assert sorted(bip.group1) == [0, 1, 5]
        assert sorted(bip.group2) == [2, 3, 4]

    def test_all_positive_graph(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 0.5})
        bip = detect_structural_balance(g)
        assert sorted(bip.group1) == [0, 1, 2]
        assert not bip.group2

    def test_frustrated_triangle(self):
        signs = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0}
        assert brute_force_balance(3, [(i, j, 1 if a > 0 else -1)
                                       for (i, j), a in signs.items()]) is None
        assert detect_structural_balance(scalar_graph(3, signs)) is None

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.uniform() < 0.35:
                        edges[(i, j)] = float(rng.choice([-1.0, 1.0])
                                              * rng.uniform(0.5, 2.0))
            if not edges:
                continue
            g = scalar_graph(n, edges)
            got = detect_structural_balance(g)
            want = brute_force_balance(
                n, [(i, j, 1 if a > 0 else -1) for (i, j), a in edges.items()])
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert sorted(got.group1) == want[0]
                assert sorted(got.group2) == want[1]

    def test_bipartition_validation(self):
        with pytest.raises(ValueError):
            Bipartition(3, frozenset({0, 1}), frozenset({1, 2}))
        with pytest.raises(ValueError):
            Bipartition(3, frozenset({0}), frozenset({2}))

    def test_reference_graph_with_flipped_edge_imbalanced(self, ref_graph):
        """Negating the (1,2) weight (making it definite positive) breaks
        the two-coloring through the 1-2-4-5 cycle."""
        specs = []
        for e in ref_graph.edges:
            w = e.weight.entries
            if (e.i, e.j) == (1, 2):
                w = -w
            specs.append((e.i, e.j, w))
        flipped = MatrixWeightedGraph.from_edges(6, 4, specs)
        assert detect_structural_balance(flipped) is None


class TestGauge:
    def test_reference_signs(self, ref_graph):
        bip = detect_structural_balance(ref_graph)
        np.testing.assert_array_equal(gauge_matrix(bip).signs,
                                      [1, 1, -1, -1, -1, 1])

    def test_all_plus_and_all_minus(self):
        assert np.all(gauge_matrix(
            Bipartition(3, frozenset({0, 1, 2}), frozenset())).signs == 1)
        assert np.all(gauge_matrix(
            Bipartition(3, frozenset(), frozenset({0, 1, 2}))).signs == -1)

    def test_identity_detected_gauge(self, ref_graph):
        bip = detect_structural_balance(ref_graph)
        assert check_gauge_identity(ref_graph, gauge_matrix(bip))

    def test_identity_wrong_gauge(self, ref_graph):
        assert not check_gauge_identity(ref_graph, GaugeMatrix(np.ones(6)))

    def test_identity_all_positive_graph(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 2.0})
        assert check_gauge_identity(g, GaugeMatrix(np.ones(3)))

    def test_flip_invariance(self, ref_graph):
        bip = detect_structural_balance(ref_graph)
        flipped = gauge_matrix(bip.flipped())
        assert check_gauge_identity(ref_graph, flipped)


class TestNullSpace:
    def test_two_node_pd_consensus_subspace(self, pd_pair):
        basis = null_space(build_laplacian(pd_pair))
        assert basis.shape == (4, 2)
        # spanned by (v, v) stacked pairs
        lap = build_laplacian(pd_pair).entries
        assert np.linalg.norm(lap @ basis) <= 1e-10

    def test_reference_nullity(self, ref_graph):
        assert null_space(build_laplacian(ref_graph)).shape[1] == 4

    def test_rank_deficient_edge_extra_nullity(self):
        g = two_node_graph(np.diag([1.0, 0.0]))
        assert null_space(build_laplacian(g)).shape[1] == 3

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            null_space(np.diag([1.0, -0.5]))

    def test_gauge_consensus_in_kernel(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            edges, gauge = random_balanced_scalar_graph(rng, n)
            d = 2
            g = scalar_graph(n, edges, d=d)
            lap = build_laplacian(g).entries
            lam_max = sym_eigen(lap).lambda_max
            for k in range(d):
                v = np.zeros(n * d)
                for i in range(n):
                    v[i * d + k] = gauge[i]
                assert np.linalg.norm(lap @ v) <= 1e-8 * max(lam_max, 1.0)


class TestAssumption1:
    def test_reference_holds(self, ref_graph):
        rep = verify_assumption1(ref_graph)
        assert rep.balanced and rep.holds and rep.nullity == 4
        assert rep.subspace_residual <= 1e-8

    def test_rank_deficient_pair_fails(self):
        rep = verify_assumption1(two_node_graph(np.diag([1.0, 0.0])))
        assert rep.balanced and rep.nullity == 3 and not rep.holds

    def test_complete_identity_graph(self):
        edges = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
        rep = verify_assumption1(scalar_graph(4, edges, d=2))
        assert rep.holds

    def test_imbalanced_fails(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        rep = verify_assumption1(g)
        assert not rep.balanced and not rep.holds

    def test_disconnected_fails_nullity(self):
        g = scalar_graph(4, {(0, 1): 1.0, (2, 3): 1.0}, d=2)
        rep = verify_assumption1(g)
        assert rep.balanced and rep.nullity == 4 and not rep.holds


class TestPredictedLimit:
    def test_single_node(self):
        g = MatrixWeightedGraph(1, 3, ())
        x0 = np.array([0.3, -0.2, 1.0])
        np.testing.assert_array_equal(predicted_bipartite_limit(g, x0), x0)

    def test_already_at_consensus(self):
        edges = {(0, 1): 1.0, (1, 2): 1.5, (0, 2): 0.7}
        g = scalar_graph(3, edges, d=2)
        v = np.array([0.4, -1.2])
        x0 = np.tile(v, 3)
        np.testing.assert_allclose(predicted_bipartite_limit(g, x0),
                                   x0, atol=1e-14)

    def test_reference_gauge_weighted_mean(self, ref_graph):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1, 1, 24)
        got = predicted_bipartite_limit(ref_graph, x0)
        signs = np.array([1, 1, -1, -1, -1, 1], dtype=float)
        mean = sum(signs[i] * x0[4 * i:4 * i + 4] for i in range(6)) / 6.0
        want = np.concatenate([signs[i] * mean for i in range(6)])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_requires_assumption(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        with pytest.raises(AssumptionViolated):
            predicted_bipartite_limit(g, np.zeros(3))


class TestGroundedLaplacian:
    def test_empty_coupling_is_plain_laplacian(self, ref_graph):
        lb = build_grounded_laplacian(ref_graph, InputCoupling.empty())
        np.testing.assert_array_equal(lb.entries,
                                      build_laplacian(ref_graph).entries)

    def test_reference_grounded_positive_definite(self, ref_graph, ref_coupling):
        vals = sym_eigen(build_grounded_laplacian(ref_graph, ref_coupling)
                         ).eigenvalues
        assert vals[0] > 0.0

    def test_single_node_equals_coupling_weight(self):
        g = MatrixWeightedGraph(1, 2, ())
        w = np.array([[2.0, 0.2], [0.2, 1.0]])
        coupling = InputCoupling.from_entries(1, [(0, 0, w)], 2)
        np.testing.assert_allclose(
            build_grounded_laplacian(g, coupling).entries, w, atol=1e-15)


class TestAssumption2:
    def test_reference_holds(self, ref_graph, ref_coupling):
        assert verify_assumption2(ref_graph, ref_coupling)

    def test_empty_coupling_fails(self, ref_graph):
        assert not verify_assumption2(ref_graph, InputCoupling.empty())

    def test_single_pd_input(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        coupling = InputCoupling.from_entries(1, [(0, 0, np.eye(2))], 2)
        assert verify_assumption2(g, coupling)

    def test_sign_mismatched_input_breaks_extended_balance(self):
        # both agents in group 1, but agent 1 is attached negatively
        g = scalar_graph(2, {(0, 1): 1.0}, d=1)
        coupling = InputCoupling.from_entries(
            1, [(0, 0, [[1.0]]), (1, 0, [[-1.0]])], 1)
        assert not verify_assumption2(g, coupling)

    def test_psd_only_grounding_fails(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        coupling = InputCoupling.from_entries(
            1, [(0, 0, np.diag([1.0, 0.0]), "psd")], 2)
        assert not verify_assumption2(g, coupling)

    def test_extended_graph_shape(self, ref_graph, ref_coupling):
        ext = extended_graph(ref_graph, ref_coupling)
        assert ext.n == 8
        assert len(ext.edges) == len(ref_graph.edges) + 2


class TestInterchange:
    def test_round_trip(self, ref_graph, ref_coupling):
        doc = graph_to_dict(ref_graph, ref_coupling)
        g2, c2 = graph_from_dict(doc)
        assert g2.n == ref_graph.n and g2.d == ref_graph.d
        assert len(g2.edges) == len(ref_graph.edges)
        for a, b in zip(ref_graph.edges, g2.edges):
            assert (a.i, a.j, a.cls) == (b.i, b.j, b.cls)
            np.testing.assert_array_equal(a.weight.entries, b.weight.entries)
        assert c2.m == ref_coupling.m
        doc2 = graph_to_dict(g2, c2)
        assert doc == doc2

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown"):
            graph_from_dict({"n": 2, "d": 1, "edges": [], "extra": 1})
        with pytest.raises(GraphFormatError, match="unknown"):
            graph_from_dict({"n": 2, "d": 1,
                             "edges": [{"i": 0, "j": 1, "weight": [1.0],
                                        "oops": 2}]})

    def test_class_override_validated(self):
        doc = {"n": 2, "d": 2,
               "edges": [{"i": 0, "j": 1, "weight": [1.0, 0, 0, -1.0],
                          "class": "pd"}]}
        with pytest.raises(GraphFormatError):
            graph_from_dict(doc)
