"""Graph model, Laplacians, balance, gauge, and the structural assumptions."""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mwconsensus import mwgraph, scenario_io
from mwconsensus.builtin import RAW_EDGE_0_1, WEIGHT_0_5, WEIGHT_3_4
from mwconsensus.errors import AssumptionViolated, GraphFormatError, NotPSD
from mwconsensus.linalg import DEFAULT_TOL, ND, NSD, PD, PSD, ZERO, \
    sym_eigen, sym_sqrt
from mwconsensus.mwgraph import TOO_LARGE, EdgeTable, InputCoupling, \
    MatrixWeightedGraph, build_laplacian, definite_quotient, \
    detect_structural_balance, extended_graph, leader_gauge, null_space, \
    predicted_bipartite_limit, verify_assumption1, verify_assumption2
from mwconsensus.scenario_io import graph_from_dict

from conftest import random_balanced_scalar_graph, two_node_graph
from oracles import assumption1_dense, brute_force_balance, \
    check_gauge_identity, edge_rows, grounded_laplacian, matrix_abs

REFERENCE_SIGNS = [1, 1, -1, -1, -1, 1]

PAIR = np.array([[2.0, 0.3], [0.3, 1.0]])
NOISY = np.diag([4.0, 3e-5, -3e-5])


def scalar_graph(n, edges, d=1):
    """Graph with a_ij * I_d weights from a {(i, j): a} dict."""
    specs = [(i, j, a * np.eye(d)) for (i, j), a in edges.items()]
    return MatrixWeightedGraph.from_edges(n, d, specs)


def assumption2(g, coupling):
    """Assumption 2 on the input-extended network of ``g``."""
    return verify_assumption2(extended_graph(g, coupling), g.n)


def grounded_block(g, coupling):
    """The agents' nd x nd block of the input-extended network's Laplacian,
    which ``spectrum`` reports as the grounded Laplacian."""
    nd = g.n * g.d
    return extended_graph(g, coupling).laplacian[:nd, :nd]


def random_mixed_graph(rng, balanced):
    """Graph on 2-8 nodes, d in {1, 2, 4}, split into up to three groups.
    Pairs inside a group are joined more often, by definite weights (plus
    0.5 I) or by semidefinite ones of lower rank; pairs across groups by
    weights of any rank, mostly semidefinite.  Edge signs follow a random
    gauge, or are drawn at random when not ``balanced``."""
    n, d = int(rng.integers(2, 9)), int(rng.choice([1, 2, 4]))
    gauge = rng.choice([-1, 1], size=n)
    group = rng.integers(0, rng.integers(1, 4), size=n)
    specs = []
    for i in range(n):
        for j in range(i + 1, n):
            inside = group[i] == group[j]
            if rng.uniform() > (0.6 if inside else 0.35):
                continue
            definite = rng.uniform() < (0.6 if inside else 0.15)
            rank = d if definite else int(rng.integers(1, d + 1))
            b = rng.normal(size=(d, rank))
            w = b @ b.T + (0.5 * np.eye(d) if definite else 0.0)
            sign = gauge[i] * gauge[j] if balanced else rng.choice([-1, 1])
            specs.append((i, j, sign * w))
    return MatrixWeightedGraph.from_edges(n, d, specs)


class TestGraphModel:
    def test_block_dimension_beyond_memory_refused(self):
        """A d whose d x d weights (8 d^2 bytes each) exceed the memory is
        refused in one line before a weight stack is shaped, from edge specs
        or with an edgeless table, whose quotient stacks ``(0, d, d)``."""
        d = 3 * 10**9
        for build in (lambda: MatrixWeightedGraph(1, d, EdgeTable.empty(1)),
                      lambda: MatrixWeightedGraph.from_edges(2, d, []),
                      lambda: MatrixWeightedGraph.from_edges(
                          2, d, [(0, 1, [1.0])]),
                      lambda: InputCoupling.from_entries([], d)):
            with pytest.raises(GraphFormatError,
                               match=rf"^d={d} weights need .* of physical "
                                     "memory$"):
                build()

    def test_basic_accessors(self, ref_graph):
        """``edge(i, j)`` is the row of the table whose ends are
        ``(min(i, j), max(i, j))``, or ``None``."""
        assert ref_graph.n == 6 and ref_graph.d == 4
        assert ref_graph.neighbors(0) == (1, 5)
        assert ref_graph.degrees[3] == 2
        assert ref_graph.table.sign[ref_graph.edge(1, 2)] == -1
        assert ref_graph.edge(0, 3) is None
        assert ref_graph.edge(5, 0) == ref_graph.edge(0, 5)
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            edges, _ = random_balanced_scalar_graph(
                rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.8)))
            g = scalar_graph(n, edges, d=2)
            ends = list(map(tuple, g.table.ends.tolist()))
            for i in range(n):
                want = sorted(b if a == i else a for a, b in ends
                              if i in (a, b))
                assert g.neighbors(i) == tuple(want)
                assert g.degrees[i] == len(want)
                for j in range(-1, n + 1):
                    k, pair = g.edge(i, j), (min(i, j), max(i, j))
                    if k is None:
                        assert pair not in ends
                    else:
                        assert type(k) is int and ends[k] == pair
            assert g.edge(-1, 0) is None and g.edge(n, 0) is None

    def test_abs_weight_built_once(self, ref_graph, ref_coupling):
        """|A| is built once per table, and is each weight's own |A|."""
        for t in (extended_graph(ref_graph, ref_coupling).table,
                  ref_coupling.table):
            assert t.abs_weight is t.abs_weight
            np.testing.assert_array_equal(
                t.abs_weight, t.sign[:, None, None] * t.weight)
            for k, (_, _, w, cls) in enumerate(edge_rows(t)):
                assert t.abs_weight[k].tobytes() \
                    == matrix_abs(w, cls).tobytes()

    def test_arrays_read_only(self, ref_graph, ref_coupling):
        """Weights, absolute weights, their eigh pairs, the other per-edge
        arrays and the Laplacian cannot be written."""
        ext = extended_graph(ref_graph, ref_coupling)
        t = ext.table
        arrays = [ext.laplacian, ref_graph.laplacian, t.ends, t.weight,
                  t.vals, t.vecs, t.cls, t.sign, t.abs_weight, *t.abs_eigen,
                  t.abs_lambda_max]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_weight_shape_checked(self):
        """A table built directly, past the loader, still needs d x d
        weights."""
        for w in (np.eye(3), np.zeros((2, 3))):
            table = EdgeTable(np.array([[0, 1]]), w[None], np.ones((1, 2)),
                              np.eye(2)[None], np.array([PD], dtype=object))
            with pytest.raises(GraphFormatError) as err:
                MatrixWeightedGraph(2, 2, table)
            assert str(err.value) == (f"edge (0,1) weight has shape "
                                      f"{w.shape}, graph block dimension "
                                      f"is 2")

    def test_non_integer_ends_refused(self):
        with pytest.raises(GraphFormatError) as err:
            MatrixWeightedGraph.from_edges(3, 1, [(0, 1.5, [[1.0]])])
        assert str(err.value) == "edge (0,1.5): ends must be integers"

    def test_zero_class_row_refused(self):
        """A table built directly, past the loader, still needs
        sign-definite classes, in a graph and in an input coupling."""
        table = EdgeTable(np.array([[0, 1]]), np.zeros((1, 1, 1)),
                          np.zeros((1, 1)), np.ones((1, 1, 1)),
                          np.array([ZERO], dtype=object))
        with pytest.raises(GraphFormatError) as err:
            MatrixWeightedGraph(2, 1, table)
        assert str(err.value) == "edge (0,1) has class zero"
        with pytest.raises(GraphFormatError) as err:
            InputCoupling(table)
        assert str(err.value) == "coupling (0,1) has class zero"

    @pytest.mark.parametrize("table", [(), [], None, [[0, 1]]])
    def test_non_table_refused_in_one_line(self, table):
        """A graph and an input coupling take an EdgeTable; anything else
        is refused before it is read."""
        kind = type(table).__name__
        with pytest.raises(GraphFormatError) as err:
            MatrixWeightedGraph(2, 1, table)
        assert str(err.value) == f"a graph takes an EdgeTable, got {kind}"
        with pytest.raises(GraphFormatError) as err:
            InputCoupling(table)
        assert str(err.value) == (f"an input coupling takes an EdgeTable, "
                                  f"got {kind}")

    def test_ordered_edges_shared(self, ref_graph, ref_coupling):
        """A table already in (min, max) order is kept, not copied; the
        extended network's rows start with the agents' edges, in their
        order; a reversed edge is stored in order."""
        t = ref_graph.table
        assert MatrixWeightedGraph(6, 4, t).table is t
        ext = extended_graph(ref_graph, ref_coupling)
        for k, (i, j) in enumerate(t.ends.tolist()):
            assert ext.edge(i, j) == ref_graph.edge(i, j) == k
        for f in ("ends", "weight", "vals", "vecs", "cls"):
            np.testing.assert_array_equal(getattr(ext.table, f)[:len(t)],
                                          getattr(t, f))
        w = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = MatrixWeightedGraph.from_edges(3, 2, [(1, 0, w), (1, 2, w)])
        assert g.table.ends.tolist() == [[0, 1], [1, 2]]
        assert g.edge(1, 0) == 0 and g.edge(2, 1) == 1

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

    def test_raw_first_edge_rejected_as_asymmetric(self):
        """The (0, 1) weight as published is not symmetric; the loader
        refuses it rather than symmetrizing it."""
        with pytest.raises(GraphFormatError, match="asymmetric"):
            MatrixWeightedGraph.from_edges(2, 4, [(0, 1, RAW_EDGE_0_1, "pd")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            MatrixWeightedGraph.from_edges(
                2, 1, [(0, 1, [[1.0]]), (1, 0, [[2.0]])])

    def test_declared_class_projects_noise(self):
        g = MatrixWeightedGraph.from_edges(2, 3, [(0, 1, NOISY, "psd")])
        assert g.table.cls[0] is PSD
        vals = sym_eigen(g.table.weight[0])[0]
        assert vals[0] == 0.0 and vals[1] == 0.0

    @pytest.mark.parametrize("make,eighs", [
        (lambda: MatrixWeightedGraph.from_edges(2, 2, [(0, 1, PAIR)]),
         [(1, 2, 2)]),
        (lambda: MatrixWeightedGraph.from_edges(2, 2, [(0, 1, -PAIR, "nd")]),
         [(1, 2, 2)]),
        (lambda: MatrixWeightedGraph.from_edges(2, 3, [(0, 1, NOISY, "psd")]),
         [(1, 3, 3), (1, 3, 3)]),
        (lambda: MatrixWeightedGraph.from_edges(4, 3, [
            (0, 1, NOISY, "psd"), (1, 2, np.eye(3), "pd"), (2, 3, -np.eye(3)),
            (0, 3, -NOISY, "nsd")]), [(4, 3, 3), (2, 3, 3)]),
        (lambda: MatrixWeightedGraph.from_edges(3, 2, []), [(0, 2, 2)]),
        (lambda: InputCoupling.from_entries([(0, 0, PAIR, "pd")], 2),
         [(1, 2, 2)]),
        (lambda: InputCoupling.from_entries([(0, 0, -NOISY, "nsd")], 3),
         [(1, 3, 3), (1, 3, 3)]),
    ], ids=["pd", "nd-declared", "psd-projected", "stack-projected", "empty",
            "coupling", "coupling-projected"])
    def test_one_eigh_per_loaded_weight(self, make, eighs, eigh_shapes):
        """Loading decomposes its weights as one stack, plus one stack of
        those whose declared class projects eigenvalue noise away; every
        spectral fact of an edge is then read from the kept pair."""
        t = make().table
        t.cls, t.sign, t.abs_weight, t.abs_eigen, t.abs_lambda_max
        if len(t):
            sym_sqrt(*t.abs_eigen)
        assert eigh_shapes == eighs

    def test_declared_class_contradiction_rejected(self):
        with pytest.raises(GraphFormatError, match="contradicts"):
            MatrixWeightedGraph.from_edges(
                2, 2, [(0, 1, np.diag([1.0, -1.0]), "pd")])


class TestEdgeSpectrum:
    """The |A| pairs a table derives from its load-time eigh agree with a
    fresh decomposition of each |A| (to a relative tolerance, since LAPACK
    builds differ), and their square roots square back to |A|."""

    @staticmethod
    def assert_abs_eigen_agrees(t):
        roots = sym_sqrt(*t.abs_eigen)
        for k, (vals, vecs) in enumerate(zip(*t.abs_eigen)):
            absw, lam = t.abs_weight[k], t.abs_lambda_max[k]
            want = np.linalg.eigh(absw)[0]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(vals - want)) <= 1e-12 * scale
            assert np.all(np.diff(vals) >= 0) and lam == vals[-1]
            own = t.vals[k]
            assert lam == (own[-1] if t.sign[k] > 0 else -own[0])
            np.testing.assert_allclose((vecs * vals) @ vecs.T, absw,
                                       rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(roots[k] @ roots[k], absw, rtol=0,
                                       atol=1e-12 * scale)

    def test_random_weights_of_every_class(self):
        rng = np.random.default_rng(31)
        for k in range(40):
            d = int(rng.integers(2, 7))
            rank, sign = (d, d - 1)[k % 2], (1, -1)[k // 2 % 2]
            b = rng.normal(size=(d, rank))
            g = MatrixWeightedGraph.from_edges(2, d, [(0, 1, sign * b @ b.T)])
            assert g.table.cls[0] is {(1, d): PD, (1, d - 1): PSD,
                                      (-1, d): ND,
                                      (-1, d - 1): NSD}[sign, rank]
            self.assert_abs_eigen_agrees(g.table)

    def test_builtin_edges_and_couplings(self, ref_graph, ref_coupling):
        for t in (ref_graph.table, ref_coupling.table):
            self.assert_abs_eigen_agrees(t)


class TestLaplacian:
    def test_two_node_pd_block_form(self):
        w = np.array([[2.0, 0.5], [0.5, 1.0]])
        lap = build_laplacian(two_node_graph(w))
        np.testing.assert_array_equal(lap[:2, :2], w)
        np.testing.assert_array_equal(lap[2:, 2:], w)
        np.testing.assert_array_equal(lap[:2, 2:], -w)

    def test_two_node_nd_block_form(self):
        w = -np.array([[2.0, 0.5], [0.5, 1.0]])  # negative definite
        lap = build_laplacian(two_node_graph(w))
        np.testing.assert_array_equal(lap[:2, :2], -w)
        np.testing.assert_array_equal(lap[2:, 2:], -w)
        # -A_ij = -w = |w|
        np.testing.assert_array_equal(lap[:2, 2:], -w)

    def test_reference_laplacian_psd(self, ref_graph):
        vals = sym_eigen(build_laplacian(ref_graph))[0]
        assert vals.shape == (24,)
        assert vals[0] >= -1e-8 * vals[-1]

    def test_balanced_random_graphs_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            edges, _ = random_balanced_scalar_graph(rng, n)
            g = scalar_graph(n, edges, d=2)
            vals = sym_eigen(build_laplacian(g))[0]
            assert vals[0] >= -1e-8 * max(vals[-1], 1.0)

    def test_scalar_degeneration_kron(self):
        rng = np.random.default_rng(29)
        n, d = 5, 3
        edges, _ = random_balanced_scalar_graph(rng, n)
        block = build_laplacian(scalar_graph(n, edges, d=d))
        ls = np.zeros((n, n))
        for (i, j), a in edges.items():
            ls[i, i] += abs(a)
            ls[j, j] += abs(a)
            ls[i, j] = -a
            ls[j, i] = -a
        np.testing.assert_array_equal(block, np.kron(ls, np.eye(d)))


class TestBalance:
    def test_reference_bipartition(self, ref_graph):
        signs = detect_structural_balance(ref_graph)
        assert signs is not None
        assert np.flatnonzero(signs > 0).tolist() == [0, 1, 5]
        assert np.flatnonzero(signs < 0).tolist() == [2, 3, 4]

    def test_all_positive_graph(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 0.5})
        assert detect_structural_balance(g).tolist() == [1, 1, 1]

    def test_signs_read_only(self, ref_graph):
        signs = detect_structural_balance(ref_graph)
        assert signs.dtype.kind == "i"
        with pytest.raises(ValueError):
            signs[0] = -1
        assert ref_graph.signs.tolist() == REFERENCE_SIGNS
        with pytest.raises(ValueError):
            ref_graph.signs[0] = -1

    def test_signs_searched_once(self, monkeypatch):
        """The graph's signs are one cached search, read by Assumption 1 and
        the predicted limit."""
        from mwconsensus import mwgraph
        searched = []
        search = mwgraph.detect_structural_balance

        def counting(g):
            searched.append(g)
            return search(g)

        monkeypatch.setattr(mwgraph, "detect_structural_balance", counting)
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): -1.0}, d=2)
        assert g.signs is g.signs
        assert verify_assumption1(g).holds
        predicted_bipartite_limit(g, np.zeros(6))
        assert searched == [g]

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
                assert np.flatnonzero(got == 1).tolist() == want[0]
                assert np.flatnonzero(got == -1).tolist() == want[1]
                assert check_gauge_identity(g, got)

    def test_reference_graph_with_flipped_edge_imbalanced(self, ref_graph):
        """Negating the (1,2) weight (making it definite positive) breaks
        the two-coloring through the 1-2-4-5 cycle."""
        specs = []
        for i, j, w, _ in edge_rows(ref_graph.table):
            specs.append((i, j, -w if (i, j) == (1, 2) else w))
        flipped = MatrixWeightedGraph.from_edges(6, 4, specs)
        assert detect_structural_balance(flipped) is None


class TestGauge:
    def test_reference_signs(self, ref_graph):
        np.testing.assert_array_equal(detect_structural_balance(ref_graph),
                                      REFERENCE_SIGNS)

    def test_identity_detected_gauge(self, ref_graph):
        assert check_gauge_identity(ref_graph,
                                    detect_structural_balance(ref_graph))

    def test_identity_wrong_gauge(self, ref_graph):
        assert not check_gauge_identity(ref_graph, np.ones(6, dtype=int))

    def test_identity_all_positive_graph(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 2.0})
        assert check_gauge_identity(g, np.ones(3, dtype=int))

    def test_flip_invariance(self, ref_graph):
        signs = detect_structural_balance(ref_graph)
        assert check_gauge_identity(ref_graph, -signs)


class TestNullSpace:
    def test_two_node_pd_consensus_subspace(self, pd_pair):
        basis = null_space(build_laplacian(pd_pair))
        assert basis.shape == (4, 2)
        # spanned by (v, v) stacked pairs
        lap = build_laplacian(pd_pair)
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
            lap = build_laplacian(g)
            lam_max = sym_eigen(lap)[0][-1]
            for k in range(d):
                v = np.zeros(n * d)
                for i in range(n):
                    v[i * d + k] = gauge[i]
                assert np.linalg.norm(lap @ v) <= 1e-8 * max(lam_max, 1.0)


class TestAssumption1:
    def test_reference_holds(self, ref_graph):
        rep = verify_assumption1(ref_graph)
        assert ref_graph.signs is not None and rep.holds and rep.nullity == 4
        assert assumption1_dense(ref_graph).residual <= 1e-8

    def test_rank_deficient_pair_fails(self):
        g = two_node_graph(np.diag([1.0, 0.0]))
        rep = verify_assumption1(g)
        assert g.signs is not None and rep.nullity == 3 and not rep.holds

    def test_complete_identity_graph(self):
        edges = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
        rep = verify_assumption1(scalar_graph(4, edges, d=2))
        assert rep.holds

    def test_imbalanced_fails(self):
        g = scalar_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        rep = verify_assumption1(g)
        assert g.signs is None and not rep.holds

    def test_disconnected_fails_nullity(self):
        g = scalar_graph(4, {(0, 1): 1.0, (2, 3): 1.0}, d=2)
        rep = verify_assumption1(g)
        assert g.signs is not None and rep.nullity == 4 and not rep.holds

    @pytest.mark.parametrize("balanced", [True, False])
    def test_quotient_matches_dense_oracle(self, balanced):
        """Seeded random graphs, d in {1, 2, 4}, with definite edges inside
        groups of nodes and semidefinite ones of every rank inside and
        between them, some groups left apart: the quotient's verdict and
        nullity equal those of the full spectrum wherever no eigenvalue of
        it lies within a factor 1e3 of the zero band."""
        rng = np.random.default_rng(41 if balanced else 43)
        compared, imbalanced, seen = 0, 0, set()
        for _ in range(300):
            g = random_mixed_graph(rng, balanced)
            rep, dense = verify_assumption1(g), assumption1_dense(g)
            if dense.eigenvalues is not None:
                vals = np.abs(dense.eigenvalues)
                band = DEFAULT_TOL * vals[-1]
                if np.any((vals > 1e-3 * band) & (vals <= 1e3 * band)):
                    continue
            assert (rep.nullity, rep.holds) == (dense.nullity, dense.holds)
            compared += 1
            if g.signs is None:
                imbalanced += 1
            else:
                seen.add((g.d, rep.holds, len(definite_quotient(g).table) > 0))
        assert compared >= 280
        # Held and failed, with and without an edge in the quotient.
        assert {(d, h, e) for d in (2, 4) for h in (True, False)
                for e in (True, False)} <= seen
        assert {(1, True, False), (1, False, False)} <= seen
        assert imbalanced == 0 if balanced else imbalanced >= 100

    def test_quotient_matches_union_find(self):
        """The array passes label the components the union-find labels:
        the quotient is the same bit for bit on random graphs that mix
        definite and semidefinite edges, with isolated nodes added, and on
        a 20 000-node path in shuffled order, semidefinite every 1000th
        edge."""
        rng = np.random.default_rng(47)
        graphs = []
        for case in range(200):
            g = random_mixed_graph(rng, balanced=case % 2 == 0)
            graphs.append(g)
            # The same edges among isolated nodes, relabelled at random.
            n = g.n + int(rng.integers(1, 6))
            place = rng.permutation(n)[:g.n]
            t = g.table
            graphs.append(MatrixWeightedGraph(n, g.d, EdgeTable(
                place[t.ends], t.weight, t.vals, t.vecs, t.cls)))
        graphs.append(MatrixWeightedGraph(4, 2, EdgeTable.empty(2)))
        n = 20_000
        order = rng.permutation(n)
        specs = [(int(a), int(b), np.diag([1.0, float(k % 1000 != 999)]))
                 for k, (a, b) in enumerate(zip(order[:-1], order[1:]))]
        graphs.append(MatrixWeightedGraph.from_edges(n, 2, specs))
        for g in graphs:
            got, want = definite_quotient(g), oracles.definite_quotient(g)
            assert got.n == want.n
            for f in ("ends", "weight", "vals", "vecs"):
                a, b = getattr(got.table, f), getattr(want.table, f)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
            assert list(got.table.cls) == list(want.table.cls)
        assert graphs[-1].n == 20_000 and definite_quotient(graphs[-1]).n == 20
        assert len({definite_quotient(g).n < g.n for g in graphs}) == 2

    def test_ill_conditioned_definite_path(self):
        """Weights 1e9 and 1 on a path: one definite component, so the
        kernel is exactly the consensus line and the verdict holds, while
        the second eigenvalue of the full spectrum (~1.5) falls inside its
        zero band (1e-9 * 2e9) and the dense nullity reads 2."""
        g = scalar_graph(3, {(0, 1): 1e9, (1, 2): 1.0})
        rep = verify_assumption1(g)
        assert rep.holds and rep.nullity == 1
        assert assumption1_dense(g).nullity == 2

    def test_quotient_weight_overflow_refused(self):
        """Three semidefinite bridges of 8e307 between two definite paths:
        the bound on the Laplacian's norm is finite at every node, the
        quotient edge that sums the bridges is not."""
        big = np.diag([8e307, 0.0])
        specs = [(k, k + 1, np.eye(2)) for k in (0, 1, 3, 4)]
        specs += [(k, k + 3, big) for k in range(3)]
        g = MatrixWeightedGraph.from_edges(6, 2, specs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            with pytest.raises(GraphFormatError, match="too large for float64"):
                verify_assumption1(g)

    def test_peak_memory(self):
        """Deciding Assumption 1 allocates far less than one nd x nd array
        (n = 200, d = 4): the quotient of this graph is one node."""
        rng = np.random.default_rng(3)
        n, d = 200, 4
        edges, _ = random_balanced_scalar_graph(rng, n, extra_edge_prob=0.01)
        specs = []
        for (i, j), a in edges.items():
            m = rng.normal(size=(d, d))
            specs.append((i, j, np.sign(a) * (m @ m.T / d + 0.5 * np.eye(d))))
        g = MatrixWeightedGraph.from_edges(n, d, specs)
        tracemalloc.start()
        try:
            assert verify_assumption1(g).holds
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * (n * d) ** 2 * 8


class TestPredictedLimit:
    def test_single_node(self):
        g = MatrixWeightedGraph(1, 3, EdgeTable.empty(3))
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
    """The dense oracle L_B, and the agents' block of the network Laplacian
    that ``spectrum`` reads, on the same assertions."""

    def test_empty_coupling_is_plain_laplacian(self, ref_graph):
        empty = InputCoupling(EdgeTable.empty(4))
        for lb in (grounded_laplacian(ref_graph, empty),
                   grounded_block(ref_graph, empty)):
            np.testing.assert_array_equal(lb, build_laplacian(ref_graph))

    def test_reference_grounded_positive_definite(self, ref_graph, ref_coupling):
        for lb in (grounded_laplacian(ref_graph, ref_coupling),
                   grounded_block(ref_graph, ref_coupling)):
            assert sym_eigen(lb)[0][0] > 0.0

    def test_single_node_equals_coupling_weight(self):
        g = MatrixWeightedGraph(1, 2, EdgeTable.empty(2))
        w = np.array([[2.0, 0.2], [0.2, 1.0]])
        coupling = InputCoupling.from_entries([(0, 0, w)], 2)
        for lb in (grounded_laplacian(g, coupling), grounded_block(g, coupling)):
            np.testing.assert_allclose(lb, w, atol=1e-15)

    def test_two_couplings_on_one_agent(self, ref_graph):
        """Laplacian plus each agent's summed |B_il| on its diagonal block;
        agent 2 carries two inputs, one of them negative."""
        coupling = InputCoupling.from_entries([
            (2, 0, WEIGHT_0_5, "pd"), (2, 1, -WEIGHT_3_4, "nsd"),
            (4, 2, WEIGHT_3_4, "psd")], 4)
        want = build_laplacian(ref_graph).copy()
        for i, _, w, cls in edge_rows(coupling.table):
            want[4 * i:4 * i + 4, 4 * i:4 * i + 4] += matrix_abs(w, cls)
        for got in (grounded_laplacian(ref_graph, coupling),
                    grounded_block(ref_graph, coupling)):
            assert got.shape == (24, 24)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestAssumption2:
    def test_reference_holds(self, ref_graph, ref_coupling):
        assert assumption2(ref_graph, ref_coupling)

    def test_empty_coupling_fails(self, ref_graph):
        assert not assumption2(ref_graph, InputCoupling(EdgeTable.empty(4)))

    def test_single_pd_input(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        coupling = InputCoupling.from_entries([(0, 0, np.eye(2))], 2)
        assert assumption2(g, coupling)

    def test_sign_mismatched_input_breaks_extended_balance(self):
        # both agents in group 1, but agent 1 is attached negatively
        g = scalar_graph(2, {(0, 1): 1.0}, d=1)
        coupling = InputCoupling.from_entries(
            [(0, 0, [[1.0]]), (1, 0, [[-1.0]])], 1)
        assert not assumption2(g, coupling)

    def test_psd_only_grounding_fails(self):
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        coupling = InputCoupling.from_entries(
            [(0, 0, np.diag([1.0, 0.0]), "psd")], 2)
        assert not assumption2(g, coupling)

    def test_leader_gauge_reference(self, ref_graph, ref_coupling):
        """Both reference inputs attach positively to +1 agents, so every
        agent tracks u0 with its own gauge sign."""
        ext = extended_graph(ref_graph, ref_coupling)
        assert leader_gauge(ext, 6).tolist() == REFERENCE_SIGNS

    def test_leader_gauge_negated_inputs(self, ref_graph):
        """The reference couplings negated: every agent tracks -u0 times its
        gauge sign."""
        negated = InputCoupling.from_entries(
            [(0, 0, -WEIGHT_3_4, "nsd"), (5, 1, -WEIGHT_0_5, "nd")], 4)
        assert leader_gauge(extended_graph(ref_graph, negated), 6).tolist() == \
            [-s for s in REFERENCE_SIGNS]
        assert assumption2(ref_graph, negated)

    def test_inputs_of_opposite_sign_fail(self):
        """Each input alone keeps the extended graph balanced, but the two
        carry opposite gauge signs while holding the same u0."""
        g = scalar_graph(2, {(0, 1): 1.0}, d=2)
        coupling = InputCoupling.from_entries(
            [(0, 0, np.eye(2)), (1, 1, -np.eye(2))], 2)
        ext = extended_graph(g, coupling)
        assert detect_structural_balance(ext) is not None
        assert leader_gauge(ext, g.n) is None
        assert not assumption2(g, coupling)

    def test_extended_graph_shape(self, ref_graph, ref_coupling):
        ext = extended_graph(ref_graph, ref_coupling)
        assert ext.n == 8
        assert len(ext.table) == len(ref_graph.table) + 2

    def test_coupling_of_other_dimension_refused(self, ref_graph):
        """A coupling loaded with 3 x 3 weights does not extend a graph of
        d = 4: the first coupling edge is refused in one line."""
        coupling = InputCoupling.from_entries(
            [(2, 0, np.eye(3)), (4, 0, np.eye(3))], 3)
        with pytest.raises(GraphFormatError) as err:
            extended_graph(ref_graph, coupling)
        assert str(err.value) == ("edge (2,6) weight has shape (3, 3), graph "
                                  "block dimension is 4")

    def test_empty_coupling_of_other_dimension_refused(self, ref_graph):
        """An empty coupling carries its weights' dimension too, and one of
        d = 1 does not extend a graph of d = 4."""
        with pytest.raises(GraphFormatError) as err:
            extended_graph(ref_graph, InputCoupling(EdgeTable.empty(1)))
        assert str(err.value) == ("empty input coupling weight has shape "
                                  "(1, 1), graph block dimension is 4")
        ext = extended_graph(ref_graph, InputCoupling(EdgeTable.empty(4)))
        assert (ext.n, len(ext.table)) == (6, len(ref_graph.table))

    def test_misaligned_table_refused(self, ref_graph):
        t = ref_graph.table
        with pytest.raises(GraphFormatError, match="one row per edge"):
            EdgeTable(t.ends, t.weight[:-1], t.vals, t.vecs, t.cls)
        with pytest.raises(GraphFormatError, match="one row per edge"):
            EdgeTable(t.ends.reshape(-1), t.weight, t.vals, t.vecs, t.cls)


class TestInputCoupling:
    def test_uncoupled_input_rejected(self):
        """The input count is one past the largest input index, and every
        input below it needs a coupling entry, so the network's size is
        bounded by the entries themselves."""
        w = [[1.0]]
        for top in (2, 5000, 10**6, 10**18):
            with pytest.raises(GraphFormatError,
                               match=f"input 1 of m={top + 1} has no coupling"):
                InputCoupling.from_entries([(0, 0, w), (1, top, w)], 1)
        with pytest.raises(GraphFormatError, match="input 0 of m=2 has no"):
            InputCoupling.from_entries([(0, 1, w), (1, 1, w)], 1)
        with pytest.raises(GraphFormatError, match="references input -1"):
            InputCoupling.from_entries([(0, -1, w)], 1)
        assert InputCoupling(EdgeTable.empty(1)).m == 0
        assert InputCoupling.from_entries([(0, 1, w), (1, 0, w)], 1).m == 2



CLASS_NAMES = ("pd", "psd", "nd", "nsd", "indefinite", "zero")


def random_weight(rng, d, cls):
    """Spectrum ``(eigenvalues, basis, zero mask)`` of a d x d weight of
    class ``cls`` (as far as d allows): nonzero eigenvalues of magnitude 0.5
    to 5 in a random orthonormal basis."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = rng.uniform(0.5, 5.0, d)
    zeros = np.zeros(d, dtype=bool)
    if cls in ("psd", "nsd"):
        zeros[rng.permutation(d)[:int(rng.integers(1, max(2, d)))]] = True
    if cls in ("nd", "nsd"):
        lam = -lam
    if cls == "indefinite":
        lam[rng.permutation(d)[:max(1, d // 2)]] *= -1.0
    if cls == "zero":
        zeros[:] = True
    lam[zeros] = 0.0
    return lam, q, zeros


def random_spec(rng, d, k, faults):
    """``(k, k + 1, weight[, declared])`` spec.  Without ``faults`` its
    weight is sign-definite, declared as such or not, and in-band noise on
    a semidefinite one is projected away where its class is declared.  With
    ``faults`` about half of the specs carry one."""
    cls = CLASS_NAMES[int(rng.integers(0, 6 if faults else 4))]
    lam, q, zeros = random_weight(rng, d, cls)
    mode = rng.choice(["clean", "noise", "tiny", "contradiction", "asymmetric",
                       "non-finite", "shape", "overflow", "not-numbers"],
                      p=[0.3, 0.2, 0.05, 0.1, 0.07, 0.07, 0.07, 0.07, 0.07]
                      if faults else [0.6, 0.4, 0, 0, 0, 0, 0, 0, 0])
    if mode == "noise":
        lam[zeros] = (rng.uniform(-1.0, 1.0, zeros.sum())
                      * 10.0 ** rng.uniform(-9, -4.5))
    if mode == "tiny":  # all in band: a projection leaves the zero class
        lam = rng.choice([-1.0, 1.0]) * rng.uniform(1e-7, 1e-5, d)
    if mode == "contradiction":
        lam[zeros] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.5, -1)
    w = (q * lam) @ q.T
    w = 0.5 * (w + w.T)
    if mode == "asymmetric" and d > 1:
        w[0, d - 1] += 10.0 ** rng.uniform(-11, -6)
    if mode == "non-finite":
        w[rng.integers(0, d), rng.integers(0, d)] = \
            rng.choice([np.nan, np.inf, -np.inf])
    if mode == "overflow":
        w = np.full((d, d), 1.5e308 * rng.choice([-1.0, 1.0]))
    if mode == "shape":
        w = rng.normal(size=(d, d + 1))
    weight = rng.choice(["array", "flat", "nested"])
    weight = {"array": w, "flat": w.reshape(-1).tolist(),
              "nested": w.tolist()}[weight]
    if mode == "not-numbers":
        weight = [["x", {}, None][int(rng.integers(0, 3))]] * (d * d)
    if faults:
        declared = rng.choice([None, "true", "other", "bogus"],
                              p=[0.3, 0.45, 0.2, 0.05])
    else:
        declared = "true" if mode == "noise" or rng.uniform() < 0.5 else None
    if declared is None:
        return (k, k + 1, weight)
    declared = {"true": cls, "bogus": "positive",
                "other": CLASS_NAMES[int(rng.integers(0, 6))]}[declared]
    return (k, k + 1, weight, declared)


def loaded(load):
    """The edges ``load()`` builds, or the line it refuses with."""
    try:
        return load()
    except GraphFormatError as exc:
        return str(exc)


def assert_same_edges(got, want):
    """The rows of the table ``got`` equal the reference edges ``want`` bit
    for bit: ends, weight, eigen pair and class."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert len(got) == len(want)
    for k, b in enumerate(want):
        assert (*got.ends[k].tolist(), got.cls[k]) == (b.i, b.j, b.cls)
        for x, y in ((got.weight[k], b.weight), (got.vals[k], b.eigen[0]),
                     (got.vecs[k], b.eigen[1])):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert not x.flags.writeable and not y.flags.writeable


class TestBatchedLoader:
    """The stacked loader builds the per-edge reference's edges bit for bit
    and refuses with its line: the lowest-index faulty spec, and that spec's
    first failing check."""

    def test_matches_per_edge_reference(self):
        """Seeded documents of d = 1 to 6, a third of them with faults
        (several per document, often), through both loaders."""
        rng = np.random.default_rng(2020)
        refusals, edges, projected = [], 0, 0
        for case in range(600):
            d = int(rng.integers(1, 7))
            faults = case % 3 == 0
            specs = [random_spec(rng, d, k, faults)
                     for k in range(int(rng.integers(0, 9)))]
            kind = ("edge", "input coupling")[case % 2]
            want = loaded(lambda: oracles.load_edges(specs, d, kind))
            got = loaded(lambda: mwgraph.load_edges(
                d, kind, *mwgraph._spec_columns(specs, kind)))
            assert_same_edges(got, want)
            if isinstance(want, str):
                refusals.append(want)
                continue
            edges += len(want)
            projected += sum(
                not np.array_equal(e.weight, np.asarray(s[2]).reshape(d, d))
                for e, s in zip(want, specs))
        assert len(refusals) > 100 and edges > 1000 and projected > 100
        for line in ("must be", "non-finite", "asymmetric", "unknown class",
                     "must be sign-definite", TOO_LARGE, "contradicts",
                     "inconsistent", "classified indefinite",
                     "classified zero", "must hold numbers"):
            assert any(line in r for r in refusals), line

    def test_refusal_raised_by_specs_yields_to_lower_faults(self):
        """A refusal pending for the row past the columns (the document
        reader's, for an entry it could not read) counts as faulty at its
        position: a lower faulty row is refused instead."""
        late = GraphFormatError("edges[1].weight entries: expected number, "
                                "got string")

        def load(declared):
            return mwgraph.load_edges(1, "edge", [0], [1], [[-1.0]],
                                       [declared], late)

        with pytest.raises(GraphFormatError, match=r"edge \(0,1\): eigenvalue"):
            load("pd")
        with pytest.raises(GraphFormatError, match=r"edges\[1\]"):
            load("nd")

    def test_graph_documents_match_reference(self):
        """The document reader's own refusals (types, keys) interleave with
        the weight checks as they did with the per-edge loader."""
        rng = np.random.default_rng(77)
        junk = ["x", True, None, {}, [1.0, "y"], 2.5]
        for case in range(200):
            d = int(rng.integers(1, 4))
            entries = []
            for spec in (random_spec(rng, d, k, faults=case % 2 == 0)
                         for k in range(int(rng.integers(1, 6)))):
                w = spec[2]
                entry = {"i": spec[0], "j": spec[1],
                         "weight": w.tolist() if isinstance(w, np.ndarray) else w}
                if len(spec) == 4:
                    entry["class"] = spec[3]
                fault = rng.uniform()
                if fault < 0.08:
                    entry["weight"] = [junk[int(rng.integers(0, 6))]] * (d * d)
                elif fault < 0.12:
                    entry["i"] = 0.5
                elif fault < 0.15:
                    del entry["weight"]
                entries.append(entry)
            doc = {"n": len(entries) + 1, "d": d, "edges": entries}
            want = loaded(lambda: oracles.load_edges(oracles.json_entries(
                doc, "edges", ("i", "j")), d, "edge"))
            got = loaded(lambda: graph_from_dict(doc)[0].table)
            assert_same_edges(got, want)
