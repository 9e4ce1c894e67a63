"""Engine tests: exact flow, event semantics, thresholds, dwell statistics."""

import numpy as np
import pytest

from mwconsensus import analysis, sim, trigger
from mwconsensus.builtin import leader_follower_scenario, leaderless_scenario
from mwconsensus.errors import Diverged, InvalidScenario
from mwconsensus.linalg import sym_sqrt
from mwconsensus.mwgraph import InputCoupling, MatrixWeightedGraph, \
    build_grounded_laplacian, build_laplacian
from mwconsensus.sim import Scenario, chi_floor_check, min_inter_event, \
    run, validate_scenario
from mwconsensus.trigger import LeaderFollower, Leaderless, TriggerParams

import oracles
from conftest import random_balanced_scalar_graph
from oracles import scalar_consensus_run
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
        mode = LeaderFollower(u0=np.array([0.5]), coupling=InputCoupling.empty())
        sc = tiny_scenario(graph=g, mode=mode)
        assert any("assumption 2" in v for v in validate_scenario(sc))

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


class TestStructureComputedOnce:
    """The graph decides Assumption 1 once; validation, the limit state,
    compilation and the analytics all reuse it."""

    @pytest.mark.parametrize("make", [
        lambda: leaderless_scenario(horizon=0.05),
        lambda: leader_follower_scenario(horizon=0.05),
        random_balanced_scenario,
    ], ids=["leaderless", "leader-follower", "random-balanced"])
    def test_one_laplacian_eigh_per_run(self, make, eigh_shapes):
        sc = make()
        nd = sc.graph.n * sc.graph.d
        analysis.event_stats(run(sc))
        assert eigh_shapes.count((nd, nd)) == 1

    def test_one_edge_eigh_for_lambda_max_one_for_root(self, eigh_shapes):
        """Leaderless compile: lambda_max(|A_ij|) once per edge, shared by the
        mu_bar of both endpoints, plus the square root of |A_ij|."""
        sc = random_balanced_scenario()
        g = sc.graph
        eigh_shapes.clear()  # drop the load-time classification
        analysis.event_stats(run(sc))
        assert eigh_shapes.count((g.d, g.d)) == 2 * len(g.edges)
        for i in range(g.n):
            trigger.mu_bar(i, g)
            trigger.gamma(i, g, InputCoupling.empty())
        assert eigh_shapes.count((g.d, g.d)) == 2 * len(g.edges)

    def test_lf_gamma_reads_cached_lambda_max(self, eigh_shapes):
        sc = leader_follower_scenario(horizon=0.05)
        g, coupling = sc.graph, sc.mode.coupling
        eigh_shapes.clear()
        analysis.event_stats(run(sc))
        # One per edge and per coupling, plus Assumption 2's grounding test.
        want = len(g.edges) + len(coupling.entries) + 1
        assert eigh_shapes.count((g.d, g.d)) == want
        for i in range(g.n):
            trigger.gamma(i, g, coupling)
        assert eigh_shapes.count((g.d, g.d)) == want

    def test_one_grounded_laplacian_per_lf_run(self, monkeypatch):
        built = []
        assemble = sim.mwgraph.build_grounded_laplacian

        def counting(*args):
            built.append(args)
            return assemble(*args)

        monkeypatch.setattr(sim.mwgraph, "build_grounded_laplacian", counting)
        analysis.event_stats(run(leader_follower_scenario(horizon=0.05)))
        assert len(built) == 1


def dense_coupling(sc):
    """Dense reference of the control: the (grounded) Laplacian and the
    constant input drive, ``qhat = drive - L xhat``."""
    g = sc.graph
    if not isinstance(sc.mode, LeaderFollower):
        return build_laplacian(g).entries, np.zeros(g.n * g.d)
    drive = np.zeros((g.n, g.d))
    for c in sc.mode.coupling.entries:
        drive[c.agent] += c.sign * c.abs_weight().entries @ sc.mode.u0
    grounded = build_grounded_laplacian(g, sc.mode.coupling).entries
    return grounded, drive.reshape(-1)


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
            2, [(0, 0, psd), (3, 1, -psd), (5, 0, np.eye(d))], d)
        mode = LeaderFollower(u0=rng.uniform(-1.0, 1.0, d), coupling=coupling)
    return Scenario(graph=g, mode=mode, params=uniform_params(n), dt=1e-3,
                    horizon=0.05, seed=2)


def fire_steps(record) -> int:
    """Grid steps at which at least one agent broadcast (t = 0 excluded)."""
    return len({t for ev in record.events for t in ev[1:].tolist()})


class TestHeldTerms:
    """The control and the trigger slack are recomputed only at broadcasts,
    and the recorded controls are exactly those of the recorded broadcasts."""

    @pytest.fixture(params=["leaderless", "leader-follower", "static"])
    def make(self, request):
        return {
            "leaderless": lambda: leaderless_scenario(seed=1, horizon=2.0),
            "leader-follower": lambda: leader_follower_scenario(seed=1,
                                                                horizon=2.0),
            "static": lambda: leaderless_scenario(seed=1, horizon=2.0,
                                                  baseline="static"),
        }[request.param]

    def test_controls_bitwise_from_broadcasts(self, make):
        sc = make()
        rec = run(sc)
        compiled = sim.compile_scenario(sc)
        for k in range(len(rec.times)):
            assert np.array_equal(rec.controls[k],
                                  compiled.control(rec.broadcasts[k])), k

    def test_held_terms_computed_once_per_broadcast(self, make, monkeypatch):
        calls = {"control": 0, "disagreement_terms": 0}
        for name in calls:
            original = getattr(sim.CompiledScenario, name)

            def counting(self, xhat, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, xhat)

            monkeypatch.setattr(sim.CompiledScenario, name, counting)
        sc = make()
        rec = run(sc)
        want = 1 + fire_steps(rec)
        assert want < len(rec.times) // 2
        assert calls["control"] == want
        leaderless = not isinstance(sc.mode, LeaderFollower)
        assert calls["disagreement_terms"] == (want if leaderless else 0)


class TestStepSemantics:
    def test_step_direct_call(self):
        from mwconsensus.sim import compile_scenario, initial_sim_state, step
        g = scalar_graph(2, {(0, 1): 1.0})
        x0 = np.array([0.5, 0.5])  # consensus already reached
        sc = tiny_scenario(graph=g, x0=x0)
        compiled = compile_scenario(sc)
        state = initial_sim_state(compiled)
        nxt, fired = step(state, sc.dt, compiled)
        assert fired.size == 0
        np.testing.assert_array_equal(nxt.x, x0)
        assert nxt.t == pytest.approx(sc.dt)
        assert np.all(nxt.chi < state.chi)

    def test_equilibrium_fixed_point(self):
        """Gauge-consensus initial state: no motion, no fires, chi decays."""
        edges = {(0, 1): 1.0, (1, 2): -2.0}
        g = scalar_graph(3, edges)
        x0 = np.array([0.7, 0.7, -0.7])
        sc = tiny_scenario(graph=g, params=uniform_params(3), x0=x0,
                           horizon=0.2)
        rec = run(sc)
        np.testing.assert_array_equal(rec.states[-1], x0)
        assert all(len(e) == 1 for e in rec.events)
        assert np.all(np.diff(rec.chi, axis=0) < 0)

    def test_single_agent_lf_fixed_point(self):
        g = MatrixWeightedGraph(1, 2, ())
        w = np.array([[1.0, 0.1], [0.1, 2.0]])
        u0 = np.array([0.4, -0.2])
        mode = LeaderFollower(u0=u0,
                              coupling=InputCoupling.from_entries(
                                  1, [(0, 0, w)], 2))
        sc = Scenario(graph=g, mode=mode, params=uniform_params(1, theta=1.0),
                      dt=1e-3, horizon=0.2, x0=u0)
        rec = run(sc)
        np.testing.assert_allclose(rec.states[-1], u0, atol=1e-15)
        assert len(rec.events[0]) == 1

    def test_zero_edge_single_agent_constant(self):
        g = MatrixWeightedGraph(1, 3, ())
        sc = Scenario(graph=g, mode=Leaderless(), params=uniform_params(1),
                      dt=1e-3, horizon=0.3, seed=5)
        rec = run(sc)
        np.testing.assert_array_equal(rec.states[0], rec.states[-1])
        np.testing.assert_array_equal(rec.limit_state, rec.states[0])

    def test_piecewise_linear_flow_matches_closed_form(self):
        """Before the first event the flow is exactly x0 - t * L x0."""
        g = scalar_graph(2, {(0, 1): 1.0})
        x0 = np.array([1.0, -1.0])
        sc = tiny_scenario(x0=x0, horizon=0.5,
                           params=uniform_params(2, sigma=0.0, chi0=0.01))
        rec = run(sc)
        lap = build_laplacian(g).entries
        later = [ev[1] for ev in rec.events if len(ev) > 1]
        assert later, "expected at least one re-broadcast inside the horizon"
        first_event = min(later)
        compared = 0
        for k, t in enumerate(rec.times):
            if t >= first_event:
                break
            np.testing.assert_allclose(rec.states[k], x0 - t * (lap @ x0),
                                       atol=1e-12)
            compared += 1
        assert compared > 10

    def test_flow_exactness_by_finite_difference(self, ref_leaderless_record):
        """Within every step the recorded state moves exactly by dt * control."""
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        dx = np.diff(rec.states[:2000], axis=0)
        np.testing.assert_allclose(dx, dt * rec.controls[:1999], atol=1e-13)

    def test_controls_recomputable_from_broadcasts(self, ref_leaderless_record,
                                                   ref_lf_record):
        """The edge-list control equals the dense one, ``-L xhat`` or
        ``input_drive - L_B xhat``.  The atol covers entries near consensus,
        where the dense product itself cancels and a pure rtol cannot hold."""
        cases = [(rec.scenario, rec.broadcasts, rec.controls)
                 for rec in (ref_leaderless_record, ref_lf_record)]
        for lf in (False, True):
            sc = isolated_psd_nsd_scenario(lf)
            xhats = np.random.default_rng(3).uniform(
                -1.0, 1.0, (40, sc.graph.n * sc.graph.d))
            compiled = sim.compile_scenario(sc)
            cases.append((sc, xhats, np.array([compiled.control(x)
                                               for x in xhats])))
        for sc, xhats, controls in cases:
            dense, drive = dense_coupling(sc)
            want = drive[None, :] - xhats @ dense.T
            np.testing.assert_allclose(controls, want, rtol=1e-12, atol=1e-12)

    def test_engine_builds_no_laplacian(self, monkeypatch):
        """Compiling builds no Laplacian; a run builds one, for Assumption 1."""
        built = []
        assemble = sim.mwgraph.build_laplacian

        def counting(g):
            built.append(g)
            return assemble(g)

        monkeypatch.setattr(sim.mwgraph, "build_laplacian", counting)
        for make in (leaderless_scenario, leader_follower_scenario):
            sc = make(horizon=0.05)
            sim.compile_scenario(sc)
            assert built == []
            run(sc)
            assert built == [sc.graph]
            built.clear()

    def test_error_zero_at_events(self, ref_leaderless_record):
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        d = rec.d
        for i, ev in enumerate(rec.events):
            idx = np.rint(np.asarray(ev) / dt).astype(int)
            block = slice(i * d, (i + 1) * d)
            np.testing.assert_array_equal(rec.broadcasts[idx, block],
                                          rec.states[idx, block])

    def test_broadcasts_piecewise_constant(self, ref_leaderless_record):
        rec = ref_leaderless_record
        dt = rec.scenario.dt
        d = rec.d
        for i, ev in enumerate(rec.events):
            idx = set(np.rint(np.asarray(ev) / dt).astype(int))
            block = slice(i * d, (i + 1) * d)
            changed = np.flatnonzero(
                np.any(np.diff(rec.broadcasts[:, block], axis=0) != 0.0,
                       axis=1)) + 1
            assert set(changed) <= idx

    def test_chi_positive(self, ref_leaderless_record, ref_lf_record):
        assert np.min(ref_leaderless_record.chi) > 0.0
        assert np.min(ref_lf_record.chi) > 0.0


class TestTriggerEngineConsistency:
    """The vectorized engine must agree with the per-agent oracles."""

    def test_leaderless_fire_decisions(self):
        sc = leaderless_scenario(seed=3, horizon=0.25)
        rec = run(sc)
        g = sc.graph
        d = g.d
        roots = {(e.i, e.j): sym_sqrt(e.abs_weight()).entries for e in g.edges}

        def sqrt_weight(i, j):
            return roots[(i, j)] if (i, j) in roots else roots[(j, i)]

        event_steps = [set(np.rint(np.asarray(ev) / sc.dt).astype(int))
                       for ev in rec.events]
        mu = [trigger.mu_bar(i, g) for i in range(g.n)]
        for k in range(len(rec.times) - 1):
            xhat_pre = rec.broadcasts[k]
            x_next = rec.states[k + 1]
            for i in range(g.n):
                e_i = xhat_pre[i * d:(i + 1) * d] - x_next[i * d:(i + 1) * d]
                p_list = [(sqrt_weight(i, j),
                           oracles.relative_broadcast(i, j, xhat_pre, g))
                          for j in g.neighbors(i)]
                want = oracles.leaderless_fires(
                    e_i, p_list, float(rec.chi[k + 1, i]), sc.params.agent(i),
                    mu[i], g.degree(i))
                assert want == ((k + 1) in event_steps[i]), (k, i)

    def test_lf_fire_decisions(self):
        sc = leader_follower_scenario(seed=3, horizon=0.25)
        rec = run(sc)
        g = sc.graph
        d = g.d
        gam = [trigger.gamma(i, g, sc.mode.coupling) for i in range(g.n)]
        event_steps = [set(np.rint(np.asarray(ev) / sc.dt).astype(int))
                       for ev in rec.events]
        for k in range(len(rec.times) - 1):
            xhat_pre = rec.broadcasts[k]
            x_next = rec.states[k + 1]
            for i in range(g.n):
                e_i = xhat_pre[i * d:(i + 1) * d] - x_next[i * d:(i + 1) * d]
                qhat_i = oracles.control_leader_follower(
                    i, xhat_pre, g, sc.mode.coupling, sc.mode.u0)
                want = oracles.lf_fires(e_i, qhat_i, float(rec.chi[k + 1, i]),
                                        sc.params.agent(i), gam[i])
                assert want == ((k + 1) in event_steps[i]), (k, i)

    def test_chi_integration_matches_rate_function(self):
        sc = leaderless_scenario(seed=7, horizon=0.1)
        rec = run(sc)
        g = sc.graph
        d = g.d
        dt = sc.dt
        roots = {(e.i, e.j): sym_sqrt(e.abs_weight()).entries for e in g.edges}

        def sqrt_weight(i, j):
            return roots[(i, j)] if (i, j) in roots else roots[(j, i)]

        mu = [trigger.mu_bar(i, g) for i in range(g.n)]
        for k in range(len(rec.times) - 1):
            xhat = rec.broadcasts[k]
            qhat = rec.controls[k]
            for i in range(g.n):
                pr = sc.params.agent(i)
                p_list = [(sqrt_weight(i, j),
                           oracles.relative_broadcast(i, j, xhat, g))
                          for j in g.neighbors(i)]
                e0 = xhat[i * d:(i + 1) * d] - rec.states[k, i * d:(i + 1) * d]
                qi = qhat[i * d:(i + 1) * d]

                def rate(c, s):
                    return oracles.chi_rate_leaderless(
                        e0 - s * qi, p_list, c, pr, mu[i], g.degree(i))

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
        a = run(leaderless_scenario(seed=9, horizon=0.5))
        b = run(leaderless_scenario(seed=9, horizon=0.5))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.chi, b.chi)
        assert all(np.array_equal(x, y) for x, y in zip(a.events, b.events))

    def test_seed_changes_trajectory(self):
        a = run(leaderless_scenario(seed=0, horizon=0.1))
        b = run(leaderless_scenario(seed=1, horizon=0.1))
        assert not np.array_equal(a.states, b.states)

    def test_divergence_guard(self):
        g = scalar_graph(2, {(0, 1): 1000.0})
        sc = tiny_scenario(graph=g, dt=0.1, horizon=50.0)
        with pytest.raises(Diverged) as info:
            run(sc)
        partial = info.value.partial_record
        assert partial is not None
        assert np.all(np.isfinite(partial.states))
        assert len(partial.times) < 501

    def test_explicit_x0_overrides_seed(self):
        x0 = np.array([0.25, -0.5])
        rec = run(tiny_scenario(x0=x0, seed=123, horizon=0.01))
        np.testing.assert_array_equal(rec.states[0], x0)


class TestStaticBaseline:
    def test_static_fires_more_and_chi_decays(self):
        dyn = run(leaderless_scenario(seed=2, horizon=2.0))
        stat = run(leaderless_scenario(seed=2, horizon=2.0, baseline="static"))
        assert sum(len(e) for e in stat.events) > sum(len(e) for e in dyn.events)
        # threshold variable reduces to passive decay in the static variant
        np.testing.assert_allclose(
            stat.chi[:, 0], 0.5 * np.exp(-stat.times), rtol=1e-10)


class TestChiFloor:
    def test_delta_zero_exact(self):
        sc = tiny_scenario(params=uniform_params(2, delta=0.0, theta=2.0),
                           horizon=1.0)
        rec = run(sc)
        # rate = beta + 0: chi rides the floor up to integrator error
        margins = chi_floor_check(rec)
        assert np.all(margins >= -1e-12)
        assert np.all(margins <= 1e-10)

    def test_floor_value_direct(self):
        # chi0=0.5, beta=1, delta=1, theta=0.5 at t=1: floor = 0.5 e^{-3}
        p = uniform_params(1)
        rate = p.beta[0] + p.delta[0] / p.theta[0]
        assert rate == pytest.approx(3.0)
        assert p.chi0[0] * np.exp(-rate * 1.0) == pytest.approx(0.5 * np.exp(-3))

    def test_reference_run_margins(self, ref_leaderless_record):
        assert np.all(chi_floor_check(ref_leaderless_record) >= -1e-6)


class TestDwell:
    def test_min_dwell_simple(self):
        rec = run(leaderless_scenario(seed=0, horizon=1.0))
        stats = min_inter_event(rec)
        for i, ev in enumerate(rec.events):
            if len(ev) > 1:
                assert stats.min_dwell[i] == pytest.approx(np.diff(ev).min())
            else:
                assert stats.min_dwell[i] == rec.scenario.horizon

    def test_single_event_reports_horizon(self):
        g = MatrixWeightedGraph(1, 1, ())
        sc = Scenario(graph=g, mode=Leaderless(), params=uniform_params(1),
                      dt=0.01, horizon=2.5, seed=0)
        stats = min_inter_event(run(sc))
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
        analysis.event_stats(run(leaderless_scenario(seed=0, horizon=0.05)))
        assert len(calls) == 1

    def test_consecutive_warning(self):
        from mwconsensus.sim import min_inter_event_from
        times = np.arange(101) * 0.01
        events = [list(times[:40])]  # fires every step for 40 steps
        stats = min_inter_event_from(events, times, 0.01, 1.0)
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
        for k in range(d):
            block_dim = rec.states[:, k::d]
            assert np.max(np.abs(block_dim - scalar_states)) <= 1e-9, case
        scalar_chi = np.asarray(chi_traj)
        assert np.max(np.abs(rec.chi - d * scalar_chi)) <= 1e-9, case
        for i in range(n):
            assert list(rec.events[i]) == events[i], (case, i)
