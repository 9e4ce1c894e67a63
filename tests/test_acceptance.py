"""Acceptance suite: one test per shipping criterion (A1 through A10).

Each test prints a PASS line with the measured numbers so that
``pytest tests/test_acceptance.py -v -s`` doubles as the release report.
"""

import json
import time

import numpy as np
import pytest

from mwconsensus import analysis, cli, mwgraph, sim, trigger
from mwconsensus.builtin import PUBLISHED_MU_BAR, REFERENCE_U0, \
    leader_follower_scenario, leaderless_scenario
from mwconsensus.linalg import sym_eigen
from mwconsensus.mwgraph import build_laplacian, detect_structural_balance, \
    extended_graph, null_space
from mwconsensus.sim import Scenario, chi_floor_check, min_inter_event_from
from mwconsensus.trigger import Leaderless, TriggerParams

from conftest import random_balanced_scalar_graph
from oracles import brute_force_balance, grid_states, scalar_consensus_run
from test_mwgraph import scalar_graph

EXTRA_SEEDS = (1, 2)


@pytest.fixture(scope="module")
def ll_records(ref_leaderless_record):
    records = {0: ref_leaderless_record}
    for seed in EXTRA_SEEDS:
        records[seed] = sim.run(leaderless_scenario(seed=seed))
    return records


@pytest.fixture(scope="module")
def lf_records(ref_lf_record):
    records = {0: ref_lf_record}
    for seed in EXTRA_SEEDS:
        records[seed] = sim.run(leader_follower_scenario(seed=seed))
    return records


@pytest.fixture(scope="module")
def cli_leaderless(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ll")
    started = time.perf_counter()
    code = cli.main(["replicate-paper", "leaderless", "--seed", "0",
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == cli.EXIT_OK
    run_dir = next(out.iterdir())
    summary = json.loads((run_dir / "summary.json").read_text())
    return elapsed, summary, run_dir


@pytest.fixture(scope="module")
def cli_lf(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_lf")
    started = time.perf_counter()
    code = cli.main(["replicate-paper", "lf", "--seed", "0",
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == cli.EXIT_OK
    run_dir = next(out.iterdir())
    summary = json.loads((run_dir / "summary.json").read_text())
    return elapsed, summary, run_dir


def relative_error(record):
    err = float(np.linalg.norm(grid_states(record)[-1] - record.limit_state))
    return err / max(1.0, float(np.linalg.norm(record.limit_state)))


def test_a1_leaderless_replication(ll_records, cli_leaderless):
    worst = 0.0
    for seed, rec in ll_records.items():
        rel = relative_error(rec)
        assert rel < 1e-3, f"seed {seed}: relative error {rel}"
        worst = max(worst, rel)
    elapsed, summary, _ = cli_leaderless
    assert summary["final_relative_error"] < 1e-3
    assert elapsed < 10.0, f"replicate-paper leaderless took {elapsed:.1f} s"
    print(f"\nA1 PASS: leaderless replication, worst relative error "
          f"{worst:.3e} (< 1e-3), command wall time {elapsed:.2f} s (< 10 s)")


def test_a2_sign_structure(ll_records):
    checked = 0
    for seed, rec in ll_records.items():
        # The gauge gives agent 0 the sign +1.
        signs = rec.scenario.graph.signs
        group1, group2 = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
        d = rec.d
        final = grid_states(rec)[-1].reshape(rec.n, d)
        limit = rec.limit_state.reshape(rec.n, d)
        for k in range(d):
            if abs(limit[0, k]) <= 1e-6:
                continue
            s1 = {np.sign(final[i, k]) for i in group1}
            s2 = {np.sign(final[i, k]) for i in group2}
            assert s1 == {np.sign(limit[0, k])}, (seed, k)
            assert s2 == {-np.sign(limit[0, k])}, (seed, k)
            checked += 1
    print(f"\nA2 PASS: bipartite sign structure on {checked} "
          f"dimension/seed combinations")


def test_a3_chi_floor(ll_records, lf_records):
    worst = np.inf
    for records in (ll_records, lf_records):
        for seed, rec in records.items():
            margins = chi_floor_check(rec.scenario.params, rec.times,
                                      rec.chi)
            worst = min(worst, float(margins.min()))
            assert np.all(margins >= -1e-6), (seed, margins.min())
    print(f"\nA3 PASS: chi never dips below its exponential floor "
          f"(worst margin {worst:.3e} >= -1e-6)")


def test_a4_event_sparsity(ll_records, lf_records):
    worst_frac = 0.0
    worst_consec = 0
    for records in (ll_records, lf_records):
        for seed, rec in records.items():
            steps = rec.scenario.step_count
            stats = min_inter_event_from(rec.events, rec.scenario.dt,
                                         rec.scenario.horizon)
            for i, ev in enumerate(rec.events):
                frac = len(ev) / steps
                assert frac < 0.20, (seed, i, frac)
                worst_frac = max(worst_frac, frac)
            assert int(stats.max_consecutive.max()) <= 10
            worst_consec = max(worst_consec, int(stats.max_consecutive.max()))
    print(f"\nA4 PASS: events stay sparse (worst ratio {worst_frac:.3f} "
          f"< 0.20, longest adjacent-step streak {worst_consec} <= 10)")


def test_a5_spectral_constant_reproduction(ref_graph):
    computed = trigger.mu_bar(ref_graph)
    hard = {2: 9.7599, 3: 6.7454, 4: 9.7599}
    for i, want in hard.items():
        assert computed[i] == pytest.approx(want, abs=1e-3), i
    notes = []
    for i in (0, 1, 5):
        want = PUBLISHED_MU_BAR[i]
        ok = abs(computed[i] - want) < 1e-3
        notes.append(f"agent {i}: computed {computed[i]:.4f} vs published "
                     f"{want} -> {'PASS' if ok else 'FAIL'} (informational; "
                     "touches the repaired edge)")
    print("\nA5 PASS: mu_bar for agents 2, 3, 4 reproduce the published "
          "values within 1e-3")
    for line in notes:
        print("  " + line)


def test_a6_leader_follower_replication(lf_records, cli_lf):
    worst_norm = 0.0
    worst_entry = 0.0
    u0 = np.array(REFERENCE_U0)
    for seed, rec in lf_records.items():
        last = grid_states(rec)[-1]
        xi = last - rec.limit_state
        norm = float(np.linalg.norm(xi))
        assert norm < 1e-2, (seed, norm)
        final = np.abs(last.reshape(rec.n, rec.d))
        entry = float(np.max(np.abs(final - np.abs(u0)[None, :])))
        assert entry < 1e-2, (seed, entry)
        worst_norm = max(worst_norm, norm)
        worst_entry = max(worst_entry, entry)
    elapsed, summary, _ = cli_lf
    assert summary["final_bipartite_error"] < 1e-2
    assert elapsed < 15.0, f"replicate-paper lf took {elapsed:.1f} s"
    print(f"\nA6 PASS: leader-follower replication, worst ||xi(T)|| "
          f"{worst_norm:.3e} (< 1e-2), worst entrywise gap {worst_entry:.3e} "
          f"(< 1e-2), command wall time {elapsed:.2f} s (< 15 s)")


def test_a7_spectral_properties(ref_graph, ref_coupling):
    lap = build_laplacian(ref_graph)
    vals = sym_eigen(lap)[0]
    assert vals[0] >= -1e-8 * vals[-1]
    nullity = null_space(lap).shape[1]
    assert nullity == 4
    # The grounded Laplacian is the agents' block of the network's Laplacian.
    grounded = extended_graph(ref_graph, ref_coupling).laplacian[:24, :24]
    gmin = sym_eigen(grounded)[0][0]
    assert gmin > 0.0
    print(f"\nA7 PASS: Laplacian PSD (min eig {vals[0]:.3e}), nullity "
          f"{nullity} == d, grounded min eig {gmin:.4f} > 0")


def test_a8_lyapunov_monotonicity(ref_leaderless_record, ref_lf_record):
    rec = ref_leaderless_record
    v_ll = analysis.lyapunov_leaderless(rec.limit_state, grid_states(rec),
                                         rec.chi)
    worst_ll = float(np.max(np.diff(v_ll)))
    assert worst_ll <= 1e-9

    rec = ref_lf_record
    sc = rec.scenario
    signs = detect_structural_balance(sc.graph)
    v_lf = analysis.lyapunov_lf(rec, np.kron(signs, sc.mode.u0),
                                grid_states(rec), rec.chi)
    worst_lf = float(np.max(np.diff(v_lf)))
    assert worst_lf <= 1e-9
    print(f"\nA8 PASS: V non-increasing on both replications "
          f"(largest per-step change {max(worst_ll, worst_lf):.3e} <= 1e-9)")


def test_a9_scalar_oracle_equivalence():
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(5000 + case)
        n = int(rng.integers(2, 7))
        edges, _ = random_balanced_scalar_graph(rng, n)
        x0 = rng.uniform(-1, 1, n)
        delta = float(rng.uniform(0.3, 1.0))
        beta = float(rng.uniform(0.5, 1.5))
        sigma = float(rng.uniform(0.0, 0.95))
        theta = (1.0 - delta) / beta + float(rng.uniform(0.1, 1.0))
        chi0 = float(rng.uniform(0.1, 1.0))
        dt, horizon, d = 1e-3, 2.0, 2

        graph = scalar_graph(n, edges, d=d)
        params = TriggerParams.uniform(n, sigma=sigma, theta=theta, beta=beta,
                                       delta=delta, chi0=d * chi0)
        rec = sim.run(Scenario(graph=graph, mode=Leaderless(), params=params,
                               dt=dt, horizon=horizon,
                               x0=np.repeat(x0, d)))
        traj, _, events = scalar_consensus_run(
            n, edges, x0, sigma, theta, beta, delta, chi0, dt, horizon)
        scalar_states = np.asarray(traj)
        states = grid_states(rec)
        for k in range(d):
            gap = float(np.max(np.abs(states[:, k::d] - scalar_states)))
            assert gap <= 1e-9, (case, k, gap)
            worst = max(worst, gap)
        for i in range(n):
            assert list(rec.events[i]) == events[i], (case, i)
    print(f"\nA9 PASS: 20 identity-block scenarios match the scalar oracle "
          f"(worst componentwise gap {worst:.3e} <= 1e-9)")


def test_a10_balance_brute_force():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < 0.3:
                    edges[(i, j)] = float(rng.choice([-1.0, 1.0])
                                          * rng.uniform(0.5, 2.0))
        if not edges:
            continue
        g = scalar_graph(n, edges)
        got = mwgraph.detect_structural_balance(g)
        want = brute_force_balance(
            n, [(i, j, 1 if a > 0 else -1) for (i, j), a in edges.items()])
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert np.flatnonzero(got == 1).tolist() == want[0]
            assert np.flatnonzero(got == -1).tolist() == want[1]
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nA10 PASS: balance detector agrees with 2^n enumeration on "
          f"{checked} random graphs in {elapsed:.2f} s (< 5 s)")
