"""CLI behavior: commands, exit codes, artifact layout, byte determinism."""

import copy
import dataclasses
import hashlib
import json
import random
import tracemalloc
import warnings
from pathlib import Path

import pytest

from mwconsensus import scenario_io, sim, trigger
from mwconsensus.analysis import RunSummary
from mwconsensus.builtin import leader_follower_scenario, leaderless_scenario
from mwconsensus.cli import EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_VALIDATION, \
    main, write_artifacts
from mwconsensus.mwgraph import InputCoupling
from mwconsensus.trigger import LeaderFollower


SUMMARY_KEYS = {f.name for f in dataclasses.fields(RunSummary)}


def small_scenario_doc(seed=4, weight=1.5, horizon=1.0):
    return {
        "graph": {"n": 2, "d": 1,
                  "edges": [{"i": 0, "j": 1, "weight": [weight]}]},
        "mode": "leaderless",
        "params": {"sigma": 0.5, "theta": 1.0, "beta": 1.0, "delta": 1.0,
                   "chi0": 0.3},
        "sim": {"dt": 0.001, "T": horizon, "seed": seed},
    }


def lf_scenario_doc():
    return json.loads(scenario_io.dump_scenario(leader_follower_scenario()))


def _set(path, value, make=small_scenario_doc):
    """A document from ``make`` with the field at ``path`` set to ``value``."""
    def build():
        doc = make()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return build


def assert_refused_alike(doc, tmp_path, capsys):
    """``run`` refuses the document with ``validation:`` lines only, and
    ``check`` prints the same lines on stdout and exits 1."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) \
        == EXIT_VALIDATION
    refused = capsys.readouterr().err.splitlines()
    assert refused and all(line.startswith("validation: ") for line in refused)
    assert not (tmp_path / "runs").exists()
    assert main(["check", str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines()
            if line.startswith("validation: ")] == refused
    assert err == ""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(small_scenario_doc()))
    return path


def file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


#: Documents that pass the structural diagnostics but that ``run`` refuses;
#: ``check`` must refuse them with the same lines.
RUN_REFUSES = {
    "T-off-grid": _set(("sim", "T"), 0.0105),
    "dt-above-T": _set(("sim", "dt"), 2.0),
    "seed-negative": _set(("sim", "seed"), -3),
    "T-beyond-memory": _set(("sim", "T"), 1e12),
    "dt-negative": _set(("sim", "dt"), -0.001),
}


class TestCheck:
    def test_builtin_leaderless(self, capsys):
        assert main(["check", "builtin:leaderless"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "balanced" in out
        assert "group1=[0, 1, 5]" in out
        assert "assumption 1" in out and "holds" in out
        assert "mu_bar" in out and "gamma" in out

    def test_builtin_lf(self, capsys):
        assert main(["check", "builtin:lf"]) == EXIT_OK
        assert "assumption 2" in capsys.readouterr().out

    def test_imbalanced_graph_fails(self, tmp_path, capsys):
        doc = small_scenario_doc()
        doc["graph"] = {"n": 3, "d": 1, "edges": [
            {"i": 0, "j": 1, "weight": [1.0]},
            {"i": 1, "j": 2, "weight": [1.0]},
            {"i": 0, "j": 2, "weight": [-1.0]},
        ]}
        path = tmp_path / "imbalanced.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert "IMBALANCED" in capsys.readouterr().out

    def test_missing_file_is_io_error(self):
        assert main(["check", "/nonexistent/file.json"]) == EXIT_IO

    def test_reference_with_flipped_edge_reported_imbalanced(self, tmp_path,
                                                             capsys):
        from mwconsensus.builtin import leaderless_scenario
        doc = json.loads(scenario_io.dump_scenario(leaderless_scenario()))
        for entry in doc["graph"]["edges"]:
            if (entry["i"], entry["j"]) == (1, 2):
                entry["weight"] = [-v for v in entry["weight"]]
                entry["class"] = "pd"
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert "IMBALANCED" in capsys.readouterr().out

    @pytest.mark.parametrize("make", RUN_REFUSES.values(),
                             ids=RUN_REFUSES.keys())
    def test_verdict_is_the_run_verdict(self, make, tmp_path, capsys):
        assert_refused_alike(make(), tmp_path, capsys)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"graph\": {}}")
        assert main(["check", str(path)]) == EXIT_VALIDATION


class TestStructureComputedOnce:
    """One nd x nd eigendecomposition per Laplacian per command."""

    @pytest.mark.parametrize("command,token,laplacians", [
        ("check", "builtin:leaderless", 1),
        ("check", "builtin:lf", 1),
        ("spectrum", "builtin:leaderless", 1),
        ("spectrum", "builtin:lf", 2),  # plus the grounded Laplacian
    ])
    def test_eigh_count(self, command, token, laplacians, eigh_shapes):
        assert main([command, token]) == EXIT_OK
        assert eigh_shapes.count((24, 24)) == laplacians


class TestSpectrum:
    def test_two_node_pair(self, scenario_file, capsys):
        assert main(["spectrum", str(scenario_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nullity at tolerance: 1" in out
        # path Laplacian with weight 1.5: eigenvalues 0 and 3
        assert "smallest positive eigenvalue: 3" in out

    def test_builtin_reports_nullity_four(self, capsys):
        assert main(["spectrum", "builtin:leaderless"]) == EXIT_OK
        assert "nullity at tolerance: 4" in capsys.readouterr().out

    def test_lf_includes_grounded(self, capsys):
        assert main(["spectrum", "builtin:lf"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "grounded minimum eigenvalue" in out


class TestRun:
    def test_artifacts_written(self, scenario_file, tmp_path, capsys):
        out_root = tmp_path / "runs"
        assert main(["run", str(scenario_file), "--out", str(out_root)]) == EXIT_OK
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 1
        files = {p.name for p in run_dirs[0].iterdir()}
        assert files == {"trajectory.csv", "chi.csv", "events.csv",
                         "summary.json", "config.json"}
        summary = json.loads((run_dirs[0] / "summary.json").read_text())
        assert summary["mode"] == "leaderless"
        assert "duration_s" not in summary  # timing must not break determinism
        assert set(summary) == SUMMARY_KEYS
        header = (run_dirs[0] / "trajectory.csv").read_text().splitlines()[0]
        assert header == "time,agent,dim,x,xhat,qhat"

    def test_byte_determinism(self, scenario_file, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", str(scenario_file), "--out", str(a)]) == EXIT_OK
        assert main(["run", str(scenario_file), "--out", str(b)]) == EXIT_OK
        da, db = next(a.iterdir()), next(b.iterdir())
        assert da.name == db.name
        assert file_hashes(da) == file_hashes(db)

    def test_seed_override_changes_artifacts(self, scenario_file, tmp_path):
        a = tmp_path / "a"
        assert main(["run", str(scenario_file), "--out", str(a)]) == EXIT_OK
        assert main(["run", str(scenario_file), "--out", str(a),
                     "--seed", "9"]) == EXIT_OK
        assert len(list(a.iterdir())) == 2

    def test_dump_config_round_trip(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--dump-config"]) == EXIT_OK
        text = capsys.readouterr().out
        sc, outputs = scenario_io.load_scenario_text(text)
        assert scenario_io.dump_scenario(sc, outputs) == text

    def test_divergent_scenario_exit_code(self, tmp_path, capsys):
        doc = small_scenario_doc(weight=1000.0, horizon=10.0)
        doc["sim"]["dt"] = 0.1
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--out", str(out_root)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "diverged" in err
        run_dir = next(out_root.iterdir())
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["diverged"] is True
        assert set(summary) == SUMMARY_KEYS | {"diverged"}
        assert (run_dir / "trajectory.csv").exists()

    def test_diverged_summary_carries_partial_warnings(self, tmp_path):
        """Both agents fire at t = 0 and on each of the 19 steps before the
        guard trips; the summary of the partial record says so."""
        doc = small_scenario_doc(weight=20.0, horizon=10.0)
        doc["sim"]["dt"] = 0.1
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc))
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--out", str(out_root)]) == EXIT_DIVERGED
        summary = json.loads(
            (next(out_root.iterdir()) / "summary.json").read_text())
        assert summary["event_counts"] == [20, 20]
        assert [w for w in summary["warnings"] if "consecutive" in w] == [
            f"agent {i} fired on 20 consecutive steps (threshold 10)"
            for i in (0, 1)]

    def test_writer_streams_the_record(self, tmp_path):
        """Writing holds one grid row as Python objects at a time, so its
        peak stays below the record's own arrays."""
        record = sim.run(leaderless_scenario(seed=0, horizon=2.0))
        arrays = sum(a.nbytes for a in (record.times, record.states,
                                        record.broadcasts, record.chi,
                                        record.controls))
        tracemalloc.start()
        try:
            write_artifacts(record, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        doc = small_scenario_doc()
        doc["params"]["sigma"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == EXIT_VALIDATION
        assert "sigma" in capsys.readouterr().err
        doc = small_scenario_doc()
        doc["sim"]["x0"] = [0.5, float("nan")]
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err
        path.write_text(json.dumps(small_scenario_doc()))
        assert main(["run", str(path), "--dt", "0.03", "--T", "0.05"]) \
            == EXIT_VALIDATION
        assert "multiple of dt" in capsys.readouterr().err

    def test_force_runs_despite_failed_assumptions(self, tmp_path):
        doc = small_scenario_doc()
        doc["graph"] = {"n": 3, "d": 1, "edges": [
            {"i": 0, "j": 1, "weight": [1.0]},
            {"i": 1, "j": 2, "weight": [1.0]},
            {"i": 0, "j": 2, "weight": [-1.0]},
        ]}
        doc["sim"]["T"] = 0.2
        path = tmp_path / "imbalanced.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(out),
                     "--force"]) == EXIT_OK
        forced = json.loads(
            (next(out.iterdir()) / "summary.json").read_text())
        assert forced["limit_state"] is None
        assert forced["final_relative_error"] is None
        assert forced["fitted_decay_rate"] is None
        good = tmp_path / "balanced.json"
        good.write_text(json.dumps(small_scenario_doc(horizon=0.2)))
        normal_root = tmp_path / "normal"
        assert main(["run", str(good), "--out", str(normal_root)]) == EXIT_OK
        normal = json.loads(
            (next(normal_root.iterdir()) / "summary.json").read_text())
        assert set(forced) == set(normal)


#: Non-finite parameters and states, which would run into numpy overflow
#: or NaN if they passed validation.
EXTREME = {
    "beta-inf": _set(("params", "beta"), float("inf")),
    "chi0-inf": _set(("params", "chi0"), float("inf")),
    "u0-nan": _set(("mode", "u0"), [float("nan")] * 4, lf_scenario_doc),
    "x0-1e300": _set(("sim", "x0"), [1e300, -1e300]),
}


class TestExtremeInputs:
    """Documents at the edge of float range and memory end in one line."""

    def test_extreme_weight_diverges_without_warning(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(small_scenario_doc(weight=1e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            code = main(["run", str(path), "--out", str(tmp_path / "runs")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("diverged: ")

    @pytest.mark.parametrize("make", EXTREME.values(), ids=EXTREME.keys())
    def test_refused_at_validation(self, make, tmp_path, capsys):
        assert_refused_alike(make(), tmp_path, capsys)

    def test_check_constants_bounded_width(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(small_scenario_doc(weight=1e300)))
        main(["check", str(path)])
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.startswith("mu_bar:"))
        assert row.split()[1:] == ["1.0000e+300", "1.0000e+300"]
        assert max(len(line) for line in lines) < 120

    @pytest.mark.parametrize("make", [leaderless_scenario,
                                      leader_follower_scenario])
    def test_builtin_constants_keep_four_decimals(self, make, capsys):
        sc = make()
        g = sc.graph
        coupling = (sc.mode.coupling if isinstance(sc.mode, LeaderFollower)
                    else InputCoupling.empty())
        token = ("builtin:lf" if isinstance(sc.mode, LeaderFollower)
                 else "builtin:leaderless")
        main(["check", token])
        lines = capsys.readouterr().out.splitlines()
        assert ("mu_bar: " + "  ".join(f"{trigger.mu_bar(i, g):.4f}"
                                       for i in range(g.n))) in lines
        assert ("gamma:  " + "  ".join(f"{trigger.gamma(i, g, coupling):.4f}"
                                       for i in range(g.n))) in lines

    @pytest.mark.parametrize("horizon", ["1e12", "1e308"])
    def test_horizon_beyond_memory_one_line(self, horizon, capsys):
        assert main(["run", "builtin:leaderless", "--T", horizon]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "physical memory" in err[0]

    def test_memory_checked_before_allocating(self, monkeypatch, tmp_path,
                                              capsys):
        """A run whose record (~63 MB here) exceeds the memory allocates
        nothing."""
        monkeypatch.setattr(sim, "physical_memory", lambda: float(1 << 20))
        tracemalloc.start()
        try:
            code = main(["run", "builtin:leaderless", "--T", "100",
                         "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert "physical memory" in capsys.readouterr().err
        assert peak < 4 << 20


class TestReplicate:
    def test_leaderless_run_and_summary(self, tmp_path, capsys):
        out_root = tmp_path / "runs"
        code = main(["replicate-paper", "leaderless", "--seed", "1",
                     "--T", "2.0", "--out", str(out_root)])
        assert code == EXIT_OK
        summary = json.loads(
            (next(out_root.iterdir()) / "summary.json").read_text())
        assert summary["mode"] == "leaderless"
        assert summary["n"] == 6 and summary["d"] == 4

    def test_static_baseline_flag(self, tmp_path):
        out_root = tmp_path / "runs"
        code = main(["replicate-paper", "leaderless", "--seed", "1",
                     "--T", "1.0", "--baseline", "static",
                     "--out", str(out_root)])
        assert code == EXIT_OK
        summary = json.loads(
            (next(out_root.iterdir()) / "summary.json").read_text())
        assert summary["baseline"] == "static"

    def test_raw_first_edge_rejected(self, capsys):
        code = main(["replicate-paper", "leaderless", "--raw-first-edge"])
        assert code == EXIT_VALIDATION
        assert "asymmetric" in capsys.readouterr().err

    def test_events_csv_matches_summary(self, tmp_path):
        out_root = tmp_path / "runs"
        main(["replicate-paper", "leaderless", "--seed", "2", "--T", "1.0",
              "--out", str(out_root)])
        run_dir = next(out_root.iterdir())
        summary = json.loads((run_dir / "summary.json").read_text())
        lines = (run_dir / "events.csv").read_text().splitlines()[1:]
        counts = [0] * 6
        for line in lines:
            counts[int(line.split(",")[0])] += 1
        assert counts == summary["event_counts"]


class TestSweep:
    def test_multiple_scenarios(self, tmp_path, capsys):
        paths = []
        for k, seed in enumerate((1, 2, 3)):
            doc = small_scenario_doc(seed=seed, horizon=0.5)
            p = tmp_path / f"s{k}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        out_root = tmp_path / "runs"
        assert main(["sweep", *paths, "--out", str(out_root)]) == EXIT_OK
        assert len(list(out_root.iterdir())) == 3
        announced = [line.split(" ", 1)[1] for line in
                     capsys.readouterr().out.splitlines()
                     if line.startswith("sweep: ")]
        assert announced == paths

    def test_sweep_propagates_worst_exit(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(small_scenario_doc(horizon=0.2)))
        bad = tmp_path / "bad.json"
        doc = small_scenario_doc()
        doc["params"]["sigma"] = 2.0
        bad.write_text(json.dumps(doc))
        out_root = tmp_path / "runs"
        code = main(["sweep", str(good), str(bad), "--out", str(out_root)])
        assert code == EXIT_VALIDATION


class TestConfigRoundTripOnDisk:
    def test_config_artifact_reparses_identically(self, scenario_file, tmp_path):
        out_root = tmp_path / "runs"
        main(["run", str(scenario_file), "--out", str(out_root)])
        config = next(out_root.iterdir()) / "config.json"
        sc, _ = scenario_io.load_scenario_file(config)
        assert scenario_io.run_directory_name(sc) == next(out_root.iterdir()).name


#: Each of these documents used to end in a raw traceback from ``check``, or
#: (the boolean endpoint) to load silently as the edge (1, 0).
MALFORMED = {
    "edge-i-float": _set(("graph", "edges", 0, "i"), 1.5),
    "edge-i-string": _set(("graph", "edges", 0, "i"), "0"),
    "sigma-string": _set(("params", "sigma"), "abc"),
    "sigma-null": _set(("params", "sigma"), None),
    "per-agent-array": _set(("params", "per_agent"), [1]),
    "weight-ragged": _set(("graph", "edges", 0, "weight"), [[1.5], []]),
    "edges-number": _set(("graph", "edges"), 5),
    "dt-string": _set(("sim", "dt"), "x"),
    "x0-strings": _set(("sim", "x0"), ["a", "b"]),
    "u0-strings": _set(("mode", "u0"), ["a"], lf_scenario_doc),
    "edge-i-bool": _set(("graph", "edges", 0), {"i": True, "j": 0,
                                                "weight": [1.5]}),
}


def check_outcome(doc, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    return code, capsys.readouterr().err


class TestMalformedDocuments:
    @pytest.mark.parametrize("make", MALFORMED.values(), ids=MALFORMED.keys())
    def test_one_line_format_error(self, make, tmp_path, capsys):
        code, err = check_outcome(make(), tmp_path, capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_mutation_fuzz(self, tmp_path, capsys):
        """Seeded random edits of the bundled leader-follower document: every
        mutant is accepted or rejected with at most one stderr line.  The
        replacement values hold no large sizes (a huge ``n`` would allocate
        its Laplacian before any memory check)."""
        rng = random.Random(20240607)
        pool = [None, True, False, 0, 1, -1, 2, 7, 1.5, -0.5, 1e300,
                float("nan"), float("inf"), "", "x", "0", "pd", "leaderless",
                [], [1], [[1.0]], ["a"], {}, {"k": 1}]
        base = lf_scenario_doc()
        outcomes = set()
        for _ in range(300):
            doc = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                _mutate(doc, rng, pool)
            code, err = check_outcome(doc, tmp_path, capsys)
            assert code in (EXIT_OK, EXIT_VALIDATION), (doc, err)
            assert err.count("\n") <= 1 and "Traceback" not in err, err
            outcomes.add(code)
        assert outcomes == {EXIT_OK, EXIT_VALIDATION}


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate(doc, rng, pool):
    """One random edit: replace, delete, duplicate or wrap an entry, or add
    an unknown key."""
    parent = rng.choice(_containers(doc, []))
    keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
    op = rng.choice(["replace", "replace", "delete", "duplicate", "wrap", "add"])
    value = copy.deepcopy(rng.choice(pool))
    if op == "add" or not keys:
        if isinstance(parent, dict):
            parent["unexpected"] = value
        else:
            parent.append(value)
        return
    key = rng.choice(keys)
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key]]
