"""CLI behavior: commands, exit codes, artifact layout, byte determinism."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import perfbench_workloads
from mwconsensus import cli, mwgraph, scenario_io, sim, trigger
from mwconsensus.analysis import RunSummary, event_stats
from mwconsensus.builtin import REFERENCE_U0, leader_follower_scenario, \
    leaderless_scenario
from mwconsensus.cli import EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_VALIDATION, \
    main, write_artifacts
from mwconsensus.errors import Diverged
from mwconsensus.trigger import LeaderFollower

from test_scenario_io import assert_reads_as_reference
from test_sim import zero_error_fire_scenario


SUMMARY_KEYS = {f.name for f in dataclasses.fields(RunSummary)}

#: The files of a run directory.
ARTIFACTS = {"trajectory.csv", "chi.csv", "events.csv", "summary.json",
             "config.json"}

#: Gauge signs of the bundled network's agents.
REFERENCE_SIGNS = np.array([1, 1, -1, -1, -1, 1])


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


def leaderless_doc():
    return json.loads(scenario_io.dump_scenario(leaderless_scenario()))


def lf_negated_inputs_doc(*inputs):
    """The bundled leader-follower document with the listed input couplings
    negated (psd -> nsd, pd -> nd)."""
    doc = lf_scenario_doc()
    for k in inputs:
        entry = doc["graph"]["inputs"][k]
        entry["weight"] = [-v for v in entry["weight"]]
        entry["class"] = {"psd": "nsd", "pd": "nd"}[entry["class"]]
    return doc


def imbalanced_doc():
    doc = small_scenario_doc()
    doc["graph"] = {"n": 3, "d": 1, "edges": [
        {"i": 0, "j": 1, "weight": [1.0]},
        {"i": 1, "j": 2, "weight": [1.0]},
        {"i": 0, "j": 2, "weight": [-1.0]},
    ]}
    return doc


def ill_conditioned_path_doc():
    """A d = 1 path with weights 1e9 and 1: Assumption 1 holds (nullity 1),
    but the full spectrum counts its eigenvalue ~1.5 as zero."""
    doc = small_scenario_doc()
    doc["graph"] = {"n": 3, "d": 1, "edges": [
        {"i": 0, "j": 1, "weight": [1e9]}, {"i": 1, "j": 2, "weight": [1.0]}]}
    return doc


def rank_deficient_pair_doc():
    """Two agents joined by diag(1, 0): balanced, but Laplacian nullity 3."""
    doc = small_scenario_doc()
    doc["graph"] = {"n": 2, "d": 2, "edges": [
        {"i": 0, "j": 1, "weight": [1.0, 0.0, 0.0, 0.0], "class": "psd"}]}
    return doc


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


def assert_refused_alike(doc, tmp_path, capsys) -> list[str]:
    """``run`` refuses the document with ``validation:`` lines only, and
    ``check`` prints the same lines on stdout and exits 1; returns them."""
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
    return refused


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
    "baseline-unknown": _set(("sim", "baseline"), "off"),
    "x0-short": _set(("sim", "x0"), [0.1]),
    "u0-short": _set(("mode", "u0"), [0.2], lf_scenario_doc),
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
        path = tmp_path / "imbalanced.json"
        path.write_text(json.dumps(imbalanced_doc()))
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert "IMBALANCED" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [imbalanced_doc, rank_deficient_pair_doc],
                             ids=["imbalanced", "diag-1-0-pair"])
    def test_failing_assumption_reported_once(self, make, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(make()))
        assert main(["check", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.count("assumption 1") == 1
        assert "validation: assumption 1 fails: " in out

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


class TestLeaderGauge:
    """Agents track u0 signed by their gauge relative to the inputs."""

    def test_negated_inputs_converge_to_negated_limit(self, tmp_path, capsys):
        path = tmp_path / "negated.json"
        path.write_text(json.dumps(lf_negated_inputs_doc(0, 1)))
        assert main(["check", str(path)]) == EXIT_OK
        assert "assumption 2 (extended balance + definite grounding): holds" \
            in capsys.readouterr().out
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--T", "0.05",
                     "--out", str(out_root)]) == EXIT_OK
        summary = json.loads(
            (next(out_root.iterdir()) / "summary.json").read_text())
        want = np.kron(-REFERENCE_SIGNS, REFERENCE_U0)
        np.testing.assert_array_equal(summary["limit_state"], want)

        sc, _ = scenario_io.load_scenario_file(path)
        full = event_stats(sim.run(sc))
        np.testing.assert_array_equal(full.limit_state, want)
        assert full.final_relative_error < 2e-3

    def test_inputs_of_opposite_sign_refused(self, tmp_path, capsys):
        doc = lf_negated_inputs_doc(1)
        assert_refused_alike(doc, tmp_path, capsys)
        path = tmp_path / "doc.json"
        assert main(["check", str(path)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.count("assumption 2") == 1
        assert "validation: assumption 2 fails: " in out


def refused_in_one_line(doc, command, tmp_path, capsys) -> str:
    """``command`` on ``doc`` exits 1 with one stderr line and nothing else
    written; returns that line."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "runs")]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "runs").exists()
    (line,) = err.splitlines()
    return line


class TestUncoupledInputs:
    """An input index past the coupled ones implies inputs without a coupling
    entry; it is refused at load, so no command sizes anything by it."""

    @pytest.mark.parametrize("top", [5000, 10**6])
    @pytest.mark.parametrize("command", ["run", "check", "spectrum"])
    def test_refused_in_one_line(self, command, top, tmp_path, capsys):
        doc = lf_scenario_doc()
        doc["sim"]["T"] = 0.01
        doc["graph"]["inputs"].append(
            dict(doc["graph"]["inputs"][0], agent=1, input=top))
        assert refused_in_one_line(doc, command, tmp_path, capsys) == \
            f"error: input 2 of m={top + 1} has no coupling"

    @pytest.mark.parametrize("line,edit", [
        ("graph: unknown keys ['m']", lambda g: g.update(m=2)),
        ("coupling agent 7 out of range",
         lambda g: g["inputs"][0].update(agent=7)),
        ("coupling agent -1 out of range",
         lambda g: g["inputs"][1].update(agent=-1)),
    ], ids=["declared-m", "agent-7", "agent-minus-1"])
    @pytest.mark.parametrize("command", ["run", "check", "spectrum"])
    def test_bad_graph_inputs_refused_in_one_line(self, command, line, edit,
                                                  tmp_path, capsys):
        """The input count is not a document value, and each coupling names
        one of the graph's agents."""
        doc = lf_scenario_doc()
        edit(doc["graph"])
        assert refused_in_one_line(doc, command, tmp_path, capsys) == \
            f"error: {line}"


class TestStructureComputedOnce:
    """One eigendecomposition per Laplacian per command: ``check`` decides
    Assumption 1 on the one-node definite quotient and decomposes no
    nd x nd matrix; ``spectrum`` decomposes the full Laplacians, and the
    quotient for the verdict it prints."""

    @pytest.mark.parametrize("command,token,laplacians", [
        ("check", "builtin:leaderless", 1),
        ("check", "builtin:lf", 1),
        ("spectrum", "builtin:leaderless", 1),
        ("spectrum", "builtin:lf", 2),  # plus the grounded Laplacian
    ])
    def test_eigh_count(self, command, token, laplacians, eigh_shapes,
                        monkeypatch):
        kernels = []
        null_space = mwgraph.null_space

        def counting(lap):
            kernels.append(lap.shape)
            return null_space(lap)

        monkeypatch.setattr(mwgraph, "null_space", counting)
        assert main([command, token]) == EXIT_OK
        assert kernels == [(4, 4)]
        if command == "check":  # each matrix decomposed is 4 x 4
            assert max(shape[-2:] for shape in eigh_shapes) == (4, 4)
        else:
            assert eigh_shapes.count((24, 24)) == laplacians

    def test_check_lf_edge_eigh_count(self, eigh_shapes):
        """One eigh for the repair of the (0, 1) weight; one stacked eigh
        per load, of the graph's 8 weights and of the coupling's 2, and one
        more of the subset whose declared class projects eigenvalue noise
        away (2 and 1 weights); one of the one-node quotient's Laplacian
        (the quotient has no edges to decompose); and the grounding test,
        which ``check`` and its verdict each run.  lambda_max is read from
        the pairs."""
        assert main(["check", "builtin:lf"]) == EXIT_OK
        assert eigh_shapes == [(4, 4), (8, 4, 4), (2, 4, 4), (2, 4, 4),
                               (1, 4, 4), (4, 4), (4, 4), (4, 4)]

    def test_check_lf_builds_one_network(self, monkeypatch):
        built = []
        extend = sim.mwgraph.extended_graph

        def counting(*args):
            built.append(args)
            return extend(*args)

        monkeypatch.setattr(sim.mwgraph, "extended_graph", counting)
        assert main(["check", "builtin:lf"]) == EXIT_OK
        assert len(built) == 1


class TestSpectrum:
    def test_two_node_pair(self, scenario_file, capsys):
        assert main(["spectrum", str(scenario_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nullity at tolerance: 1" in out
        # path Laplacian with weight 1.5: eigenvalues 0 and 3
        assert "smallest positive eigenvalue: 3" in out

    def test_edgeless_graph_has_no_positive_eigenvalue(self, tmp_path,
                                                        capsys):
        doc = small_scenario_doc()
        doc["graph"]["edges"] = []
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nullity at tolerance: 2\n" in out
        assert "smallest positive eigenvalue: none\n" in out

    def test_builtin_reports_nullity_four(self, capsys):
        assert main(["spectrum", "builtin:leaderless"]) == EXIT_OK
        assert "nullity at tolerance: 4" in capsys.readouterr().out

    def test_lf_includes_grounded(self, capsys):
        assert main(["spectrum", "builtin:lf"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "grounded minimum eigenvalue" in out

    def test_failing_assumption_still_inspected(self, tmp_path, capsys):
        """``spectrum`` validates as ``run --force`` does: a graph that fails
        Assumption 1 alone is printed, not refused."""
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(rank_deficient_pair_doc()))
        assert main(["spectrum", str(path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "nullity at tolerance: 3" in out and err == ""

    def test_one_zero_rule(self, tmp_path, capsys):
        """The nullity and the smallest positive eigenvalue are read with one
        zero rule: on a path with tiny weights, 5.35898e-10 is positive."""
        doc = small_scenario_doc()
        doc["graph"] = {"n": 6, "d": 1, "edges": [
            {"i": k, "j": k + 1, "weight": [2e-9]} for k in range(5)]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["spectrum", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nullity at tolerance: 1" in out
        assert "smallest positive eigenvalue: 5.35898e-10" in out

    @pytest.mark.parametrize("make,nullity,verdict", [
        (ill_conditioned_path_doc, 2, "holds (nullity 1)"),
        (rank_deficient_pair_doc, 3, "fails (nullity 3)"),
        (imbalanced_doc, 0, "fails (structurally imbalanced)"),
    ], ids=["ill-conditioned", "rank-deficient", "imbalanced"])
    def test_names_the_verdict_run_applies(self, make, nullity, verdict,
                                           tmp_path, capsys):
        """Next to the full spectrum's nullity, ``spectrum`` prints the
        Assumption-1 verdict of the definite quotient, which ``check`` and
        ``run`` apply; on the ill-conditioned path the two nullities differ."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(make()))
        assert main(["spectrum", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"nullity at tolerance: {nullity}\n" in out
        assert f"assumption 1 as run decides it: {verdict}\n" in out
        if verdict.startswith("holds"):
            main(["check", str(path)])
            assert f"): {verdict}\n" in capsys.readouterr().out


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
        assert summary["diverged"] is False
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

    def test_each_format_writes_its_files(self, tmp_path):
        """``["csv"]`` writes exactly the three CSVs and ``["json"]`` exactly
        the summary and config, each byte for byte the default run's file,
        except that config.json keeps the document's own formats."""
        written = {}
        for formats in (["csv", "json"], ["csv"], ["json"]):
            doc = small_scenario_doc(horizon=0.05)
            doc["outputs"] = {"formats": formats}
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            out_root = tmp_path / "-".join(formats)
            assert main(["run", str(path), "--out", str(out_root)]) == EXIT_OK
            (run_dir,) = out_root.iterdir()
            written[tuple(formats)] = {p.name: p.read_bytes()
                                       for p in run_dir.iterdir()}
        full = written.pop(("csv", "json"))
        assert sorted(written[("csv",)]) == ["chi.csv", "events.csv",
                                             "trajectory.csv"]
        assert sorted(written[("json",)]) == ["config.json", "summary.json"]
        config = json.loads(written[("json",)].pop("config.json"))
        assert config["outputs"]["formats"] == ["json"]
        config["outputs"]["formats"] = ["csv", "json"]
        assert config == json.loads(full["config.json"])
        for files in written.values():
            for name, data in files.items():
                assert data == full[name], name

    def test_config_is_the_loaded_document(self, tmp_path, capsys):
        """config.json is the text ``--dump-config`` prints for the document,
        its outputs section included."""
        doc = small_scenario_doc(horizon=0.05)
        doc["outputs"] = {"directory": "elsewhere"}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--dump-config"]) == EXIT_OK
        dumped = capsys.readouterr().out
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--out", str(out_root)]) == EXIT_OK
        (run_dir,) = out_root.iterdir()
        assert '"directory": "elsewhere"' in dumped
        assert (run_dir / "config.json").read_text() == dumped

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
        assert set(summary) == SUMMARY_KEYS
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

    def test_partial_record_reports_observed_dwell(self, tmp_path):
        """The isolated agent 2 fires once, at t = 0, and the run diverges
        at t = 0.002: its dwell is the last grid time the partial record
        holds, not T."""
        doc = small_scenario_doc(weight=1e290)
        doc["graph"]["n"] = 3
        doc["sim"]["x0"] = [0.0, 1e-280, 0.5]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--force", "--baseline", "static",
                     "--out", str(out_root)]) == EXIT_DIVERGED
        (run_dir,) = out_root.iterdir()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["diverged"] is True and summary["T"] == 1.0
        assert summary["event_counts"] == [2, 2, 1]
        assert summary["min_dwell"] == [0.001, 0.001, 0.001]

    def test_diverged_summary_is_strict_json(self, tmp_path):
        """The reference run at dt = 0.5 diverges before its Lyapunov values
        leave two points to fit: the decay rate is ``null``, and both JSON
        files parse without NaN or Infinity."""
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out_root = tmp_path / "runs"
        assert main(["replicate-paper", "leaderless", "--dt", "0.5", "--T",
                     "10", "--out", str(out_root)]) == EXIT_DIVERGED
        (run_dir,) = out_root.iterdir()
        summary = json.loads((run_dir / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["diverged"] is True
        assert summary["fitted_decay_rate"] is None
        json.loads((run_dir / "config.json").read_text(),
                   parse_constant=refuse)

    def test_writer_streams_the_record(self, tmp_path):
        """Writing holds one batch as Python objects at a time
        (``cli.BATCH_VALUES`` values, or one grid row where a row is
        wider), next to one held-pair text per column, and the summary one
        block of rebuilt states, so its peak stays below the record's own
        arrays, which hold no states, on the reference run of 20 001
        rows."""
        record = sim.run(dataclasses.replace(leaderless_scenario(seed=0),
                                             horizon=20.0))
        arrays = sum(a.nbytes for a in (
            record.times, record.chi, record.anchors,
            record.change_offsets, record.change_cols, record.change_xhat,
            record.change_q))
        tracemalloc.start()
        try:
            write_artifacts(record, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays

    def test_memory_scales_with_anchors(self, tmp_path):
        """Running and writing the reference run (20 001 grid rows, 997
        anchors) allocates less than one dense grid of states, all told:
        the record keeps no states and only the changes its anchors made,
        and its readers rebuild the states a block at a time."""
        scenario = dataclasses.replace(leaderless_scenario(seed=0),
                                       horizon=20.0)
        tracemalloc.start()
        try:
            record = sim.run(scenario)
            write_artifacts(record, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = record.rows * record.n * record.d * 8
        assert peak < grid, (peak, grid)

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

    def test_console_lines_bounded_at_n2000(self, tmp_path, capsys):
        """``run`` prints the events per agent as their minimum, median and
        maximum, with the agent that fired most, so every line stays under
        120 characters at n = 2000; summary.json keeps every count."""
        n = 2000
        path = tmp_path / "path.json"
        path.write_text(json.dumps(huge_weights_doc(
            n, [(k, k + 1, 1.0 + k % 7) for k in range(n - 1)])))
        out_root = tmp_path / "runs"
        assert main(["run", str(path), "--out", str(out_root)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert max(map(len, lines)) < 120
        counts = json.loads(
            (next(out_root.iterdir()) / "summary.json").read_text())[
            "event_counts"]
        assert len(counts) == n
        top = int(np.argmax(counts))
        assert (f"  events per agent: min {min(counts)}, median "
                f"{np.median(counts):g}, max {counts[top]} (agent {top})") \
            in lines


def use_cpus(monkeypatch, count):
    """Make ``write_artifacts`` split even a short record over ``count``
    processes, whatever this machine has."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: count)
    monkeypatch.setattr(cli, "CHUNK_VALUES", 1)


class TestWriterOracle:
    """``write_artifacts`` formats a held ``xhat``/``qhat`` pair only when
    it changes, and splits the grid rows over 1-4 forked processes; its
    ``trajectory.csv`` and ``chi.csv`` must equal the bytes of the reference
    writers, which format every value of every row in one pass, and the
    other artifacts those of one process."""

    @staticmethod
    def assert_writers_agree(record, tmp_path, monkeypatch):
        oracles.write_trajectory_csv(record, tmp_path / "trajectory.csv")
        oracles.write_chi_csv(record, tmp_path / "chi.csv")
        for count in (1, 2, 3, 4):
            use_cpus(monkeypatch, count)
            assert cli.writer_processes(record) == count
            out = tmp_path / f"cli-{count}"
            write_artifacts(record, out)
            assert {p.name for p in out.iterdir()} == ARTIFACTS  # no parts
            for name in ("trajectory.csv", "chi.csv"):
                assert (out / name).read_bytes() \
                    == (tmp_path / name).read_bytes(), (count, name)
            assert file_hashes(out) == file_hashes(tmp_path / "cli-1")

    @pytest.mark.parametrize("build", [leaderless_scenario,
                                       leader_follower_scenario])
    def test_builtins(self, build, tmp_path, monkeypatch):
        self.assert_writers_agree(sim.run(dataclasses.replace(build(seed=3),
                                                              horizon=0.5)),
                                  tmp_path, monkeypatch)

    def test_static_baseline(self, tmp_path, monkeypatch):
        scenario = dataclasses.replace(leaderless_scenario(seed=3),
                                       horizon=0.5, baseline=sim.BASELINE_STATIC)
        self.assert_writers_agree(sim.run(scenario), tmp_path, monkeypatch)

    @staticmethod
    def two_anchor_record(record):
        """``record`` with its anchors cut to rows 0 and 200."""
        held = record.anchors.searchsorted(200, side="right") - 1
        held_xhat, held_q = oracles.held_anchors(record)
        return oracles.with_held(record, [0, 200], held_xhat[[0, held]],
                                 held_q[[0, held]])

    def test_chunks_start_inside_anchor_spans(self, tmp_path, monkeypatch):
        """Anchors at rows 0 and 200 of 501: no chunk of 2-4 processes
        starts at an anchor, so each formats its first row's held pairs
        from the anchor before it."""
        record = sim.run(dataclasses.replace(leaderless_scenario(seed=3),
                                             horizon=0.5))
        self.assert_writers_agree(self.two_anchor_record(record), tmp_path,
                                  monkeypatch)

    @pytest.mark.parametrize("batch", [1, 3, 7, 100])
    @pytest.mark.parametrize("make", [
        lambda: sim.run(dataclasses.replace(leaderless_scenario(seed=3),
                                            horizon=0.5)),
        lambda: TestWriterOracle.two_anchor_record(
            sim.run(dataclasses.replace(leaderless_scenario(seed=3),
                                        horizon=0.5))),
        lambda: sim.run(scenario_io.parse_scenario(
            small_scenario_doc(horizon=0.5))[0]),
    ], ids=["reference", "two-anchors", "two-agents"])
    def test_batches_split_spans_and_chunks(self, make, batch, tmp_path,
                                            monkeypatch):
        """Batches of at most 1, 3, 7 and 100 values: on rows of 24, 6
        and 2 values they hold one row up to 50 rows, so their ends fall
        inside anchor spans, across anchors and off every chunk start."""
        monkeypatch.setattr(cli, "BATCH_VALUES", batch)
        self.assert_writers_agree(make(), tmp_path, monkeypatch)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("two_anchors", [False, True],
                             ids=["reference", "two-anchors"])
    def test_blocks_end_batches(self, rows, two_anchors, tmp_path,
                                monkeypatch):
        """Blocks of 1, 2 and 5 rebuilt rows: a batch also ends where a
        block does, inside anchor spans and off every chunk start."""
        record = sim.run(dataclasses.replace(leaderless_scenario(seed=3),
                                             horizon=0.5))
        if two_anchors:
            record = self.two_anchor_record(record)
        monkeypatch.setattr(sim, "WINDOW_VALUES",
                            4 * record.n * record.d * rows)
        self.assert_writers_agree(record, tmp_path, monkeypatch)

    def test_row_wider_than_a_batch(self, tmp_path, monkeypatch):
        """A grid row of n * d = 1200 values, more than one batch holds:
        the benchmark's random balanced graph at n = 300, d = 4."""
        scenario, _ = perfbench_workloads().random_balanced_scenario(
            1, 300, horizon=0.005)
        record = sim.run(scenario)
        assert record.n * record.d > cli.BATCH_VALUES
        self.assert_writers_agree(record, tmp_path, monkeypatch)

    def test_diverged_partial_record(self, tmp_path, monkeypatch):
        doc = small_scenario_doc(weight=1000.0, horizon=10.0)
        doc["sim"]["dt"] = 0.1
        scenario, _ = scenario_io.parse_scenario(doc)
        with pytest.raises(Diverged) as info:
            sim.run(scenario)
        record = info.value.partial_record
        assert len(record.times) <= scenario.step_count
        self.assert_writers_agree(record, tmp_path, monkeypatch)

    def test_zero_error_fires(self, tmp_path, monkeypatch):
        """A run whose later anchors repeat the held pair of the anchor
        before them bit for bit."""
        self.assert_writers_agree(sim.run(zero_error_fire_scenario()),
                                  tmp_path, monkeypatch)

    def test_signed_zeros_and_repeats(self, tmp_path, monkeypatch):
        """Every row an anchor, with held values that flip between 0.0 and
        -0.0 (equal as floats, different as text), values that return after
        a change, and an anchor that repeats the one before it exactly."""
        record = sim.run(dataclasses.replace(leaderless_scenario(seed=0),
                                             horizon=0.012))
        rows, nd = record.rows, record.n * record.d
        rng = np.random.default_rng(11)
        pool = np.array([0.0, -0.0, 1.5, -2.25, 5e-324, 0.1])
        held = []
        for _ in range(2):
            values = pool[rng.integers(len(pool), size=(rows, nd))]
            repeat = rng.random((rows, nd)) < 0.5
            for k in range(1, rows):
                values[k, repeat[k]] = values[k - 1, repeat[k]]
            held.append(values)
        h, q = held
        flips = np.where(np.arange(rows) % 2 == 0, 0.0, -0.0)
        h[:, 0], q[:, 0] = flips, 1.0   # only xhat's sign flips
        h[:, 1], q[:, 1] = 1.0, -flips  # only qhat's sign flips
        h[:, 2], q[:, 2] = flips, flips  # both flip together
        assert (np.signbit(h[1:, 0]) != np.signbit(h[:-1, 0])).all()
        h[5], q[5] = h[4], q[4]  # an anchor that changes nothing
        record = oracles.with_held(record, np.arange(rows), h, q)
        self.assert_writers_agree(record, tmp_path, monkeypatch)

    def test_no_more_processes_than_rows(self, tmp_path, monkeypatch):
        """A short run gives no writer an empty chunk."""
        use_cpus(monkeypatch, 4)
        record = sim.run(dataclasses.replace(leaderless_scenario(seed=3),
                                             horizon=0.001))
        assert record.rows == 2
        assert cli.writer_processes(record) == 2

    @pytest.mark.parametrize("failing,line", [
        ("child", "CSV writer process 1 of 3 failed: injected"),
        ("killed", "CSV writer process 1 of 3 failed (exit status -9)"),
        ("parent", "disk full"),
    ], ids=["child", "killed", "parent"])
    def test_failed_writer_leaves_nothing(self, failing, line, tmp_path,
                                          capsys, monkeypatch):
        """The row writer raises for chunk 1 (a forked child: any
        exception, whose text reaches the message), is killed there, or
        raises for chunk 0 (this process, while the children write): exit 3
        with one line, and no artifact, part file or child process is
        left."""
        use_cpus(monkeypatch, 3)
        write_rows = cli._write_rows

        def failing_rows(record, stage, k, start, stop):
            if start == (0 if failing == "parent"
                         else record.rows // 3):
                if failing == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise (OSError("disk full") if failing == "parent"
                       else RuntimeError("injected"))
            write_rows(record, stage, k, start, stop)

        monkeypatch.setattr(cli, "_write_rows", failing_rows)
        out_root = tmp_path / "runs"
        assert main(["replicate-paper", "leaderless", "--T", "0.5",
                     "--out", str(out_root)]) == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: {line}\n"
        assert list(next(out_root.iterdir()).iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_write_leaves_no_artifact(self, tmp_path):
        """A run killed while it appends the part of chunk 1 (two writers)
        has already written chunk 0, events.csv and both JSON files, but
        its run directory holds only the hidden stage, no artifact.  The
        next run into that directory removes the stage."""
        out_root = tmp_path / "runs"
        script = textwrap.dedent(f"""
            import os, signal
            from mwconsensus import cli
            cli.usable_cpus = lambda: 2
            cli.CHUNK_VALUES = 1
            cli._append = lambda path, part: os.kill(os.getpid(),
                                                     signal.SIGKILL)
            cli.main(["replicate-paper", "leaderless", "--T", "0.5",
                      "--out", {str(out_root)!r}])
        """)
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        (run_dir,) = out_root.iterdir()
        left = [p.name for p in run_dir.iterdir()]
        assert not set(left) & ARTIFACTS
        assert len(left) == 1 and left[0].startswith(".write-")
        assert main(["replicate-paper", "leaderless", "--T", "0.5",
                     "--out", str(out_root)]) == EXIT_OK
        assert {p.name for p in run_dir.iterdir()} == ARTIFACTS

    def test_summary_moved_last(self, tmp_path, monkeypatch):
        """The staged files reach the run directory CSVs first and
        summary.json last, so a summary.json means the rest is there."""
        moved = []
        replace = os.replace

        def recording(src, dst):
            moved.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording)
        assert main(["replicate-paper", "leaderless", "--T", "0.5",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert set(moved) == ARTIFACTS and len(moved) == len(ARTIFACTS)
        assert moved[-2:] == ["config.json", "summary.json"]


class TestPhases:
    def test_phases_line_and_unchanged_bytes(self, tmp_path, capsys,
                                             monkeypatch):
        """``run`` prints one line of load, simulate and write times and the
        CSV writer count, and the artifacts are the bytes of the same run
        written directly, whatever the count."""
        direct = tmp_path / "direct"
        write_artifacts(sim.run(dataclasses.replace(
            leader_follower_scenario(seed=2), horizon=0.5)), direct)
        for cpus, writers in ((1, "1 process"), (2, "2 processes")):
            use_cpus(monkeypatch, cpus)
            out_root = tmp_path / f"runs-{cpus}"
            assert main(["replicate-paper", "lf", "--seed", "2", "--T", "0.5",
                         "--out", str(out_root)]) == EXIT_OK
            out = capsys.readouterr().out
            phases = [line for line in out.splitlines() if "phases:" in line]
            assert len(phases) == 1 and "wall time" not in out
            assert re.fullmatch(r"  phases: load \d+\.\d\d s, simulate "
                                r"\d+\.\d\d s, write \d+\.\d\d s "
                                rf"\({writers}\)", phases[0])
            assert file_hashes(next(out_root.iterdir())) == file_hashes(direct)


#: Non-finite parameters and states, which would run into numpy overflow
#: or NaN if they passed validation.
EXTREME = {
    "beta-inf": _set(("params", "beta"), float("inf")),
    "chi0-inf": _set(("params", "chi0"), float("inf")),
    "u0-nan": _set(("mode", "u0"), [float("nan")] * 4, lf_scenario_doc),
    "x0-1e300": _set(("sim", "x0"), [1e300, -1e300]),
}


def huge_weights_doc(n, edges, d=1):
    """The bundled leaderless document on a graph of ``(i, j, w)`` edges
    with ``w`` times all-ones d x d weights, uniform parameters, a uniform x0
    and T = 0.01."""
    doc = leaderless_doc()
    doc["graph"] = {"n": n, "d": d, "edges": [
        {"i": i, "j": j, "weight": [w] * (d * d)} for i, j, w in edges]}
    doc["params"].pop("per_agent", None)
    doc["sim"].update(x0="uniform[-1,1]", T=0.01)
    return doc


#: Weights whose Laplacian overflows float64: (a) in its spectrum, 2e308;
#: (b) in the diagonal sum at the centre of a star, 2.4e308; (c) already in
#: the weight's own spectrum, whose eigenvalue 2e308 would otherwise widen
#: the zero band to inf and classify the weight zero.
HUGE_WEIGHTS = {
    "spectrum": lambda: huge_weights_doc(2, [(0, 1, 1e308)]),
    "diagonal": lambda: huge_weights_doc(4, [(0, k, 8e307) for k in (1, 2, 3)]),
    "eigenvalue": lambda: huge_weights_doc(2, [(0, 1, 1e308)], d=2),
}


class TestExtremeInputs:
    """Documents at the edge of float range and memory end in one line."""

    @pytest.mark.parametrize("command", ["check", "run", "spectrum"])
    @pytest.mark.parametrize("make", HUGE_WEIGHTS.values(),
                             ids=HUGE_WEIGHTS.keys())
    def test_weights_beyond_float64_one_line(self, make, command, tmp_path,
                                             capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(make()))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "runs")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too large for float64" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("weight", [1e150, 1e300])
    def test_extreme_weight_diverges_without_warning(self, weight, tmp_path,
                                                     capsys):
        """At 1e150 the gain times |q|^2 overflows, while |q|^2 does not."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(small_scenario_doc(weight=weight)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            code = main(["run", str(path), "--out", str(tmp_path / "runs")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("diverged: ")

    @pytest.mark.parametrize("baseline,chi", [
        ("static", 0.3 * math.exp(-1e-3)), ("dynamic", -3.3325001666e300)],
        ids=["static", "dynamic"])
    def test_huge_weight_keeps_chi_finite(self, baseline, chi, tmp_path,
                                          capsys):
        """At weight 1e290 the gain times |q|^2 overflows float64 while one
        step's error does not, so the excess in grid-step units stays finite
        and so does chi at the last step before the divergence."""
        doc = small_scenario_doc(weight=1e290)
        doc["sim"]["x0"] = [0.0, 1e-280]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            code = main(["run", str(path), "--baseline", baseline,
                         "--out", str(tmp_path / "runs")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith(
            "diverged: state norm exceeded 1e+09 at t=0.002")
        (run_dir,) = (tmp_path / "runs").iterdir()
        rows = (run_dir / "chi.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[0] for r in rows[3:]] == ["0.001,0", "0.001,1"]
        for r in rows[3:]:
            assert float(r.rsplit(",", 1)[1]) == pytest.approx(chi, rel=1e-10)

    @pytest.mark.parametrize("make", EXTREME.values(), ids=EXTREME.keys())
    def test_refused_at_validation(self, make, tmp_path, capsys):
        assert_refused_alike(make(), tmp_path, capsys)

    def test_infinite_gain_refused_by_agent(self, tmp_path, capsys):
        """Input couplings near the float maximum overflow gamma of the two
        agents they attach to; ``run`` and ``check`` refuse each such gain
        in one line, without a numpy warning."""
        doc = lf_scenario_doc()
        for entry in doc["graph"]["inputs"]:
            entry["weight"] = [1e307 * v for v in entry["weight"]]
        refused = assert_refused_alike(doc, tmp_path, capsys)
        assert refused == [
            f"validation: agent {i}: trigger gain inf is not finite (edge "
            "weights too large for float64)" for i in (0, 5)]
        # spectrum refuses it too, rather than print rounding noise.
        assert main(["spectrum", str(tmp_path / "doc.json")]) \
            == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == refused

    def test_large_chi_step_runs(self, tmp_path, capsys):
        """beta * dt = 3 runs: the thresholds come in closed form, so chi
        decays from chi0 at any step and never exceeds it."""
        doc = _set(("params", "beta"), 3000.0, leaderless_doc)()
        doc["params"]["theta"] = 1.0
        doc["sim"]["T"] = 0.05
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning raises
            assert main(["run", str(path), "--out", str(tmp_path / "runs")]) \
                == EXIT_OK
        chi_csv = next((tmp_path / "runs").iterdir()) / "chi.csv"
        chi = [float(line.split(",")[2])
               for line in chi_csv.read_text().splitlines()[1:]]
        assert len(chi) == 6 * 51 and max(chi) == 0.5  # chi0

    def test_chi_step_below_limit_runs(self, tmp_path, capsys):
        """beta * dt = 2, below the 2.78529 limit of the former 4-stage chi
        update, runs as before, and chi never exceeds chi0."""
        doc = _set(("params", "beta"), 2000.0, leaderless_doc)()
        doc["params"]["theta"] = 1.0
        doc["sim"]["T"] = 0.05
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) \
            == EXIT_OK
        chi_csv = next((tmp_path / "runs").iterdir()) / "chi.csv"
        chi = [float(line.split(",")[2])
               for line in chi_csv.read_text().splitlines()[1:]]
        assert max(chi) == 0.5  # chi0: the update decays

    def test_infinite_beta_refused_once(self, tmp_path, capsys):
        """An agent whose beta is infinite is refused in one line."""
        assert assert_refused_alike(EXTREME["beta-inf"](), tmp_path, capsys) \
            == [f"validation: agent {i}: beta: inf must be positive and finite"
                for i in (0, 1)]

    @pytest.mark.parametrize("command", ["check", "run", "spectrum"])
    def test_laplacian_beyond_memory_one_line(self, command, monkeypatch,
                                              tmp_path, capsys):
        """A graph whose nd x nd Laplacian and its eigh (~15 MB here) exceed
        the memory: ``spectrum``, which reads that spectrum, is refused in
        one line before anything that size exists; ``check`` and ``run``
        never build it and pass."""
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: float(1 << 20))
        doc = huge_weights_doc(200, [], d=4)
        doc["graph"]["edges"] = [
            {"i": k, "j": k + 1, "weight": np.eye(4).ravel().tolist()}
            for k in range(199)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "runs")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        if command == "spectrum":
            assert code == EXIT_VALIDATION
            assert out == "" and len(err.splitlines()) == 1
            assert "physical memory" in err
        else:
            assert code == EXIT_OK and err == ""
        assert peak < 4 << 20

    @pytest.mark.parametrize("command", ["check", "run", "spectrum"])
    def test_nodes_beyond_memory_one_line(self, command, monkeypatch,
                                          tmp_path, capsys):
        """A graph whose adjacency index (~1.7 MB for n = 10^4) exceeds the
        memory is refused in one line before its lists exist."""
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: float(1 << 20))
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(huge_weights_doc(10**4, [], d=4)))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "runs")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == EXIT_VALIDATION and out == ""
        assert err.splitlines() == [
            "error: n=10000 nodes need 0.00238 GiB for the adjacency index, "
            "more than the 0.000977 GiB of physical memory"]
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", ["check", "run", "spectrum"])
    @pytest.mark.parametrize("edges", [[], [{"i": 0, "j": 1,
                                             "weight": [1.0]}]],
                             ids=["edgeless", "one-edge"])
    def test_block_dimension_beyond_memory_one_line(self, command, edges,
                                                    tmp_path, capsys):
        """A graph.d of 3e9, whose d x d weights cannot be shaped, is
        refused in one line before any weight stack exists."""
        doc = huge_weights_doc(2, [], d=3 * 10**9)
        doc["graph"]["edges"] = edges
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "runs")]
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: d=3000000000 weights need ") \
            and err.endswith(" GiB of physical memory\n")

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_size_beyond_float_range_one_line(self, field, tmp_path, capsys):
        """A graph.n or graph.d of 10**400, an integer that no float holds,
        is refused in one line: its size reads as inf GiB."""
        doc = huge_weights_doc(2, [], d=1)
        doc["graph"][field] = 10**400
        path = tmp_path / "size.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert " need inf GiB " in err and err.endswith("physical memory\n")

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
        token = ("builtin:lf" if isinstance(sc.mode, LeaderFollower)
                 else "builtin:leaderless")
        main(["check", token])
        lines = capsys.readouterr().out.splitlines()
        assert ("mu_bar: " + "  ".join(
            f"{mu:.4f}" for mu in trigger.mu_bar(g))) in lines
        assert ("gamma:  " + "  ".join(
            f"{gam:.4f}" for gam in trigger.gamma(sc.network, g.n))) in lines

    @pytest.mark.parametrize("horizon", ["1e12", "1e308"])
    def test_horizon_beyond_memory_one_line(self, horizon, capsys):
        assert main(["run", "builtin:leaderless", "--T", horizon]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "physical memory" in err[0]

    def test_memory_checked_before_allocating(self, monkeypatch, tmp_path,
                                              capsys):
        """A run whose ``chi`` and times (~5.6 MB here) exceed the memory
        allocates nothing."""
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: float(1 << 20))
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

    def test_record_sized_by_what_it_holds(self, monkeypatch, tmp_path):
        """The reference run (20 001 rows, 997 anchors) in 4e6 bytes of
        memory, where an anchor at every row that changes every column
        would not fit, runs and writes the bytes of an unlimited run."""
        sc = leaderless_scenario()
        n, nd, rows = sc.graph.n, sc.graph.n * sc.graph.d, sc.step_count + 1
        assert 8 * rows * (3 * nd + n + 3) > 4e6
        argv = ["replicate-paper", "leaderless"]
        assert main(argv + ["--out", str(tmp_path / "free")]) == EXIT_OK
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: 4e6)
        assert main(argv + ["--out", str(tmp_path / "small")]) == EXIT_OK
        (free,), (small,) = ((tmp_path / name).iterdir()
                             for name in ("free", "small"))
        assert file_hashes(small) == file_hashes(free)

    def test_record_beyond_memory_mid_run_one_line(self, monkeypatch,
                                                   tmp_path, capsys):
        """In 1.5e6 bytes, the reference run's ``chi`` and times (1.1 MB)
        pass validation, and the anchor whose changes would not fit ends
        the run in one line, with exit 1 and no run directory.  The need
        (1 500 360 bytes) reads larger than the memory: both are printed
        with as many digits as tell them apart."""
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: 1.5e6)
        out_root = tmp_path / "runs"
        assert main(["replicate-paper", "leaderless", "--out",
                     str(out_root)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        match = re.fullmatch(
            r"validation: \d+ anchors with \d+ changes at t=[\d.]+ need "
            r"([\d.]+) GiB of record arrays, more than the ([\d.]+) GiB of "
            r"physical memory\n", err)
        assert match, err
        need, have = match.groups()
        assert float(need) > float(have)
        assert float(have) == pytest.approx(1.5e6 / 2**30, rel=1e-3)
        assert not out_root.exists()

    @pytest.mark.parametrize("need, text", [
        (1_500_360.0, "need 0.0013973 GiB of arrays, more than the 0.001397 "
                      "GiB of physical memory"),
        (1_500_000.0, "need 0.0014 GiB of arrays, all of the 0.0014 GiB of "
                      "physical memory"),
        (3.0 * 2**30, "need 3 GiB of arrays, more than the 0.0014 GiB of "
                      "physical memory"),
    ], ids=["close", "equal", "apart"])
    def test_refusal_sizes_read_apart(self, need, text, monkeypatch):
        """Each size gets the fewest digits, at least 3, at which the two
        differ, and a need equal to the memory, refused too, reads so."""
        monkeypatch.setattr(mwgraph, "physical_memory", lambda: 1.5e6)
        assert mwgraph.memory_refusal(need, "run", "of arrays") \
            == f"run {text}"


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


    def test_sweep_goes_on_past_bad_documents(self, tmp_path, capsys):
        """A missing file and a malformed document each print one
        ``path: error`` line; the good run after them is written, and the
        I/O error's exit code wins."""
        missing = tmp_path / "missing.json"
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(small_scenario_doc(horizon=0.2)))
        out_root = tmp_path / "runs"
        paths = [str(missing), str(malformed), str(good)]
        assert main(["sweep", *paths, "--out", str(out_root)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert [line for line in out.splitlines()
                if line.startswith("sweep: ")] == [f"sweep: {p}" for p in paths]
        err = err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"{missing}: [Errno 2] ")
        assert err[1] == (f"{malformed}: scenario document is not valid "
                          "JSON: line 1 column 2: Expecting property name "
                          "enclosed in double quotes")
        (run_dir,) = out_root.iterdir()
        assert {p.name for p in run_dir.iterdir()} == ARTIFACTS


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
    "x0-nested": _set(("sim", "x0"), [[0.1], [0.2]]),
    "u0-nested": _set(("mode", "u0"), [[0.2, 0.4], [0.6, 0.8]],
                      lf_scenario_doc),
}

#: Document texts with a key repeated within one object (``json`` alone
#: would keep the last value), and the key.
REPEATED_KEYS = {
    "edge-weight": (json.dumps(small_scenario_doc()).replace(
        '"weight": [1.5]', '"weight": [1.5], "weight": [-1.5]'), "weight"),
    "sim-T": (json.dumps(small_scenario_doc()).replace(
        '"T": 1.0', '"T": 1.0, "T": 2.0'), "T"),
}


#: Document texts each refused by the reader in one line, and its stderr
#: line (a prefix where the rest is Python's own wording).
REFUSED_TEXTS = {
    "dt-beyond-float": (
        json.dumps(_set(("sim", "dt"), 10**400)()).encode(),
        "error: sim.dt: number out of range"),
    "not-utf8": (b'\xff{"graph": {}}',
                 "error: scenario document is not UTF-8: "),
    "nested-past-recursion-limit": (
        b"[" * 100_000 + b"]" * 100_000,
        "error: scenario document is not valid JSON: maximum recursion "
        "depth exceeded"),
    "mode-kind-unknown": (
        json.dumps(_set(("mode",), {"kind": "leader"})()).encode(),
        "error: mode: kind must be 'leaderless' or 'leader-follower', got "
        "'leader'"),
    "u0-on-leaderless": (
        json.dumps(_set(("mode",), {"kind": "leaderless", "u0": [1.0]})())
        .encode(),
        "error: mode: u0 is only valid for leader-follower"),
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

    @pytest.mark.parametrize("text,line", REFUSED_TEXTS.values(),
                             ids=REFUSED_TEXTS.keys())
    def test_refused_text_one_line(self, text, line, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        assert main(["check", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(line), err

    @pytest.mark.parametrize("name", ["x0-nested", "u0-nested"])
    def test_nested_state_refused_by_run(self, name, tmp_path, capsys):
        """``run`` names its run directory before validation, so the reader
        must refuse a nested state for it to end in one line."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(MALFORMED[name]()))
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "expected a flat array of numbers" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("text,key", REPEATED_KEYS.values(),
                             ids=REPEATED_KEYS.keys())
    def test_repeated_key_one_line(self, text, key, command, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = [command, str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "runs")]
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: scenario document repeats the key {key!r} within one "
            "object"]
        assert not (tmp_path / "runs").exists()

    def test_mutation_fuzz(self, tmp_path, capsys):
        """Seeded random edits of the bundled leader-follower document: every
        mutant is accepted or rejected with at most one stderr line, and
        its graph read as the per-entry reader reads it.  The
        replacement values hold no large sizes (a huge ``n`` would allocate
        an adjacency index of up to the physical memory)."""
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
            assert_reads_as_reference(doc)
            outcomes.add(code)
        assert outcomes == {EXIT_OK, EXIT_VALIDATION}

    def test_builtin_field_fuzz(self, tmp_path, capsys):
        """Seeded edits of one or two fields of the dumped builtin documents,
        ``graph.d`` set to every value among them, with values that include
        huge sizes: ``check`` exits 0, 1 or 2 with at most one stderr line,
        never a traceback; the reader reads each as the per-entry reader
        does."""
        rng = random.Random(20261019)
        pool = [None, True, -1, 0, 1e308, float("nan"), float("inf"), "", [],
                {}, 10**30]
        bases = [leaderless_doc(), lf_scenario_doc()]
        edits = [(base, {("graph", "d"): value}) for base in bases
                 for value in pool]
        while len(edits) < 200:
            base = rng.choice(bases)
            paths = rng.sample(_paths(base, ()), rng.randint(1, 2))
            edits.append((base, {path: rng.choice(pool) for path in paths}))
        for base, fields in edits:
            doc = copy.deepcopy(base)
            # Deeper paths first, so that no edit removes a later one's path.
            for path in sorted(fields, key=len, reverse=True):
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = copy.deepcopy(fields[path])
            code, err = check_outcome(doc, tmp_path, capsys)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DIVERGED), \
                (fields, err)
            assert err.count("\n") <= 1 and "Traceback" not in err, err
            assert_reads_as_reference(doc)


def _paths(node, path):
    """The key path of every entry below ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(path + (key,))
        out.extend(_paths(child, path + (key,)))
    return out


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
