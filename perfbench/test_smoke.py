"""Toy-size smoke test of the benchmark itself (n=20, short horizon).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mwconsensus import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy_run(trace: bool, tmp_path: Path) -> tuple[dict, dict]:
    wl = workloads.build("random-n500", 7, tmp_path, toy=True)
    doc, extra, _ = bench.measure(wl, 0.0, trace, tmp_path, tmp_path / "spans.csv")
    return doc, extra


@pytest.mark.parametrize("trace,group", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted_with_unit(trace, group, tmp_path):
    doc, extra = toy_run(trace, tmp_path)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in SPEC[group]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0, m["name"]
    printed = {"error_rate"} | set(bench.BRANCH_UNITS if trace else bench.WALL_UNITS)
    assert set(extra) == printed and extra["error_rate"]["value"] == 0
    assert tracing.installed_wrappers() == []


def test_corrupted_artifact_raises_error_rate(tmp_path, monkeypatch):
    write = cli.write_artifacts

    def corrupting(record, outdir, *args, **kwargs):
        doc = write(record, outdir, *args, **kwargs)
        with open(outdir / "events.csv", "a", encoding="utf-8") as fh:
            fh.write("0,99.0\n")
        return doc

    monkeypatch.setattr(cli, "write_artifacts", corrupting)
    doc, extra = toy_run(False, tmp_path)
    assert not doc["correct"]
    assert extra["error_rate"]["value"] == doc["failed"] / doc["attempted"] > 0


def test_untraced_run_refuses_installed_wrappers(tmp_path):
    wl = workloads.build("random-n500", 7, tmp_path, toy=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="still installed"):
            bench.untraced(wl, 0.0, tmp_path)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
