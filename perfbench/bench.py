"""Measurement: repeat one workload's operation, check it, report metrics.

One operation is one in-process ``mwconsensus`` invocation
(``replicate-paper`` or ``run``) through ``cli.main``, writing
into a fresh directory, with stdout and stderr captured so terminal output
is not timed.  Only imported modules carry over between operations.

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` alternates untraced operations with operations run under the
span wrappers of :mod:`tracing`, and reports the per-layer metrics of the
traced ones.
"""

from __future__ import annotations

import dataclasses
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from mwconsensus import cli, sim

import checks
import tracing
import workloads

#: Operations per untraced run, at least; the median needs three.
MIN_OPS = 3

#: Seconds of set-up samples taken before each untraced operation, so that
#: set-up is sampled across the same stretch of time as the operations.
SETUP_ROUND_S = 0.2

#: The shared machine runs the same code at speeds up to twice apart, in
#: phases of minutes.  Each workload's reference work (see
#: ``workloads.Workload``) is timed, as the median of ``REF_ROUNDS`` runs,
#: before and after every untraced operation; the operation and its set-up
#: samples are scaled by the workload's ``reference_s`` over the mean of the
#: two, so they read as seconds on the baseline machine running fast.
REF_ROUNDS = 5

MIB = float(1 << 20)

#: Metric names and units.  The result document holds exactly the
#: ``end_to_end`` metrics (``--trace 0``) or the ``per_layer`` ones
#: (``--trace 1``), all of them positive on every workload.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

#: Figures printed by name above the result document but left out of it:
#: each is 0 on the workload whose input kind never runs it (builtin token
#: or scenario file), and ``trace.overhead_s`` may read below 0 when noise
#: exceeds the overhead.
BRANCH_UNITS = {
    "builtin.scenario.s": "s",
    "scenario_io.load_scenario_file.s": "s",
    "mwgraph.graph_from_dict.s": "s",
    "trace.overhead_s": "s",
}

#: Unscaled figures of the untraced run, printed but left out of the result
#: document: they move with the machine's phases as well as with the code.
WALL_UNITS = {"run_wall_s": "s", "setup_wall_s": "s", "reference_wall_s": "s"}

#: ``<span>.<field>``: index into the ``Tracer.per_op`` figures of a span,
#: or of a whole layer when ``<span>`` is a layer name.
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


@dataclasses.dataclass
class OpResult:
    wall: float
    cpu: float
    problems: list[str]
    facts: dict


def run_op(wl: workloads.Workload, workdir: Path) -> OpResult:
    """One operation into a fresh directory, then its output checks."""
    out = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
    sink = io.StringIO()
    try:
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main([*wl.argv, "--out", str(out)])
        except Exception as exc:  # an operation boundary: count it as failed
            code = -1
            print(f"raised {exc!r}", file=sink)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        problems, facts = checks.check_op(out, code, wl.gauge, wl.limits)
        if code != 0:
            problems += sink.getvalue().splitlines()[-5:]
        return OpResult(wall, cpu, problems, facts)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup_round(wl) -> list[float]:
    """Wall time to build or load the scenario and run it to ``T = dt``:
    validation, structural analysis, compilation and the limit state, plus
    a single step.  Repeated for ``SETUP_ROUND_S``, at least once."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < SETUP_ROUND_S:
        t0 = time.perf_counter()
        scenario = wl.source()
        sim.run(dataclasses.replace(scenario, horizon=scenario.dt))
        samples.append(time.perf_counter() - t0)
    return samples


def time_reference(wl) -> float:
    """Median wall time of the workload's reference work: how slow the
    machine runs now."""
    times = []
    for _ in range(REF_ROUNDS):
        start = time.perf_counter()
        wl.reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _require_untraced() -> None:
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left[:5]}")


def untraced(wl, seconds: float, workdir: Path):
    """End-to-end metrics: (operations, {name: value}, notes).

    Reference work, set-up rounds and operations alternate for
    ``seconds``, with at least ``MIN_OPS`` operations.  ``run_s`` and
    ``setup_s`` are scaled to the reference speed (see ``REF_ROUNDS``);
    their unscaled medians are printed as ``run_wall_s`` and
    ``setup_wall_s``.
    """
    _require_untraced()
    refs = [time_reference(wl)]
    setups: list[list[float]] = []
    ops: list[OpResult] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        setups.append(setup_round(wl))
        ops.append(run_op(wl, workdir))
        refs.append(time_reference(wl))
    scales = [2 * wl.reference_s / (a + b) for a, b in zip(refs, refs[1:])]
    metrics = {
        "run_s": statistics.median(op.wall * k for op, k in zip(ops, scales)),
        "setup_s": statistics.median(t * k for ts, k in zip(setups, scales)
                                     for t in ts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": statistics.median(
            sum(op.facts.get(a, 0) for a in checks.ARTIFACTS) for op in ops) / MIB,
        "run_wall_s": statistics.median(op.wall for op in ops),
        "setup_wall_s": statistics.median(t for ts in setups for t in ts),
        "reference_wall_s": statistics.median(refs),
    }
    notes = ["operations (s): " + " ".join(f"{op.wall:.3f}" for op in ops),
             "reference work (ms): " + " ".join(f"{r * 1e3:.1f}" for r in refs),
             f"setup_s samples: {sum(map(len, setups))}"]
    return ops, metrics, notes


def traced(wl, seconds: float, workdir: Path, spans_path: Path):
    """Per-layer metrics: (operations, {name: value}, notes).

    Untraced and traced operations alternate for ``seconds``, at least one
    pair, so that the tracing overhead compares operations run side by side.
    """
    tracer = tracing.Tracer()
    plain: list[OpResult] = []
    ops: list[OpResult] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        _require_untraced()
        plain.append(run_op(wl, workdir))
        tracer.op = len(ops)
        tracer.install()
        try:
            ops.append(run_op(wl, workdir))
        finally:
            tracer.uninstall()
    _require_untraced()
    metrics = layer_metrics(tracer, ops)
    traced_s = statistics.median(op.wall for op in ops)
    untraced_s = statistics.median(op.wall for op in plain)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    tracer.write(spans_path)
    notes = ["untraced operations (s): " + " ".join(f"{op.wall:.3f}" for op in plain),
             "traced operations (s): " + " ".join(f"{op.wall:.3f}" for op in ops),
             f"spans written to {spans_path}"]
    return plain + ops, metrics, notes


def layer_metrics(tracer, ops: list[OpResult]) -> dict:
    """Per-operation layer figures, each the median over the traced ops;
    the step-time percentiles pool the steps of every traced op."""
    table = tracer.per_op()
    rows = []
    for k, op in enumerate(ops):
        spans = table.get(k, {})

        def get(name, field):
            agg = spans.get(name)
            return agg[field] if agg else 0

        facts = op.facts
        written = sum(facts.get(a, 0) for a in checks.ARTIFACTS)
        write_s = get("cli.write_artifacts", 1)
        row = {
            "builtin.scenario.s": get("builtin.leaderless_scenario", 1),
            "sim.steps": facts.get("steps", 0),
            "sim.events": facts.get("events", 0),
            "sim.fire_steps": facts.get("fire_steps", 0),
            "sim.fire_step_ratio": (facts.get("fire_steps", 0)
                                    / max(1, facts.get("steps", 0))),
            "cli.trajectory_csv.bytes": facts.get("trajectory.csv", 0),
            "cli.chi_csv.bytes": facts.get("chi.csv", 0),
            "cli.events_csv.bytes": facts.get("events.csv", 0),
            "cli.write_mb_per_s": written / MIB / write_s if write_s else 0.0,
            "trace.spans": sum(agg[0] for name, agg in spans.items()
                               if name not in tracing.LAYERS),
            "process.cpu_s": op.cpu,
        }
        for name in [*(m["name"] for m in SPEC["per_layer"]), *BRANCH_UNITS]:
            span, _, field = name.rpartition(".")
            if name not in row and field in SPAN_FIELDS:
                row[name] = get(span, SPAN_FIELDS[field])
        rows.append(row)

    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    steps = tracer.durations("sim.step")
    p50, p99 = np.percentile(steps, [50, 99]) * 1e6 if steps else (0.0, 0.0)
    metrics["sim.step.us_p50"] = float(p50)
    metrics["sim.step.us_p99"] = float(p99)
    return metrics


def measure(wl, seconds: float, trace: bool, workdir: Path, spans_path: Path):
    """Run one workload; returns the result document and the printable
    figures left out of it."""
    if trace:
        ops, metrics, notes = traced(wl, seconds, workdir, spans_path)
    else:
        ops, metrics, notes = untraced(wl, seconds, workdir)
    failed = sum(1 for op in ops if op.problems)
    for k, op in enumerate(ops):
        notes.extend(f"operation {k} failed: {p}" for p in op.problems)
    group = "per_layer" if trace else "end_to_end"
    doc = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC[group]},
    }
    extra = {"error_rate": {"value": failed / len(ops), "unit": "fraction"}}
    extra.update((name, {"value": metrics[name], "unit": unit})
                 for name, unit in {**BRANCH_UNITS, **WALL_UNITS}.items()
                 if name in metrics)
    return doc, extra, notes


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        wl = workloads.build(workload, seed, workdir)
        doc, extra, notes = measure(wl, seconds, trace, workdir,
                                    scratch / f"spans-{workload}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line, file=sys.stderr)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for name, m in doc["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print("  not in the result document:")
    for name, m in extra.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(doc))
    return 0
