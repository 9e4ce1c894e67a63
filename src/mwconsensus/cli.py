"""Command-line front end.

Subcommands::

    mwconsensus check SCENARIO            validate a scenario document
    mwconsensus spectrum SCENARIO         Laplacian spectra, nullity, verdict
    mwconsensus run SCENARIO [...]        simulate and write artifacts
    mwconsensus replicate-paper {leaderless,lf} [...]
                                          run the bundled reference scenarios
    mwconsensus sweep SCENARIO [...]      run many scenarios in sequence

``SCENARIO`` is a path to a scenario JSON document, or one of the tokens
``builtin:leaderless`` / ``builtin:lf`` naming the bundled scenarios.

Exit codes are stable: 0 success, 1 validation failure, 2 divergence,
3 I/O error.  Artifact bytes are deterministic for a fixed seed, so runs can
be diffed across machines; wall-clock timing is printed, never written into
the artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import analysis, builtin, mwgraph, scenario_io, sim, trigger
from .errors import Diverged, InvalidScenario, MwcError
from .linalg import sym_eigen
from .trigger import LeaderFollower

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

BUILTIN_TOKENS = ("builtin:leaderless", "builtin:lf")


def _load(source: str, args: argparse.Namespace):
    """Resolve a scenario source (path or builtin token) plus CLI overrides."""
    if source in BUILTIN_TOKENS:
        build = (builtin.leaderless_scenario if source == "builtin:leaderless"
                 else builtin.leader_follower_scenario)
        scenario = build()
        outputs = dict(scenario_io.DEFAULT_OUTPUTS)
    else:
        scenario, outputs = scenario_io.load_scenario_file(source)
    # The override flags' argparse destinations are the Scenario field names.
    changes = {name: getattr(args, name)
               for name in ("dt", "horizon", "seed", "baseline")
               if getattr(args, name, None) is not None}
    return dataclasses.replace(scenario, **changes), outputs


#: Fewest grid values (states and chi) a CSV writer process is given, so
#: that forking one costs less than the formatting it takes over: on a
#: 2-vCPU VM a fork of the leaderless reference run takes about 4.5 ms,
#: and a chunk of 8192 values about 17 ms to write, batches included.
CHUNK_VALUES = 1 << 13


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def writer_processes(record, formats=("csv", "json")) -> int:
    """Processes that write the record's CSVs: one per usable CPU, but no
    more than give each at least :data:`CHUNK_VALUES` values and one grid
    row, and one where ``os.fork`` does not exist or no CSV is written.

    The count assumes the usable CPUs are idle: it reads the affinity mask,
    not the load, so runs that already keep every CPU busy gain no wall
    time from the extra writers, only their fork and append work."""
    if "csv" not in formats or not hasattr(os, "fork"):
        return 1
    rows = record.rows
    values = rows * (record.n * record.d + record.n)
    return max(1, min(usable_cpus(), values // CHUNK_VALUES, rows))


#: Most grid values a writer formats as Python objects at a time; a grid
#: row wider than this is one batch.  The batch's texts and its joined line
#: block stay well below the record's own arrays (see
#: ``test_writer_streams_the_record``).
BATCH_VALUES = 1 << 10


def _write_lines(fh, times, block, labels, tails) -> None:
    """Write the line ``{t}{label}{value}{tail}`` for each value of
    ``block`` (grid rows by columns, row ``r`` at time ``times[r]``), in
    row-major order, a batch of :data:`BATCH_VALUES` values (or one row) at
    a time, with one join and one write each.

    ``labels`` holds one text per column and ``tails`` one per value.  The
    pieces are laid out by slice assignment, so no Python code runs per
    value: ``repr`` formats the times and the values, each once."""
    width = len(labels)
    rows = max(1, BATCH_VALUES // width)
    for lo in range(0, len(block), rows):
        batch = times[lo:lo + rows].tolist()
        values = block[lo:lo + rows].ravel().tolist()
        parts = [""] * (4 * len(values))
        parts[0::4] = chain.from_iterable(
            map(repeat, map(repr, batch), repeat(width, len(batch))))
        parts[1::4] = labels * len(batch)
        parts[2::4] = map(repr, values)
        parts[3::4] = tails[lo * width:(lo + rows) * width]
        fh.write("".join(parts))


def _write_rows(record, stage: Path, k: int, start: int, stop: int) -> None:
    """Write grid rows ``start..stop-1`` of trajectory.csv and chi.csv to
    the files of chunk ``k`` in ``stage`` (:func:`_part`), headed for chunk
    0, in one pass over ``record.blocks``.

    Each column keeps the text of its held ``xhat``/``qhat`` pair, which
    the blocks hand over where it takes effect: every column at ``start``,
    then the columns each later anchor changed; every other row reuses the
    text it holds.  A block's column of these texts is laid out in one
    walk of its held pairs, and :func:`_write_lines` writes the block's
    rows of each CSV.  The bytes are those of formatting every value on
    every row.
    """
    n, nd = record.n, record.n * record.d
    labels = [f",{i},{c}," for i in range(n) for c in range(record.d)]
    chi_labels = [f",{i}," for i in range(n)]
    tails = [""] * nd
    with _open_text(_part(stage, "trajectory.csv", k)) as trajectory, \
            _open_text(_part(stage, "chi.csv", k)) as chi:
        if not k:
            trajectory.write("time,agent,dim,x,xhat,qhat\n")
            chi.write("time,agent,chi\n")
        for base, states, chis, held in record.blocks(start, stop):
            top = base + len(states)
            column, row = [], base  # the tails of rows `base..row-1`
            for at, *pair in held:
                column += tails * (at - row)
                for c, x, q in zip(*(v.tolist() for v in pair)):
                    tails[c] = f",{x!r},{q!r}\n"
                row = at
            column += tails * (top - row)
            times = record.times[base:top]
            _write_lines(trajectory, times, states, labels, column)
            _write_lines(chi, times, chis, chi_labels, ["\n"] * chis.size)


def _open_text(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _part(stage: Path, name: str, k: int) -> Path:
    """File of chunk ``k`` of CSV ``name``: the CSV itself for chunk 0, a
    hidden part file for a later chunk, until it is appended."""
    return stage / (f".{name}.part{k}" if k else name)


def _fork_writer(record, stage: Path, k: int, start: int, stop: int):
    """Fork a process that writes rows ``start..stop-1`` of each CSV to its
    part file (:func:`_write_rows`); returns its pid and the read end of a
    pipe that carries the text of its exception, if it raises one.

    The child leaves through ``os._exit`` (status 1 on any exception), so it
    never returns into the caller, runs none of its cleanup and flushes no
    inherited stdio buffer.  It only formats floats and writes files: it
    calls no BLAS and takes no lock that another thread of the parent may
    hold, so forking a process that has threads (numpy's BLAS pool) is safe
    here, although Python 3.12 and later warn about it.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        _write_rows(record, stage, k, start, stop)
        status = 0
    except BaseException as exc:
        # One write below PIPE_BUF cannot block on a pipe no one reads yet.
        os.write(write, (str(exc) or type(exc).__name__)
                 .encode("utf-8", "replace")[:512])
    finally:
        os._exit(status)


def _append(path: Path, part: Path) -> None:
    """Append file ``part`` to ``path`` through a 64 KiB buffer, so that
    this process never holds more of it."""
    with open(path, "ab") as dst, open(part, "rb") as src:
        shutil.copyfileobj(src, dst, 1 << 16)


def write_artifacts(record, outdir: Path,
                    outputs=scenario_io.DEFAULT_OUTPUTS) -> dict:
    """Write trajectory.csv, chi.csv, events.csv, summary.json, config.json,
    those of the ``outputs`` section's formats.

    Returns the summary document, :func:`analysis.event_stats` of the
    record.  config.json is the document the run loaded, as
    ``--dump-config`` prints it.  All bytes depend only on the scenario,
    its outputs section and the seed (timing is deliberately excluded).

    Every file is written into a hidden stage ``.write-*`` in ``outdir``
    and, once all are complete, moved into ``outdir`` by one ``os.replace``
    each, summary.json last, so a summary.json means the rest is in place.
    A failure before the moves leaves no file of this call in ``outdir``; a
    kill leaves the stage, which the next call removes with every stage in
    ``outdir``; a kill during the moves can leave some new files beside
    those of an earlier write.  The grid rows are split into contiguous
    chunks, one per process that :func:`writer_processes` counts for the
    record (the count ``run`` prints).  Before any output file is opened,
    one child per chunk after the first is forked to write its rows of
    trajectory.csv and chi.csv to hidden part files (see
    :func:`_fork_writer`).  This process writes chunk 0, then events.csv and
    the JSON files, then reaps the children in order and appends each part.
    Every chunk is written by one row-range writer (:func:`_write_rows`),
    which takes its states, chi and held pairs from ``record.blocks`` in
    one pass, so the bytes are those of one process for every count, and no
    process formats more than one batch (:data:`BATCH_VALUES` values, or
    one grid row where that is wider) as Python objects at a time, besides
    a block's held-pair texts.  On any failure the children are killed and
    reaped; a child that failed raises :class:`OSError` with the text of
    its exception.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    sc = record.scenario
    formats = outputs["formats"]
    processes = writer_processes(record, formats)
    rows = record.rows
    bounds = [rows * k // processes for k in range(processes + 1)]
    for stale in outdir.glob(".write-*"):
        shutil.rmtree(stale, ignore_errors=True)
    stage = Path(tempfile.mkdtemp(prefix=".write-", dir=outdir))
    children = {}
    try:
        for k in range(1, processes):
            children[k] = _fork_writer(record, stage, k, bounds[k],
                                       bounds[k + 1])
        if "csv" in formats:
            _write_rows(record, stage, 0, 0, bounds[1])
            with _open_text(stage / "events.csv") as fh:
                fh.write("agent,time\n")
                for i, ev in enumerate(record.events):
                    fh.writelines(f"{i},{t!r}\n" for t in ev.tolist())

        summary_doc = analysis.event_stats(record).as_dict()
        if "json" in formats:
            with open(stage / "summary.json", "w", encoding="utf-8") as fh:
                json.dump(summary_doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
            with open(stage / "config.json", "w", encoding="utf-8") as fh:
                fh.write(scenario_io.dump_scenario(sc, outputs))

        for k in range(1, processes):
            pid, pipe = children[k]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[k]
            with pipe:
                reason = pipe.read().decode("utf-8", "replace")
            if code:
                raise OSError(f"CSV writer process {k} of {processes} failed"
                              + (f": {reason}" if reason
                                 else f" (exit status {code})"))
            for name in ("trajectory.csv", "chi.csv"):
                _append(stage / name, _part(stage, name, k))
                _part(stage, name, k).unlink()
        for path in sorted(stage.iterdir(), key=lambda path: (
                path.suffix == ".json", path.name == "summary.json")):
            os.replace(path, outdir / path.name)
    except BaseException:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return summary_doc


def _constant(value: float) -> str:
    """Four decimals, or scientific notation once that would run long."""
    return f"{value:.4f}" if abs(value) < 1e6 else f"{value:.4e}"


def cmd_check(args) -> int:
    """Print the structural diagnostics, then every reason ``run`` would
    refuse the scenario; exit 1 if there is one."""
    scenario, _ = _load(args.scenario, args)
    g = scenario.graph
    print("\n".join([f"graph: n={g.n} agents, d={g.d}, {len(g.table)} edges",
                     *(f"  edge ({i},{j}): {cls.value}" for (i, j), cls
                       in zip(g.table.ends.tolist(), g.table.cls))]))
    report = mwgraph.verify_assumption1(g)
    if g.signs is None:
        print("structural balance: IMBALANCED")
    else:
        print(f"structural balance: balanced; "
              f"group1={np.flatnonzero(g.signs > 0).tolist()} "
              f"group2={np.flatnonzero(g.signs < 0).tolist()}")
    # A failing assumption is reported once, by its `validation:` line below.
    if report.holds:
        print(f"assumption 1 (balance + exact consensus kernel): holds "
              f"(nullity {report.nullity})")
    if isinstance(scenario.mode, LeaderFollower) and \
            mwgraph.verify_assumption2(scenario.network, g.n):
        print("assumption 2 (extended balance + definite grounding): holds")
    mu_row = np.where(g.degrees > 0, trigger.mu_bar(g), np.nan)
    gam_row = trigger.gamma(scenario.network, g.n)
    print("mu_bar: " + "  ".join(map(_constant, mu_row.tolist())))
    print("gamma:  " + "  ".join(map(_constant, gam_row.tolist())))
    # The verdict is the one `run` applies, printed as `run` prints it.
    violations = sim.validate_scenario(scenario)
    for v in violations:
        print(f"validation: {v}")
    return EXIT_VALIDATION if violations else EXIT_OK


def cmd_spectrum(args) -> int:
    """Print the Laplacian spectra of a scenario that ``run --force`` would
    accept, and the Assumption-1 verdict ``run`` applies: the assumptions
    are not required, since this command is how a graph that fails them is
    inspected."""
    scenario, _ = _load(args.scenario, args)
    violations = sim.validate_scenario(scenario, assumptions=False)
    for v in violations:
        print(f"validation: {v}", file=sys.stderr)
    if violations:
        return EXIT_VALIDATION
    g = scenario.graph
    vals, _ = sym_eigen(mwgraph.build_laplacian(g))
    kernel = mwgraph.kernel_mask(vals)
    nullity = int(kernel.sum())
    positive = vals[~kernel]  # the rule that counts the nullity
    print("laplacian eigenvalues (ascending):")
    print("  " + "  ".join(f"{v:.6g}" for v in vals))
    print(f"nullity at tolerance: {nullity}")
    if positive.size:
        print(f"smallest positive eigenvalue: {positive[0]:.6g}")
    else:
        print("smallest positive eigenvalue: none")
    # Where the full spectrum is ill-conditioned its nullity can differ from
    # the definite quotient's, which decides Assumption 1 for `run`.
    report = mwgraph.verify_assumption1(g)
    verdict = ("fails (structurally imbalanced)" if g.signs is None else
               f"{'holds' if report.holds else 'fails'} "
               f"(nullity {report.nullity})")
    print(f"assumption 1 as run decides it: {verdict}")
    if isinstance(scenario.mode, LeaderFollower):
        nd = g.n * g.d  # the agents' block of L is the grounded Laplacian
        gvals, _ = sym_eigen(scenario.network.laplacian[:nd, :nd])
        print("grounded laplacian eigenvalues (ascending):")
        print("  " + "  ".join(f"{v:.6g}" for v in gvals))
        print(f"grounded minimum eigenvalue: {gvals[0]:.6g}")
    return EXIT_OK


def cmd_run(args) -> int:
    started = time.perf_counter()
    scenario, outputs = _load(args.scenario, args)
    if args.dump_config:
        sys.stdout.write(scenario_io.dump_scenario(scenario, outputs))
        return EXIT_OK
    out_root = Path(args.out) if args.out else Path(outputs["directory"])
    outdir = out_root / scenario_io.run_directory_name(scenario)
    loaded = time.perf_counter()
    try:
        record = sim.run(scenario, check_assumptions=not args.force)
    except InvalidScenario as exc:
        for v in exc.violations:
            print(f"validation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        if exc.partial_record is not None:
            write_artifacts(exc.partial_record, outdir, outputs)
            print(f"partial record flushed to {outdir}", file=sys.stderr)
        return EXIT_DIVERGED
    simulated = time.perf_counter()
    doc = write_artifacts(record, outdir, outputs)
    written = time.perf_counter()
    processes = writer_processes(record, outputs["formats"])
    print(f"run complete: {outdir}")
    counts = doc["event_counts"]
    top = counts.index(max(counts))
    print(f"  events per agent: min {min(counts)}, median "
          f"{statistics.median(counts):g}, max {counts[top]} (agent {top})")
    if doc["final_relative_error"] is not None:
        print(f"  final bipartite error: {doc['final_bipartite_error']:.6g} "
              f"(relative {doc['final_relative_error']:.6g})")
    for w in doc.get("warnings", []):
        print(f"  warning: {w}")
    print(f"  phases: load {loaded - started:.2f} s, "
          f"simulate {simulated - loaded:.2f} s, "
          f"write {written - simulated:.2f} s "
          f"({processes} process{'es' if processes > 1 else ''})")
    return EXIT_OK


def cmd_replicate(args) -> int:
    args.scenario = f"builtin:{args.which}"
    return cmd_run(args)


def cmd_sweep(args) -> int:
    """Run the scenarios in argument order; the worst exit code wins."""
    worst = EXIT_OK
    for path in args.scenarios:
        print(f"sweep: {path}")
        args.scenario = path
        try:
            code = cmd_run(args)
        except (OSError, MwcError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            code = EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwconsensus",
        description="Event-triggered bipartite consensus on matrix-weighted "
                    "networks: validation, simulation, and analytics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_run_flags=True):
        p.add_argument("--dt", type=float, default=None,
                       help="integration step override")
        p.add_argument("--T", dest="horizon", type=float, default=None,
                       help="horizon override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if with_run_flags:
            p.add_argument("--out", default=None,
                           help="output root directory (default from scenario)")
            p.add_argument("--force", action="store_true",
                           help="run even when the structural assumptions fail")
            p.add_argument("--baseline", choices=(sim.BASELINE_DYNAMIC,
                                                  sim.BASELINE_STATIC),
                           default=None,
                           help="trigger baseline: dynamic threshold (default) "
                                "or the static comparison variant")
            p.add_argument("--dump-config", action="store_true",
                           help="print the canonical scenario document and exit")

    p_check = sub.add_parser("check", help="validate a scenario document")
    p_check.add_argument("scenario")
    add_common(p_check, with_run_flags=False)
    p_check.set_defaults(func=cmd_check)

    p_spec = sub.add_parser("spectrum", help="Laplacian spectra and nullity")
    p_spec.add_argument("scenario")
    add_common(p_spec, with_run_flags=False)
    p_spec.set_defaults(func=cmd_spectrum)

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    p_run.add_argument("scenario")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("replicate-paper",
                           help="run a bundled reference scenario")
    p_rep.add_argument("which", choices=("leaderless", "lf"))
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_replicate)

    p_sweep = sub.add_parser("sweep", help="run several scenarios one after "
                                           "another")
    p_sweep.add_argument("scenarios", nargs="+")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MwcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
