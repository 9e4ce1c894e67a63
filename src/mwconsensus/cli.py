"""Command-line front end.

Subcommands::

    mwconsensus check SCENARIO            validate a scenario document
    mwconsensus spectrum SCENARIO         Laplacian spectra and nullity
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
import sys
import time
from pathlib import Path

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
        scenario = build(raw_first_edge=getattr(args, "raw_first_edge", False))
        outputs = dict(scenario_io.DEFAULT_OUTPUTS)
    else:
        scenario, outputs = scenario_io.load_scenario_file(source)
    # The override flags' argparse destinations are the Scenario field names.
    changes = {name: getattr(args, name)
               for name in ("dt", "horizon", "seed", "baseline")
               if getattr(args, name, None) is not None}
    return dataclasses.replace(scenario, **changes), outputs


def write_artifacts(record, outdir: Path, formats=("csv", "json")) -> dict:
    """Write trajectory.csv, chi.csv, events.csv, summary.json, config.json.

    Returns the summary document: :func:`analysis.event_stats` of the record,
    plus ``diverged: true`` for a record cut short by divergence.  All bytes
    depend only on the scenario and seed (timing is deliberately excluded).
    The CSVs are written one grid row at a time, so writing needs little
    memory beyond the record itself.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    sc = record.scenario
    n, d = record.n, record.d
    if "csv" in formats:
        # Native floats (one row's .tolist() at a time) keep the writes out
        # of numpy scalar overhead without copying the record.
        labels = [f",{i},{c}," for i in range(n) for c in range(d)]
        with open(outdir / "trajectory.csv", "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("time,agent,dim,x,xhat,qhat\n")
            for t, xs, hs, qs in zip(record.times, record.states,
                                     record.broadcasts, record.controls):
                ts = repr(float(t))
                row_x, row_h, row_q = xs.tolist(), hs.tolist(), qs.tolist()
                fh.writelines(
                    f"{ts}{labels[c]}{row_x[c]!r},{row_h[c]!r},{row_q[c]!r}\n"
                    for c in range(n * d))
        with open(outdir / "chi.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,agent,chi\n")
            for t, chis in zip(record.times, record.chi):
                ts = repr(float(t))
                fh.writelines(f"{ts},{i},{v!r}\n"
                              for i, v in enumerate(chis.tolist()))
        with open(outdir / "events.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("agent,time\n")
            for i, ev in enumerate(record.events):
                fh.writelines(f"{i},{t!r}\n" for t in ev.tolist())

    summary_doc = analysis.event_stats(record).as_dict()
    if len(record.times) <= sc.step_count:  # cut short by divergence
        summary_doc["diverged"] = True
    if "json" in formats:
        with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary_doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(outdir / "config.json", "w", encoding="utf-8") as fh:
            fh.write(scenario_io.dump_scenario(sc))
    return summary_doc


def _constant(value: float) -> str:
    """Four decimals, or scientific notation once that would run long."""
    return f"{value:.4f}" if abs(value) < 1e6 else f"{value:.4e}"


def cmd_check(args) -> int:
    """Print the structural diagnostics, then every reason ``run`` would
    refuse the scenario; exit 1 if there is one."""
    scenario, _ = _load(args.scenario, args)
    g = scenario.graph
    print(f"graph: n={g.n} agents, d={g.d}, {len(g.edges)} edges")
    for e in g.edges:
        print(f"  edge ({e.i},{e.j}): {e.cls.value}")
    report = mwgraph.verify_assumption1(g)
    bip = report.bipartition
    if bip is None:
        print("structural balance: IMBALANCED")
    else:
        print(f"structural balance: balanced; "
              f"group1={sorted(bip.group1)} group2={sorted(bip.group2)}")
    print(f"assumption 1 (balance + exact consensus kernel): "
          f"{'holds' if report.holds else 'FAILS'} "
          f"(nullity {report.nullity}, subspace residual "
          f"{report.subspace_residual:.3g})")
    lf = isinstance(scenario.mode, LeaderFollower)
    if lf:
        a2 = mwgraph.verify_assumption2(g, scenario.mode.coupling)
        print(f"assumption 2 (extended balance + definite grounding): "
              f"{'holds' if a2 else 'FAILS'}")
    mu_row = [trigger.mu_bar(i, g) if g.degree(i) else float("nan")
              for i in range(g.n)]
    coupling = scenario.mode.coupling if lf else mwgraph.InputCoupling.empty()
    gam_row = [trigger.gamma(i, g, coupling) for i in range(g.n)]
    print("mu_bar: " + "  ".join(map(_constant, mu_row)))
    print("gamma:  " + "  ".join(map(_constant, gam_row)))
    # The verdict is the one `run` applies, printed as `run` prints it.
    violations = sim.validate_scenario(scenario)
    for v in violations:
        print(f"validation: {v}")
    return EXIT_VALIDATION if violations else EXIT_OK


def cmd_spectrum(args) -> int:
    scenario, _ = _load(args.scenario, args)
    g = scenario.graph
    vals = sym_eigen(mwgraph.build_laplacian(g)).eigenvalues
    nullity = int(mwgraph.kernel_mask(vals).sum())
    positive = vals[vals > 1e-9 * max(1.0, vals[-1])]
    print("laplacian eigenvalues (ascending):")
    print("  " + "  ".join(f"{v:.6g}" for v in vals))
    print(f"nullity at tolerance: {nullity}")
    if positive.size:
        print(f"smallest positive eigenvalue: {positive[0]:.6g}")
    else:
        print("smallest positive eigenvalue: none")
    if isinstance(scenario.mode, LeaderFollower):
        grounded = mwgraph.build_grounded_laplacian(g, scenario.mode.coupling)
        gvals = sym_eigen(grounded).eigenvalues
        print("grounded laplacian eigenvalues (ascending):")
        print("  " + "  ".join(f"{v:.6g}" for v in gvals))
        print(f"grounded minimum eigenvalue: {gvals[0]:.6g}")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario, outputs = _load(args.scenario, args)
    if args.dump_config:
        sys.stdout.write(scenario_io.dump_scenario(scenario, outputs))
        return EXIT_OK
    out_root = Path(args.out) if args.out else Path(outputs["directory"])
    outdir = out_root / scenario_io.run_directory_name(scenario)
    formats = tuple(outputs["formats"])
    started = time.perf_counter()
    try:
        record = sim.run(scenario, check_assumptions=not args.force)
    except InvalidScenario as exc:
        for v in exc.violations:
            print(f"validation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        if exc.partial_record is not None:
            write_artifacts(exc.partial_record, outdir, formats)
            print(f"partial record flushed to {outdir}", file=sys.stderr)
        return EXIT_DIVERGED
    doc = write_artifacts(record, outdir, formats)
    elapsed = time.perf_counter() - started
    print(f"run complete: {outdir}")
    print(f"  events per agent: {doc['event_counts']}")
    if doc["final_relative_error"] is not None:
        print(f"  final bipartite error: {doc['final_bipartite_error']:.6g} "
              f"(relative {doc['final_relative_error']:.6g})")
    for w in doc.get("warnings", []):
        print(f"  warning: {w}")
    print(f"  wall time: {elapsed:.2f} s")
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
    p_rep.add_argument("--raw-first-edge", action="store_true",
                       help="feed the stored unsymmetrized first-edge weight "
                            "to the loader (rejected; demonstrates validation)")
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
