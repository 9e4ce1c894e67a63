"""Output checks for one benchmark operation.

Each operation writes one run directory.  It passes
when all five artifacts exist, the JSON documents parse, ``events.csv``
agrees with the summary's event counts, every chi floor margin is at least
``-CHI_FLOOR_TOL`` (acceptance A3), no nonpositive-chi warning was raised,
the summary stays under the workload's limits (A1), and the gauge-signed
state sum of the leaderless network is the same at t = 0 and t = T.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

ARTIFACTS = ("trajectory.csv", "chi.csv", "events.csv", "summary.json",
             "config.json")

CHI_FLOOR_TOL = 1e-6

#: The leaderless control -L xhat is orthogonal to every gauge-signed
#: consensus vector, so sum_i s_i x_i is invariant; only rounding moves it.
#: Bound on the drift relative to max(1, sum_i |x_i(0)|) per dimension.
CONSERVATION_TOL = 1e-10


def _rows(lines: list[str], d: int) -> np.ndarray:
    """(agent, dim, x) rows of trajectory.csv lines as an (n, d) array."""
    fields = [line.split(",") for line in lines]
    n = len(fields) // d
    x = np.zeros((n, d))
    for f in fields:
        x[int(f[1]), int(f[2])] = float(f[3])
    return x


def _first_last_states(path: Path, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """States at the first and last grid time, read from the file's ends."""
    rows = n * d
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        head = [fh.readline() for _ in range(rows)]
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - rows * 200))
        tail = fh.read().decode("utf-8").splitlines()[-rows:]
    return _rows(head, d), _rows(tail, d)


def check_run(run_dir: Path, gauge, limits: dict) -> tuple[list[str], dict]:
    """Problems found in one run directory, plus counts read from it."""
    missing = [a for a in ARTIFACTS if not (run_dir / a).is_file()]
    if missing:
        return [f"{run_dir.name}: missing {missing}"], {}
    problems = []
    try:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"{run_dir.name}: unparsable JSON artifact: {exc}"], {}

    with open(run_dir / "events.csv", "r", encoding="utf-8") as fh:
        fh.readline()
        times = [line.rstrip("\n").split(",")[1] for line in fh]
    if len(times) != sum(summary["event_counts"]):
        problems.append(f"events.csv has {len(times)} rows, summary counts "
                        f"{sum(summary['event_counts'])}")
    low = min(summary["chi_floor_margins"])
    if low < -CHI_FLOOR_TOL:
        problems.append(f"chi floor margin {low:.3g} below -{CHI_FLOOR_TOL:g}")
    problems.extend(f"warning: {w}" for w in summary["warnings"]
                    if "nonpositive" in w)
    for key, limit in limits.items():
        if not summary[key] < limit:
            problems.append(f"{key} = {summary[key]:.3g}, limit {limit:g}")
    x0, xT = _first_last_states(run_dir / "trajectory.csv",
                                summary["n"], summary["d"])
    s = np.asarray(gauge, dtype=float)[:, None]
    drift = float(np.max(np.abs((s * xT).sum(axis=0) - (s * x0).sum(axis=0))))
    scale = max(1.0, float(np.max(np.abs(x0).sum(axis=0))))
    if drift > CONSERVATION_TOL * scale:
        problems.append(f"gauge-signed sum drifted by {drift:.3g}")

    facts = {
        "steps": int(round(summary["T"] / summary["dt"])),
        "events": len(times),
        "fire_steps": len({t for t in times if float(t) > 0.0}),
        **{a: (run_dir / a).stat().st_size for a in ARTIFACTS},
    }
    return [f"{run_dir.name}: {p}" for p in problems], facts


def check_op(out: Path, exit_code: int, gauge,
             limits: dict) -> tuple[list[str], dict]:
    """Check the one run directory an operation wrote under ``out``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    runs = sorted(p for p in out.iterdir() if p.is_dir())
    if len(runs) != 1:
        return problems + [f"{len(runs)} run directories, expected 1"], {}
    found, facts = check_run(runs[0], gauge, limits)
    return problems + found, facts
