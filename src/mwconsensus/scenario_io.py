"""Scenario documents: a JSON format covering graph, mode, trigger
parameters, integration settings, and output preferences.

The format is strict: unknown keys are rejected at every level so that a
typo cannot silently disable an override.  Dumping is canonical (sorted
keys, fixed indentation, shortest round-trip floats), which makes the
``--dump-config`` round trip and the on-disk artifacts byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from .errors import GraphFormatError
from .mwgraph import InputCoupling, _json_float, _json_floats, _json_value, \
    graph_from_dict, graph_to_dict
from .sim import BASELINE_DYNAMIC, BASELINE_STATIC, Scenario
from .trigger import LeaderFollower, Leaderless, TriggerParams

UNIFORM_X0 = "uniform[-1,1]"

PARAM_FIELDS = ("sigma", "theta", "beta", "delta", "chi0")

DEFAULT_OUTPUTS = {"directory": "runs", "formats": ["csv", "json"]}


def _require_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_params(doc: dict, n: int) -> TriggerParams:
    _require_keys(_json_value(doc, "object", "params"),
                  set(PARAM_FIELDS) | {"per_agent"}, "params")
    missing = [f for f in PARAM_FIELDS if f not in doc]
    if missing:
        raise GraphFormatError(f"params: missing defaults for {missing}")
    arrays = {f: np.full(n, _json_float(doc[f], f"params.{f}"))
              for f in PARAM_FIELDS}
    per_agent = _json_value(doc.get("per_agent", {}), "object", "params.per_agent")
    for key, overrides in per_agent.items():
        try:
            agent = int(key)
        except ValueError:
            raise GraphFormatError(f"params.per_agent: bad agent key {key!r}")
        if not 0 <= agent < n:
            raise GraphFormatError(f"params.per_agent: agent {agent} out of range")
        where = f"params.per_agent[{key}]"
        _require_keys(_json_value(overrides, "object", where),
                      set(PARAM_FIELDS), where)
        for f, v in overrides.items():
            arrays[f][agent] = _json_float(v, f"{where}.{f}")
    return TriggerParams(**arrays)


def _parse_mode(doc, coupling: InputCoupling, d: int):
    if isinstance(doc, str):
        doc = {"kind": doc}
    _require_keys(_json_value(doc, "object", "mode"), {"kind", "u0"}, "mode")
    kind = doc.get("kind")
    if kind == "leaderless":
        if "u0" in doc:
            raise GraphFormatError("mode: u0 is only valid for leader-follower")
        return Leaderless()
    if kind == "leader-follower":
        if "u0" not in doc:
            raise GraphFormatError("mode: leader-follower requires u0")
        u0 = _json_floats(doc["u0"], "mode.u0")
        if u0.shape != (d,):
            raise GraphFormatError(f"mode: u0 must have length d={d}")
        return LeaderFollower(u0=u0, coupling=coupling)
    raise GraphFormatError(
        f"mode: kind must be 'leaderless' or 'leader-follower', got {kind!r}")


def parse_scenario(doc: dict) -> tuple[Scenario, dict]:
    """Build a :class:`Scenario` plus the output preferences from a document."""
    _require_keys(doc, {"graph", "mode", "params", "sim", "outputs"}, "scenario")
    for section in ("graph", "mode", "params", "sim"):
        if section not in doc:
            raise GraphFormatError(f"scenario: missing section {section!r}")
    graph, coupling = graph_from_dict(doc["graph"])
    mode = _parse_mode(doc["mode"], coupling, graph.d)
    if isinstance(mode, Leaderless) and (coupling.m or coupling.entries):
        raise GraphFormatError(
            "graph declares input couplings but mode is leaderless")
    params = _parse_params(doc["params"], graph.n)

    sim_doc = _json_value(doc["sim"], "object", "sim")
    _require_keys(sim_doc, {"dt", "T", "seed", "x0", "baseline"}, "sim")
    for fieldname in ("dt", "T"):
        if fieldname not in sim_doc:
            raise GraphFormatError(f"sim: missing {fieldname!r}")
    x0_doc = sim_doc.get("x0", UNIFORM_X0)
    if isinstance(x0_doc, str):
        if x0_doc != UNIFORM_X0:
            raise GraphFormatError(
                f"sim.x0: string form must be {UNIFORM_X0!r}, got {x0_doc!r}")
        x0 = None
    else:
        x0 = _json_floats(x0_doc, "sim.x0")
        if x0.shape != (graph.n * graph.d,):
            raise GraphFormatError(
                f"sim.x0: expected {graph.n * graph.d} values, got {x0.shape}")
    seed = sim_doc.get("seed", 0)
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise GraphFormatError("sim.seed: must be an integer or null")
    baseline = sim_doc.get("baseline", BASELINE_DYNAMIC)
    if baseline not in (BASELINE_DYNAMIC, BASELINE_STATIC):
        raise GraphFormatError(f"sim.baseline: unknown value {baseline!r}")

    outputs = dict(DEFAULT_OUTPUTS)
    if "outputs" in doc:
        _require_keys(_json_value(doc["outputs"], "object", "outputs"),
                      {"directory", "formats"}, "outputs")
        outputs.update(doc["outputs"])
    _json_value(outputs["directory"], "string", "outputs.directory")
    for k, fmt in enumerate(_json_value(outputs["formats"], "array",
                                        "outputs.formats")):
        _json_value(fmt, "string", f"outputs.formats[{k}]")
    bad = set(outputs["formats"]) - {"csv", "json"}
    if bad:
        raise GraphFormatError(f"outputs.formats: unknown formats {sorted(bad)}")

    scenario = Scenario(graph=graph, mode=mode, params=params,
                        dt=_json_float(sim_doc["dt"], "sim.dt"),
                        horizon=_json_float(sim_doc["T"], "sim.T"),
                        x0=x0, seed=seed, baseline=baseline)
    return scenario, outputs


def _params_to_dict(params: TriggerParams) -> dict:
    doc = {}
    per_agent: dict[str, dict] = {}
    for f in PARAM_FIELDS:
        col = getattr(params, f)
        doc[f] = float(col[0])
        for i, v in enumerate(col):
            if v != col[0]:
                per_agent.setdefault(str(i), {})[f] = float(v)
    if per_agent:
        doc["per_agent"] = per_agent
    return doc


def scenario_to_dict(sc: Scenario, outputs: Optional[dict] = None) -> dict:
    lf = isinstance(sc.mode, LeaderFollower)
    coupling = sc.mode.coupling if lf else None
    doc = {
        "graph": graph_to_dict(sc.graph, coupling),
        "mode": ({"kind": "leader-follower",
                  "u0": [float(v) for v in sc.mode.u0]} if lf
                 else {"kind": "leaderless"}),
        "params": _params_to_dict(sc.params),
        "sim": {
            "dt": float(sc.dt),
            "T": float(sc.horizon),
            "seed": sc.seed,
            "x0": (UNIFORM_X0 if sc.x0 is None
                   else [float(v) for v in sc.x0]),
            "baseline": sc.baseline,
        },
        "outputs": dict(outputs) if outputs is not None else dict(DEFAULT_OUTPUTS),
    }
    return doc


def dump_scenario(sc: Scenario, outputs: Optional[dict] = None) -> str:
    """Canonical JSON text; reparsing yields an identical dump."""
    return json.dumps(scenario_to_dict(sc, outputs), sort_keys=True, indent=2) + "\n"


def load_scenario_text(text: str) -> tuple[Scenario, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"scenario document is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Integers past the digit limit, arrays nested past the stack.
        raise GraphFormatError(
            f"scenario document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("scenario document must be a JSON object")
    return parse_scenario(doc)


def load_scenario_file(path) -> tuple[Scenario, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"scenario document is not UTF-8: {exc}") from None
    return load_scenario_text(text)


def scenario_hash(sc: Scenario) -> str:
    """Hash of the canonical dump with the seed removed; combined with the
    seed it names a run directory."""
    doc = scenario_to_dict(sc)
    doc["sim"]["seed"] = None
    doc.pop("outputs", None)
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def run_directory_name(sc: Scenario) -> str:
    seed = "none" if sc.seed is None else str(sc.seed)
    return f"{scenario_hash(sc)}-seed{seed}"
