"""Scenario documents: the one reader and writer of the JSON format, which
covers the graph (edges and input couplings), the mode, the trigger
parameters, the integration settings, and the output preferences.

The format is strict: unknown keys are rejected at every level, and so is a
key repeated within one object, so that a typo cannot silently disable an
override.  The reader checks types: every field has its JSON kind, ``x0``
and ``u0`` are flat arrays of numbers, and each weight loads through the
graph's loader.  Values and lengths (parameter ranges, the baseline name,
the lengths of ``x0`` and ``u0``) are checked once, by
:func:`mwconsensus.sim.validate_scenario`, whose lines ``check`` and ``run``
print alike.  Dumping is canonical (sorted keys, fixed indentation, shortest
round-trip floats), which makes the ``--dump-config`` round trip and the
on-disk artifacts byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import GraphFormatError
from .mwgraph import EdgeTable, InputCoupling, MatrixWeightedGraph, \
    load_edges
from .sim import BASELINE_DYNAMIC, Scenario
from .trigger import LeaderFollower, Leaderless, TriggerParams

UNIFORM_X0 = "uniform[-1,1]"

PARAM_FIELDS = ("sigma", "theta", "beta", "delta", "chi0")

DEFAULT_OUTPUTS = {"directory": "runs", "formats": ["csv", "json"]}

_JSON_KINDS = {"integer": int, "number": (int, float), "string": str,
               "array": list, "object": dict}


def _json_kind(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "boolean"
    return next(k for k, t in _JSON_KINDS.items() if isinstance(value, t))


def _json_value(value, kind: str, where: str):
    """``value`` if its JSON type is ``kind``; booleans are never integers or
    numbers.  Anything else is a one-line :class:`GraphFormatError`."""
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise GraphFormatError(f"{where}: expected {kind}, got {_json_kind(value)}")
    return value


def _json_float(value, where: str) -> float:
    try:
        return float(_json_value(value, "number", where))
    except OverflowError:
        raise GraphFormatError(f"{where}: number out of range") from None


#: The types of a JSON number; a list level of these alone needs no
#: further check.
_NUMBER_TYPES = {int, float}

#: The type of a JSON number with a fraction or exponent: a list of these
#: alone converts to floats, neither ragged nor out of range.
_FLOAT_TYPES = {float}


def _json_floats(value, where: str) -> np.ndarray:
    """A (possibly nested) array of numbers as a float array.  A list level
    is type-checked at once; only a level holding something else is walked
    item by item, last to first."""
    pending = [_json_value(value, "array", where)]
    while pending:
        item = pending.pop()
        if not isinstance(item, list):
            _json_value(item, "number", f"{where} entries")
        elif not set(map(type, item)) <= _NUMBER_TYPES:
            pending.extend(item)
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):
        raise GraphFormatError(
            f"{where}: ragged array or number out of range") from None


def _json_weight(value, where: str):
    """A weight as the graph's loader takes it: a flat list of floats, the
    form dumps write, as it is, for the loader to convert with every other
    weight in one call; any other value as :func:`_json_floats` reads it."""
    if type(value) is list and set(map(type, value)) <= _FLOAT_TYPES:
        return value
    return _json_floats(value, where)


def _json_vector(value, where: str) -> np.ndarray:
    """A flat array of numbers, the form of a state (``x0``, ``u0``)."""
    arr = _json_floats(value, where)
    if arr.ndim != 1:
        raise GraphFormatError(f"{where}: expected a flat array of numbers, "
                               "got a nested array")
    return arr


def _section(doc, where: str, allowed, required=()) -> dict:
    """``doc`` if it is an object whose keys are all ``allowed`` and include
    every ``required`` one; anything else is a one-line
    :class:`GraphFormatError` that names the section."""
    unknown = _json_value(doc, "object", where).keys() - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise GraphFormatError(f"{where}: missing keys {missing}")
    return doc


def _unique_keys(pairs: list) -> dict:
    """``json`` object hook that refuses a key repeated within one object,
    which would otherwise silently keep the last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        raise GraphFormatError(
            f"scenario document repeats the key {key!r} within one object")
    return doc


def _table_entries(t: EdgeTable, fields: tuple[str, str]) -> list[dict]:
    """One entry per row of an edge table: its ends under ``fields``, its
    row-major weight and its class."""
    a, b = fields
    d = t.weight.shape[-1]
    return [{a: i, b: j, "weight": w, "class": c.value}
            for (i, j), w, c in zip(t.ends.tolist(),
                                    t.weight.reshape(-1, d * d).tolist(), t.cls)]


def graph_to_dict(g: MatrixWeightedGraph,
                  coupling: Optional[InputCoupling] = None) -> dict:
    """The graph section: plain lists, row-major weights, class recorded."""
    doc = {"n": g.n, "d": g.d, "edges": _table_entries(g.table, ("i", "j"))}
    if coupling is not None and len(coupling.table):
        doc["inputs"] = _table_entries(coupling.table, ("agent", "input"))
    return doc


def _json_entry(entry, where: str, fields: tuple[str, ...]):
    """The weight of one entry of an edge array as the loader takes it (see
    :func:`_json_weight`), once the entry is type-checked: the ``fields``
    are integers and required with the weight, and a class, when present,
    is a string."""
    _section(entry, where, {*fields, "weight", "class"}, (*fields, "weight"))
    if "class" in entry:
        _json_value(entry["class"], "string", f"{where}.class")
    for f in fields:
        _json_value(entry[f], "integer", f"{where}.{f}")
    return _json_weight(entry["weight"], f"{where}.weight")


def _json_columns(doc: dict, key: str, fields: tuple[str, ...]) -> tuple:
    """The array ``doc[key]`` as the graph loader's columns: one per field,
    the weights (see :func:`_json_weight`), the declared classes (``None``
    where absent) and the pending refusal, ``None`` or that of the lowest
    entry that :func:`_json_entry` refuses, which the columns stop before.

    An array of objects whose key sets are allowed, whose fields are
    integers, whose classes are strings and whose weights are flat lists of
    floats, the form dumps write, is type-checked a column at a time; any
    other array is checked by :func:`_json_entry` entry by entry."""
    entries = _json_value(doc.get(key, []), "array", key)
    allowed, required = {*fields, "weight", "class"}, {*fields, "weight"}
    weights, refusal = [], None
    if (set(map(type, entries)) <= {dict}
            and all(required <= keys <= allowed
                    for keys in set(map(frozenset, entries)))
            and all(set(map(type, map(itemgetter(f), entries))) <= {int}
                    for f in fields)
            and set(map(type, map(dict.get, entries, repeat("class")))) <= {str}
            and set(map(type, map(itemgetter("weight"), entries))) <= {list}
            and set(map(type, chain.from_iterable(
                map(itemgetter("weight"), entries)))) <= _FLOAT_TYPES):
        weights = list(map(itemgetter("weight"), entries))
    else:
        for k, entry in enumerate(entries):
            try:
                weights.append(_json_entry(entry, f"{key}[{k}]", fields))
            except GraphFormatError as exc:
                entries, refusal = entries[:k], exc
                break
    return (*(list(map(itemgetter(f), entries)) for f in fields), weights,
            [e.get("class") for e in entries], refusal)


def graph_from_dict(doc: dict) -> tuple[MatrixWeightedGraph, InputCoupling]:
    """The graph and its input coupling from the graph section."""
    _section(doc, "graph", {"n", "d", "edges", "inputs"}, ("n", "d"))
    for key in ("n", "d"):
        if _json_value(doc[key], "integer", f"graph.{key}") < 1:
            raise GraphFormatError(f"graph.{key}: must be a positive integer")
    n, d = doc["n"], doc["d"]
    g = MatrixWeightedGraph(n, d, load_edges(
        d, "edge", *_json_columns(doc, "edges", ("i", "j"))))
    inputs = _json_columns(doc, "inputs", ("agent", "input"))
    return g, InputCoupling(load_edges(d, "input coupling", *inputs))


def _parse_params(doc: dict, n: int) -> TriggerParams:
    _section(doc, "params", (*PARAM_FIELDS, "per_agent"), PARAM_FIELDS)
    arrays = {f: np.full(n, _json_float(doc[f], f"params.{f}"))
              for f in PARAM_FIELDS}
    per_agent = _json_value(doc.get("per_agent", {}), "object", "params.per_agent")
    for key, overrides in per_agent.items():
        # Only the canonical spelling str(i) names agent i, so that no two
        # keys (such as "1" and "01") can address the same agent.
        if not (key.isascii() and key.isdigit() and key == str(int(key))):
            raise GraphFormatError(
                f"params.per_agent: bad agent key {key!r}; agent keys are "
                "decimal integers without sign, spaces or leading zeros")
        agent = int(key)
        if not 0 <= agent < n:
            raise GraphFormatError(f"params.per_agent: agent {agent} out of range")
        where = f"params.per_agent[{key}]"
        for f, v in _section(overrides, where, PARAM_FIELDS).items():
            arrays[f][agent] = _json_float(v, f"{where}.{f}")
    return TriggerParams(**arrays)


def _parse_mode(doc, coupling: InputCoupling):
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = _section(doc, "mode", ("kind", "u0"), ("kind",))["kind"]
    if kind == "leaderless":
        if "u0" in doc:
            raise GraphFormatError("mode: u0 is only valid for leader-follower")
        return Leaderless()
    if kind == "leader-follower":
        if "u0" not in doc:
            raise GraphFormatError("mode: leader-follower requires u0")
        return LeaderFollower(u0=_json_vector(doc["u0"], "mode.u0"),
                              coupling=coupling)
    raise GraphFormatError(
        f"mode: kind must be 'leaderless' or 'leader-follower', got {kind!r}")


def parse_scenario(doc: dict) -> tuple[Scenario, dict]:
    """Build a :class:`Scenario` plus the output preferences from a document."""
    _section(doc, "scenario", ("graph", "mode", "params", "sim", "outputs"),
             ("graph", "mode", "params", "sim"))
    graph, coupling = graph_from_dict(doc["graph"])
    mode = _parse_mode(doc["mode"], coupling)
    if isinstance(mode, Leaderless) and len(coupling.table):
        raise GraphFormatError(
            "graph declares input couplings but mode is leaderless")
    params = _parse_params(doc["params"], graph.n)

    sim_doc = _section(doc["sim"], "sim", ("dt", "T", "seed", "x0", "baseline"),
                       ("dt", "T"))
    x0_doc = sim_doc.get("x0", UNIFORM_X0)
    if isinstance(x0_doc, str):
        if x0_doc != UNIFORM_X0:
            raise GraphFormatError(
                f"sim.x0: string form must be {UNIFORM_X0!r}, got {x0_doc!r}")
        x0 = None
    else:
        x0 = _json_vector(x0_doc, "sim.x0")
    seed = sim_doc.get("seed", 0)
    if seed is not None:
        _json_value(seed, "integer", "sim.seed")
    baseline = _json_value(sim_doc.get("baseline", BASELINE_DYNAMIC), "string",
                           "sim.baseline")

    outputs = dict(DEFAULT_OUTPUTS)
    if "outputs" in doc:
        outputs.update(_section(doc["outputs"], "outputs",
                                ("directory", "formats")))
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
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"scenario document is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Integers past the digit limit, arrays nested past the stack.
        raise GraphFormatError(
            f"scenario document is not valid JSON: {exc}") from None
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
