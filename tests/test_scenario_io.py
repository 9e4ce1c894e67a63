"""Scenario document parsing, validation, and canonical round trips."""

import copy
import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest

import oracles
from conftest import perfbench_workloads
from mwconsensus import mwgraph, scenario_io
from mwconsensus.builtin import leader_follower_scenario, leaderless_scenario
from mwconsensus.errors import GraphFormatError
from mwconsensus.mwgraph import verify_assumption1
from mwconsensus.scenario_io import dump_scenario, graph_from_dict, \
    graph_to_dict, load_scenario_text, parse_scenario, run_directory_name, \
    scenario_hash, scenario_to_dict
from mwconsensus.trigger import LeaderFollower


def minimal_doc(**sim_over):
    simsec = {"dt": 0.01, "T": 1.0, "seed": 4}
    simsec.update(sim_over)
    return {
        "graph": {
            "n": 2, "d": 1,
            "edges": [{"i": 0, "j": 1, "weight": [1.5]}],
        },
        "mode": "leaderless",
        "params": {"sigma": 0.5, "theta": 1.0, "beta": 1.0, "delta": 1.0,
                   "chi0": 0.3},
        "sim": simsec,
    }


class TestParsing:
    def test_minimal(self):
        sc, outputs = parse_scenario(minimal_doc())
        assert sc.graph.n == 2 and sc.dt == 0.01 and sc.seed == 4
        assert sc.x0 is None
        assert outputs == scenario_io.DEFAULT_OUTPUTS

    def test_explicit_x0(self):
        sc, _ = parse_scenario(minimal_doc(x0=[0.1, -0.2]))
        np.testing.assert_array_equal(sc.x0, [0.1, -0.2])

    def test_uniform_token(self):
        sc, _ = parse_scenario(minimal_doc(x0="uniform[-1,1]"))
        assert sc.x0 is None

    def test_bad_x0_token(self):
        with pytest.raises(GraphFormatError, match="x0"):
            parse_scenario(minimal_doc(x0="gaussian"))

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(GraphFormatError, match="unknown"):
            parse_scenario(doc)

    def test_unknown_sim_key(self):
        with pytest.raises(GraphFormatError, match="unknown"):
            parse_scenario(minimal_doc(stepsize=0.1))

    def test_per_agent_override(self):
        doc = minimal_doc()
        doc["params"]["per_agent"] = {"1": {"theta": 3.0}}
        sc, _ = parse_scenario(doc)
        assert oracles.agent_params(sc.params, 0).theta == 1.0
        assert oracles.agent_params(sc.params, 1).theta == 3.0

    def test_per_agent_out_of_range(self):
        doc = minimal_doc()
        doc["params"]["per_agent"] = {"7": {"theta": 3.0}}
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_scenario(doc)

    @pytest.mark.parametrize("alias", ["01", " 1", "1 ", "1_0", "+1", "-0",
                                       "١", "1.0"])
    def test_per_agent_alias_key_refused(self, alias):
        """Only str(i) names agent i: int() would also accept each of these
        spellings, and the later of two aliasing keys would silently win."""
        doc = minimal_doc()
        doc["params"]["per_agent"] = {"1": {"theta": 0.7},
                                      alias: {"theta": 0.9}}
        with pytest.raises(GraphFormatError) as info:
            parse_scenario(doc)
        message = str(info.value)
        assert "\n" not in message
        assert f"bad agent key {alias!r}" in message

    def test_lf_mode_requires_u0(self):
        doc = minimal_doc()
        doc["mode"] = {"kind": "leader-follower"}
        with pytest.raises(GraphFormatError, match="u0"):
            parse_scenario(doc)

    def test_leaderless_with_couplings_rejected(self):
        doc = minimal_doc()
        doc["graph"]["inputs"] = [
            {"agent": 0, "input": 0, "weight": [1.0]}]
        with pytest.raises(GraphFormatError, match="leaderless"):
            parse_scenario(doc)

    def test_lf_round_trip_through_documents(self):
        sc = leader_follower_scenario(seed=2)
        doc = scenario_to_dict(sc)
        sc2, _ = parse_scenario(doc)
        assert isinstance(sc2.mode, LeaderFollower)
        np.testing.assert_array_equal(sc2.mode.u0, sc.mode.u0)
        assert sc2.mode.coupling.m == 2
        assert dump_scenario(sc2) == dump_scenario(sc)

    def test_invalid_json_reported_with_position(self):
        with pytest.raises(GraphFormatError, match="line"):
            load_scenario_text("{not json}")

    def test_seed_must_be_integer_or_null(self):
        assert parse_scenario(minimal_doc(seed=None))[0].seed is None
        for bad in (True, 1.0, "4"):
            with pytest.raises(GraphFormatError, match="seed"):
                parse_scenario(minimal_doc(seed=bad))

    def test_baseline_field(self):
        """The reader checks the baseline's type; its value is refused once,
        by validation (``RUN_REFUSES`` in the CLI tests)."""
        sc, _ = parse_scenario(minimal_doc(baseline="static"))
        assert sc.baseline == "static"
        assert parse_scenario(minimal_doc(baseline="off"))[0].baseline == "off"
        with pytest.raises(GraphFormatError, match="sim.baseline: expected "
                                                   "string, got integer"):
            parse_scenario(minimal_doc(baseline=1))

    @pytest.mark.parametrize("x0", [[[0.1], [-0.2]], [[]], [[0.1, -0.2]]])
    def test_x0_must_be_flat(self, x0):
        with pytest.raises(GraphFormatError, match="sim.x0: expected a flat "
                                                   "array of numbers"):
            parse_scenario(minimal_doc(x0=x0))

    def test_document_must_be_object(self):
        with pytest.raises(GraphFormatError,
                           match="scenario: expected object, got array"):
            load_scenario_text("[]")


def _lf_doc():
    return scenario_to_dict(leader_follower_scenario())


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _per_agent_doc():
    doc = minimal_doc()
    doc["params"]["per_agent"] = {"1": {"theta": 3.0}}
    return doc


#: Every object section of a document: (document, path to the section, the
#: name its errors carry, a required key or None).
SECTIONS = {
    "scenario": (minimal_doc, (), "scenario", "sim"),
    "graph": (minimal_doc, ("graph",), "graph", "d"),
    "edges[0]": (minimal_doc, ("graph", "edges", 0), "edges[0]", "j"),
    "inputs[0]": (_lf_doc, ("graph", "inputs", 0), "inputs[0]", "agent"),
    "mode": (_lf_doc, ("mode",), "mode", "kind"),
    "params": (minimal_doc, ("params",), "params", "chi0"),
    "per_agent[k]": (_per_agent_doc, ("params", "per_agent", "1"),
                     "params.per_agent[1]", None),
    "sim": (minimal_doc, ("sim",), "sim", "dt"),
    "outputs": (lambda: {**minimal_doc(), "outputs": {"directory": "runs"}},
                ("outputs",), "outputs", None),
}


class TestSectionKeys:
    """One key check serves every section, and its one line names it."""

    @pytest.mark.parametrize("make,path,where,_", SECTIONS.values(),
                             ids=SECTIONS.keys())
    def test_unknown_key(self, make, path, where, _):
        doc = make()
        _at(doc, path)["oops"] = 1
        with pytest.raises(GraphFormatError) as err:
            parse_scenario(doc)
        assert str(err.value) == f"{where}: unknown keys ['oops']"

    @pytest.mark.parametrize(
        "make,path,where,key",
        [v for v in SECTIONS.values() if v[3] is not None],
        ids=[k for k, v in SECTIONS.items() if v[3] is not None])
    def test_missing_required_key(self, make, path, where, key):
        doc = make()
        del _at(doc, path)[key]
        with pytest.raises(GraphFormatError) as err:
            parse_scenario(doc)
        assert str(err.value) == f"{where}: missing keys [{key!r}]"


class TestCanonicalDump:
    def test_round_trip_bytes_stable(self):
        for sc in (leaderless_scenario(seed=3), leader_follower_scenario(seed=3)):
            text = dump_scenario(sc)
            sc2, outputs = load_scenario_text(text)
            assert dump_scenario(sc2, outputs) == text

    def test_dump_parses_as_json(self):
        doc = json.loads(dump_scenario(leaderless_scenario()))
        assert set(doc) == {"graph", "mode", "params", "sim", "outputs"}

    def test_per_agent_params_survive(self):
        sc = leaderless_scenario()
        theta = np.array(sc.params.theta)
        theta[2] = 0.75
        bumped = dataclasses.replace(sc.params, theta=theta)
        sc2 = type(sc)(graph=sc.graph, mode=sc.mode, params=bumped,
                       dt=sc.dt, horizon=sc.horizon, seed=sc.seed)
        sc3, _ = load_scenario_text(dump_scenario(sc2))
        assert oracles.agent_params(sc3.params, 2).theta == 0.75
        assert oracles.agent_params(sc3.params, 0).theta == 0.5


class TestHashing:
    def test_seed_excluded_from_hash(self):
        a = leaderless_scenario(seed=0)
        b = leaderless_scenario(seed=99)
        assert scenario_hash(a) == scenario_hash(b)
        assert run_directory_name(a) != run_directory_name(b)

    def test_content_changes_hash(self):
        a = leaderless_scenario()
        b = dataclasses.replace(leaderless_scenario(), dt=2e-3)
        assert scenario_hash(a) != scenario_hash(b)


class TestInterchange:
    """The graph section."""

    def test_round_trip(self, ref_graph, ref_coupling):
        doc = graph_to_dict(ref_graph, ref_coupling)
        g2, c2 = graph_from_dict(doc)
        assert g2.n == ref_graph.n and g2.d == ref_graph.d
        a, b = ref_graph.table, g2.table
        assert len(b) == len(a)
        for f in ("ends", "cls", "weight"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        assert c2.m == ref_coupling.m
        doc2 = graph_to_dict(g2, c2)
        assert doc == doc2

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown"):
            graph_from_dict({"n": 2, "d": 1, "edges": [], "extra": 1})
        with pytest.raises(GraphFormatError, match="unknown"):
            graph_from_dict({"n": 2, "d": 1,
                             "edges": [{"i": 0, "j": 1, "weight": [1.0],
                                        "oops": 2}]})

    def test_class_override_validated(self):
        doc = {"n": 2, "d": 2,
               "edges": [{"i": 0, "j": 1, "weight": [1.0, 0, 0, -1.0],
                          "class": "pd"}]}
        with pytest.raises(GraphFormatError):
            graph_from_dict(doc)


class TestWeightReader:
    """Weights are type-checked a list level at a time; a refusal names
    what the item-by-item walk named, and waits for lower entries' checks."""

    def test_refusal_matches_item_walk(self):
        rng = np.random.default_rng(5)
        scalars = [1, 2.5, -0.0, "x", True, None, {}]

        def value(depth):
            if depth < 3 and rng.uniform() < 0.35:
                return [value(depth + 1) for _ in range(int(rng.integers(0, 4)))]
            # Mostly numbers, so that many levels pass whole.
            return scalars[int(rng.integers(0, 3 if rng.uniform() < 0.8 else 7))]

        refused = 0
        for _ in range(2000):
            doc = [value(1) for _ in range(int(rng.integers(0, 5)))]
            try:
                oracles.json_floats_walk(doc, "w")
            except GraphFormatError as exc:
                refused += 1
                with pytest.raises(GraphFormatError) as got:
                    scenario_io._json_floats(doc, "w")
                assert str(got.value) == str(exc)
                continue
            try:
                scenario_io._json_floats(doc, "w")
            except GraphFormatError as exc:  # ragged: numpy's refusal
                assert "ragged" in str(exc)
        assert refused > 300

    def test_type_refusal_waits_for_lower_entries(self):
        """Entry 0's contradiction of its declared class is refused before
        entry 1's string, as when each entry loaded in turn."""
        doc = {"n": 3, "d": 1,
               "edges": [{"i": 0, "j": 1, "weight": [-1.0], "class": "pd"},
                         {"i": 1, "j": 2, "weight": ["x"]}]}
        with pytest.raises(GraphFormatError,
                           match=r"^edge \(0,1\): eigenvalue -1 contradicts"):
            graph_from_dict(doc)
        doc["edges"][0]["class"] = "nd"
        with pytest.raises(GraphFormatError,
                           match=r"^edges\[1\].weight entries: expected number"):
            graph_from_dict(doc)


@pytest.mark.parametrize("top", [3, 10**6, 10**18])
def test_declared_inputs_beyond_entries_rejected(top):
    """An input index far past the others implies an input count that no
    entries back; it is refused before anything is sized by it."""
    doc = {"n": 2, "d": 1,
           "edges": [{"i": 0, "j": 1, "weight": [1.0]}],
           "inputs": [{"agent": 0, "input": 0, "weight": [1.0]},
                      {"agent": 1, "input": 1, "weight": [1.0]},
                      {"agent": 1, "input": top, "weight": [1.0]}]}
    with pytest.raises(GraphFormatError,
                       match=f"input 2 of m={top + 1} has no"):
        graph_from_dict(doc)


def _outcome(f, *args):
    """``f(*args)``, or the line of the format error it raises."""
    try:
        return f(*args)
    except GraphFormatError as exc:
        return str(exc)


def _assert_same_table(got, want):
    assert got.ends.dtype == want.ends.dtype
    for f in ("ends", "weight", "vals", "vecs"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f
    assert list(got.cls) == list(want.cls)


def _nullity(g):
    return verify_assumption1(g).nullity


def assert_reads_as_reference(doc) -> None:
    """``doc`` parses as it does with the per-entry reader and per-edge
    loader of ``oracles.read_graph``: to the same first refusal line, or to
    bitwise equal edge and coupling tables, definite quotients (the
    union-find's on the reference graph) and Assumption-1 nullity (decided
    on the union-find's quotient), or the same refusal of each."""
    doc = copy.deepcopy(doc)
    with mock.patch.object(scenario_io, "graph_from_dict", oracles.read_graph), \
            mock.patch.object(mwgraph, "definite_quotient",
                              oracles.definite_quotient):
        want = _outcome(lambda: parse_scenario(doc)[0])
        if not isinstance(want, str):
            want_nullity = _outcome(_nullity, want.graph)
    got = _outcome(lambda: parse_scenario(doc)[0])
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    g, ref = got.graph, want.graph
    assert (g.n, g.d) == (ref.n, ref.d)
    _assert_same_table(g.table, ref.table)
    if isinstance(want.mode, LeaderFollower):
        _assert_same_table(got.mode.coupling.table, want.mode.coupling.table)
    quotient = _outcome(mwgraph.definite_quotient, g)
    ref_quotient = _outcome(oracles.definite_quotient, ref)
    if isinstance(quotient, str) or isinstance(ref_quotient, str):
        assert quotient == ref_quotient
    else:
        assert quotient.n == ref_quotient.n
        _assert_same_table(quotient.table, ref_quotient.table)
    assert _outcome(_nullity, g) == want_nullity


def _random_doc(seed):
    sc, _ = perfbench_workloads().random_balanced_scenario(seed, 500)
    return json.loads(scenario_io.dump_scenario(sc))


def _edges(doc):
    return doc["graph"]["edges"]


def _nested(entry, d=4):
    entry["weight"] = [entry["weight"][r * d:(r + 1) * d] for r in range(d)]


def _end(entry, k):
    """The name of an entry's ``k``-th end."""
    return ("i", "j")[k] if "i" in entry else ("agent", "input")[k]


def _with(weight, k, value):
    return [value if m == k else v for m, v in enumerate(weight)]


OPPOSITE = {"pd": "nd", "nd": "pd", "psd": "nsd", "nsd": "psd"}

#: One fault of an edge or input entry: the faulty entry made from it.
ENTRY_FAULTS = {
    "end-boolean": lambda e: {**e, _end(e, 0): True},
    "end-float": lambda e: {**e, _end(e, 1): 1.5},
    "class-null": lambda e: {**e, "class": None},
    "class-number": lambda e: {**e, "class": 3},
    "class-unknown": lambda e: {**e, "class": "spd"},
    "class-contradicted": lambda e: {**e, "class": OPPOSITE[e["class"]]},
    "unknown-key": lambda e: {**e, "oops": 1},
    "no-weight": lambda e: {k: v for k, v in e.items() if k != "weight"},
    "weight-string": lambda e: {**e, "weight": _with(e["weight"], 5, "x")},
    "weight-null": lambda e: {**e, "weight": _with(e["weight"], 0, None)},
    "weight-short": lambda e: {**e, "weight": e["weight"][:-1]},
    "weight-asymmetric": lambda e: {
        **e, "weight": _with(e["weight"], 1, e["weight"][1] + 1e-3)},
    "weight-ragged": lambda e: {**e, "weight": [[1.0], [2.0, 3.0]]},
    "not-object": lambda e: [1],
}


class TestColumnReader:
    """The reader checks an edge array a column at a time, and reads every
    document as the per-entry reader does: the same first refusal, or the
    same tables, quotient and nullity."""

    @pytest.mark.parametrize("make", [
        lambda: json.loads(dump_scenario(leaderless_scenario())),
        lambda: json.loads(dump_scenario(leader_follower_scenario())),
        lambda: _random_doc(0), lambda: _random_doc(1)],
        ids=["leaderless", "leader-follower", "random-n500-s0",
             "random-n500-s1"])
    def test_dumps(self, make):
        assert_reads_as_reference(make())

    @pytest.mark.parametrize("make", [
        lambda: json.loads(dump_scenario(leader_follower_scenario())),
        lambda: _random_doc(0)], ids=["leader-follower", "random-n500-s0"])
    def test_dumps_read_as_columns(self, make):
        """A dump's arrays pass the column test: no entry is checked on its
        own."""
        doc = make()
        with mock.patch.object(scenario_io, "_json_entry",
                               wraps=scenario_io._json_entry) as entry:
            parse_scenario(doc)
        assert entry.call_count == 0

    @pytest.mark.parametrize("fault", ["end-boolean", "weight-string",
                                       "weight-asymmetric"])
    def test_integer_weight_below_a_refusal(self, fault):
        """An array that fails the column test is read entry by entry: an
        integer weight, valid, below a refused entry."""
        doc = _random_doc(0)
        e = _edges(doc)[2]
        two = 2 if e.pop("class") in ("pd", "psd") else -2
        e["weight"] = [two if m % 5 == 0 else 0 for m in range(16)]
        _edges(doc)[5] = ENTRY_FAULTS[fault](_edges(doc)[5])
        assert_reads_as_reference(doc)

    @pytest.mark.parametrize("nested,boolean", [(0, 1), (1, 0)])
    def test_inputs_nested_weight_and_boolean_end(self, nested, boolean):
        doc = _lf_doc()
        inputs = doc["graph"]["inputs"]
        _nested(inputs[nested])
        inputs[boolean] = ENTRY_FAULTS["end-boolean"](inputs[boolean])
        assert_reads_as_reference(doc)
        with pytest.raises(GraphFormatError,
                           match=re.escape(f"inputs[{boolean}].agent")):
            parse_scenario(doc)

    @pytest.mark.parametrize("fault", ENTRY_FAULTS.values(),
                             ids=ENTRY_FAULTS.keys())
    def test_one_fault_among_1000(self, fault):
        """A fault at the first, a middle and the last of 1000 entries."""
        base = _random_doc(0)
        assert len(_edges(base)) == 1000
        for k in (0, 500, 999):
            doc = copy.deepcopy(base)
            _edges(doc)[k] = fault(_edges(doc)[k])
            assert_reads_as_reference(doc)

    @pytest.mark.parametrize("low,high", [("weight-asymmetric", "end-float"),
                                          ("end-float", "weight-asymmetric"),
                                          ("class-null", "weight-string"),
                                          ("weight-string", "class-null")])
    def test_lowest_of_two_faults(self, low, high):
        """A value fault and a type fault: the lower entry's is refused,
        whichever check finds it."""
        doc = _random_doc(0)
        for k, fault in ((3, low), (7, high)):
            _edges(doc)[k] = ENTRY_FAULTS[fault](_edges(doc)[k])
        assert_reads_as_reference(doc)
        want = {"weight-asymmetric": "edge (", "end-float": "edges[3].j",
                "class-null": "edges[3].class", "weight-string": "edges[3]"}
        with pytest.raises(GraphFormatError, match=re.escape(want[low])):
            parse_scenario(doc)

    def test_other_weight_forms(self):
        """Nested lists and integers are valid weights, each checked on its
        own, among flat float ones and with faults after them."""
        doc = _random_doc(1)
        for e in _edges(doc)[::3]:
            _nested(e)
        for k, e in enumerate(_edges(doc)[1::3]):
            # 2 I or -2 I, with a float zero in every other one.
            two = 2 if e.pop("class") == "pd" else -2
            e["weight"] = [two if m % 5 == 0 else 0 for m in range(16)]
            e["weight"][1] = 0.0 if k % 2 else 0
        assert_reads_as_reference(doc)
        _edges(doc)[400] = ENTRY_FAULTS["weight-string"](_edges(doc)[400])
        _nested(_edges(doc)[399])
        _edges(doc)[399]["weight"][0][0] = True
        assert_reads_as_reference(doc)

    def test_omitted_class_and_reordered_keys(self):
        doc = _random_doc(0)
        for k, e in enumerate(_edges(doc)):
            if k % 2:
                e.pop("class")
            _edges(doc)[k] = dict(reversed(e.items()))
        assert_reads_as_reference(doc)
        _edges(doc)[601]["class"] = None
        assert_reads_as_reference(doc)

    @pytest.mark.parametrize("fault", ENTRY_FAULTS.values(),
                             ids=ENTRY_FAULTS.keys())
    def test_inputs(self, fault):
        """Input couplings are read by the same column checks, whatever
        the order of their keys and the form of their weights."""
        doc = _lf_doc()
        inputs = doc["graph"]["inputs"]
        inputs[:] = [dict(reversed(e.items())) for e in inputs]
        _nested(inputs[0])
        assert_reads_as_reference(doc)
        inputs[1] = fault(inputs[1])
        assert_reads_as_reference(doc)

    @pytest.mark.parametrize("key", ["edges", "inputs"])
    def test_null_class_refused(self, key):
        """A class of null is a type fault, not an absent declaration."""
        doc = _lf_doc()
        doc["graph"][key][1]["class"] = None
        with pytest.raises(GraphFormatError) as err:
            parse_scenario(doc)
        assert str(err.value) == f"{key}[1].class: expected string, got null"
