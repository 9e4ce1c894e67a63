"""Scenario document parsing, validation, and canonical round trips."""

import dataclasses
import json

import numpy as np
import pytest

from mwconsensus import scenario_io
from mwconsensus.builtin import leader_follower_scenario, leaderless_scenario
from mwconsensus.errors import GraphFormatError
from mwconsensus.scenario_io import dump_scenario, load_scenario_text, \
    parse_scenario, run_directory_name, scenario_hash, scenario_to_dict
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
        assert sc.params.agent(0).theta == 1.0
        assert sc.params.agent(1).theta == 3.0

    def test_per_agent_out_of_range(self):
        doc = minimal_doc()
        doc["params"]["per_agent"] = {"7": {"theta": 3.0}}
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_scenario(doc)

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
        sc, _ = parse_scenario(minimal_doc(baseline="static"))
        assert sc.baseline == "static"
        with pytest.raises(GraphFormatError, match="baseline"):
            parse_scenario(minimal_doc(baseline="off"))


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
        assert sc3.params.agent(2).theta == 0.75
        assert sc3.params.agent(0).theta == 0.5


class TestHashing:
    def test_seed_excluded_from_hash(self):
        a = leaderless_scenario(seed=0)
        b = leaderless_scenario(seed=99)
        assert scenario_hash(a) == scenario_hash(b)
        assert run_directory_name(a) != run_directory_name(b)

    def test_content_changes_hash(self):
        a = leaderless_scenario()
        b = leaderless_scenario(dt=2e-3)
        assert scenario_hash(a) != scenario_hash(b)
