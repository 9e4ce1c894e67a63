"""The per-layer spans named in BENCHMARK.json exist in the package.

The benchmark reports ``<layer>.<path>.{calls,s,self_s}`` for traced
functions and methods; a refactor that renames or removes one of them fails
here rather than only in the benchmark's own smoke test.
"""

import importlib
import json
from functools import reduce
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
SPAN_FIELDS = ("calls", "s", "self_s")


def span_paths():
    """(layer, dotted path) of every per-layer span metric."""
    out = []
    for metric in SPEC["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        path, _, field = rest.rpartition(".")
        if path and field in SPAN_FIELDS:
            out.append((layer, path))
    return sorted(set(out))


def test_spans_found():
    assert ("sim", "CompiledScenario.control") in span_paths()


@pytest.mark.parametrize("layer,path", span_paths(),
                         ids=[f"{a}.{b}" for a, b in span_paths()])
def test_span_resolves_to_callable(layer, path):
    module = importlib.import_module(f"mwconsensus.{layer}")
    target = reduce(getattr, path.split("."), module)
    assert callable(target)
