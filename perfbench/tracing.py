"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` wraps every public function and every public method of
the layer modules, and rebinds each wrapper at every name the original is
reachable under (``from ... import`` copies included), so calls that go
through module globals are seen too.  Spans are held in memory; per-thread
stacks give each span its parent, so calls made on worker threads nest
correctly.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("scenario_io", "builtin", "linalg", "mwgraph", "trigger", "sim",
          "analysis", "cli")
PACKAGE = "mwconsensus"

_MARK = "_perfbench_span"


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _targets():
    """(span name, owner, attribute, function) for every public callable."""
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                yield f"{layer}.{attr}", module, attr, obj
            elif (isinstance(obj, type) and obj.__module__ == module.__name__
                  and not issubclass(obj, enum.Enum)):
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                        yield f"{layer}.{attr}.{meth}", obj, meth, fn


def installed_wrappers() -> list[str]:
    """Names in the package that are currently bound to a tracing wrapper."""
    found = []
    for module in _package_modules():
        for attr, obj in vars(module).items():
            if getattr(obj, _MARK, None):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(obj, type):
                found.extend(f"{module.__name__}.{attr}.{m}"
                             for m, fn in vars(obj).items() if getattr(fn, _MARK, None))
    return found


class Tracer:
    """Records (id, name, start, end, parent id, op id, thread) per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op,
                              threading.get_ident()))

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        wrappers = {}
        for name, owner, attr, fn in list(_targets()):
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # Rebind copies made by ``from module import name`` elsewhere.
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def per_op(self) -> dict[int, dict[str, list]]:
        """op id -> span name -> [calls, inclusive s, self s].

        Each layer name also gets the calls and self seconds of all its
        spans; its inclusive figure stays 0, as nested calls within a layer
        would count twice.
        """
        covered = defaultdict(float)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for sid, name, start, end, _, op, _ in self.spans:
            own = end - start - covered[sid]
            agg = out[op][name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += own
            layer = out[op][name.split(".", 1)[0]]
            layer[0] += 1
            layer[2] += own
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "thread", "span", "parent", "name", "start_s",
                          "end_s"])
            for sid, name, start, end, parent, op, thread in self.spans:
                out.writerow([op, thread, sid, "" if parent is None else parent,
                              name, repr(start), repr(end)])
