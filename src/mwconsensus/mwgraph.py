"""Matrix-weighted graph model.

Nodes are ``0..n-1``; every undirected edge carries a symmetric d x d weight
whose definiteness class must be one of PD / PSD / ND / NSD (indefinite and
zero weights are rejected: an indefinite block has no well-defined sign, and
a zero block is simply a non-edge).  On top of the graph itself this module
derives the block Laplacian, the grounded (input-extended) Laplacian,
structural balance and the gauge transformation, and the two structural
assumptions that the consensus protocols require.

A graph is immutable, so it computes each structural fact once and keeps it:
its adjacency index on construction, its Laplacian and its Assumption-1
report on first use.  ``build_laplacian`` and ``verify_assumption1`` read
those cached facts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

from . import linalg
from .errors import AssumptionViolated, GraphFormatError, NotPSD
from .linalg import DefinitenessClass, SymMatrix

#: Tolerance band (relative) used when an input document *declares* the class
#: of a weight: eigenvalues contradicting the declaration inside this band are
#: treated as precision noise and clamped to exactly zero.
CLASS_DECLARATION_TOL = 1e-4

#: File-boundary symmetry requirement; asymmetric weights are rejected, not
#: silently symmetrized, so transcription errors surface immediately.
SYMMETRY_REJECT_TOL = 1e-12

_CLASS_NAMES = {c.value: c for c in DefinitenessClass}


class _SignDefiniteWeight:
    """Sign, absolute value and largest absolute eigenvalue of the
    sign-definite ``weight`` of class ``cls`` that an edge or a coupling
    carries."""

    @property
    def sign(self) -> int:
        return linalg.matrix_sgn(self.cls)

    def abs_weight(self) -> SymMatrix:
        return self._abs_weight

    @cached_property
    def _abs_weight(self) -> SymMatrix:
        """|weight|, built and validated once per weight."""
        return linalg.matrix_abs(self.weight, self.cls)

    @cached_property
    def abs_lambda_max(self) -> float:
        """lambda_max(|weight|), decomposed once; ``mu_bar`` and ``gamma``
        read it."""
        return float(linalg.sym_eigen(self.abs_weight()).lambda_max)


@dataclass(frozen=True, eq=False)
class Edge(_SignDefiniteWeight):
    i: int
    j: int
    weight: SymMatrix
    cls: DefinitenessClass


@dataclass(frozen=True, eq=False)
class CouplingEntry(_SignDefiniteWeight):
    agent: int
    input: int
    weight: SymMatrix
    cls: DefinitenessClass


def _resolve_weight(raw, d: int, declared: Optional[str],
                    where: str) -> tuple[SymMatrix, DefinitenessClass]:
    """Validate, optionally project, and classify one weight block."""
    arr = np.asarray(raw, dtype=float)
    if arr.size == d * d:
        arr = arr.reshape(d, d)
    if arr.shape != (d, d):
        raise GraphFormatError(f"{where}: weight must be {d}x{d}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GraphFormatError(f"{where}: weight has non-finite entries")
    dev = float(np.max(np.abs(arr - arr.T)))
    if dev > SYMMETRY_REJECT_TOL * max(1.0, float(np.max(np.abs(arr)))):
        raise GraphFormatError(f"{where}: weight is asymmetric (max deviation {dev:.6g})")
    if declared is not None:
        if declared not in _CLASS_NAMES:
            raise GraphFormatError(
                f"{where}: unknown class {declared!r}; expected one of "
                f"{sorted(_CLASS_NAMES)}")
        target = _CLASS_NAMES[declared]
        if not target.is_sign_definite:
            raise GraphFormatError(f"{where}: declared class must be sign-definite")
        cls = linalg.classify_definiteness(arr)
        if cls.is_sign_definite and \
                linalg.matrix_sgn(cls) == linalg.matrix_sgn(target):
            # Spectrum already agrees at strict tolerance: keep the weight
            # bit-exact so that dump/load round trips are stable.
            weight = SymMatrix(arr)
        else:
            try:
                weight = linalg.project_to_class(arr, target,
                                                 CLASS_DECLARATION_TOL)
            except linalg.UnsupportedWeight as exc:
                raise GraphFormatError(f"{where}: {exc}") from exc
            cls = linalg.classify_definiteness(weight)
            if linalg.matrix_sgn(cls) != linalg.matrix_sgn(target):
                raise GraphFormatError(
                    f"{where}: declared class {declared!r} inconsistent with "
                    f"spectrum (classified {cls.value})")
    else:
        weight = SymMatrix(arr)
        cls = linalg.classify_definiteness(weight)
    if not cls.is_sign_definite:
        raise GraphFormatError(
            f"{where}: weight classified {cls.value}; only sign-definite "
            "(pd/psd/nd/nsd) weights are admissible")
    return weight, cls


@dataclass(frozen=True, eq=False)
class MatrixWeightedGraph:
    """Undirected graph on n nodes with sign-definite d x d matrix weights.

    Immutable; neighbor and edge lookups go through an index built on
    construction, and the Laplacian and Assumption-1 report are cached.
    """

    n: int
    d: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        by_pair: dict[tuple[int, int], Edge] = {}
        adjacent: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            if not (0 <= e.i < self.n and 0 <= e.j < self.n):
                raise GraphFormatError(f"edge ({e.i},{e.j}) out of range for n={self.n}")
            if e.i == e.j:
                raise GraphFormatError(f"self-loop at node {e.i}")
            if e.weight.dim != self.d:
                raise GraphFormatError(
                    f"edge ({e.i},{e.j}) weight is {e.weight.dim}x{e.weight.dim}, "
                    f"graph block dimension is {self.d}")
            key = (min(e.i, e.j), max(e.i, e.j))
            if key in by_pair:
                raise GraphFormatError(f"duplicate edge ({e.i},{e.j})")
            if not e.cls.is_sign_definite:
                raise GraphFormatError(
                    f"edge ({e.i},{e.j}) has class {e.cls.value}")
            by_pair[key] = Edge(*key, e.weight, e.cls)
            adjacent[e.i].append(e.j)
            adjacent[e.j].append(e.i)
        object.__setattr__(self, "edges", tuple(by_pair.values()))
        # Adjacency index: the graph is immutable, so lookups never go stale.
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "_neighbors", {
            i: tuple(sorted(adj)) for i, adj in enumerate(adjacent)})

    @classmethod
    def from_edges(cls, n: int, d: int,
                   edges: Iterable[tuple]) -> "MatrixWeightedGraph":
        """Build from ``(i, j, weight)`` or ``(i, j, weight, declared_class)``
        tuples; weights are validated and classified as at file load."""
        built = []
        for spec in edges:
            if len(spec) == 3:
                i, j, raw = spec
                declared = None
            else:
                i, j, raw, declared = spec
            weight, wcls = _resolve_weight(raw, d, declared, f"edge ({i},{j})")
            built.append(Edge(i, j, weight, wcls))
        return cls(n, d, tuple(built))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors.get(i, ())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def edge(self, i: int, j: int) -> Optional[Edge]:
        return self._by_pair.get((min(i, j), max(i, j)))

    def weight(self, i: int, j: int) -> SymMatrix:
        e = self.edge(i, j)
        if e is None:
            return SymMatrix.zero(self.d)
        return e.weight

    def sgn(self, i: int, j: int) -> int:
        e = self.edge(i, j)
        return 0 if e is None else e.sign

    def abs_weight(self, i: int, j: int) -> SymMatrix:
        e = self.edge(i, j)
        if e is None:
            return SymMatrix.zero(self.d)
        return e.abs_weight()

    @cached_property
    def laplacian(self) -> SymMatrix:
        """Block Laplacian: diagonal blocks sum the incident absolute weights,
        off-diagonal block (i, j) is minus the signed weight."""
        d = self.d
        L = np.zeros((self.n * d, self.n * d))
        for e in self.edges:
            absw = e.abs_weight().entries
            signed = e.sign * absw
            i, j = e.i, e.j
            L[i * d:(i + 1) * d, i * d:(i + 1) * d] += absw
            L[j * d:(j + 1) * d, j * d:(j + 1) * d] += absw
            L[i * d:(i + 1) * d, j * d:(j + 1) * d] = -signed
            L[j * d:(j + 1) * d, i * d:(i + 1) * d] = -signed
        return SymMatrix(L)

    @cached_property
    def assumption1(self) -> "Assumption1Report":
        """Structural balance plus exact-dimension Laplacian kernel.

        Holds when the graph is balanced, the Laplacian nullity equals d, and
        the kernel coincides with the gauge-signed consensus subspace (largest
        principal angle has sine at most 1e-8).  Only the verdict is kept,
        not the nd x nd eigenvectors it was read from.
        """
        bip = detect_structural_balance(self)
        if bip is None:
            return Assumption1Report(False, -1, False)
        try:
            basis = null_space(build_laplacian(self))
        except NotPSD:
            return Assumption1Report(True, -1, False, bip)
        nullity = basis.shape[1]
        if nullity != self.d:
            return Assumption1Report(True, nullity, False, bip)
        ref = gauge_consensus_basis(gauge_matrix(bip), self.d)
        resid = float(np.linalg.norm(ref - basis @ (basis.T @ ref), ord=2))
        return Assumption1Report(True, nullity, resid <= 1e-8, bip, resid)


@dataclass(frozen=True)
class Bipartition:
    """Disjoint two-group split of the node set (group2 may be empty)."""

    n: int
    group1: frozenset[int]
    group2: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "group1", frozenset(self.group1))
        object.__setattr__(self, "group2", frozenset(self.group2))
        if self.group1 & self.group2:
            raise ValueError("bipartition groups overlap")
        if self.group1 | self.group2 != frozenset(range(self.n)):
            raise ValueError("bipartition does not cover the node set")

    def flipped(self) -> "Bipartition":
        return Bipartition(self.n, self.group2, self.group1)


@dataclass(frozen=True, eq=False)
class GaugeMatrix:
    """Per-node +-1 signs; node i acts on its d-block as sign * identity."""

    signs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=int)
        if not np.all(np.abs(arr) == 1):
            raise ValueError("gauge signs must be +1 or -1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "signs", arr)


def build_laplacian(g: MatrixWeightedGraph) -> SymMatrix:
    """The graph's block Laplacian (assembled once per graph)."""
    return g.laplacian


def detect_structural_balance(g: MatrixWeightedGraph) -> Optional[Bipartition]:
    """Two-color the edge-sign graph; ``None`` means structurally imbalanced.

    Balance is decided independently on each connected component; the
    lowest-index node of every component is placed in group 1, which makes
    the returned bipartition deterministic.
    """
    color = {}
    for root in range(g.n):
        if root in color:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                want = color[u] * g.edge(u, v).sign
                if v not in color:
                    color[v] = want
                    queue.append(v)
                elif color[v] != want:
                    return None
    group1 = frozenset(i for i in range(g.n) if color[i] == 1)
    return Bipartition(g.n, group1, frozenset(range(g.n)) - group1)


def gauge_matrix(b: Bipartition) -> GaugeMatrix:
    signs = np.array([1 if i in b.group1 else -1 for i in range(b.n)], dtype=int)
    return GaugeMatrix(signs)


def check_gauge_identity(g: MatrixWeightedGraph, gauge: GaugeMatrix) -> bool:
    """True iff sign(i) * sign(j) * A_ij equals |A_ij| entrywise on every edge."""
    s = gauge.signs
    for e in g.edges:
        signed = (s[e.i] * s[e.j] * e.sign) * e.abs_weight().entries
        absw = e.abs_weight().entries
        tol = 1e-12 * max(1.0, float(np.max(np.abs(absw))))
        if np.max(np.abs(signed - absw)) > tol:
            return False
    return True


def null_space(L) -> np.ndarray:
    """Orthonormal basis of the near-null eigenspace of a PSD matrix, as
    :func:`kernel_mask` decides it."""
    dec = linalg.sym_eigen(L)
    return np.array(dec.eigenvectors[:, kernel_mask(dec.eigenvalues)])


def kernel_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Which ascending eigenvalues of a PSD matrix count as zero: those with
    ``|lambda| <= tol * lambda_max``, ``tol = linalg.DEFAULT_TOL``.  Raises
    :class:`NotPSD` when one sits below ``-tol * lambda_max``."""
    band = linalg.DEFAULT_TOL * max(float(eigenvalues[-1]), 0.0)
    if eigenvalues[0] < -band:
        raise NotPSD(
            f"matrix has eigenvalue {eigenvalues[0]:.6g} below -{band:.3g}")
    return np.abs(eigenvalues) <= band


def gauge_consensus_basis(gauge: GaugeMatrix, d: int) -> np.ndarray:
    """Orthonormal basis of the gauge-signed consensus subspace (nd x d)."""
    n = len(gauge.signs)
    basis = np.zeros((n * d, d))
    for k in range(d):
        for i in range(n):
            basis[i * d + k, k] = gauge.signs[i]
    return basis / np.sqrt(n)


@dataclass(frozen=True)
class Assumption1Report:
    balanced: bool
    nullity: int
    holds: bool
    bipartition: Optional[Bipartition] = None
    subspace_residual: float = float("nan")


def verify_assumption1(g: MatrixWeightedGraph) -> Assumption1Report:
    """The graph's Assumption-1 report (decided once per graph); see
    :attr:`MatrixWeightedGraph.assumption1`."""
    return g.assumption1


def predicted_bipartite_limit(g: MatrixWeightedGraph, x0: np.ndarray) -> np.ndarray:
    """Closed-form asymptotic state: each node carries the gauge-signed mean
    of the gauge-signed initial blocks."""
    report = verify_assumption1(g)
    if not report.holds:
        raise AssumptionViolated(
            "predicted limit requires balance and an exact consensus kernel")
    x0 = np.asarray(x0, dtype=float).reshape(g.n, g.d)
    s = gauge_matrix(report.bipartition).signs.astype(float)
    mean = (s[:, None] * x0).sum(axis=0) / g.n
    return (s[:, None] * mean[None, :]).reshape(-1)


@dataclass(frozen=True, eq=False)
class InputCoupling:
    """External input attachment: which agents see which homogeneous input,
    through which sign-definite weight."""

    m: int
    entries: tuple[CouplingEntry, ...] = ()

    def __post_init__(self):
        if self.m < 0:
            raise GraphFormatError("input count must be nonnegative")
        seen = set()
        for c in self.entries:
            if c.input >= self.m or c.input < 0:
                raise GraphFormatError(
                    f"coupling references input {c.input} but m={self.m}")
            if (c.agent, c.input) in seen:
                raise GraphFormatError(
                    f"duplicate coupling for agent {c.agent}, input {c.input}")
            seen.add((c.agent, c.input))
            if not c.cls.is_sign_definite:
                raise GraphFormatError(
                    f"coupling ({c.agent},{c.input}) has class {c.cls.value}")

    @classmethod
    def from_entries(cls, m: int, entries: Iterable[tuple],
                     d: int) -> "InputCoupling":
        built = []
        for spec in entries:
            if len(spec) == 3:
                agent, inp, raw = spec
                declared = None
            else:
                agent, inp, raw, declared = spec
            weight, wcls = _resolve_weight(
                raw, d, declared, f"input coupling ({agent},{inp})")
            built.append(CouplingEntry(agent, inp, weight, wcls))
        return cls(m, tuple(built))

    @classmethod
    def empty(cls) -> "InputCoupling":
        return cls(0, ())

    def entries_for_agent(self, i: int) -> tuple[CouplingEntry, ...]:
        return tuple(c for c in self.entries if c.agent == i)

    def grounding_block(self, i: int, d: int) -> np.ndarray:
        """Sum of absolute coupling weights attached to agent i."""
        out = np.zeros((d, d))
        for c in self.entries_for_agent(i):
            out += c.abs_weight().entries
        return out


def build_grounded_laplacian(g: MatrixWeightedGraph,
                             coupling: InputCoupling) -> SymMatrix:
    """Laplacian plus the block-diagonal input grounding mass."""
    L = build_laplacian(g).entries.copy()
    d = g.d
    for i in range(g.n):
        L[i * d:(i + 1) * d, i * d:(i + 1) * d] += coupling.grounding_block(i, d)
    return SymMatrix(L)


def extended_graph(g: MatrixWeightedGraph,
                   coupling: InputCoupling) -> MatrixWeightedGraph:
    """Agents plus one node per external input, joined by the coupling edges."""
    edges = list(g.edges)
    for c in coupling.entries:
        edges.append(Edge(c.agent, g.n + c.input, c.weight, c.cls))
    return MatrixWeightedGraph(g.n + coupling.m, g.d, tuple(edges))


def verify_assumption2(g: MatrixWeightedGraph, coupling: InputCoupling) -> bool:
    """Input-extended structural balance plus positive-definite total grounding."""
    if detect_structural_balance(extended_graph(g, coupling)) is None:
        return False
    total = np.zeros((g.d, g.d))
    for c in coupling.entries:
        total += c.abs_weight().entries
    return linalg.classify_definiteness(total) is linalg.PD


def graph_to_dict(g: MatrixWeightedGraph,
                  coupling: Optional[InputCoupling] = None) -> dict:
    """Interchange form: plain lists, row-major weights, class recorded."""
    doc = {
        "n": g.n,
        "d": g.d,
        "edges": [
            {"i": e.i, "j": e.j,
             "weight": [float(v) for v in e.weight.entries.reshape(-1)],
             "class": e.cls.value}
            for e in g.edges
        ],
    }
    if coupling is not None and (coupling.m or coupling.entries):
        doc["m"] = coupling.m
        doc["inputs"] = [
            {"agent": c.agent, "input": c.input,
             "weight": [float(v) for v in c.weight.entries.reshape(-1)],
             "class": c.cls.value}
            for c in coupling.entries
        ]
    return doc


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


def _json_floats(value, where: str) -> np.ndarray:
    """A (possibly nested) array of numbers as a float array."""
    pending = [_json_value(value, "array", where)]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _json_value(item, "number", f"{where} entries")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):
        raise GraphFormatError(
            f"{where}: ragged array or number out of range") from None


def _json_entries(doc: dict, key: str,
                  fields: tuple[str, ...]) -> Iterator[tuple]:
    """``(*fields, weight array, declared class)`` per entry of the array
    ``doc[key]``; the ``fields`` are integers and required with the weight.
    Lazy, so each weight array is released once its graph entry is built."""
    for k, entry in enumerate(_json_value(doc.get(key, []), "array", key)):
        where = f"{key}[{k}]"
        _json_value(entry, "object", where)
        bad = set(entry) - {*fields, "weight", "class"}
        if bad:
            raise GraphFormatError(f"{where}: unknown keys {sorted(bad)}")
        if any(f not in entry for f in (*fields, "weight")):
            raise GraphFormatError(f"{where}: requires {', '.join(fields)}, weight")
        declared = entry.get("class")
        if declared is not None:
            _json_value(declared, "string", f"{where}.class")
        ints = (_json_value(entry[f], "integer", f"{where}.{f}") for f in fields)
        yield (*ints, _json_floats(entry["weight"], f"{where}.weight"), declared)


def graph_from_dict(doc: dict) -> tuple[MatrixWeightedGraph, InputCoupling]:
    """Parse the interchange form; unknown keys and mistyped fields are
    rejected."""
    _json_value(doc, "object", "graph")
    allowed = {"n", "d", "edges", "inputs", "m"}
    unknown = set(doc) - allowed
    if unknown:
        raise GraphFormatError(f"unknown graph keys: {sorted(unknown)}")
    for key in ("n", "d"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise GraphFormatError(f"graph field {key!r} must be a positive integer")
    n, d = doc["n"], doc["d"]
    g = MatrixWeightedGraph.from_edges(
        n, d, _json_entries(doc, "edges", ("i", "j")))
    entry_specs = list(_json_entries(doc, "inputs", ("agent", "input")))
    m = _json_value(doc.get("m", 0), "integer", "graph.m")
    if entry_specs:
        m = max(m, 1 + max(spec[1] for spec in entry_specs))
    coupling = InputCoupling.from_entries(m, entry_specs, d)
    for spec in entry_specs:
        if not (0 <= spec[0] < n):
            raise GraphFormatError(f"coupling agent {spec[0]} out of range")
    return g, coupling
