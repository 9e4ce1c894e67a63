"""Matrix-weighted graph model.

Nodes are ``0..n-1``; every undirected edge carries a symmetric d x d weight
whose definiteness class must be one of PD / PSD / ND / NSD (indefinite and
zero weights are rejected: an indefinite block has no well-defined sign, and
a zero block is simply a non-edge).  Each weight is decomposed once, where
the loader reads it: the loader checks the weights of one call as one
stacked ``(E, d, d)`` array, decomposes them with one ``eigh`` (plus one of
the few whose declared class projects eigenvalue noise away) and classifies
them with one call, and each :class:`Edge` keeps views of its weight and
its ``eigh`` pair; input couplings are edges too.  The loaders take
``(i, j, weight[, class])`` tuples; reading them from a scenario document is
:mod:`mwconsensus.scenario_io`'s job.  On top of the graph itself this
module derives the block Laplacian, the input-extended graph, structural
balance, and the two structural assumptions that the consensus protocols
require.

Structural balance is one read-only int array ``signs`` of +-1 gauge signs
with ``signs[i] * signs[j] == sgn(A_ij)`` on every edge: the gauge
transformation ``D = diag(signs) (x) I_d`` maps the graph onto one with
nonnegative weights, so agents converge to gauge-signed copies of one value.

A graph is immutable, so it computes each structural fact once and keeps it:
its adjacency index on construction, its Laplacian, its gauge signs and its
Assumption-1 report on first use.  ``build_laplacian`` and
``verify_assumption1`` read those cached facts.  Assumption 1 is decided on
:func:`definite_quotient`, which has one node per component of the definite
edges, so only a caller that wants the full spectrum assembles the nd x nd
Laplacian.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import linalg
from .errors import AssumptionViolated, GraphFormatError, NotPSD
from .linalg import DefinitenessClass

#: Tolerance band (relative) used when an input document *declares* the class
#: of a weight: eigenvalues contradicting the declaration inside this band are
#: treated as precision noise and clamped to exactly zero.
CLASS_DECLARATION_TOL = 1e-4

#: File-boundary symmetry requirement; asymmetric weights are rejected, not
#: silently symmetrized, so transcription errors surface immediately.
SYMMETRY_REJECT_TOL = 1e-12

#: Refusal of a graph whose Laplacian, or its spectrum, overflows float64.
TOO_LARGE = ("edge weights too large for float64: the Laplacian or its "
             "spectrum overflows")

_CLASS_NAMES = {c.value: c for c in DefinitenessClass}


def float_array(value, field: str) -> np.ndarray:
    """``value`` as a read-only float64 copy.  A value numpy cannot read as
    numbers, from a Python caller, is refused in one line naming ``field``
    (documents are type-checked by their reader first)."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"{field} must hold numbers: {exc}") from None
    arr.setflags(write=False)
    return arr


#: Bytes per node of the adjacency index while it is built (a list, then a
#: tuple and a dict entry), rounded up from the ~170 that a graph without
#: edges peaks at on CPython 3.11.
NODE_BYTES = 256


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return float("inf")


def memory_refusal(need: float, what: str, use: str) -> Optional[str]:
    """Why ``what`` may not allocate ``need`` bytes for ``use``, or ``None``
    when that is less than physical memory."""
    have = physical_memory()
    if need < have:
        return None
    return (f"{what} need {need / 2**30:.3g} GiB {use}, more than the "
            f"{have / 2**30:.3g} GiB of physical memory")


@dataclass(frozen=True, eq=False)
class Edge:
    """Edge (i, j) with a sign-definite ``weight`` and its ``eigen`` pair
    (``linalg.sym_eigen``), from which its class, sign, absolute value and
    the spectrum of that absolute value are read.  All are read-only.  A
    loaded edge's weight and pair are views into its load's stacks, which
    one stacked decomposition produced, and the loader hands it its class."""

    i: int
    j: int
    weight: np.ndarray
    eigen: tuple[np.ndarray, np.ndarray]

    @cached_property
    def cls(self) -> DefinitenessClass:
        return linalg.classify_definiteness(self.eigen[0])

    @property
    def sign(self) -> int:
        return linalg.matrix_sgn(self.cls)

    @cached_property
    def abs_weight(self) -> np.ndarray:
        """|weight|, built once per weight."""
        return linalg.matrix_abs(self.weight, self.cls)

    @cached_property
    def abs_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``eigh`` pair of |weight|: the weight's own, negated and
        reversed (still ascending) for a negative class."""
        if self.sign > 0:
            return self.eigen
        vals, vecs = self.eigen
        vals = -vals[::-1]
        vals.setflags(write=False)
        return vals, vecs[:, ::-1]

    @property
    def abs_lambda_max(self) -> float:
        """lambda_max(|weight|), which ``mu_bar`` and ``gamma`` read."""
        return float(self.abs_eigen[0][-1])


def _edge(i: int, j: int, weight: np.ndarray,
          eigen: tuple[np.ndarray, np.ndarray], cls: DefinitenessClass) -> Edge:
    """An :class:`Edge` handed the class already read from its spectrum, so
    that it never classifies itself again."""
    e = Edge(i, j, weight, eigen)
    vars(e)["cls"] = cls  # where the cached property keeps its value
    return e


#: Sign of each sign-definite class.
_DEFINITE_SIGN = {c: linalg.matrix_sgn(c) for c in DefinitenessClass
                  if c.is_sign_definite}


class _Faults:
    """The refusal of the lowest-index faulty spec of a stack.  Each check
    runs on the specs below :attr:`limit`, which passed every check before
    it, so a spec is refused for the first check it fails."""

    def __init__(self, limit: int, error: Optional[GraphFormatError], where):
        self.limit, self.error, self.where = limit, error, where

    def refuse(self, flagged, message) -> None:
        """Refuse the lowest of the ``flagged`` spec indices, when it is
        below the limit, in the line ``message(k)``; it becomes the limit."""
        k = min(flagged, default=self.limit)
        if k < self.limit:
            self.limit = k = int(k)
            self.error = GraphFormatError(f"{self.where(k)}: {message(k)}")


def _load_edges(specs: Iterable[tuple], d: int, kind: str) -> tuple[Edge, ...]:
    """Edges of ``(i, j, weight)`` or ``(i, j, weight, declared_class)``
    specs, whose weights are validated, decomposed, optionally projected and
    classified as one ``(E, d, d)`` stack: the one check every weight gets.
    Each edge's weight is read-only and exactly symmetric, and the edge
    keeps its ``eigh`` pair; both are views into the stacks.

    A refusal names the lowest-index faulty spec, as ``kind (i,j)``, and the
    first check in this order that it fails: its shape, non-finite entries,
    asymmetry, the name of its declared class, that class being
    sign-definite, a spectrum that overflows, a declared class contradicted
    beyond :data:`CLASS_DECLARATION_TOL`, and a class that is not
    sign-definite.  A refusal that ``specs`` raises while producing spec k
    counts as spec k's.
    """
    heads, arrays, late = [], [], None
    try:
        for spec in specs:
            i, j, raw, declared = spec if len(spec) == 4 else (*spec, None)
            where = f"{kind} ({i},{j})"
            arr = float_array(raw, f"{where}: weight")
            if arr.size == d * d:
                arr = arr.reshape(d, d)
            if arr.shape != (d, d):
                raise GraphFormatError(
                    f"{where}: weight must be {d}x{d}, got shape {arr.shape}")
            heads.append((i, j, declared))
            arrays.append(arr)
    except GraphFormatError as exc:
        late = exc
    faults = _Faults(len(heads), late,
                     lambda k: f"{kind} ({heads[k][0]},{heads[k][1]})")
    raw = np.array(arrays).reshape(-1, d, d)
    faults.refuse(np.flatnonzero(~np.isfinite(raw).all(axis=(1, 2))),
                  lambda k: "weight has non-finite entries")
    raw = raw[:faults.limit]
    dev = np.abs(raw - raw.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(raw).max(axis=(1, 2), initial=0.0))
    faults.refuse(np.flatnonzero(dev > SYMMETRY_REJECT_TOL * scale),
                  lambda k: f"weight is asymmetric (max deviation {dev[k]:.6g})")
    targets = {}
    for k, (_, _, declared) in enumerate(heads[:faults.limit]):
        if declared is None:
            continue
        if declared not in _CLASS_NAMES:
            faults.refuse([k], lambda k: (
                f"unknown class {declared!r}; expected one of "
                f"{sorted(_CLASS_NAMES)}"))
            break
        if not _CLASS_NAMES[declared].is_sign_definite:
            faults.refuse([k], lambda k: "declared class must be sign-definite")
            break
        targets[k] = _CLASS_NAMES[declared]
    weight = linalg.symmetric(raw[:faults.limit])
    vals, vecs = linalg.sym_eigen(weight)
    # An inf eigenvalue would widen the zero band.
    faults.refuse(np.flatnonzero(~np.isfinite(vals).all(axis=1)),
                  lambda k: TOO_LARGE)
    classes = linalg.classify_definiteness(vals[:faults.limit])
    # A spectrum that already agrees at strict tolerance keeps the weight
    # bit-exact, so that dump/load round trips are stable.
    need = [k for k, t in targets.items() if k < faults.limit
            and _DEFINITE_SIGN.get(classes[k]) != _DEFINITE_SIGN[t]]
    if need:
        weight, vals, vecs = np.array(weight), np.array(vals), np.array(vecs)
        try:
            projected = linalg.project_to_class(
                vals[need], vecs[need], [targets[k] for k in need],
                CLASS_DECLARATION_TOL)
        except linalg.UnsupportedWeight as exc:
            faults.refuse([need[exc.index]], lambda k: str(exc))
            need = need[:exc.index]
            projected = linalg.project_to_class(
                vals[need], vecs[need], [targets[k] for k in need],
                CLASS_DECLARATION_TOL)
        weight[need] = projected
        vals[need], vecs[need] = linalg.sym_eigen(projected)
        classes[need] = linalg.classify_definiteness(vals[need])
        faults.refuse([k for k in need if _DEFINITE_SIGN.get(classes[k])
                       != _DEFINITE_SIGN[targets[k]]],
                      lambda k: (f"declared class {heads[k][2]!r} inconsistent "
                                 f"with spectrum (classified {classes[k].value})"))
        for a in (weight, vals, vecs):
            a.setflags(write=False)
    faults.refuse([k for k, c in enumerate(classes[:faults.limit])
                   if not c.is_sign_definite],
                  lambda k: (f"weight classified {classes[k].value}; only "
                             "sign-definite (pd/psd/nd/nsd) weights are "
                             "admissible"))
    if faults.error is not None:
        raise faults.error
    return tuple(_edge(i, j, weight[k], (vals[k], vecs[k]), classes[k])
                 for k, (i, j, _) in enumerate(heads))


@dataclass(frozen=True, eq=False)
class MatrixWeightedGraph:
    """Undirected graph on n nodes with sign-definite d x d matrix weights.

    Immutable; neighbor and edge lookups go through an index built on
    construction; the Laplacian, signs and Assumption-1 report are cached.
    """

    n: int
    d: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        refusal = memory_refusal(NODE_BYTES * self.n, f"n={self.n} nodes",
                                 "for the adjacency index")
        if refusal:
            raise GraphFormatError(refusal)
        by_pair: dict[tuple[int, int], Edge] = {}
        adjacent: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            if not (0 <= e.i < self.n and 0 <= e.j < self.n):
                raise GraphFormatError(f"edge ({e.i},{e.j}) out of range for n={self.n}")
            if e.i == e.j:
                raise GraphFormatError(f"self-loop at node {e.i}")
            if e.weight.shape != (self.d, self.d):
                raise GraphFormatError(
                    f"edge ({e.i},{e.j}) weight has shape {e.weight.shape}, "
                    f"graph block dimension is {self.d}")
            key = (min(e.i, e.j), max(e.i, e.j))
            if key in by_pair:
                raise GraphFormatError(f"duplicate edge ({e.i},{e.j})")
            if not e.cls.is_sign_definite:
                raise GraphFormatError(
                    f"edge ({e.i},{e.j}) has class {e.cls.value}")
            # An edge already in (min, max) order is shared, caches and all.
            by_pair[key] = e if (e.i, e.j) == key else \
                _edge(*key, e.weight, e.eigen, e.cls)
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
        tuples; weights are validated and decomposed as at file load."""
        return cls(n, d, _load_edges(edges, d, "edge"))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors.get(i, ())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def edge(self, i: int, j: int) -> Optional[Edge]:
        return self._by_pair.get((min(i, j), max(i, j)))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Block Laplacian, read-only: diagonal blocks sum the incident
        absolute weights, off-diagonal block (i, j) is minus the signed
        weight.  The blocks are symmetric and placed symmetrically, so L is
        exactly symmetric as assembled."""
        d = self.d
        # L, and the eigenvectors and workspace of its eigh.
        refusal = memory_refusal(
            3 * 8.0 * (self.n * d) ** 2, f"n={self.n} nodes of d={d}",
            "for the Laplacian and its eigendecomposition")
        if refusal:
            raise GraphFormatError(refusal)
        L = np.zeros((self.n * d, self.n * d))
        with np.errstate(over="ignore"):  # an overflowed sum is refused below
            for e in self.edges:
                absw = e.abs_weight
                signed = e.sign * absw
                i, j = e.i, e.j
                L[i * d:(i + 1) * d, i * d:(i + 1) * d] += absw
                L[j * d:(j + 1) * d, j * d:(j + 1) * d] += absw
                L[i * d:(i + 1) * d, j * d:(j + 1) * d] = -signed
                L[j * d:(j + 1) * d, i * d:(i + 1) * d] = -signed
        if not np.all(np.isfinite(L)):
            raise GraphFormatError(TOO_LARGE)
        L.setflags(write=False)
        return L

    @cached_property
    def signs(self) -> Optional[np.ndarray]:
        """Gauge signs, searched once; see :func:`detect_structural_balance`."""
        return detect_structural_balance(self)

    @cached_property
    def assumption1(self) -> "Assumption1Report":
        """Structural balance plus a Laplacian kernel that is exactly the
        gauge-signed consensus subspace.

        Under balance ``x^T L x = sum_e p_e^T |A_e| p_e`` with
        ``p_e = x_i - sgn(A_ij) x_j``, so on the kernel every definite (PD/ND)
        edge forces ``x_i = sgn(A_ij) x_j``, and the kernel of L is that of
        :func:`definite_quotient`'s Laplacian, whose nodes are the components
        of the definite edges.  The consensus subspace (dimension d) always
        lies in the kernel, so the assumption holds when that nullity is d.
        A graph whose ``2 max_i sum_j lambda_max(|A_ij|)``, a bound on the
        spectral norm of L, overflows is refused with :data:`TOO_LARGE`.
        """
        if self.signs is None:
            return Assumption1Report(-1, False)
        load = [0.0] * self.n
        for e in self.edges:
            load[e.i] += e.abs_lambda_max
            load[e.j] += e.abs_lambda_max
        if not math.isfinite(2.0 * max(load, default=0.0)):
            raise GraphFormatError(TOO_LARGE)
        nullity = null_space(build_laplacian(definite_quotient(self))).shape[1]
        return Assumption1Report(nullity, nullity == self.d)


def definite_quotient(g: MatrixWeightedGraph) -> MatrixWeightedGraph:
    """``g`` with each component of its definite (PD/ND) edges merged into
    one node, numbered in the order of their lowest members.  The
    semidefinite edges between two components become one positive edge
    weighted by the sum of their ``|A_e|``; those inside a component are
    dropped.  On a balanced graph the quotient's Laplacian has the nullity
    of ``g``'s: a gauge-signed kernel vector is constant on each component,
    where an inner edge adds exactly zero."""
    parent = list(range(g.n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in g.edges:
        if e.cls in (linalg.PD, linalg.ND):
            a, b = root(e.i), root(e.j)
            parent[max(a, b)] = min(a, b)  # a root is its component's minimum
    roots = [root(i) for i in range(g.n)]
    label = {r: k for k, r in enumerate(dict.fromkeys(roots))}
    between: dict[tuple[int, int], list[np.ndarray]] = {}
    for e in g.edges:
        a, b = sorted((label[roots[e.i]], label[roots[e.j]]))
        if a != b:
            between.setdefault((a, b), []).append(e.abs_weight)
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        w = linalg.symmetric(np.array([sum(parts) for parts in between.values()])
                             .reshape(-1, g.d, g.d))
    if not np.all(np.isfinite(w)):
        raise GraphFormatError(TOO_LARGE)
    vals, vecs = linalg.sym_eigen(w)
    classes = linalg.classify_definiteness(vals)
    return MatrixWeightedGraph(len(label), g.d, tuple(
        _edge(a, b, w[k], (vals[k], vecs[k]), classes[k])
        for k, (a, b) in enumerate(between)))


def build_laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """The graph's block Laplacian (assembled once per graph)."""
    return g.laplacian


def detect_structural_balance(g: MatrixWeightedGraph) -> Optional[np.ndarray]:
    """Two-color the edge-sign graph: read-only +-1 gauge signs with
    ``signs[i] * signs[j] == sgn(A_ij)`` on every edge, or ``None`` when the
    graph is structurally imbalanced.

    Balance is decided independently on each connected component; the
    lowest-index node of every component gets +1, which makes the signs
    deterministic.
    """
    color = [0] * g.n
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                want = color[u] * g.edge(u, v).sign
                if not color[v]:
                    color[v] = want
                    queue.append(v)
                elif color[v] != want:
                    return None
    signs = np.array(color, dtype=int)
    signs.setflags(write=False)
    return signs


def null_space(L) -> np.ndarray:
    """Orthonormal basis of the near-null eigenspace of a PSD matrix, as
    :func:`kernel_mask` decides it."""
    vals, vecs = linalg.sym_eigen(L)
    return vecs[:, kernel_mask(vals)]


def kernel_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Which ascending eigenvalues of a PSD matrix count as zero: those with
    ``|lambda| <= tol * lambda_max``, ``tol = linalg.DEFAULT_TOL``.  Raises
    :class:`NotPSD` when one sits below ``-tol * lambda_max``, and
    :class:`GraphFormatError` when one overflowed."""
    if not np.all(np.isfinite(eigenvalues)):
        raise GraphFormatError(TOO_LARGE)
    band = linalg.DEFAULT_TOL * max(float(eigenvalues[-1]), 0.0)
    if eigenvalues[0] < -band:
        raise NotPSD(
            f"matrix has eigenvalue {eigenvalues[0]:.6g} below -{band:.3g}")
    return np.abs(eigenvalues) <= band


@dataclass(frozen=True, eq=False)
class Assumption1Report:
    """``nullity`` is that of the Laplacian, or -1 when the graph is
    imbalanced and the kernel was not computed."""

    nullity: int
    holds: bool


def verify_assumption1(g: MatrixWeightedGraph) -> Assumption1Report:
    """The graph's Assumption-1 report (decided once per graph); see
    :attr:`MatrixWeightedGraph.assumption1`."""
    return g.assumption1


def predicted_bipartite_limit(g: MatrixWeightedGraph, x0: np.ndarray) -> np.ndarray:
    """Closed-form asymptotic state: each node carries the gauge-signed mean
    of the gauge-signed initial blocks."""
    if not verify_assumption1(g).holds:
        raise AssumptionViolated(
            "predicted limit requires balance and an exact consensus kernel")
    x0 = np.asarray(x0, dtype=float).reshape(g.n, g.d)
    s = g.signs[:, None]
    mean = (s * x0).sum(axis=0) / g.n
    return (s * mean[None, :]).reshape(-1)


@dataclass(frozen=True, eq=False)
class InputCoupling:
    """External input attachment: which agents see which homogeneous input,
    through which sign-definite weight.  Each entry is an :class:`Edge` from
    agent ``i`` to input ``j``.  The input count ``m`` is one past the
    largest input index, and each of the m inputs is coupled."""

    entries: tuple[Edge, ...] = ()

    def __post_init__(self):
        seen = set()
        for c in self.entries:
            if c.j < 0:
                raise GraphFormatError(f"coupling references input {c.j}")
            if (c.i, c.j) in seen:
                raise GraphFormatError(
                    f"duplicate coupling for agent {c.i}, input {c.j}")
            seen.add((c.i, c.j))
            if not c.cls.is_sign_definite:
                raise GraphFormatError(
                    f"coupling ({c.i},{c.j}) has class {c.cls.value}")
        coupled = {c.j for c in self.entries}
        if len(coupled) < self.m:
            # The first gap is below len(coupled), so m itself is never walked.
            k = next(k for k in range(self.m) if k not in coupled)
            raise GraphFormatError(f"input {k} of m={self.m} has no coupling")

    @property
    def m(self) -> int:
        return 1 + max((c.j for c in self.entries), default=-1)

    @classmethod
    def from_entries(cls, entries: Iterable[tuple],
                     d: int) -> "InputCoupling":
        """Build from ``(agent, input, weight[, declared_class])`` tuples."""
        return cls(_load_edges(entries, d, "input coupling"))


def extended_graph(g: MatrixWeightedGraph,
                   coupling: InputCoupling) -> MatrixWeightedGraph:
    """Agents plus input l at node ``n + l``, joined by the coupling edges."""
    edges = tuple(_edge(c.i, g.n + c.j, c.weight, c.eigen, c.cls)
                  for c in coupling.entries)
    return MatrixWeightedGraph(g.n + coupling.m, g.d, g.edges + edges)


def leader_gauge(network: MatrixWeightedGraph, n: int) -> Optional[np.ndarray]:
    """Sign with which each of the ``n`` agents of the input-extended
    ``network`` tracks the inputs' common value ``u0``: its gauge sign times
    the sign the inputs (nodes ``j >= n``) share.  ``None`` when the network
    is imbalanced or its inputs carry opposite signs (or do not exist)."""
    signs = network.signs
    if signs is None:
        return None
    shared = set(signs[n:].tolist())
    if len(shared) != 1:
        return None
    return signs[:n] * shared.pop()


def verify_assumption2(network: MatrixWeightedGraph, n: int) -> bool:
    """Input-extended structural balance with one shared input sign, plus
    positive-definite total grounding."""
    if leader_gauge(network, n) is None:
        return False
    total = np.zeros((network.d, network.d))
    for e in network.edges:
        if e.j >= n:
            total += e.abs_weight
    return linalg.classify_definiteness(linalg.sym_eigen(total)[0]) is linalg.PD
