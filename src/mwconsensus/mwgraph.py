"""Matrix-weighted graph model.

Nodes are ``0..n-1``; every undirected edge carries a symmetric d x d weight
whose definiteness class must be one of PD / PSD / ND / NSD (indefinite and
zero weights are rejected: an indefinite block has no well-defined sign, and
a zero block is simply a non-edge).  A graph holds its edges as one
:class:`~mwconsensus.edges.EdgeTable` and indexes its neighbours in CSR form
(:func:`~mwconsensus.edges.index_edges`).  The loader here checks the
weights of one call as one stacked ``(E, d, d)`` array, decomposes them
with one ``eigh`` (plus one of the few whose declared class projects
eigenvalue noise away) and classifies them with one call.  An edge is named
by its row in the table (:meth:`MatrixWeightedGraph.edge` finds it by its
ends).  Input couplings are edge tables too.  The loader,
:func:`load_edges`, takes its edges as columns (ends, weights, declared
classes); :meth:`MatrixWeightedGraph.from_edges` and
:meth:`InputCoupling.from_entries` transpose ``(i, j, weight[, class])``
tuples into them, and reading them from a scenario document is
:mod:`mwconsensus.scenario_io`'s job.  On top of the graph itself this
module derives the block Laplacian, the input-extended graph, structural
balance, and the two structural assumptions that the consensus protocols
require.

Structural balance is one read-only int array ``signs`` of +-1 gauge signs
with ``signs[i] * signs[j] == sgn(A_ij)`` on every edge: the gauge
transformation ``D = diag(signs) (x) I_d`` maps the graph onto one with
nonnegative weights, so agents converge to gauge-signed copies of one value.

A graph is immutable, so it computes each structural fact once and keeps it:
its neighbour index on construction, its Laplacian, its gauge signs and its
Assumption-1 report on first use.  ``build_laplacian`` and
``verify_assumption1`` read those cached facts.  Assumption 1 is decided on
:func:`definite_quotient`, which has one node per component of the definite
edges, so only a caller that wants the full spectrum assembles the nd x nd
Laplacian.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Optional

import numpy as np

from . import linalg
from .edges import EdgeTable, Faults, class_signs, ends_array, index_edges, \
    weight_stack
from .errors import AssumptionViolated, GraphFormatError, NotPSD
from .linalg import ND, PD, DefinitenessClass

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


#: Bytes per node that a graph may hold while it is built, a conservative
#: bound: the CSR neighbour index and the balance walk take a few int64
#: values and list slots per node, well under this.
NODE_BYTES = 256


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return float("inf")


def memory_refusal(need: float, what: str, use: str) -> Optional[str]:
    """Why ``what`` may not allocate ``need`` bytes for ``use``, or ``None``
    when that is less than physical memory.  Both sizes are printed with
    the fewest significant digits, at least 3, at which they read apart."""
    have = physical_memory()
    if need < have:
        return None
    # An int beyond float range (from n = 10**400, say) cannot be divided.
    gib = need / 2**30 if need < 2**1000 else float("inf")
    have_gib = have / 2**30
    digits = 3
    # Ends by 17 digits, which tell any two doubles apart.
    while gib != have_gib and f"{gib:.{digits}g}" == f"{have_gib:.{digits}g}":
        digits += 1
    return (f"{what} need {gib:.{digits}g} GiB {use}, "
            f"{'more than' if gib > have_gib else 'all of'} the "
            f"{have_gib:.{digits}g} GiB of physical memory")


def _weights_refusal(d: int, count: int) -> Optional[str]:
    """Why ``count`` d x d weights may not be stacked, or ``None``.  One is
    sized at least: every graph forms d x d blocks, and an edgeless one an
    empty ``(0, d, d)`` stack, which numpy cannot shape for a d this large."""
    count = max(count, 1)
    # A float side, whose square overflows to inf rather than raising.
    side = float(min(d, 2**1000))
    return memory_refusal(8.0 * count * side * side, f"d={d} weights",
                          f"for {count} d x d float64 "
                          f"block{'s' if count > 1 else ''}")


#: Sign of each class name a weight may be declared with, :data:`_NO_SIGN`
#: for a class that has none, and 0 for no declaration; an unknown name has
#: :data:`_UNKNOWN`.
_NO_SIGN, _UNKNOWN = 2, 3
_DECLARED_SIGN = {None: 0, **{c.value: linalg.CLASS_SIGN[c] or _NO_SIGN
                              for c in DefinitenessClass}}


def _spec_columns(specs: Iterable[tuple], kind: str) -> tuple:
    """The columns ``(first ends, second ends, weights, declared classes)``
    of ``(i, j, weight)`` or ``(i, j, weight, declared_class)`` specs, a
    declared class ``None`` where a spec has none."""
    specs = list(specs)
    for k, spec in enumerate(specs):
        if len(spec) not in (3, 4):
            raise GraphFormatError(f"{kind} spec {k}: expected (i, j, weight) "
                                   f"or (i, j, weight, class), got "
                                   f"{len(spec)} items")
    if not specs:
        return (), (), (), ()
    return tuple(zip(*(spec if len(spec) == 4 else (*spec, None)
                       for spec in specs)))


def load_edges(d: int, kind: str, first, second, raws, declared,
                late: Optional[GraphFormatError] = None) -> EdgeTable:
    """The table of the edge columns ``first`` and ``second`` (ends),
    ``raws`` (weights) and ``declared`` (class names, ``None`` for no
    declaration), whose weights are validated, decomposed, optionally
    projected and classified as one ``(E, d, d)`` stack: the one check
    every weight gets.  Each weight is read-only and exactly symmetric, and
    the table keeps its ``eigh`` pair.

    A refusal names the lowest-index faulty row, as ``kind (i,j)``, and the
    first check in this order that it fails: its shape, non-finite entries,
    asymmetry, the name of its declared class, that class being
    sign-definite, a spectrum that overflows, a declared class contradicted
    beyond :data:`CLASS_DECLARATION_TOL`, and a class that is not
    sign-definite.  ``late`` is a refusal pending for the row just past the
    columns (a document reader's): it is raised when no row is faulty.
    """
    refusal = _weights_refusal(d, len(raws))
    if refusal:
        raise GraphFormatError(refusal)
    faults = Faults(len(raws), late,
                    lambda k: f"{kind} ({first[k]},{second[k]})")
    raw = weight_stack(raws, d, faults)
    faults.refuse(~np.isfinite(raw).all(axis=(1, 2)),
                  lambda k: "weight has non-finite entries")
    raw = raw[:faults.limit]
    dev = np.abs(raw - raw.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(raw).max(axis=(1, 2), initial=0.0))
    faults.refuse(dev > SYMMETRY_REJECT_TOL * scale,
                  lambda k: f"weight is asymmetric (max deviation {dev[k]:.6g})")
    target_sign = np.fromiter(
        map(_DECLARED_SIGN.get, declared[:faults.limit], repeat(_UNKNOWN)),
        dtype=np.int8, count=faults.limit)
    faults.refuse(target_sign == _UNKNOWN, lambda k: (
        f"unknown class {declared[k]!r}; expected one of "
        f"{sorted(_CLASS_NAMES)}"))
    faults.refuse(target_sign == _NO_SIGN,
                  lambda k: "declared class must be sign-definite")
    weight = linalg.symmetric(raw[:faults.limit])
    vals, vecs = linalg.sym_eigen(weight)
    # An inf eigenvalue would widen the zero band.
    faults.refuse(~np.isfinite(vals).all(axis=1), lambda k: TOO_LARGE)
    classes = linalg.classify_definiteness(vals[:faults.limit])
    # A spectrum that already agrees at strict tolerance keeps the weight
    # bit-exact, so that dump/load round trips are stable.
    target_sign = target_sign[:faults.limit]
    need = np.flatnonzero((target_sign != 0)
                          & (class_signs(classes) != target_sign))
    if need.size:
        weight, vals, vecs = np.array(weight), np.array(vals), np.array(vecs)
        targets = [_CLASS_NAMES[declared[k]] for k in need]
        try:
            projected = linalg.project_to_class(
                vals[need], vecs[need], targets, CLASS_DECLARATION_TOL)
        except linalg.UnsupportedWeight as exc:
            faults.refuse([need[exc.index]], lambda k: str(exc))
            need, targets = need[:exc.index], targets[:exc.index]
            projected = linalg.project_to_class(
                vals[need], vecs[need], targets, CLASS_DECLARATION_TOL)
        weight[need] = projected
        vals[need], vecs[need] = linalg.sym_eigen(projected)
        classes[need] = linalg.classify_definiteness(vals[need])
        faults.refuse(need[class_signs(classes[need]) != target_sign[need]],
                      lambda k: (f"declared class {declared[k]!r} inconsistent "
                                 f"with spectrum (classified {classes[k].value})"))
    faults.refuse(class_signs(classes[:faults.limit]) == 0,
                  lambda k: (f"weight classified {classes[k].value}; only "
                             "sign-definite (pd/psd/nd/nsd) weights are "
                             "admissible"))
    faults.raise_any()
    return EdgeTable(ends_array(first, second), weight, vals, vecs, classes)


def _require_table(table, owner: str) -> None:
    """Refuse, in one line, a ``table`` that is not an :class:`EdgeTable`."""
    if not isinstance(table, EdgeTable):
        raise GraphFormatError(f"{owner} takes an EdgeTable, got "
                               f"{type(table).__name__}")


@dataclass(frozen=True, eq=False)
class MatrixWeightedGraph:
    """Undirected graph on n nodes with sign-definite d x d matrix weights.

    ``table`` is an :class:`EdgeTable`, kept with its ends in ``(min, max)``
    order.  The CSR neighbour index holds, for node ``i``, the slots
    ``offsets[i]:offsets[i + 1]`` of ``slot_neighbor`` (ascending) and
    ``slot_edge`` (the edge of each slot).  Immutable; the Laplacian, signs
    and Assumption-1 report are cached.
    """

    n: int
    d: int
    table: EdgeTable

    def __post_init__(self):
        _require_table(self.table, "a graph")
        refusal = memory_refusal(NODE_BYTES * self.n, f"n={self.n} nodes",
                                 "for the adjacency index") \
            or _weights_refusal(self.d, 1)
        if refusal:
            raise GraphFormatError(refusal)
        for name, value in zip(
                ("table", "offsets", "slot_neighbor", "slot_edge"),
                index_edges(self.n, self.d, self.table)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_edges(cls, n: int, d: int,
                   edges: Iterable[tuple]) -> "MatrixWeightedGraph":
        """Build from ``(i, j, weight)`` or ``(i, j, weight, declared_class)``
        tuples; weights are validated and decomposed as at file load."""
        return cls(n, d, load_edges(d, "edge", *_spec_columns(edges, "edge")))

    @cached_property
    def _index(self) -> tuple[list, list, list]:
        """The CSR index as lists, for lookups one node at a time."""
        return (self.offsets.tolist(), self.slot_neighbor.tolist(),
                self.slot_edge.tolist())

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbour count per node, read-only."""
        degrees = np.diff(self.offsets)
        degrees.setflags(write=False)
        return degrees

    def neighbors(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.n:
            return ()
        offsets, neighbor, _ = self._index
        return tuple(neighbor[offsets[i]:offsets[i + 1]])

    def edge(self, i: int, j: int) -> Optional[int]:
        """The row of edge (i, j) in :attr:`table`, or ``None``."""
        if not 0 <= i < self.n:
            return None
        offsets, neighbor, edge = self._index
        lo, hi = offsets[i], offsets[i + 1]
        s = bisect.bisect_left(neighbor, j, lo, hi)
        return edge[s] if s < hi and neighbor[s] == j else None

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Block Laplacian, read-only: diagonal blocks sum the incident
        absolute weights in edge order, off-diagonal block (i, j) is minus
        the signed weight.  The blocks are symmetric and placed
        symmetrically, so L is exactly symmetric as assembled."""
        n, d = self.n, self.d
        # L, and the eigenvectors and workspace of its eigh.
        refusal = memory_refusal(
            3 * 8.0 * (n * d) ** 2, f"n={n} nodes of d={d}",
            "for the Laplacian and its eigendecomposition")
        if refusal:
            raise GraphFormatError(refusal)
        t = self.table
        blocks = np.zeros((n, d, n, d))  # block (i, j) is blocks[i, :, j, :]
        if len(t):
            lo, hi = t.ends[:, 0], t.ends[:, 1]
            absw = t.abs_weight
            diag = np.zeros((n, d, d))
            with np.errstate(over="ignore"):  # an overflowed sum is refused below
                np.add.at(diag, t.ends.reshape(-1), np.repeat(absw, 2, axis=0))
                signed = -(t.sign[:, None, None] * absw)
            blocks[lo, :, hi, :] = blocks[hi, :, lo, :] = signed
            node = np.arange(n)
            blocks[node, :, node, :] = diag
        L = blocks.reshape(n * d, n * d)
        if not np.isfinite(L).all():
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
        t = self.table
        # Each edge adds to its ends in edge order, i before j.
        load = np.bincount(t.ends.reshape(-1), minlength=self.n,
                           weights=np.repeat(t.abs_lambda_max, 2))
        with np.errstate(over="ignore"):  # an overflowed load is refused
            if not np.isfinite(2.0 * load.max(initial=0.0)):
                raise GraphFormatError(TOO_LARGE)
        nullity = null_space(build_laplacian(definite_quotient(self))).shape[1]
        return Assumption1Report(nullity, nullity == self.d)


def definite_quotient(g: MatrixWeightedGraph) -> MatrixWeightedGraph:
    """``g`` with each component of its definite (PD/ND) edges merged into
    one node, numbered in the order of their lowest members.  The
    semidefinite edges between two components become one positive edge
    weighted by the sum of their ``|A_e|`` in edge order, numbered in the
    order of their first edge; those inside a component are dropped.  On a
    balanced graph the quotient's Laplacian has the nullity of ``g``'s: a
    gauge-signed kernel vector is constant on each component, where an
    inner edge adds exactly zero.

    Each component is labelled by its lowest member in array passes: every
    edge hooks the larger of its ends' labels to the smaller, then labels
    jump to their labels' labels until none changes, until no edge joins
    two labels."""
    t = g.table
    definite = np.fromiter(map({PD, ND}.__contains__, t.cls), dtype=bool,
                           count=len(t))
    i, j = t.ends[definite].T
    label = np.arange(g.n)
    while True:
        a, b = label[i], label[j]
        if (a == b).all():
            break
        # The labels are roots, so an edge inside one hooks it to itself.
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    # The lowest members label themselves; numbered in their order.
    number = np.cumsum(label == np.arange(g.n)) - 1
    ends = number[label[t.ends]]
    across = np.flatnonzero(ends[:, 0] != ends[:, 1])
    between: dict[tuple[int, int], int] = {}
    group = [between.setdefault((min(a, b), max(a, b)), len(between))
             for a, b in ends[across].tolist()]
    if not between:  # no edge joins two components: nothing to decompose
        return MatrixWeightedGraph(int(number[-1]) + 1, g.d,
                                   EdgeTable.empty(g.d))
    w = np.zeros((len(between), g.d, g.d))
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        np.add.at(w, group, t.abs_weight[across])
        w = linalg.symmetric(w)
    if not np.isfinite(w).all():
        raise GraphFormatError(TOO_LARGE)
    vals, vecs = linalg.sym_eigen(w)
    return MatrixWeightedGraph(int(number[-1]) + 1, g.d, EdgeTable(
        np.array(list(between), dtype=np.int64).reshape(-1, 2), w, vals, vecs,
        linalg.classify_definiteness(vals)))


def build_laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """The graph's block Laplacian (assembled once per graph)."""
    return g.laplacian


def detect_structural_balance(g: MatrixWeightedGraph) -> Optional[np.ndarray]:
    """Two-color the edge-sign graph: read-only +-1 gauge signs with
    ``signs[i] * signs[j] == sgn(A_ij)`` on every edge, or ``None`` when the
    graph is structurally imbalanced.

    A breadth-first walk over ``g.neighbors`` colours each node through the
    edge that reaches it first, whose row it finds with ``g.edge`` and whose
    sign it reads from the table; every edge is then checked at once.
    Balance is decided independently on each connected component; the
    lowest-index node of every component gets +1, which makes the signs
    deterministic.
    """
    color, sign = [0] * g.n, g.table.sign.tolist()
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        queue = [root]
        for u in queue:  # grows while it is walked
            for v in g.neighbors(u):
                if not color[v]:
                    color[v] = color[u] * sign[g.edge(u, v)]
                    queue.append(v)
    signs = np.array(color, dtype=int)
    ends = g.table.ends
    if (signs[ends[:, 0]] * signs[ends[:, 1]] != g.table.sign).any():
        return None
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
    if not np.isfinite(eigenvalues).all():
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
    through which sign-definite weight.  Row ``(i, j)`` of ``table`` couples
    agent ``i`` to input ``j``.  The input count ``m`` is one past the
    largest input index, and each of the m inputs is coupled."""

    table: EdgeTable

    def __post_init__(self):
        _require_table(self.table, "an input coupling")
        t = self.table
        agent, inp = t.ends[:, 0], t.ends[:, 1]
        faults = Faults(len(t))
        faults.refuse(np.flatnonzero((inp < 0).astype(bool)),
                      lambda k: f"coupling references input {inp[k]}")
        seen, repeats = set(), []
        for k, pair in enumerate(map(tuple, t.ends[:faults.limit].tolist())):
            if pair in seen:
                repeats.append(k)
            seen.add(pair)
        faults.refuse(repeats, lambda k: (
            f"duplicate coupling for agent {agent[k]}, input {inp[k]}"))
        faults.refuse(np.flatnonzero(t.sign[:faults.limit] == 0), lambda k: (
            f"coupling ({agent[k]},{inp[k]}) has class {t.cls[k].value}"))
        faults.raise_any()
        coupled = set(inp.tolist())
        if len(coupled) < self.m:
            # The first gap is below len(coupled), so m itself is never walked.
            k = next(k for k in range(self.m) if k not in coupled)
            raise GraphFormatError(f"input {k} of m={self.m} has no coupling")

    @property
    def m(self) -> int:
        inp = self.table.ends[:, 1]
        return 1 + int(inp.max()) if len(inp) else 0

    @classmethod
    def from_entries(cls, entries: Iterable[tuple],
                     d: int) -> "InputCoupling":
        """Build from ``(agent, input, weight[, declared_class])`` tuples."""
        kind = "input coupling"
        return cls(load_edges(d, kind, *_spec_columns(entries, kind)))


def extended_graph(g: MatrixWeightedGraph,
                   coupling: InputCoupling) -> MatrixWeightedGraph:
    """Agents plus input l at node ``n + l``, joined by the coupling edges,
    which follow the graph's own.  A coupling whose weights are not the
    graph's d x d is refused."""
    t, c, d = g.table, coupling.table, g.d
    if c.weight.shape[1:] != (d, d):
        where = (f"edge ({c.ends[0, 0]},{g.n + c.ends[0, 1]})" if len(c)
                 else "empty input coupling")
        raise GraphFormatError(
            f"{where} weight has shape {c.weight.shape[1:]}, "
            f"graph block dimension is {d}")
    return MatrixWeightedGraph(g.n + coupling.m, d, EdgeTable(
        np.concatenate((t.ends, c.ends.astype(np.int64) + [0, g.n])),
        *(np.concatenate((getattr(t, f), getattr(c, f)))
          for f in ("weight", "vals", "vecs", "cls"))))


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
    t = network.table
    total = t.abs_weight[t.ends[:, 1] >= n].sum(axis=0)
    return linalg.classify_definiteness(linalg.sym_eigen(total)[0]) is linalg.PD
