"""Edges as tables: the stacked weights of one load with their ``eigh``
pairs, classes and signs (:class:`EdgeTable`), views of single edges
(:class:`Edge`), the refusal of the lowest-index faulty row of a stack
(:class:`Faults`), the conversion of a load's weights to one stack
(:func:`weight_stack`), and the checks and CSR neighbour index of a graph's
edges (:func:`index_edges`).

An :class:`Edge` is built only when asked for (in set-up, by the balance
walk alone, for its spanning-tree edges); the tables and the index hold
the per-edge facts as arrays.
:mod:`mwconsensus.mwgraph` loads the tables and builds graphs on them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import GraphFormatError
from .linalg import DefinitenessClass


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


@dataclass(frozen=True, eq=False)
class Edge:
    """Edge (i, j) with a sign-definite ``weight`` and its ``eigen`` pair
    (``linalg.sym_eigen``), from which its class, sign, absolute value and
    the spectrum of that absolute value are read.  All are read-only.  An
    edge of a graph or coupling is a view of one row of its
    :class:`EdgeTable`, handed its class."""

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
        """lambda_max(|weight|)."""
        return float(self.abs_eigen[0][-1])


def _edge(i: int, j: int, weight: np.ndarray,
          eigen: tuple[np.ndarray, np.ndarray], cls: DefinitenessClass) -> Edge:
    """An :class:`Edge` handed the class already read from its spectrum, so
    that it never classifies itself again."""
    e = Edge(i, j, weight, eigen)
    vars(e)["cls"] = cls  # where the cached property keeps its value
    return e


#: Sign of each class: +1, -1, or 0 for a class that is not sign-definite
#: (and for no class).
SIGN_OF = {None: 0, **{c: linalg.matrix_sgn(c) if c.is_sign_definite else 0
                       for c in DefinitenessClass}}


def class_signs(classes) -> np.ndarray:
    """The :data:`SIGN_OF` each of a sequence of classes, as int8."""
    return np.fromiter(map(SIGN_OF.__getitem__, classes), dtype=np.int8,
                       count=len(classes))


def ends_array(pairs) -> np.ndarray:
    """``(E, 2)`` edge ends: int64, or Python ints in an object array where
    one does not fit.  Ends that are not integers are refused."""
    ends = np.array(pairs, dtype=np.int64 if not pairs else None)
    ends = ends.reshape(-1, 2)
    if ends.dtype.kind not in "iub":
        ends = np.array(pairs, dtype=object).reshape(-1, 2)
        for i, j in ends.tolist():
            if not (isinstance(i, numbers.Integral)
                    and isinstance(j, numbers.Integral)):
                raise GraphFormatError(f"edge ({i},{j}): ends must be integers")
    return ends


def abs_stack(sign: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The |A| of a stack of weights with signs ``sign``, each bit-equal to
    its edge's ``abs_weight``."""
    return linalg.symmetric(sign[:, None, None] * weight)


def read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Edges as aligned arrays, all read-only: the ``ends`` ``(E, 2)`` (see
    :func:`ends_array`), the ``weight`` stack ``(E, d, d)``, its ``eigh``
    pair ``vals`` ``(E, d)`` and ``vecs`` ``(E, d, d)``, and ``cls``, an
    ``(E,)`` object array of classes.  Iterating yields :class:`Edge` views
    of the rows."""

    ends: np.ndarray
    weight: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray
    cls: np.ndarray

    def __post_init__(self):
        rows = len(self.ends)
        if self.ends.shape != (rows, 2) or any(
                len(a) != rows for a in (self.weight, self.vals, self.vecs,
                                         self.cls)):
            raise GraphFormatError("edge table arrays must share one row "
                                   "per edge")
        read_only(self.ends, self.weight, self.vals, self.vecs, self.cls)

    @classmethod
    def empty(cls, d: int) -> "EdgeTable":
        return cls(np.zeros((0, 2), dtype=np.int64), np.zeros((0, d, d)),
                   np.zeros((0, d)), np.zeros((0, d, d)),
                   np.zeros(0, dtype=object))

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        return (self.view(k) for k in range(len(self)))

    def view(self, k: int) -> Edge:
        """Row ``k`` as an :class:`Edge` sharing the table's arrays."""
        i, j = self.ends[k].tolist()
        return _edge(i, j, self.weight[k], (self.vals[k], self.vecs[k]),
                     self.cls[k])

    @cached_property
    def sign(self) -> np.ndarray:
        """sgn(A) per edge, int8: +1, -1, or 0 for a class without sign."""
        sign = class_signs(self.cls)
        sign.setflags(write=False)
        return sign

    @cached_property
    def abs_weight(self) -> np.ndarray:
        """The stack of |A| (see :func:`abs_stack`)."""
        return abs_stack(self.sign, self.weight)

    @cached_property
    def abs_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``eigh`` pairs of |A|: each edge's own, negated and
        reversed for a negative class, as :attr:`Edge.abs_eigen`."""
        positive = (self.sign > 0)[:, None]
        vals = np.where(positive, self.vals, -self.vals[:, ::-1])
        vecs = np.where(positive[:, None], self.vecs, self.vecs[:, :, ::-1])
        read_only(vals, vecs)
        return vals, vecs

    @cached_property
    def abs_lambda_max(self) -> np.ndarray:
        """lambda_max(|A|) per edge, which ``mu_bar`` and ``gamma`` read."""
        lam = np.where(self.sign > 0, self.vals[:, -1], -self.vals[:, 0])
        lam.setflags(write=False)
        return lam


class Faults:
    """The refusal of the lowest-index faulty row of a stack.  Each check
    runs on the rows below :attr:`limit`, which passed every check before
    it, so a row is refused for the first check it fails."""

    def __init__(self, limit: int, error: Optional[GraphFormatError] = None,
                 where=None):
        self.limit, self.error, self.where = limit, error, where

    def refuse(self, flagged, message) -> None:
        """Refuse the lowest flagged row, when it is below the limit, in the
        line ``message(k)`` (prefixed by ``where(k)``); it becomes the limit.
        ``flagged`` is a boolean mask over the rows, or row indices."""
        if isinstance(flagged, np.ndarray) and flagged.dtype == bool:
            k = int(np.argmax(flagged)) if flagged.any() else self.limit
        else:
            k = min(flagged, default=self.limit)
        if k < self.limit:
            self.limit = k = int(k)
            line = message(k)
            self.error = GraphFormatError(
                line if self.where is None else f"{self.where(k)}: {line}")

    def raise_any(self) -> None:
        if self.error is not None:
            raise self.error


def weight_stack(raws: list, d: int, faults: Faults) -> np.ndarray:
    """The weights ``raws`` as one ``(E, d, d)`` float stack, converted in
    one call when they are all d*d numbers of one form; otherwise one at a
    time, up to the first that is not, which is refused."""
    try:
        stack = np.array(raws, dtype=float)
        if stack.shape[:1] == (len(raws),) and \
                stack.size == len(raws) * d * d:
            return stack.reshape(-1, d, d)
    except (TypeError, ValueError, OverflowError):
        pass
    arrays = []
    for k, raw in enumerate(raws):
        try:
            arr = float_array(raw, "weight")
        except GraphFormatError as exc:
            faults.refuse([k], lambda k: str(exc))
            break
        if arr.size == d * d:
            arr = arr.reshape(d, d)
        if arr.shape != (d, d):
            faults.refuse([k], lambda k: (f"weight must be {d}x{d}, got "
                                          f"shape {arr.shape}"))
            break
        arrays.append(arr)
    return np.array(arrays).reshape(-1, d, d)


def index_edges(n: int, d: int, edges) -> tuple:
    """The edges of a graph on n nodes with d x d weights, given as an
    :class:`EdgeTable` or as :class:`Edge` objects, checked and indexed:
    ``(table, offsets, slot_neighbor, slot_edge, views)``.  ``table`` has
    its ends in ``(min, max)`` order; for node ``i`` the slots
    ``offsets[i]:offsets[i + 1]`` hold its neighbours (ascending) and the
    edge of each, found with one stable sort; ``views`` holds, per edge, the
    given :class:`Edge` object when its ends are in order, else ``None``.

    A refusal names the lowest-index faulty edge and its first failing
    check, in this order: an end out of range, a self-loop, a weight that is
    not d x d, a pair seen before, and a class without sign.
    """
    given = None if isinstance(edges, EdgeTable) else tuple(edges)
    ends = edges.ends if given is None else \
        ends_array([(e.i, e.j) for e in given])
    i, j = ends[:, 0], ends[:, 1]
    ordered = np.zeros((0, 2), dtype=np.int64)
    key = order = ordered[:, 0]
    cls = edges.cls if given is None else np.zeros(0, dtype=object)
    if len(ends):  # a graph without edges has nothing to check or sort
        faults = Faults(len(ends))
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # Python ints too large for int64 compare to objects.
        faults.refuse(np.asarray((lo < 0) | (hi >= n), dtype=bool),
                      lambda k: f"edge ({i[k]},{j[k]}) out of range for n={n}")
        faults.refuse(np.asarray(lo == hi, dtype=bool),
                      lambda k: f"self-loop at node {i[k]}")
        # A table's rows share one shape: its first row stands for all.
        shapes = [edges.weight.shape[1:]] * min(faults.limit, 1) \
            if given is None else \
            [e.weight.shape for e in given[:faults.limit]]
        faults.refuse([k for k, s in enumerate(shapes) if s != (d, d)],
                      lambda k: (f"edge ({i[k]},{j[k]}) weight has shape "
                                 f"{shapes[k]}, graph block dimension is "
                                 f"{d}"))
        ordered = np.stack((lo, hi), axis=1)[:faults.limit].astype(np.int64)
        lo, hi = ordered[:, 0], ordered[:, 1]
        # Both arcs of each edge, sorted by (node, neighbour): the CSR
        # index; a repeated pair sorts right after its first edge.
        key = np.concatenate((lo * n + hi, hi * n + lo))
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = key[1:] == key[:-1]
        if repeat.any():
            faults.refuse(order[1:][repeat] % len(lo),
                          lambda k: f"duplicate edge ({i[k]},{j[k]})")
        if given is not None:
            cls = np.array([e.cls for e in given[:faults.limit]],
                           dtype=object)
        sign = edges.sign if given is None else class_signs(cls)
        faults.refuse(sign[:faults.limit] == 0,
                      lambda k: (f"edge ({i[k]},{j[k]}) has class "
                                 f"{cls[k].value}"))
        faults.raise_any()
    table = edges
    if given is not None:
        table = EdgeTable(
            ordered, np.array([e.weight for e in given]).reshape(-1, d, d),
            np.array([e.eigen[0] for e in given]).reshape(-1, d),
            np.array([e.eigen[1] for e in given]).reshape(-1, d, d), cls)
    elif ends.dtype != np.int64 or (i > j).any():
        table = EdgeTable(ordered, table.weight, table.vals, table.vecs,
                          table.cls)
    slot_neighbor, slot_edge = key % max(n, 1), order % max(len(table), 1)
    offsets = np.searchsorted(key, np.arange(n + 1) * n)
    read_only(offsets, slot_neighbor, slot_edge)
    views = [None] * len(table)
    for k, e in enumerate(given or ()):
        # An edge already in (min, max) order is shared, caches and all.
        if (e.i, e.j) == tuple(ordered[k]):
            views[k] = e
    return table, offsets, slot_neighbor, slot_edge, views
