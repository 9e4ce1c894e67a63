"""Edges as tables: the stacked weights of one load with their ``eigh``
pairs, classes and signs (:class:`EdgeTable`), the refusal of the
lowest-index faulty row of a stack (:class:`Faults`), the conversion of a
load's weights to one stack (:func:`weight_stack`), and the checks and CSR
neighbour index of a graph's edges (:func:`index_edges`).

The table is the only edge model: every per-edge fact (class, sign, |A|,
the spectrum of |A| and its largest eigenvalue) is one aligned array, and
an edge is named by its row.
:mod:`mwconsensus.mwgraph` loads the tables and builds graphs on them.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import GraphFormatError


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


def class_signs(classes) -> np.ndarray:
    """The :data:`linalg.CLASS_SIGN` of each of a sequence of classes, as
    int8."""
    return np.fromiter(map(linalg.CLASS_SIGN.__getitem__, classes),
                       dtype=np.int8, count=len(classes))


def ends_array(first, second) -> np.ndarray:
    """``(E, 2)`` edge ends from the columns of first and second ends:
    int64, or Python ints in an object array where one does not fit.  Ends
    that are not integers are refused."""
    columns = (first, second)
    ends = np.array(columns, dtype=None if len(first) else np.int64)
    if ends.dtype.kind not in "iub":
        ends = np.array(columns, dtype=object).reshape(2, -1)
        for i, j in ends.T.tolist():
            if not (isinstance(i, numbers.Integral)
                    and isinstance(j, numbers.Integral)):
                raise GraphFormatError(f"edge ({i},{j}): ends must be integers")
    return np.ascontiguousarray(ends.reshape(2, -1).T)


def read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Edges as aligned arrays, all read-only: the ``ends`` ``(E, 2)`` (see
    :func:`ends_array`), the ``weight`` stack ``(E, d, d)``, its ``eigh``
    pair ``vals`` ``(E, d)`` and ``vecs`` ``(E, d, d)``, and ``cls``, an
    ``(E,)`` object array of classes.  Row ``k`` is edge ``k``."""

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

    @cached_property
    def sign(self) -> np.ndarray:
        """sgn(A) per edge, int8: +1, -1, or 0 for a class without sign."""
        sign = class_signs(self.cls)
        sign.setflags(write=False)
        return sign

    @cached_property
    def abs_weight(self) -> np.ndarray:
        """The stack of |A|: each ``sgn(A) A``, symmetrized."""
        return linalg.symmetric(self.sign[:, None, None] * self.weight)

    @cached_property
    def abs_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``eigh`` pairs of |A|: each edge's own, negated and
        reversed (still ascending) for a negative class."""
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
    one call when they are all d*d numbers of one form (one pass over the
    chained items when each is a flat list of d*d); otherwise one at a time,
    up to the first that is not, which is refused."""
    try:
        if set(map(type, raws)) <= {list} and set(map(len, raws)) <= {d * d}:
            return np.fromiter(itertools.chain.from_iterable(raws), float,
                               count=len(raws) * d * d).reshape(-1, d, d)
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


def index_edges(n: int, d: int, table: EdgeTable) -> tuple:
    """The edge table of a graph on n nodes with d x d weights, checked and
    indexed: ``(table, offsets, slot_neighbor, slot_edge)``.  The returned
    ``table`` has its ends in ``(min, max)`` order; for node ``i`` the slots
    ``offsets[i]:offsets[i + 1]`` hold its neighbours (ascending) and the
    edge of each, found with one stable sort.

    A refusal names the lowest-index faulty edge and its first failing
    check, in this order: an end out of range, a self-loop, a weight that is
    not d x d, a pair seen before, and a class without sign.
    """
    ends = table.ends
    i, j = ends[:, 0], ends[:, 1]
    ordered = np.zeros((0, 2), dtype=np.int64)
    key = order = ordered[:, 0]
    if len(ends):  # a graph without edges has nothing to check or sort
        faults = Faults(len(ends))
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # Python ints too large for int64 compare to objects.
        faults.refuse(np.asarray((lo < 0) | (hi >= n), dtype=bool),
                      lambda k: f"edge ({i[k]},{j[k]}) out of range for n={n}")
        faults.refuse(np.asarray(lo == hi, dtype=bool),
                      lambda k: f"self-loop at node {i[k]}")
        # The rows share one shape: the first row stands for all.
        shape = table.weight.shape[1:]
        faults.refuse([0] if shape != (d, d) else [],
                      lambda k: (f"edge ({i[k]},{j[k]}) weight has shape "
                                 f"{shape}, graph block dimension is {d}"))
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
        faults.refuse(table.sign[:faults.limit] == 0,
                      lambda k: (f"edge ({i[k]},{j[k]}) has class "
                                 f"{table.cls[k].value}"))
        faults.raise_any()
    if ends.dtype != np.int64 or (i > j).any():
        table = EdgeTable(ordered, table.weight, table.vals, table.vecs,
                          table.cls)
    slot_neighbor, slot_edge = key % max(n, 1), order % max(len(table), 1)
    offsets = np.searchsorted(key, np.arange(n + 1) * n)
    read_only(offsets, slot_neighbor, slot_edge)
    return table, offsets, slot_neighbor, slot_edge
