"""S-pair priority queues.

Pair keys are integers, smallest first.  The main structure is the pair
triangle: every new basis element j gets a column holding the row indices
i of its pairs (i, j), sorted by the pair key; the keys themselves are
discarded after sorting, and a small front queue over the per-column
minima yields the global minimum.  Columns store bare integers (16-bit
entries while j < 2^16, 32-bit beyond), so a queued pair costs one
integer plus one materialized key per column.

Two reference queues keep every pair with its key in a single heap or
tournament tree; they trade memory for simplicity and are used for
cross-checking.  The fronts and the reference queues are the term
queue's heap and tournament tree, so each entry is one int, compared
whole: a front entry is key << 32 | j, a reference entry
key << 64 | j << 32 | i.  A pair index reaching 2^32 raises ValueError
before the queue changes.

The queues alone break ties between equal keys: every kind pops pairs
(i, j) in (key, j, i) order, so an engine's key holds no pair index.  A
reference entry sorts so whole; the triangle's front pops the smaller
column first, and a column keeps the rows of one key in the order they
came.  add_column therefore takes its batch in ascending row order i, as
both engines build it.
"""

from __future__ import annotations

from array import array

from .ring import require
from .termqueue import Heap, TourTree

SPAIR_QUEUE_KINDS = ("triangle-tt", "triangle-heap", "heap", "tourtree")
DEFAULT_SPAIR_QUEUE = "triangle-tt"

_U16_LIMIT = 1 << 16

# the width of a pair index field in a packed entry
PAIR_INDEX_BITS = 32


class MinHeap(Heap):
    """Heap of integer keys; the sb engine's Koszul syzygy queue.  A class
    of its own, so that its calls are told apart from other heaps'."""

    __slots__ = ()


def _front(kind):
    return TourTree() if kind == "tourtree" else Heap()


def _check_index(i):
    if i >> PAIR_INDEX_BITS:
        raise ValueError("pair index %d reaches 2^%d" % (i, PAIR_INDEX_BITS))


class PairTriangle:
    """Per-column sorted row lists plus a front queue of column minima.

    key_fn(i, j) recomputes a pair's key on demand; it must be
    deterministic since all keys but the column minimum are discarded.
    """

    __slots__ = ("key_fn", "front", "cols", "queued_bytes", "pairs")

    def __init__(self, key_fn, front: str = "tourtree"):
        self.key_fn = key_fn
        self.front = _front(front)
        self.cols = {}
        self.queued_bytes = 0
        self.pairs = 0

    def __len__(self):
        return self.pairs

    def add_column(self, j: int, pairs) -> None:
        """Register the batch of pairs (i, key) for the new element j, in
        ascending row order i."""
        if not pairs:
            return
        if j in self.cols:
            raise ValueError("column %d already present" % j)
        _check_index(j)
        pairs = sorted(pairs, key=lambda t: t[1])
        # rows kept descending by key so the column minimum pops from the end
        code = "H" if j < _U16_LIMIT else ("I" if array("I").itemsize == 4
                                           else "L")
        col = array(code, [i for i, _ in reversed(pairs)])
        self.cols[j] = col
        self.pairs += len(col)
        self.queued_bytes += len(col) * col.itemsize
        self.front.push(pairs[0][1] << PAIR_INDEX_BITS | j)

    def peek_min_key(self):
        top = self.front.peek()
        return top >> PAIR_INDEX_BITS if top is not None else None

    def pop_min(self):
        top = self.front.peek()
        if top is None:
            return None
        j = top & (1 << PAIR_INDEX_BITS) - 1
        col = self.cols[j]
        i = col.pop()
        self.queued_bytes -= col.itemsize
        self.pairs -= 1
        if col:
            # recompute the successor's key and sink it into the front
            self.front.replace_top(
                self.key_fn(col[-1], j) << PAIR_INDEX_BITS | j)
        else:
            self.front.pop()
            del self.cols[j]
        return (i, j)

    def check_accounting(self):
        cols = self.cols.values()
        require(self.pairs == sum(map(len, cols)) and self.queued_bytes
                == sum(len(col) * col.itemsize for col in cols),
                "pair triangle accounting")
        require(len(self.front) == len(self.cols), "front/column mismatch")
        # each column once, under the key of its minimum pair
        b = PAIR_INDEX_BITS
        mask = (1 << b) - 1
        require(sorted(e & mask for e in self.front) == sorted(self.cols)
                and all(e >> b == self.key_fn(self.cols[e & mask][-1],
                                              e & mask)
                        for e in self.front), "front entry is its column's")
        self.front.audit()


class FlatPairQueue:
    """All pairs individually queued with their keys (heap or tourtree)."""

    __slots__ = ("q",)

    def __init__(self, backend: str = "heap"):
        self.q = _front(backend)

    def __len__(self):
        return len(self.q)

    def add_column(self, j, pairs) -> None:
        if not pairs:
            return
        _check_index(j)
        _check_index(max(i for i, _ in pairs))
        b = PAIR_INDEX_BITS
        self.q.push_run([key << 2 * b | j << b | i for i, key in pairs])

    def peek_min_key(self):
        top = self.q.peek()
        return top >> 2 * PAIR_INDEX_BITS if top is not None else None

    def pop_min(self):
        top = self.q.pop()
        if top is None:
            return None
        mask = (1 << PAIR_INDEX_BITS) - 1
        return (top & mask, top >> PAIR_INDEX_BITS & mask)

    def check_accounting(self):
        self.q.audit()


def make_spair_queue(kind: str, key_fn):
    if kind == "triangle-tt":
        return PairTriangle(key_fn, front="tourtree")
    if kind == "triangle-heap":
        return PairTriangle(key_fn, front="heap")
    if kind in ("heap", "tourtree"):
        return FlatPairQueue(kind)
    raise ValueError("unknown S-pair queue kind %r" % (kind,))
