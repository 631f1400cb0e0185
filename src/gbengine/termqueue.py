"""Priority queues over the terms of the polynomial being reduced.

Three backends (binary heap, geobucket, tournament tree), each in one of
four flavours: plain, deduplicating, hashed or compressed.  Hashing and
folding apply to uncompressed queues only.  All configurations are
observationally identical: pop_max always returns the id of the
order-maximal monomial with every pending contribution to its coefficient
folded together, skipping monomials whose contributions cancel.

Every backend is a bare priority queue: it pops the entry of smallest
first field and does no field arithmetic; the binary heap is the standard
library's heapq.  One ReducerQueue serves every reduction of a run, and in
every flavour it interns each product monomial to a small int id, stores
the id's negated order key (so the smallest key is the largest monomial),
caches the row of ids of each product's terms under (lead id, poly), and
makes an id's monomial once, when it interns the id.  A product is pushed
as its row and a term pops as its id.  Only ReducerQueue reduces mod p:
the multiplier when a product is pushed, and each sum as it pops.
Backends order entries by their first field, that key:

  plain, dedup, hashed
              (key, id).  The id's contributions are summed unreduced
              (all positive, p < 2^31) in the list acc, one slot per id,
              which starts at zero when the id is interned, so a zero
              sum means not pending.  A push scales the whole product
              with one big-integer multiply of the polynomial's packed
              coefficients (see poly.py), so a pushed term costs a list
              read, an addition and a list write, with no multiply in
              Python.  The flavours differ only in what enters the
              backend: plain pushes every term; dedup pushes every term,
              and the backend drops an entry that meets an equal queued
              key; hashed pushes an id only when its sum goes from zero
              to pending.  Every entry of an id has the id's key, so the
              first to pop drains the sum and any other pops a zero sum,
              which is skipped.
  compressed  (key, c, j, row, coeffs): a cursor at term j of a product,
              c the multiplier's coefficient; it advances by replace-top

Every field after the key is an int or a tuple of ints, so the heap's
whole-tuple comparisons never fail on equal keys.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice

from .ring import Ring, require

BACKENDS = ("heap", "geobucket", "tourtree")

GEOBUCKET_GROWTH = 4
GEOBUCKET_CAP0 = 4


@dataclass(frozen=True)
class QueueConfig:
    backend: str = "geobucket"
    hashed: bool = True
    dedup: bool = False
    compressed: bool = False

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError("unknown queue backend %r" % (self.backend,))
        if self.hashed and self.dedup:
            # hashing already merges all like terms
            raise ValueError("hashed excludes dedup")
        if self.compressed and (self.hashed or self.dedup):
            # a compressed product is one cursor: no like terms to merge
            raise ValueError("compressed excludes %s"
                             % ("hashed" if self.hashed else "dedup"))

    def label(self):
        flags = [f for f, on in (("hashed", self.hashed), ("dedup", self.dedup),
                                 ("compressed", self.compressed)) if on]
        return "+".join([self.backend] + flags)


def all_queue_configs():
    """Every legal configuration: 3 backends x plain, dedup, hashed and
    compressed."""
    return [QueueConfig(backend, hashed, dedup, compressed)
            for backend in BACKENDS
            for hashed, dedup, compressed in ((False, False, False),
                                              (False, True, False),
                                              (True, False, False),
                                              (False, False, True))]


class Heap:
    """Binary min-heap on heapq."""

    __slots__ = ("a", "fold")

    def __init__(self, fold=False):
        self.a = []
        self.fold = fold

    def __len__(self):
        return len(self.a)

    def __iter__(self):
        return iter(self.a)

    def peek(self):
        a = self.a
        return a[0] if a else None

    def push(self, e):
        a = self.a
        # fold: drop e when its would-be parent slot holds its key
        if self.fold and a and a[(len(a) - 1) >> 1][0] == e[0]:
            return
        heappush(a, e)

    def push_run(self, run):
        """Insert a run of entries in ascending key order."""
        for e in run:
            self.push(e)

    def pop(self):
        a = self.a
        return heappop(a) if a else None

    def replace_top(self, e):
        a = self.a
        if not a:
            raise ValueError("replace_top on empty queue")
        if e[0] < a[0][0]:
            raise ValueError("replace_top key below current min")
        heapreplace(a, e)

    def audit(self):
        # whole entries: heapq orders them so, and no queued entry changes
        a = self.a
        for i in range(1, len(a)):
            require(a[(i - 1) >> 1] <= a[i], "heap property")


class Geobucket:
    """Yan-style bucket list; bucket i holds at most 4 * 4^i entries."""

    __slots__ = ("buckets", "fold", "heads")

    def __init__(self, fold=False):
        self.buckets = []       # each descending by key (min at the end)
        self.fold = fold
        self.heads = []         # heap of (last key, index), nonempty buckets

    def __len__(self):
        return sum(len(b) for b in self.buckets)

    def __iter__(self):
        for b in self.buckets:
            yield from b

    @staticmethod
    def _cap(i):
        return GEOBUCKET_CAP0 * GEOBUCKET_GROWTH ** i

    def push(self, e):
        self.push_run([e])

    def push_run(self, run):
        """Insert a run of entries in ascending key order."""
        run = run[::-1]
        i = 0
        while self._cap(i) < len(run):
            i += 1
        while len(self.buckets) <= i:
            self.buckets.append([])
        b = self.buckets[i]
        self.buckets[i] = self._merge(b, run) if b else run
        # cascade overflow into larger buckets
        while len(self.buckets[i]) > self._cap(i):
            if len(self.buckets) <= i + 1:
                self.buckets.append([])
            nxt = self.buckets[i + 1]
            spill = self.buckets[i]
            self.buckets[i] = []
            self.buckets[i + 1] = self._merge(nxt, spill) if nxt else spill
            i += 1
        heads = self.heads = [(b[-1][0], j)
                              for j, b in enumerate(self.buckets) if b]
        heapify(heads)

    def _merge(self, x, y):
        out = []
        push = out.append
        fold = self.fold
        i = j = 0
        nx, ny = len(x), len(y)
        while i < nx and j < ny:
            a, b = x[i], y[j]
            if a[0] > b[0]:
                push(a)
                i += 1
            elif a[0] < b[0]:
                push(b)
                j += 1
            else:
                # equal keys: a fold keeps only one of the two entries
                push(a)
                i += 1
                if fold:
                    j += 1
        out.extend(x[i:])
        out.extend(y[j:])
        return out

    def peek(self):
        heads = self.heads
        return self.buckets[heads[0][1]][-1] if heads else None

    def pop(self):
        heads = self.heads
        if not heads:
            return None
        i = heads[0][1]
        b = self.buckets[i]
        e = b.pop()
        if b:
            heapreplace(heads, (b[-1][0], i))
        else:
            heappop(heads)
        return e

    def replace_top(self, e):
        top = self.peek()
        if top is None:
            raise ValueError("replace_top on empty queue")
        if e[0] < top[0]:
            raise ValueError("replace_top key below current min")
        self.pop()
        self.push(e)

    def audit(self):
        heads = self.heads
        require(sorted(heads) == sorted((b[-1][0], i)
                                        for i, b in enumerate(self.buckets)
                                        if b), "bucket heads")
        for j in range(1, len(heads)):
            require(heads[(j - 1) >> 1] <= heads[j], "head heap")
        for i, b in enumerate(self.buckets):
            require(len(b) <= self._cap(i), "geobucket capacity")
            for j in range(1, len(b)):
                require(b[j - 1][0] >= b[j][0], "bucket sortedness")


class TourTree:
    """Tournament tree in one array of 2 * cap leaf indices.

    win[cap + i] = i for leaf i, and for 1 <= n < cap win[n] is the leaf
    of the smallest entry below node n (the left one on a tie); so win[1]
    is the winner, and a None there means an empty tree.  Free leaves hold
    None and are listed in free.  Replacing the winner replays one root
    path, a single comparison per level, which makes replace-top cheap.
    """

    __slots__ = ("cap", "leaves", "win", "free", "fold")

    def __init__(self, fold=False):
        self.cap = 2
        self.leaves = [None, None]
        self.win = [0, 0, 0, 1]
        self.free = [1, 0]
        self.fold = fold

    def __len__(self):
        return self.cap - len(self.free)

    def __iter__(self):
        return (e for e in self.leaves if e is not None)

    def _grow(self):
        # the old tree, full, becomes the new root's left subtree with no
        # replay: its node n at depth d is node n + 2^d, so leaf i keeps
        # its index; every node of the new right half has only free leaves
        # below it, and the leftmost of them stands as its winner
        old = self.cap
        cap = self.cap = 2 * old
        self.leaves += [None] * old
        self.free = list(range(cap - 1, old - 1, -1))
        win, d = [0, 0], 1
        while d <= old:
            win += self.win[d:2 * d]
            win += range(old, cap, old // d)
            d *= 2
        win[1] = win[2]
        self.win = win

    def _play(self, n, top=1):
        """Replay the match at node n and at each ancestor up to node top
        (n alone when top is n): the smaller key wins, the left on a tie."""
        leaves, win = self.leaves, self.win
        while n >= top:
            i, j = win[2 * n], win[2 * n + 1]
            a, b = leaves[i], leaves[j]
            win[n] = j if a is None or b is not None and b[0] < a[0] else i
            n >>= 1

    def _set(self, leaf, e):
        """Put e (None to free the leaf) at leaf and replay its path."""
        self.leaves[leaf] = e
        self._play((self.cap + leaf) >> 1)

    def push(self, e):
        if not self.free:
            self._grow()
        leaf = self.free[-1]
        # fold: drop e when the free leaf's sibling holds its key
        sib = self.leaves[leaf ^ 1]
        if self.fold and sib is not None and sib[0] == e[0]:
            return
        self._set(self.free.pop(), e)

    push_run = Heap.push_run

    def peek(self):
        return self.leaves[self.win[1]]

    def pop(self):
        leaf = self.win[1]
        e = self.leaves[leaf]
        if e is not None:
            self.free.append(leaf)
            self._set(leaf, None)
        return e

    def replace_top(self, e):
        leaf = self.win[1]
        top = self.leaves[leaf]
        if top is None:
            raise ValueError("replace_top on empty queue")
        if e[0] < top[0]:
            raise ValueError("replace_top key below current min")
        self._set(leaf, e)

    def audit(self):
        leaves, win, cap = self.leaves, self.win, self.cap
        require(win[cap:] == list(range(cap)), "leaf slots")
        require(sorted(self.free) == [i for i, e in enumerate(leaves)
                                      if e is None], "free leaves")

        def key(n):
            e = leaves[win[n]]
            return None if e is None else e[0]

        for n in range(1, cap):
            kids = [k for k in (key(2 * n), key(2 * n + 1)) if k is not None]
            require(key(n) == min(kids, default=None), "tournament winner")


def _make_backend(cfg: QueueConfig):
    if cfg.backend == "heap":
        return Heap(cfg.dedup)
    if cfg.backend == "geobucket":
        return Geobucket(cfg.dedup)
    return TourTree(cfg.dedup)


class ReducerQueue:
    """The pending terms of the polynomial being reduced, over one backend,
    and the interned product monomials and rows of every reduction of the
    queue's owner (an engine, or one interreduce or reduced_basis call).

    Each reduction drains the queue; a drained queue takes a fresh backend
    and its sums are all zero, while the ids, keys, monomials and rows
    (keyed by (lead id, poly), poly by value) live on.
    """

    __slots__ = ("ring", "cfg", "p", "backend", "ids", "keys", "monos",
                 "rows", "acc")

    def __init__(self, ring: Ring, cfg: QueueConfig | None = None):
        self.ring = ring
        self.cfg = cfg or QueueConfig()
        self.p = ring.char
        self.backend = _make_backend(self.cfg)
        # the term order's only reversal: an id's key is its monomial's
        # negated order key, so the min-first backends pop the largest
        self.ids = {}           # key -> id
        self.keys = []          # id -> key
        self.monos = []         # id -> Monomial
        self.rows = {}          # (lead id, poly) -> the product's row
        # id -> pending unreduced sum, 0 if none; compressed cursors carry
        # their multiplier's coefficient instead
        self.acc = None if self.cfg.compressed else []

    def row(self, lead, poly, audit=False):
        """The ids of the terms of the multiple of poly (nonzero) whose
        lead term is lead, in term order.  Only a term new to the queue
        needs the multiplier; audit checks the monomials of a cached row
        (InvariantError if stale)."""
        row = self.rows.get((self.ids.get(-lead.key), poly))
        if row is None:
            ids, keys, acc = self.ids, self.keys, self.acc
            mult = None
            nmk = poly.monos[0].key - lead.key    # -(mult key): keys add
            out = []
            for m in poly.monos:
                k = nmk - m.key
                t = ids.get(k)
                if t is None:
                    if mult is None:
                        mult = self.ring.mono_div(lead, poly.monos[0])
                    # made first: a cap error leaves ids, keys, monos and
                    # acc in step
                    self.monos.append(self.ring.mono_mul(mult, m))
                    t = ids[k] = len(keys)
                    keys.append(k)
                    if acc is not None:
                        acc.append(0)
                out.append(t)
            row = self.rows[out[0], poly] = tuple(out)
        elif audit:
            mult = self.ring.mono_div(lead, poly.monos[0])
            require([self.monos[t] for t in row] == [
                self.ring.mono_mul(mult, m) for m in poly.monos],
                "stale cached reducer row")
        return row

    def push_product(self, coeff: int, row, poly, start: int = 0) -> None:
        """Add all terms of coeff * (mult * poly)[start:] to the queue, row
        being the product's row of ids, self.row(lead, poly)."""
        coeff %= self.p
        n = len(poly)
        if not coeff or start >= n:
            return
        tkeys = self.keys
        acc = self.acc
        if acc is None:
            self.backend.push((tkeys[row[start]], coeff, start, row,
                               poly.coeffs))
            return
        # one multiply scales every term: slot i of coeff * packed is
        # coeff * coeffs[i] < 2^62 (p < 2^31), so no slot carries, and
        # to_bytes raises OverflowError rather than truncate; bytes and the
        # 'Q' cast share sys.byteorder, so item i is slot i on either byte
        # order
        scaled = memoryview((coeff * poly.packed).to_bytes(
            8 * n, sys.byteorder)).cast("Q")
        terms = zip(islice(row, start, None), scaled[start:])
        run = []
        if self.cfg.hashed:
            # every contribution is positive, so a zero sum means the id
            # is not pending: it joins the run, in term order
            for t, c in terms:
                a = acc[t]
                if a:
                    acc[t] = a + c
                else:
                    acc[t] = c
                    run.append((tkeys[t], t))
        else:
            for t, c in terms:
                acc[t] += c
                run.append((tkeys[t], t))
        if run:
            self.backend.push_run(run)

    def pop_max(self):
        """Largest pending (coeff, id) with like terms folded, or None; the
        id's monomial is self.monos[id]."""
        backend = self.backend
        p = self.p
        acc = self.acc
        if acc is not None:
            # the top entry's id is the largest pending one, unless its sum
            # is zero: an earlier entry of the id drained it
            while True:
                e = backend.pop()
                if e is None:
                    return self._drained()
                t = e[1]
                coeff = acc[t] % p
                acc[t] = 0
                if coeff:
                    return (coeff, t)
        tkeys = self.keys
        while True:
            top = backend.peek()
            if top is None:
                return self._drained()
            key = top[0]
            t = top[3][top[2]]
            coeff = 0
            while top is not None and top[0] == key:
                _, c, j, row, coeffs = top
                coeff += c * coeffs[j]
                j += 1
                if j < len(row):
                    backend.replace_top((tkeys[row[j]], c, j, row, coeffs))
                else:
                    backend.pop()
                top = backend.peek()
            coeff %= p
            if coeff:
                return (coeff, t)

    def _drained(self):
        # a fresh backend: a tournament tree would keep the height a large
        # reduction gave it, and replay that many levels per later operation
        self.backend = _make_backend(self.cfg)

    def audit(self):
        """Check that every entry's key is the key of its id (for a
        compressed cursor, of the row id it stands at), that the queue keeps
        one sum per id and its backend holds every pending id, a hashed
        backend each pending id once and nothing else; then audit the
        backend."""
        keys, acc = self.keys, self.acc
        for e in self.backend:
            if acc is None:
                _, _, j, row, _ = e
                require(j < len(row), "cursor inside its row")
                t = row[j]
            else:
                t = e[1]
            require(e[0] == keys[t], "entry key is its id's key")
        if acc is not None:
            require(len(acc) == len(keys), "one sum per id")
            held = [t for _, t in self.backend]
            pending = {t for t, a in enumerate(acc) if a}
            if self.cfg.hashed:
                require(len(set(held)) == len(held),
                        "one backend entry per id")
                require(set(held) == pending, "pending ids are the backend's")
            else:
                require(pending <= set(held), "pending ids are held")
        self.backend.audit()
