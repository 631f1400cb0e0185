"""Priority queues over the terms of the polynomial being reduced.

Three backends (binary heap, geobucket, tournament tree), each in one of
four flavours: plain, deduplicating, hashed or compressed.  Hashing and
folding apply to uncompressed queues only.  All configurations are
observationally identical: pop_max always returns the order-maximal
monomial with every pending contribution to its coefficient folded
together, skipping monomials whose contributions cancel.

Every flavour works over a MonomialTable, which a run shares between its
queues.  The table interns each product monomial to a small int id, caches
per product mult * poly the row of ids of its terms, and makes an id's
monomial once, at its first nonzero pop.  Backends order entries by their
first field, the id's packed order key:

  plain       (key, c, id), c the term's coefficient; dedup folds
              entries of equal key by adding c
  compressed  (key, c, j, row, coeffs): a cursor at term j of a product,
              c the multiplier's coefficient; it advances by replace-top
  hashed      (key, id), the id's contributions summed unreduced (all
              positive, p < 2^31) in the queue's own list indexed by id.
              An id enters the backend when its sum goes from zero to
              pending, so a pushed term costs one list read and one list
              write.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import islice

from .ring import Ring

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


class MaxHeap:
    """Binary max-heap, root at index 1, hole-based pop, native replace-top."""

    __slots__ = ("a", "fold", "p")

    def __init__(self, fold=False, p=0):
        self.a = [None]
        self.fold = fold
        self.p = p

    def __len__(self):
        return len(self.a) - 1

    def __iter__(self):
        return iter(self.a[1:])

    def peek(self):
        a = self.a
        return a[1] if len(a) > 1 else None

    def push(self, e):
        a = self.a
        if self.fold and len(a) > 1:
            # fold into the parent slot when the first comparison ties
            par = a[len(a) >> 1]
            if par[0] == e[0]:
                a[len(a) >> 1] = (par[0], (par[1] + e[1]) % self.p) + par[2:]
                return
        a.append(e)
        i = len(a) - 1
        k = e[0]
        while i > 1:
            j = i >> 1
            par = a[j]
            if par[0] >= k:
                break
            a[i] = par
            i = j
        a[i] = e

    def push_run(self, run):
        """Insert a run of entries in descending key order."""
        for e in run:
            self.push(e)

    def pop(self):
        a = self.a
        n = len(a) - 1
        if n == 0:
            return None
        top = a[1]
        last = a.pop()
        n -= 1
        if n:
            # move the hole to a leaf along the larger children, then sift
            # the former last element up from there (~log n comparisons)
            i = 1
            while True:
                l = i << 1
                if l > n:
                    break
                r = l + 1
                c = r if r <= n and a[r][0] > a[l][0] else l
                a[i] = a[c]
                i = c
            k = last[0]
            while i > 1:
                j = i >> 1
                if a[j][0] >= k:
                    break
                a[i] = a[j]
                i = j
            a[i] = last
        return top

    def replace_top(self, e):
        a = self.a
        n = len(a) - 1
        if n == 0:
            raise ValueError("replace_top on empty queue")
        if e[0] > a[1][0]:
            raise ValueError("replace_top key exceeds current max")
        k = e[0]
        i = 1
        while True:
            l = i << 1
            if l > n:
                break
            r = l + 1
            c = r if r <= n and a[r][0] > a[l][0] else l
            if a[c][0] <= k:
                break
            a[i] = a[c]
            i = c
        a[i] = e

    def audit(self):
        a = self.a
        for i in range(2, len(a)):
            assert a[i >> 1][0] >= a[i][0], "heap property"


class Geobucket:
    """Yan-style bucket list; bucket i holds at most 4 * 4^i entries."""

    __slots__ = ("buckets", "fold", "p", "heads")

    def __init__(self, fold=False, p=0):
        self.buckets = []       # each ascending by key (max at the end)
        self.fold = fold
        self.p = p
        self.heads = []         # heap of (-last key, index), nonempty buckets

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
        """Insert a run of entries in descending key order."""
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
        heads = self.heads = [(-b[-1][0], j)
                              for j, b in enumerate(self.buckets) if b]
        heapify(heads)

    def _merge(self, x, y):
        out = []
        push = out.append
        fold = self.fold
        p = self.p
        i = j = 0
        nx, ny = len(x), len(y)
        while i < nx and j < ny:
            a, b = x[i], y[j]
            if a[0] < b[0]:
                push(a)
                i += 1
            elif a[0] > b[0]:
                push(b)
                j += 1
            elif fold:
                push((a[0], (a[1] + b[1]) % p) + a[2:])
                i += 1
                j += 1
            else:
                push(a)
                i += 1
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
            heapreplace(heads, (-b[-1][0], i))
        else:
            heappop(heads)
        return e

    def replace_top(self, e):
        top = self.peek()
        if top is None:
            raise ValueError("replace_top on empty queue")
        if e[0] > top[0]:
            raise ValueError("replace_top key exceeds current max")
        self.pop()
        self.push(e)

    def audit(self):
        heads = self.heads
        assert sorted(heads) == sorted((-b[-1][0], i)
                                       for i, b in enumerate(self.buckets)
                                       if b), "bucket heads"
        for j in range(1, len(heads)):
            assert heads[(j - 1) >> 1] <= heads[j], "head heap"
        for i, b in enumerate(self.buckets):
            assert len(b) <= self._cap(i), "geobucket capacity"
            for j in range(1, len(b)):
                assert b[j - 1][0] <= b[j][0], "bucket sortedness"


class MaxTourTree:
    """Tournament tree in an array; interior nodes name their winning leaf.

    Winner replacement replays one root path, a single comparison per
    level, which makes replace-top cheap.
    """

    __slots__ = ("cap", "leaves", "inner", "free", "size", "fold", "p")

    def __init__(self, fold=False, p=0):
        self.cap = 2
        self.leaves = [None, None]
        self.inner = [0, 0]     # inner[1] = winning leaf index of the root
        self.free = [1, 0]
        self.size = 0
        self.fold = fold
        self.p = p

    def __len__(self):
        return self.size

    def __iter__(self):
        return (e for e in self.leaves if e is not None)

    def _grow(self):
        old = [e for e in self.leaves if e is not None]
        self.cap *= 2
        self.leaves = [None] * self.cap
        for i, e in enumerate(old):
            self.leaves[i] = e
        self.free = list(range(self.cap - 1, len(old) - 1, -1))
        self.inner = [0] * self.cap
        for leaf in range(0, self.cap, 2):
            self._replay_path(leaf)

    def push(self, e):
        if not self.free:
            self._grow()
        leaf = self.free.pop()
        self.leaves[leaf] = e
        self.size += 1
        self._replay_path(leaf)

    def push_run(self, run):
        """Insert a run of entries in descending key order."""
        for e in run:
            self.push(e)

    def peek(self):
        if self.size == 0:
            return None
        return self.leaves[self.inner[1]]

    def pop(self):
        if self.size == 0:
            return None
        leaf = self.inner[1]
        e = self.leaves[leaf]
        self.leaves[leaf] = None
        self.free.append(leaf)
        self.size -= 1
        self._replay_path(leaf)
        return e

    def replace_top(self, e):
        if self.size == 0:
            raise ValueError("replace_top on empty queue")
        leaf = self.inner[1]
        if e[0] > self.leaves[leaf][0]:
            raise ValueError("replace_top key exceeds current max")
        self.leaves[leaf] = e
        self._replay_path(leaf)

    def _winner_of(self, pos):
        # interior position -> winning leaf index; leaf positions map directly
        if pos >= self.cap:
            return pos - self.cap
        return self.inner[pos]

    def _replay_path(self, leaf):
        leaves, inner, cap = self.leaves, self.inner, self.cap
        if self.fold:
            sib = leaf ^ 1
            a, b = leaves[leaf], leaves[sib]
            if a is not None and b is not None and a[0] == b[0]:
                lo, hi = (leaf, sib) if leaf < sib else (sib, leaf)
                leaves[lo] = (a[0], (a[1] + b[1]) % self.p) + a[2:]
                leaves[hi] = None
                self.free.append(hi)
                self.size -= 1
        pos = (cap + leaf) >> 1
        while pos >= 1:
            l = pos << 1
            inner[pos] = self._pick(self._winner_of(l), self._winner_of(l + 1))
            pos >>= 1

    def _pick(self, i, j):
        a, b = self.leaves[i], self.leaves[j]
        if a is None:
            return j
        if b is None:
            return i
        return i if a[0] >= b[0] else j

    def audit(self):
        for pos in range(1, self.cap):
            l, r = pos << 1, (pos << 1) + 1
            wl, wr = self._winner_of(l), self._winner_of(r)
            best = self._pick(wl, wr)
            a = self.leaves[self.inner[pos]]
            b = self.leaves[best]
            if a is None:
                assert b is None, "tournament winner"
            else:
                assert b is not None and a[0] == b[0], "tournament winner"


def _make_backend(cfg: QueueConfig, p: int):
    if cfg.backend == "heap":
        return MaxHeap(cfg.dedup, p)
    if cfg.backend == "geobucket":
        return Geobucket(cfg.dedup, p)
    return MaxTourTree(cfg.dedup, p)


class MonomialTable:
    """Product monomials interned to ids, and cached rows of product ids.

    One table serves every queue of a run (an engine, or one interreduce
    or reduced_basis call) and lives as long as it.  Queues keep their
    pending terms to themselves, so a queue abandoned part way leaves
    nothing behind here.
    """

    __slots__ = ("ring", "ids", "keys", "factors", "monos", "rows")

    def __init__(self, ring: Ring):
        self.ring = ring
        self.ids = {}           # order key -> id
        self.keys = []          # id -> order key
        self.factors = []       # id -> (mult, mono) whose product it names
        self.monos = []         # id -> Monomial, or None until it first pops
        # (mult key, poly) -> ids of the terms of mult * poly; polynomials
        # hash and compare by value, so equal products share one row
        self.rows = {}

    def row(self, mult, poly):
        """The ids of the terms of mult * poly, in term order."""
        rk = (mult.key, poly)
        row = self.rows.get(rk)
        if row is None:
            ids = self.ids
            keys = self.keys
            mk = mult.key
            out = []
            for m in poly.monos:
                k = m.key + mk
                t = ids.get(k)
                if t is None:
                    t = ids[k] = len(keys)
                    keys.append(k)
                    self.factors.append((mult, m))
                    self.monos.append(None)
                out.append(t)
            row = self.rows[rk] = tuple(out)
        return row

    def monomial(self, t):
        """The monomial of id t, made at the first call for t."""
        m = self.monos[t]
        if m is None:
            m = self.monos[t] = self.ring.mono_mul(*self.factors[t])
        return m


class ReducerQueue:
    """Facade over one backend implementing the logical term multiset.

    Every flavour takes the ids, keys and monomials of its products from
    table, normally the run's shared MonomialTable; without one the queue
    makes a private table that lives as long as it.
    """

    __slots__ = ("cfg", "p", "backend", "table", "acc")

    def __init__(self, ring: Ring, cfg: QueueConfig | None = None,
                 table: MonomialTable | None = None):
        self.cfg = cfg or QueueConfig()
        self.p = ring.char
        self.backend = _make_backend(self.cfg, self.p)
        self.table = MonomialTable(ring) if table is None else table
        # hashed only: id -> pending unreduced sum, 0 if none
        self.acc = [] if self.cfg.hashed else None

    def __len__(self):
        return len(self.backend)

    def push_product(self, coeff: int, mono, poly, start: int = 0) -> None:
        """Add all terms of (coeff * mono) * poly[start:] to the queue."""
        p = self.p
        coeff %= p
        if not coeff or start >= len(poly):
            return
        table = self.table
        row = table.row(mono, poly)
        tkeys = table.keys
        terms = zip(islice(row, start, None),
                    islice(poly.coeffs, start, None))
        acc = self.acc
        if acc is not None:
            if len(acc) < len(tkeys):
                acc.extend([0] * (len(tkeys) - len(acc)))
            # every contribution is positive, so a zero sum means the id
            # is not pending: it joins the run, in term order
            run = []
            for t, c in terms:
                a = acc[t]
                if a:
                    acc[t] = a + coeff * c
                else:
                    acc[t] = coeff * c
                    run.append((tkeys[t], t))
            if run:
                self.backend.push_run(run)
        elif self.cfg.compressed:
            self.backend.push((tkeys[row[start]], coeff, start, row,
                               poly.coeffs))
        else:
            self.backend.push_run([(tkeys[t], coeff * c % p, t)
                                   for t, c in terms])

    def pop_max(self):
        """Largest pending (coeff, mono) with like terms folded, or None."""
        backend = self.backend
        p = self.p
        acc = self.acc
        if acc is not None:
            # the backend holds each pending id once: its entry is the max
            while True:
                e = backend.pop()
                if e is None:
                    return None
                t = e[1]
                coeff = acc[t] % p
                acc[t] = 0
                if coeff:
                    return (coeff, self.table.monomial(t))
        table = self.table
        tkeys = table.keys
        compressed = self.cfg.compressed
        while True:
            top = backend.peek()
            if top is None:
                return None
            key = top[0]
            t = top[3][top[2]] if compressed else top[2]
            coeff = 0
            while top is not None and top[0] == key:
                if compressed:
                    _, c, j, row, coeffs = top
                    coeff += c * coeffs[j]
                    j += 1
                    if j < len(row):
                        backend.replace_top((tkeys[row[j]], c, j, row,
                                             coeffs))
                    else:
                        backend.pop()
                else:
                    coeff += top[1]
                    backend.pop()
                top = backend.peek()
            coeff %= p
            if coeff:
                return (coeff, table.monomial(t))

    def audit(self):
        """Assert that every entry's key is the table key of its id (for a
        compressed cursor, of the row id it stands at) and that a hashed
        queue's backend holds each pending id once; then audit the
        backend."""
        keys = self.table.keys
        for e in self.backend:
            if self.cfg.compressed:
                _, _, j, row, _ = e
                assert j < len(row), "cursor inside its row"
                t = row[j]
            else:
                t = e[-1]
            assert e[0] == keys[t], "entry key is its id's key"
        if self.acc is not None:
            held = [t for _, t in self.backend]
            assert len(set(held)) == len(held), "one backend entry per id"
            assert set(held) == {t for t, a in enumerate(self.acc) if a}, \
                "pending ids are the backend's"
        self.backend.audit()
