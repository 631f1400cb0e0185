"""Priority queues over the terms of the polynomial being reduced.

Three backends (binary heap, geobucket, tournament tree), each optionally
hashed, deduplicating and/or compressed.  All configurations are
observationally identical: pop_max always returns the order-maximal
monomial with every pending contribution to its coefficient folded
together, skipping monomials whose contributions cancel.

Backend entries are small tuples ordered by entry[0], the packed integer
order key of the entry's current monomial:

  (key, coeff, mono)                       plain term
  (key, mult_mono, poly, term_index)       hashed marker (coeff in table)
  (key, mult_coeff, mult_mono, poly, nxt)  compressed product; the current
                                           term is poly.terms[nxt - 1]

Compressed entries advance to their next term via replace-top.  In hashed
mode a side table keyed by the packed monomial key folds coefficients of
like terms, so the backend holds each pending monomial at most once (plus
any compressed entries currently parked on it).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def label(self):
        flags = [f for f, on in (("hashed", self.hashed), ("dedup", self.dedup),
                                 ("compressed", self.compressed)) if on]
        return "+".join([self.backend] + flags)


def all_queue_configs():
    """Every legal configuration (3 backends x 6 flag combinations)."""
    out = []
    for backend in BACKENDS:
        for hashed in (False, True):
            for dedup in (False, True):
                if hashed and dedup:
                    continue
                for compressed in (False, True):
                    out.append(QueueConfig(backend, hashed, dedup, compressed))
    return out


class MaxHeap:
    """Binary max-heap, root at index 1, hole-based pop, native replace-top."""

    __slots__ = ("a", "dedup", "p")

    def __init__(self, dedup=False, p=0):
        self.a = [None]
        self.dedup = dedup
        self.p = p

    def __len__(self):
        return len(self.a) - 1

    def peek(self):
        a = self.a
        return a[1] if len(a) > 1 else None

    def push(self, e):
        a = self.a
        if self.dedup and len(a) > 1 and len(e) == 3:
            # fold into the parent slot when the first comparison ties
            par = a[len(a) >> 1] if len(a) > 1 else None
            if par is not None and par[0] == e[0] and len(par) == 3:
                a[len(a) >> 1] = (par[0], (par[1] + e[1]) % self.p, par[2])
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

    __slots__ = ("buckets", "dedup", "p", "top")

    def __init__(self, dedup=False, p=0):
        self.buckets = []       # each ascending by key (max at the end)
        self.dedup = dedup
        self.p = p
        self.top = None         # index of the maximal bucket (-1: empty),
                                # None when a push or pop may have moved it

    def __len__(self):
        return sum(len(b) for b in self.buckets)

    @staticmethod
    def _cap(i):
        return GEOBUCKET_CAP0 * GEOBUCKET_GROWTH ** i

    def push(self, e):
        self.push_run([e])

    def push_run(self, run):
        """Insert an ascending-by-key run of entries."""
        self.top = None
        i = 0
        while self._cap(i) < len(run):
            i += 1
        while len(self.buckets) <= i:
            self.buckets.append([])
        b = self.buckets[i]
        self.buckets[i] = self._merge(b, run) if b else list(run)
        # cascade overflow into larger buckets
        while len(self.buckets[i]) > self._cap(i):
            if len(self.buckets) <= i + 1:
                self.buckets.append([])
            nxt = self.buckets[i + 1]
            spill = self.buckets[i]
            self.buckets[i] = []
            self.buckets[i + 1] = self._merge(nxt, spill) if nxt else spill
            i += 1

    def _merge(self, x, y):
        out = []
        push = out.append
        dedup = self.dedup
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
            elif dedup and len(a) == 3 and len(b) == 3:
                push((a[0], (a[1] + b[1]) % p, a[2]))
                i += 1
                j += 1
            else:
                push(a)
                i += 1
        out.extend(x[i:])
        out.extend(y[j:])
        return out

    def _top_bucket(self):
        best = self.top
        if best is None:
            best = -1
            best_key = None
            for i, b in enumerate(self.buckets):
                if b and (best_key is None or b[-1][0] > best_key):
                    best = i
                    best_key = b[-1][0]
            self.top = best
        return best

    def peek(self):
        i = self._top_bucket()
        return self.buckets[i][-1] if i >= 0 else None

    def pop(self):
        i = self._top_bucket()
        if i < 0:
            return None
        self.top = None
        return self.buckets[i].pop()

    def replace_top(self, e):
        top = self.peek()
        if top is None:
            raise ValueError("replace_top on empty queue")
        if e[0] > top[0]:
            raise ValueError("replace_top key exceeds current max")
        self.pop()
        self.push(e)

    def audit(self):
        if self.top is not None:
            top = self.top
            self.top = None
            assert self._top_bucket() == top, "cached top bucket"
        for i, b in enumerate(self.buckets):
            assert len(b) <= self._cap(i), "geobucket capacity"
            for j in range(1, len(b)):
                assert b[j - 1][0] <= b[j][0], "bucket sortedness"


class MaxTourTree:
    """Tournament tree in an array; interior nodes name their winning leaf.

    Winner replacement replays one root path, a single comparison per
    level, which makes replace-top cheap.
    """

    __slots__ = ("cap", "leaves", "inner", "free", "size", "dedup", "p")

    def __init__(self, dedup=False, p=0):
        self.cap = 2
        self.leaves = [None, None]
        self.inner = [0, 0]     # inner[1] = winning leaf index of the root
        self.free = [1, 0]
        self.size = 0
        self.dedup = dedup
        self.p = p

    def __len__(self):
        return self.size

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
        if self.dedup:
            sib = leaf ^ 1
            a, b = leaves[leaf], leaves[sib]
            if (a is not None and b is not None and a[0] == b[0]
                    and len(a) == 3 and len(b) == 3):
                lo, hi = (leaf, sib) if leaf < sib else (sib, leaf)
                leaves[lo] = (a[0], (a[1] + b[1]) % self.p, a[2])
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
    dedup = cfg.dedup
    if cfg.backend == "heap":
        return MaxHeap(dedup, p)
    if cfg.backend == "geobucket":
        return Geobucket(dedup, p)
    return MaxTourTree(dedup, p)


class ReducerQueue:
    """Facade over one backend implementing the logical term multiset."""

    __slots__ = ("ring", "cfg", "p", "backend", "table")

    def __init__(self, ring: Ring, cfg: QueueConfig | None = None):
        self.ring = ring
        self.cfg = cfg or QueueConfig()
        self.p = ring.char
        self.backend = _make_backend(self.cfg, self.p)
        self.table = {} if self.cfg.hashed else None

    def __len__(self):
        return len(self.backend)

    def push_product(self, coeff: int, mono, poly, start: int = 0) -> None:
        """Add all terms of (coeff * mono) * poly[start:] to the queue."""
        p = self.p
        coeff %= p
        if not coeff or start >= len(poly):
            return
        coeffs, keys, monos = poly.arrays()
        mk = mono.key
        if self.cfg.compressed:
            self.backend.push((mk + keys[start], coeff, mono, poly, start + 1))
            if self.table is not None:
                k = mk + keys[start]
                self.table[k] = self.table.get(k, 0) + coeff * coeffs[start]
            return
        tbl = self.table
        mul = self.ring.mono_mul
        if tbl is not None:
            # coefficients accumulate unreduced (all positive, p < 2^31;
            # they are taken mod p when the monomial pops)
            fresh = []
            get = tbl.get
            for i in range(start, len(keys)):
                k = mk + keys[i]
                got = get(k)
                if got is None:
                    tbl[k] = coeff * coeffs[i]
                    fresh.append((k, mono, poly, i))  # marker; mono made at pop
                else:
                    tbl[k] = got + coeff * coeffs[i]
            if fresh:
                if self.cfg.backend == "geobucket":
                    fresh.reverse()
                    self.backend.push_run(fresh)
                else:
                    push = self.backend.push
                    for e in fresh:
                        push(e)
            return
        if self.cfg.backend == "geobucket":
            run = [(mk + keys[i], coeff * coeffs[i] % p, mul(mono, monos[i]))
                   for i in range(len(keys) - 1, start - 1, -1)]
            self.backend.push_run(run)
            return
        push = self.backend.push
        for i in range(start, len(keys)):
            push((mk + keys[i], coeff * coeffs[i] % p, mul(mono, monos[i])))

    def pop_max(self):
        """Largest pending (coeff, mono) with like terms folded, or None."""
        backend = self.backend
        tbl = self.table
        p = self.p
        mul = self.ring.mono_mul
        while True:
            top = backend.peek()
            if top is None:
                return None
            key = top[0]
            coeff = tbl.pop(key) % p if tbl is not None else 0
            mono = None
            recipe = None
            while top is not None and top[0] == key:
                n = len(top)
                if n == 5:  # compressed product entry
                    _, mc, mm, g, nxt = top
                    gcoeffs, gkeys, gmonos = g.arrays()
                    if tbl is None:
                        coeff = (coeff + mc * gcoeffs[nxt - 1]) % p
                    if mono is None:
                        recipe = (mm, gmonos[nxt - 1])
                    if nxt < len(gkeys):
                        nk = mm.key + gkeys[nxt]
                        if tbl is not None:
                            tbl[nk] = tbl.get(nk, 0) + mc * gcoeffs[nxt]
                        backend.replace_top((nk, mc, mm, g, nxt + 1))
                    else:
                        backend.pop()
                elif n == 4:  # hashed marker
                    if mono is None:
                        _, mm, g, ti = top
                        recipe = (mm, g.arrays()[2][ti])
                    backend.pop()
                else:  # plain term
                    if tbl is None:
                        coeff = (coeff + top[1]) % p
                    mono = top[2]
                    backend.pop()
                top = backend.peek()
            if coeff:
                if mono is None:
                    mono = mul(recipe[0], recipe[1])
                return (coeff, mono)
