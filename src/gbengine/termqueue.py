"""Priority queues over the terms of the polynomial being reduced.

Three backends (binary heap, geobucket, tournament tree), each in one of
four flavours (FLAVOURS): plain, deduplicating, hashed or compressed.
All configurations are observationally identical: pop_max always returns
the id of the order-maximal monomial with every pending contribution to
its coefficient folded together, skipping monomials whose contributions
cancel.

Every backend is a bare priority queue of ints: it pops the smallest
entry, comparing whole entries, one integer comparison each, and does no
arithmetic on them; the binary heap is the standard library's heapq.
For the S-pair queue's fronts, the heap's and the tournament tree's
replace_top(e) swaps the smallest entry for e, which must not be smaller,
and returns the new smallest.  One ReducerQueue serves every reduction of
a run, and in every flavour it interns each product monomial to a small
int id, caches the row of ids of each product's terms under (lead id,
poly), and makes an id's monomial once, when it interns the id.  It
also packs the id's entry once then:

    (kb + k) << ID_BITS | id

k being the monomial's negated order key (so the smallest entry is the
largest monomial) and kb = key_bound(num_vars), which keeps every entry
non-negative.  Distinct ids have distinct keys, so entries order as keys
do.  A product is pushed as its row and a term pops as its id.  Only
ReducerQueue reduces mod p: the multiplier when a product is pushed, and
each sum as it pops.  What the backend holds per flavour:

  plain, dedup, hashed
              the id's entry; pop_max reads the id back as
              entry & ID_MASK.  The id's contributions are summed
              unreduced (all positive, p < 2^31) in the list acc, one
              slot per id, which starts at zero when the id is interned,
              so a zero sum means not pending.  A push scales the whole
              product with one big-integer multiply of the polynomial's
              packed coefficients (see poly.py), so a pushed term costs a
              list read, an addition and a list write, with no multiply
              in Python.  The flavours differ only in what enters the
              backend: plain pushes every term; dedup pushes every term,
              and the backend drops an entry that meets an equal queued
              entry; hashed pushes an id only when its sum goes from zero
              to pending.  Every entry of an id is the same int, so the
              first to pop drains the sum and any other pops a zero sum,
              which is skipped.
  compressed  id_entry << ID_BITS | head: a chain of cursors that stand
              at one id, head its first.  A cursor [c, j, row, coeffs,
              next] is at term j of a product, c the multiplier's
              coefficient, and stands at id row[j]; next is the index of
              the chain's next cursor, or -1.  Cursors are kept in a list
              that is reset when the queue drains, and a push opens one
              cursor, a chain of its own.  All chains at one id lie below
              (id_entry + 1) << ID_BITS, so pop_max pops them with one
              comparison each, walks each chain to sum and advance its
              cursors, links every advanced cursor into the chain of its
              next id, and pushes one entry per new chain, in one run
              (as Monagan and Pearce chain equal monomials in their
              division heap).

Ids and cursor indices stay below 2^ID_BITS; reaching it raises
ValueError before the queue changes, so no entry can sort wrong.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice

from .ring import Ring, key_bound, require

BACKENDS = ("heap", "geobucket", "tourtree")
FLAVOURS = ("plain", "dedup", "hashed", "compressed")

# the low field of a packed entry: an id, or a compressed cursor's index
ID_BITS = 32
ID_MASK = (1 << ID_BITS) - 1

GEOBUCKET_GROWTH = 4
GEOBUCKET_CAP0 = 4
# bucket i holds at most GEOBUCKET_CAPS[i] entries; 32 buckets hold more
# entries than a list can
GEOBUCKET_CAPS = tuple(GEOBUCKET_CAP0 * GEOBUCKET_GROWTH ** i
                       for i in range(32))

# a free tournament-tree leaf: it loses to every int
EMPTY = float("inf")


@dataclass(frozen=True)
class QueueConfig:
    backend: str = "geobucket"
    flavour: str = "hashed"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError("unknown queue backend %r" % (self.backend,))
        if self.flavour not in FLAVOURS:
            raise ValueError("unknown queue flavour %r" % (self.flavour,))

    def label(self):
        return self.backend + ("" if self.flavour == "plain"
                               else "+" + self.flavour)


def all_queue_configs():
    """Every configuration: each backend in each flavour."""
    return [QueueConfig(backend, flavour)
            for backend in BACKENDS for flavour in FLAVOURS]


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
        self.push_run((e,))

    def push_run(self, run):
        """Insert a run of entries, in any order."""
        a, fold = self.a, self.fold
        for e in run:
            # fold: drop e when its would-be parent slot holds it
            if not (fold and a and a[(len(a) - 1) >> 1] == e):
                heappush(a, e)

    def pop(self):
        a = self.a
        return heappop(a) if a else None

    def replace_top(self, e):
        a = self.a
        if not a:
            raise ValueError("replace_top on empty queue")
        if e < a[0]:
            raise ValueError("replace_top entry below current min")
        heapreplace(a, e)
        return a[0]

    def audit(self):
        a = self.a
        for i in range(1, len(a)):
            require(a[(i - 1) >> 1] <= a[i], "heap property")


class Geobucket:
    """Yan-style bucket list; bucket i holds at most GEOBUCKET_CAPS[i]
    entries."""

    __slots__ = ("buckets", "fold", "heads")

    def __init__(self, fold=False):
        self.buckets = []       # each descending (min at the end)
        self.fold = fold
        self.heads = []         # heap of (last entry, index), nonempty buckets

    def __len__(self):
        return sum(len(b) for b in self.buckets)

    def __iter__(self):
        for b in self.buckets:
            yield from b

    def push(self, e):
        self.push_run([e])

    def push_run(self, run):
        """Insert a run of entries in ascending order."""
        run = run[::-1]
        caps = GEOBUCKET_CAPS
        buckets = self.buckets
        i = 0
        while caps[i] < len(run):
            i += 1
        while len(buckets) <= i:
            buckets.append([])
        b = buckets[i]
        buckets[i] = self._merge(b, run) if b else run
        # cascade overflow into larger buckets
        while len(buckets[i]) > caps[i]:
            if len(buckets) <= i + 1:
                buckets.append([])
            nxt = buckets[i + 1]
            spill = buckets[i]
            buckets[i] = []
            buckets[i + 1] = self._merge(nxt, spill) if nxt else spill
            i += 1
        heads = self.heads = [(b[-1], j) for j, b in enumerate(buckets) if b]
        heapify(heads)

    def _merge(self, x, y):
        # x and y are descending: reversed, they are two ascending runs,
        # which the list sort merges; a fold drops every repeated entry
        out = list({*x, *y}) if self.fold else x + y
        out.sort(reverse=True)
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
            heapreplace(heads, (b[-1], i))
        else:
            heappop(heads)
        return e

    def audit(self):
        heads = self.heads
        require(sorted(heads) == sorted((b[-1], i)
                                        for i, b in enumerate(self.buckets)
                                        if b), "bucket heads")
        for j in range(1, len(heads)):
            require(heads[(j - 1) >> 1] <= heads[j], "head heap")
        for i, b in enumerate(self.buckets):
            require(len(b) <= GEOBUCKET_CAPS[i], "geobucket capacity")
            for j in range(1, len(b)):
                require(b[j - 1] >= b[j], "bucket sortedness")


class TourTree:
    """Tournament tree in one array of 2 * cap leaf indices.

    win[cap + i] = i for leaf i, and for 1 <= n < cap win[n] is the leaf
    of the smallest entry below node n, one of its children's winners; so
    win[1] is the winner's leaf, which holds EMPTY only in an empty tree.
    Free leaves hold EMPTY and are listed in free.  Every node on the
    winner's path names the winner, so a pop or a replace-top replays that
    path against the sibling subtrees' winners only, one comparison per
    level; a push climbs from its leaf only while it beats a node's
    winner.
    """

    __slots__ = ("cap", "leaves", "win", "free", "fold")

    def __init__(self, fold=False):
        self.cap = 2
        self.leaves = [EMPTY, EMPTY]
        self.win = [0, 0, 0, 1]
        self.free = [1, 0]
        self.fold = fold

    def __len__(self):
        return self.cap - len(self.free)

    def __iter__(self):
        return (e for e in self.leaves if e is not EMPTY)

    def _grow(self):
        # the old tree, full, becomes the new root's left subtree with no
        # replay: its node n at depth d is node n + 2^d, so leaf i keeps
        # its index; every node of the new right half has only free leaves
        # below it, and the leftmost of them stands as its winner
        old = self.cap
        cap = self.cap = 2 * old
        self.leaves += [EMPTY] * old
        self.free = list(range(cap - 1, old - 1, -1))
        win, d = [0, 0], 1
        while d <= old:
            win += self.win[d:2 * d]
            win += range(old, cap, old // d)
            d *= 2
        win[1] = win[2]
        self.win = win

    def _replay(self, leaf, e):
        """Put e (EMPTY to free it) at leaf, the winner, and replay its
        path: each node's winner is the smaller of the path's winner so far
        and the sibling subtree's.  Returns the new winner's entry."""
        leaves, win = self.leaves, self.win
        leaves[leaf] = e
        n = self.cap + leaf
        w = leaf
        while n > 1:
            s = win[n ^ 1]
            x = leaves[s]
            if x < e:
                w, e = s, x
            n >>= 1
            win[n] = w
        return e

    def push(self, e):
        self.push_run((e,))

    def push_run(self, run):
        """Insert a run of entries, in any order."""
        leaves, fold = self.leaves, self.fold
        free, win, cap = self.free, self.win, self.cap
        for e in run:
            if not free:
                self._grow()
                leaves, free = self.leaves, self.free
                win, cap = self.win, self.cap
            leaf = free[-1]
            # fold: drop e when the free leaf's sibling holds it
            if fold and leaves[leaf ^ 1] == e:
                continue
            free.pop()
            # e wins each node up to the first whose winner is no larger;
            # the free leaf still holds EMPTY, so it loses its old matches
            n = (cap + leaf) >> 1
            while n and e < leaves[win[n]]:
                win[n] = leaf
                n >>= 1
            leaves[leaf] = e

    def peek(self):
        e = self.leaves[self.win[1]]
        return None if e is EMPTY else e

    def pop(self):
        leaf = self.win[1]
        e = self.leaves[leaf]
        if e is EMPTY:
            return None
        self.free.append(leaf)
        self._replay(leaf, EMPTY)
        return e

    def replace_top(self, e):
        leaf = self.win[1]
        top = self.leaves[leaf]
        if top is EMPTY:
            raise ValueError("replace_top on empty queue")
        if e < top:
            raise ValueError("replace_top entry below current min")
        return self._replay(leaf, e)

    def audit(self):
        leaves, win, cap = self.leaves, self.win, self.cap
        require(win[cap:] == list(range(cap)), "leaf slots")
        require(sorted(self.free) == [i for i, e in enumerate(leaves)
                                      if e is EMPTY], "free leaves")
        for n in range(1, cap):
            kids = win[2 * n], win[2 * n + 1]
            require(win[n] in kids and leaves[win[n]]
                    == min(leaves[k] for k in kids), "tournament winner")


def _make_backend(cfg: QueueConfig):
    make = (Heap if cfg.backend == "heap" else
            Geobucket if cfg.backend == "geobucket" else TourTree)
    return make(cfg.flavour == "dedup")


class ReducerQueue:
    """The pending terms of the polynomial being reduced, over one backend,
    and the interned product monomials and rows of every reduction of the
    queue's owner (an engine, or one interreduce or reduced_basis call).

    Each reduction drains the queue; a drained queue takes a fresh backend
    and no cursors, and its sums are all zero, while the ids, keys,
    monomials and rows (keyed by (lead id, poly), poly by value) live on.
    """

    __slots__ = ("ring", "cfg", "p", "kb", "backend", "ids", "keys",
                 "monos", "rows", "acc", "cursors")

    def __init__(self, ring: Ring, cfg: QueueConfig | None = None):
        self.ring = ring
        self.cfg = cfg or QueueConfig()
        self.p = ring.char
        self.kb = key_bound(ring.num_vars)
        self.backend = _make_backend(self.cfg)
        # the term order's only reversal: an id's key is its monomial's
        # negated order key, so the min-first backends pop the largest
        self.ids = {}           # key -> id
        self.keys = []          # id -> its entry, (kb + key) << ID_BITS | id
        self.monos = []         # id -> Monomial
        self.rows = {}          # (lead id, poly) -> the product's row
        # id -> pending unreduced sum, 0 if none; compressed cursors carry
        # their multiplier's coefficient instead
        self.acc = None if self.cfg.flavour == "compressed" else []
        self.cursors = []       # compressed: [c, j, row, coeffs, next]

    def row(self, lead, poly, audit=False):
        """The ids of the terms of the multiple of poly (nonzero) whose
        lead term is lead, in term order.  Only a term new to the queue
        needs the multiplier; audit checks the monomials of a cached row
        (InvariantError if stale)."""
        row = self.rows.get((self.ids.get(-lead.key), poly))
        if row is None:
            ids, keys, acc = self.ids, self.keys, self.acc
            kb = self.kb
            mult = None
            nmk = poly.monos[0].key - lead.key    # -(mult key): keys add
            out = []
            for m in poly.monos:
                k = nmk - m.key
                t = ids.get(k)
                if t is None:
                    if mult is None:
                        mult = self.ring.mono_div(lead, poly.monos[0])
                    # checked and made first: a width or cap error leaves
                    # ids, keys, monos and acc in step
                    t = len(keys)
                    if t >> ID_BITS:
                        raise ValueError("reducer queue ids reach 2^%d"
                                         % ID_BITS)
                    self.monos.append(self.ring.mono_mul(mult, m))
                    ids[k] = t
                    keys.append((kb + k) << ID_BITS | t)
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
            cursors = self.cursors
            ci = len(cursors)
            if ci >> ID_BITS:
                raise ValueError("compressed cursors reach 2^%d" % ID_BITS)
            cursors.append([coeff, start, row, poly.coeffs, -1])
            self.backend.push(tkeys[row[start]] << ID_BITS | ci)
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
        if self.cfg.flavour == "hashed":
            # every contribution is positive, so a zero sum means the id
            # is not pending: it joins the run, in term order
            for t, c in terms:
                a = acc[t]
                if a:
                    acc[t] = a + c
                else:
                    acc[t] = c
                    run.append(tkeys[t])
        else:
            for t, c in terms:
                acc[t] += c
                run.append(tkeys[t])
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
                t = e & ID_MASK
                coeff = acc[t] % p
                acc[t] = 0
                if coeff:
                    return (coeff, t)
        tkeys, cursors = self.keys, self.cursors
        bits, mask = ID_BITS, ID_MASK
        pop, peek = backend.pop, backend.peek
        top = peek()
        while top is not None:
            t = top >> bits & mask
            # every chain at id t, and no other, lies below limit
            limit = (top | mask) + 1
            coeff = 0
            heads = {}          # next id -> head of its chain
            while top is not None and top < limit:
                ci = pop() & mask
                while ci >= 0:
                    cursor = cursors[ci]
                    c, j, row, coeffs, nxt = cursor
                    coeff += c * coeffs[j]
                    j += 1
                    if j < len(row):
                        u = row[j]
                        cursor[1] = j
                        cursor[4] = heads.get(u, -1)
                        heads[u] = ci
                    ci = nxt
                top = peek()
            if heads:
                # one entry per chain, ascending as a geobucket run must be
                backend.push_run(sorted([tkeys[u] << bits | ci
                                         for u, ci in heads.items()]))
            coeff %= p
            if coeff:
                return (coeff, t)
            top = peek()
        return self._drained()

    def _drained(self):
        # a fresh backend: a tournament tree would keep the height a large
        # reduction gave it, and replay that many levels per later operation
        self.backend = _make_backend(self.cfg)
        self.cursors = []

    def audit(self):
        """Check that every entry is its id's entry, that the queue keeps
        one sum per id and its backend holds every pending id, a hashed
        backend each pending id once and nothing else; for a compressed
        queue, that each entry's chain names cursors, each in at most one
        chain and once, every one inside its row and at the entry's id.
        Then audit the backend."""
        keys, acc, cursors = self.keys, self.acc, self.cursors
        if acc is None:
            seen = set()
            for e in self.backend:
                ci = e & ID_MASK
                while ci != -1:
                    require(0 <= ci < len(cursors), "entry names a cursor")
                    require(ci not in seen, "each cursor in one chain, once")
                    seen.add(ci)
                    _, j, row, _, ci = cursors[ci]
                    require(j < len(row), "cursor inside its row")
                    require(keys[row[j]] == e >> ID_BITS,
                            "cursor at its entry's id")
        else:
            held = [e & ID_MASK for e in self.backend]
            for e, t in zip(self.backend, held):
                require(t < len(keys) and e == keys[t],
                        "entry is its id's entry")
            require(len(acc) == len(keys), "one sum per id")
            pending = {t for t, a in enumerate(acc) if a}
            if self.cfg.flavour == "hashed":
                require(len(set(held)) == len(held),
                        "one backend entry per id")
                require(set(held) == pending, "pending ids are the backend's")
            else:
                require(pending <= set(held), "pending ids are held")
        self.backend.audit()
