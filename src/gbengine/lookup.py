"""Divisor-query structures over a dynamic monomial set.

Four interchangeable variants answer "which stored monomials divide q":

* kdtree      - binary tree whose interior nodes hold a pure power x_i^k;
                the right subtree holds exactly the multiples of x_i^k
                (DEFAULT_LOOKUP)
* divkdtree   - kd-tree whose nodes carry the AND of their subtree's
                masks, pruning whole subtrees at once
* list        - scan every entry: a kd-tree whose one leaf never splits
* divlist     - the same scan with a 32-bit divmask pre-filter per entry

The default carries no divmasks.  Each record is tested by one
subtraction on packed exponent words (ring.word_divides), about what the
mask test that would skip it costs, so the masks' own work (a mask per
query, a mask test and a count per record) no longer pays for itself.
The divmask variants stay selectable as the axis the paper studies.

A retire unlinks its record from its leaf at once, so the leaves hold
exactly the live entries.  A rebuild rebalances the tree and recalibrates
the divmap so masks always fit the current contents.

Queries: every query takes a monomial's packed exponent word, and answers
are stored by that word.  find_divisor returns one divisor's payload id
or None, find_all_divisors every divisor's.  Only _find_all_divisors, the
full query past the stored answers, takes a Monomial, because acceptance
criterion 9 (divmask soundness) calls it with one.  Everything works on
words: a kd node keeps the word field of its variable and the word of
its pure power x_i^k, so a monomial of word w goes right exactly when
w & field >= power, and each scanned record is tested by its word.  The
exponents are read back off a word (Ring.exps_of) only to compute a
divmask.  find_divisor keeps its answers until the next insert, retire
or rebuild.

Answers of find_all_divisors outlive inserts: a repeated query scans only
the entries inserted since its answer was made, and only a retire drops
the stored answers.  Each answer keeps the query's divmask, so bringing it
up to date computes no mask unless a rebuild has recalibrated the divmap
since.  The divmask counters (DivmaskStats hits, misses and
divisibilities) count the mask consultations actually made, so they
depend on the lookup kind and on this reuse; they are not part of any
result.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import getitem

from .ring import MAX_EXPONENT, Monomial, Ring, require, word_divides

MASK_BITS = 32
DEFAULT_LEAF_CAPACITY = 32
REBUILD_CHURN_RATIO = 0.5

LOOKUP_KINDS = ("list", "divlist", "kdtree", "divkdtree")
DEFAULT_LOOKUP = "kdtree"


class DivMap:
    """32 pure-power bit predicates x_i >= t, derived from a monomial set.

    Bits are spread round-robin over the first min(32, num_vars)
    variables; each variable's thresholds are evenly spaced strictly
    between its min and max exponent in the calibration set (the average
    of min and max when the variable gets a single bit).

    entries[b] = (i, t) is bit b.  For mask_of, each variable i keeps its
    thresholds sorted and the OR of the bits of every prefix of them: the
    bits set by exponent e are the prefix of length bisect_right(ts, e).
    """

    __slots__ = ("entries", "_thresholds", "_prefixes")

    def __init__(self, entries):
        self.entries = tuple(entries)
        nv = 1 + max((i for i, _ in self.entries), default=-1)
        per_var = [[] for _ in range(nv)]
        for b, (i, t) in enumerate(self.entries):
            per_var[i].append((t, 1 << b))
        self._thresholds = []
        self._prefixes = []
        for bits in per_var:
            bits.sort()
            prefix = [0]
            for _, bit in bits:
                prefix.append(prefix[-1] | bit)
            self._thresholds.append(tuple(t for t, _ in bits))
            self._prefixes.append(tuple(prefix))

    @classmethod
    def trivial(cls, ring: Ring):
        nv = min(MASK_BITS, ring.num_vars)
        return cls([(b % nv, 1) for b in range(MASK_BITS)])

    @classmethod
    def calibrate(cls, ring: Ring, monomials) -> "DivMap":
        monomials = list(monomials)
        if not monomials:
            raise ValueError("cannot calibrate a divmap from an empty set")
        nv = min(MASK_BITS, ring.num_vars)
        cols = list(zip(*[m.exps for m in monomials]))[:nv]
        lo, hi = list(map(min, cols)), list(map(max, cols))
        per_var = [0] * nv
        for b in range(MASK_BITS):
            per_var[b % nv] += 1
        entries = []
        for i in range(nv):
            c = per_var[i]
            span = hi[i] - lo[i]
            for j in range(c):
                # one bit: floor((lo+hi)/2); several: evenly spaced in between
                entries.append((i, lo[i] + span * (j + 1) // (c + 1)))
        return cls(entries)

    def mask_of(self, exps) -> int:
        """Divmask of an exponent vector (a Monomial iterates as one)."""
        # the variables own disjoint bits, so the sum is their OR
        return sum(map(getitem, self._prefixes,
                       map(bisect_right, self._thresholds, exps)))


def may_divide(a_mask: int, b_mask: int) -> bool:
    """False guarantees the monomial behind a_mask does not divide b's."""
    return not (a_mask & ~b_mask)


class DivmaskStats:
    """Accounting of one structure's queries.

    hits, misses and divisibilities count mask consultations.  reused,
    extended and computed count the answers given: returned as stored,
    stored but brought up to date over the entries inserted since, or
    computed by a full query.
    """

    __slots__ = ("hits", "misses", "divisibilities",
                 "reused", "extended", "computed")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.divisibilities = 0
        self.reused = 0
        self.extended = 0
        self.computed = 0

    @property
    def consultations(self):
        return self.hits + self.misses + self.divisibilities

    def hit_rate(self):
        d = self.hits + self.misses
        return self.hits / d if d else 0.0

    def effective_hit_rate(self):
        d = self.consultations
        return self.hits / d if d else 0.0


# Entry record layout: [mono, payload-id, mask, word], word being mono's
# exponent word.
_MONO, _PID, _MASK, _WORD = range(4)


def _scan(recs, qg, guard, notq, stats, out, first_only):
    """Append to out the payload ids of the records in recs dividing
    the monomial whose exponent word with the guard bits set is qg (the
    test is word_divides, inlined); notq is the complement of its mask
    (None: no masks, and nothing is counted)."""
    if notq is None:
        for rec in recs:
            if (qg - rec[_WORD]) & guard == guard:
                out.append(rec[_PID])
                if first_only:
                    break
        return out
    for rec in recs:
        if rec[_MASK] & notq:
            stats.hits += 1
            continue
        if (qg - rec[_WORD]) & guard == guard:
            stats.divisibilities += 1
            out.append(rec[_PID])
            if first_only:
                break
        else:
            stats.misses += 1
    return out


class _KdNode:
    __slots__ = ("var", "field", "power", "left", "right", "mask")

    def __init__(self, var, field, power, left, right, mask):
        self.var = var
        self.field = field    # x_var's field of an exponent word
        self.power = power    # word of the pure power x_var^k
        self.left = left      # entries NOT divisible by x_var^k
        self.right = right    # entries divisible by x_var^k
        self.mask = mask      # AND of the subtree's masks (divmask variant)


class KdLookup:
    """Kd-tree over exponent vectors, leaves split on pure powers."""

    def __init__(self, ring, use_masks=False,
                 leaf_capacity=DEFAULT_LEAF_CAPACITY):
        self.ring = ring
        self.use_masks = use_masks
        self.divmap = DivMap.trivial(ring) if use_masks else None
        self.stats = DivmaskStats()
        self.by_id = {}          # payload id -> record, live entries only
        self.churn = 0
        # Query answers, both keyed by the query's exponent word.  Callers
        # must not mutate returned lists.  find_divisor answers are dropped
        # by any mutation.  A find_all_divisors answer is stored as (stamp,
        # list, notq, divmap), stamp being len(self._log) when it was made;
        # _log holds the records inserted since the last retire, so the
        # answer is brought up to date by scanning _log[stamp:] with notq,
        # the query's complemented mask, unless a rebuild has replaced the
        # divmap it was made under.  A retire drops both.
        self._one_cache = {}
        self._all_cache = {}
        self._log = []
        self.leaf_capacity = leaf_capacity
        self.root = []           # a leaf is its list of records

    def find_divisor(self, word: int):
        """Payload id of one live entry dividing the monomial whose
        exponent word is word, or None."""
        cache = self._one_cache
        if word in cache:
            self.stats.reused += 1
            return cache[word]
        self.stats.computed += 1
        found = self._query(word, self._notq(word), True)
        out = cache[word] = found[0] if found else None
        return out

    def find_all_divisors(self, word: int):
        """Payload ids of every live entry dividing the monomial whose
        exponent word is word."""
        log = self._log
        got = self._all_cache.get(word)
        if got is None:
            self.stats.computed += 1
            notq = self._notq(word)
            out = self._query(word, notq, False)
        else:
            stamp, out, notq, divmap = got
            if stamp == len(log):
                self.stats.reused += 1
                return out
            self.stats.extended += 1
            if divmap is not self.divmap:
                notq = self._notq(word)
            guard = self.ring.guard
            new = _scan(log[stamp:], word | guard, guard, notq,
                        self.stats, [], False)
            if new:
                out = out + new
        self._all_cache[word] = (len(log), out, notq, self.divmap)
        return out

    def _find_all_divisors(self, q: Monomial):
        """A full query, bypassing the stored answers."""
        return self._query(q.word, self._notq(q.word), False)

    def _notq(self, word):
        """Complement of the divmask of an exponent word, or None without
        masks."""
        if not self.use_masks:
            return None
        return ~self.divmap.mask_of(self.ring.exps_of(word))

    def __len__(self):
        return len(self.by_id)

    def entries(self):
        """Live (mono, payload) pairs, in no particular order."""
        for rec in self.by_id.values():
            yield rec[_MONO], rec[_PID]

    def _new_record(self, mono, pid):
        if pid in self.by_id:
            raise ValueError("payload id %r already present" % (pid,))
        mask = (self.divmap.mask_of(self.ring.exps_of(mono.word))
                if self.use_masks else 0)
        rec = [mono, pid, mask, mono.word]
        self.by_id[pid] = rec
        self.churn += 1
        if self._one_cache:
            self._one_cache = {}
        self._log.append(rec)
        return rec

    def retire(self, pid) -> None:
        """Unlink pid's record from the leaf its word routes to."""
        try:
            rec = self.by_id[pid]
        except KeyError:
            raise KeyError("unknown payload id %r" % (pid,))
        word = rec[_WORD]
        leaf = self.root
        while isinstance(leaf, _KdNode):
            leaf = leaf.right if word & leaf.field >= leaf.power else leaf.left
        # by identity: list.remove would compare records field by field
        at = next((i for i, r in enumerate(leaf) if r is rec), None)
        require(at is not None, "retired record not in its leaf")
        del leaf[at]
        del self.by_id[pid]
        self.churn += 1
        if self._one_cache:
            self._one_cache = {}
        if self._all_cache:
            self._all_cache = {}
        if self._log:
            self._log = []

    def retire_multiples(self, mono: Monomial):
        """Retire every live entry that mono divides; returns their payload
        ids in entries() order."""
        w = mono.word
        g = self.ring.guard
        gone = [rec[_PID] for rec in self.by_id.values()
                if word_divides(w, rec[_WORD], g)]
        for pid in gone:
            self.retire(pid)
        return gone

    def maybe_rebuild(self) -> bool:
        if self.churn <= len(self.by_id) * REBUILD_CHURN_RATIO:
            return False
        self.rebuild()
        return True

    def rebuild(self) -> None:
        """Rebalance the tree over the live records and recalibrate the
        divmap.  Each retire already unlinked its record, so the live set
        does not change and stored find_all_divisors answers stay."""
        recs = list(self.by_id.values())
        if self.use_masks and recs:
            self.divmap = DivMap.calibrate(self.ring, [r[_MONO] for r in recs])
            mask_of, exps_of = self.divmap.mask_of, self.ring.exps_of
            for r in recs:
                r[_MASK] = mask_of(exps_of(r[_WORD]))
        self.churn = 0
        if self._one_cache:
            self._one_cache = {}
        self.root = self._bulk_build(recs, -1)

    # -- construction ----------------------------------------------------

    def insert(self, mono: Monomial, pid) -> None:
        rec = self._new_record(mono, pid)
        node = self.root
        parent = None
        pside = 0
        word = rec[_WORD]
        while isinstance(node, _KdNode):
            node.mask &= rec[_MASK]
            parent = node
            if word & node.field >= node.power:
                node, pside = node.right, 1
            else:
                node, pside = node.left, 0
        node.append(rec)
        if len(node) > self.leaf_capacity:
            split = self._split_leaf(node, parent.var if parent else -1)
            if split is not None:
                if parent is None:
                    self.root = split
                elif pside:
                    parent.right = split
                else:
                    parent.left = split

    def _split_leaf(self, recs, parent_var):
        # Split variable cycles from the parent's; the split exponent is the
        # average of the min and max exponent among the leaf's monomials,
        # all read in the variable's word field.
        shifts = self.ring.shifts
        n = len(shifts)
        var = (parent_var + 1) % n
        for _ in range(n):
            shift = shifts[var]
            field = (MAX_EXPONENT - 1) << shift
            es = [rec[_WORD] & field for rec in recs]
            lo, hi = min(es), max(es)
            if lo != hi:
                power = ((lo + hi >> shift) + 1) // 2 << shift
                left, right = [], []
                for rec, e in zip(recs, es):
                    (right if e >= power else left).append(rec)
                if left and right:
                    mask = -1
                    for rec in recs:
                        mask &= rec[_MASK]
                    return _KdNode(var, field, power, left, right, mask)
            var = (var + 1) % n
        return None  # all member exponent vectors equal: cannot split

    def _bulk_build(self, recs, parent_var):
        if len(recs) <= self.leaf_capacity:
            return recs
        node = self._split_leaf(recs, parent_var)
        if node is None:
            return recs
        node.left = self._bulk_build(node.left, node.var)
        node.right = self._bulk_build(node.right, node.var)
        return node

    # -- queries ----------------------------------------------------------

    def _query(self, qword, notq, first_only):
        """Payload ids of the entries dividing the query of exponent
        word qword (at most one when first_only), counting mask
        consultations in self.stats; notq is the complement of its mask
        (None without masks)."""
        guard = self.ring.guard
        qg = qword | guard
        stats = self.stats
        masks = self.use_masks
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _KdNode):
                if masks and node.mask & notq:
                    # no entry below can divide q: prune both children
                    stats.hits += 1
                    continue
                if qword & node.field >= node.power:
                    stack.append(node.right)
                stack.append(node.left)
                continue
            _scan(node, qg, guard, notq, stats, out, first_only)
            if first_only and out:
                break
        return out

    # -- debug audit -------------------------------------------------------

    def audit_divisor(self, word: int, found) -> None:
        """Check found, the answer of find_divisor(word), against a scan of
        the live records."""
        live = [pid for pid, rec in self.by_id.items()
                if word_divides(rec[_MONO].word, word, self.ring.guard)]
        require(found in live if live else found is None,
                "find_divisor answer")

    def audit(self) -> None:
        """Check the pure-power routing invariant over the whole tree, that
        each node's mask is a submask of every mask below it, that the
        leaves hold each live record exactly once and nothing else, and
        that each live record's word is its monomial's."""
        for rec in self.by_id.values():
            require(rec[_WORD] == rec[_MONO].word, "record word")

        def walk(node):
            if not isinstance(node, _KdNode):
                return node
            lrecs = walk(node.left)
            rrecs = walk(node.right)
            for rec in lrecs:
                require(rec[_WORD] & node.field < node.power, "left routing")
            for rec in rrecs:
                require(rec[_WORD] & node.field >= node.power,
                        "right routing")
            recs = lrecs + rrecs
            for rec in recs:
                require(not node.mask & ~rec[_MASK], "node mask")
            return recs
        held = sorted(map(id, walk(self.root)))
        require(held == sorted(map(id, self.by_id.values())), "leaf records")


class ListLookup(KdLookup):
    """A kd-tree whose one leaf never splits: a scan of every entry, the
    oracle the tree variants are checked against."""

    def __init__(self, ring, use_masks=False):
        super().__init__(ring, use_masks, leaf_capacity=math.inf)


def make_lookup(kind: str, ring: Ring,
                leaf_capacity: int = DEFAULT_LEAF_CAPACITY):
    if kind == "list":
        return ListLookup(ring, use_masks=False)
    if kind == "divlist":
        return ListLookup(ring, use_masks=True)
    if kind == "kdtree":
        return KdLookup(ring, use_masks=False, leaf_capacity=leaf_capacity)
    if kind == "divkdtree":
        return KdLookup(ring, use_masks=True, leaf_capacity=leaf_capacity)
    raise ValueError("unknown lookup kind %r" % (kind,))
