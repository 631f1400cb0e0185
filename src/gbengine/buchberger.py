"""Classic Buchberger algorithm with layered S-pair elimination.

Pairs run through the relatively-prime check and the cached lcm criterion
as they are constructed, through the lcm criterion again when popped
(later eliminations may have set new bits by then), and through the graph
criterion just before an S-polynomial would actually be reduced.  A
triangular bit array marks pairs that were eliminated or reduced; the lcm
criterion's anti-circularity rule consults it so that of three pairwise
equal lcms exactly one pair can ever be eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le

from .division import divide_queue, prepare_inputs, reduced_basis
from .lookup import make_lookup
from .pairbits import BitTriangle
from .poly import Polynomial, poly_monic
from .ring import InvariantError, Ring, key_bound
from .spairqueue import make_spair_queue
from .termqueue import MonomialTable, QueueConfig, ReducerQueue


@dataclass
class ClassicStats:
    spairs: int = 0
    relprime: int = 0
    lcm_cache: int = 0
    lcm_simple: int = 0
    graph: int = 0
    reductions: int = 0
    zero_reductions: int = 0
    basis_size: int = 0
    monomials: int = 0
    divmask: object = None
    reduced_pairs: object = None

    def check(self):
        if self.spairs != (self.relprime + self.lcm_cache + self.lcm_simple
                           + self.graph + self.reductions):
            raise InvariantError("pair accounting")

    def rows(self):
        return [
            ("#S-pairs", self.spairs),
            ("rel prime", self.relprime),
            ("lcm cache hits", self.lcm_cache),
            ("lcm simple hits", self.lcm_simple),
            ("lcm graph hits", self.graph),
            ("#reductions", self.reductions),
            ("0-reductions", self.zero_reductions),
        ]


@dataclass
class ClassicConfig:
    queue: QueueConfig = field(default_factory=QueueConfig)
    lookup: str = "divkdtree"
    spair_queue: str = "triangle-tt"
    use_relprime: bool = True
    use_lcm: bool = True
    use_graph: bool = True
    interreduce: bool = True
    trace_pairs: bool = False
    audit: bool = False


def lcm_criterion(leads, a: int, b: int, c: int, m,
                  tri: BitTriangle) -> bool:
    """Anti-circular lcm criterion: c may eliminate (a, b).

    m is the exponent tuple of lcm(hd a, hd b).  Requires hd c | m; then
    (a, b) goes iff lcm(a,c) != m or (a,c) is done, and likewise for (b,c).
    """
    ce = leads[c].exps
    if not all(map(le, ce, m)):
        return False
    if tuple(map(max, leads[a].exps, ce)) == m and not tri.get(a, c):
        return False
    if tuple(map(max, leads[b].exps, ce)) == m and not tri.get(b, c):
        return False
    return True


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def graph_criterion(leads, a: int, b: int, m, tri: BitTriangle,
                    vertices) -> bool:
    """Bayer's criterion: eliminate (a, b) when a and b are connected in
    the graph on the divisors of m = lcm(hd a, hd b), an exponent tuple,
    whose edges are the pairs with lcm != m or already eliminated."""
    verts = sorted(set(vertices) | {a, b})
    uf = _UnionFind(verts)
    for s in range(len(verts)):
        u = verts[s]
        ue = leads[u].exps
        for t in range(s + 1, len(verts)):
            v = verts[t]
            if tuple(map(max, ue, leads[v].exps)) != m or tri.get(u, v):
                uf.union(u, v)
    return uf.find(a) == uf.find(b)


class _ClassicEngine:
    def __init__(self, ring: Ring, inputs, cfg: ClassicConfig):
        self.ring = ring
        self.cfg = cfg
        self.polys = []
        self.live = []
        self.leads = []
        self.lookup = make_lookup(cfg.lookup, ring)
        self.tri = BitTriangle()
        self.cache = {}          # element -> last c that eliminated its pair
        self.key_bound = key_bound(ring.num_vars)
        self.pairs = make_spair_queue(cfg.spair_queue, self._pair_key)
        self.stats = ClassicStats()
        self.table = MonomialTable(ring)    # shared by every reduction
        if cfg.trace_pairs:
            self.stats.reduced_pairs = []
        for g in inputs:
            self._add(g)

    def _pair_key(self, i, j):
        return self._lcm_pair_key(
            self.ring.mono_lcm(self.leads[i], self.leads[j]), i, j)

    def _lcm_pair_key(self, m, i, j):
        # smallest lcm degree first, ring-order ties, then newest column:
        # (deg, key, j, i) packed into one integer; indices stay below 2^32
        return ((m.deg * self.key_bound + m.key) << 64) + (j << 32) + i

    def _add(self, g: Polynomial):
        n = len(self.polys)
        self.polys.append(g)
        self.live.append(True)
        self.leads.append(g.lead_mono)
        self._sweep_new_pairs(n)
        # retire stale elements whose lead the new one divides
        mine = g.lead_mono
        for i in range(n):
            if self.live[i] and self.ring.mono_divides(mine, self.leads[i]):
                self.live[i] = False
                self.lookup.retire(i)
                self.cache.pop(i, None)
                for k, c in list(self.cache.items()):
                    if c == i:
                        del self.cache[k]
        self.lookup.insert(mine, n)
        self.lookup.maybe_rebuild()

    def _try_lcm(self, i, j, m) -> bool:
        """Cached candidates first, then a full divisor sweep of the lcm m
        of the pair's leads."""
        leads = self.leads
        tri = self.tri
        me = m.exps
        for c in (self.cache.get(i), self.cache.get(j)):
            if c is not None and c != i and c != j and self.live[c] \
                    and lcm_criterion(leads, i, j, c, me, tri):
                self.stats.lcm_cache += 1
                self.cache[i] = self.cache[j] = c
                return True
        for c in sorted(self.lookup.find_all_divisors(m)):
            if c != i and c != j and lcm_criterion(leads, i, j, c, me, tri):
                self.stats.lcm_simple += 1
                self.cache[i] = self.cache[j] = c
                return True
        return False

    def _sweep_new_pairs(self, n):
        ring = self.ring
        cfg = self.cfg
        stats = self.stats
        stats.spairs += n
        batch = []
        for i in range(n):
            if cfg.use_relprime and ring.mono_coprime(self.leads[i],
                                                      self.leads[n]):
                stats.relprime += 1
                self.tri.set(i, n)
                continue
            m = ring.mono_lcm(self.leads[i], self.leads[n])
            if cfg.use_lcm and self._try_lcm(i, n, m):
                self.tri.set(i, n)
                continue
            batch.append((i, self._lcm_pair_key(m, i, n)))
        self.pairs.add_column(n, batch)

    def _reduce_spair(self, i, j, m):
        """Top-reduce the S-polynomial of the monic g_i and g_j, whose leads
        have lcm m, pushed as its two products into the queue, where their
        lead terms cancel."""
        ring = self.ring
        queue = ReducerQueue(ring, self.cfg.queue, self.table)
        queue.push_product(1, ring.mono_div(m, self.leads[i]), self.polys[i])
        queue.push_product(ring.char - 1, ring.mono_div(m, self.leads[j]),
                           self.polys[j])
        _, r = divide_queue(ring, queue, self.polys, self.lookup,
                            top_only=True)
        return r

    def run(self):
        cfg = self.cfg
        stats = self.stats
        while len(self.pairs):
            if cfg.audit:
                self.pairs.check_accounting()
            i, j = self.pairs.pop_min()
            m = self.ring.mono_lcm(self.leads[i], self.leads[j])
            if cfg.use_lcm and self._try_lcm(i, j, m):
                self.tri.set(i, j)
                continue
            if cfg.use_graph:
                verts = self.lookup.find_all_divisors(m)
                if graph_criterion(self.leads, i, j, m.exps, self.tri,
                                   verts):
                    stats.graph += 1
                    self.tri.set(i, j)
                    continue
            stats.reductions += 1
            if stats.reduced_pairs is not None:
                stats.reduced_pairs.append((i, j))
            self.tri.set(i, j)
            r = self._reduce_spair(i, j, m)
            if r:
                self._add(poly_monic(self.ring, r))
            else:
                stats.zero_reductions += 1
        stats.check()

    def result_basis(self):
        alive = [g for g, ok in zip(self.polys, self.live) if ok]
        return reduced_basis(self.ring, alive, queue_cfg=self.cfg.queue)


def buchberger_run(ring: Ring, polys, cfg: ClassicConfig | None = None):
    """Reduced Groebner basis of the input ideal, plus run statistics."""
    cfg = cfg or ClassicConfig()
    inputs = prepare_inputs(ring, polys, cfg.interreduce, cfg.queue)
    engine = _ClassicEngine(ring, inputs, cfg)
    engine.run()
    basis = engine.result_basis()
    engine.stats.basis_size = len(basis)
    engine.stats.monomials = sum(len(g) for g in basis)
    engine.stats.divmask = engine.lookup.stats
    return basis, engine.stats
