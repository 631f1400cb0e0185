"""Classic Buchberger algorithm with layered S-pair elimination.

Pairs run through the relatively-prime check and the cached lcm criterion
as they are constructed, through the lcm criterion again when popped
(later eliminations may have set new bits by then), and through the graph
criterion just before an S-polynomial would actually be reduced.  A
triangular bit array marks pairs that were eliminated or reduced; the lcm
criterion's anti-circularity rule consults it so that of three pairwise
equal lcms exactly one pair can ever be eliminated.  Each S-polynomial
is fully reduced, so no term of a new basis element is divisible by a live
lead term, and later S-polynomials carry no reducible tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .division import Completion, prepare_inputs, reduced_basis
from .lookup import DEFAULT_LOOKUP
from .pairbits import BitTriangle
from .poly import Polynomial, poly_monic
from .ring import Ring, key_bound, require, word_divides, word_max
from .spairqueue import DEFAULT_SPAIR_QUEUE
from .termqueue import QueueConfig


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
        require(self.spairs == self.relprime + self.lcm_cache
                + self.lcm_simple + self.graph + self.reductions,
                "pair accounting")

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
    lookup: str = DEFAULT_LOOKUP
    spair_queue: str = DEFAULT_SPAIR_QUEUE
    use_relprime: bool = True
    use_lcm: bool = True
    use_graph: bool = True
    interreduce: bool = True
    trace_pairs: bool = False
    audit: bool = False


def lcm_criterion(leads, a: int, b: int, c: int, m: int, guard: int,
                  tri: BitTriangle) -> bool:
    """Anti-circular lcm criterion: c may eliminate (a, b).

    m is the exponent word of lcm(hd a, hd b) and guard the ring's guard
    mask.  Requires hd c | m; then (a, b) goes iff lcm(a,c) != m or (a,c)
    is done, and likewise for (b,c).
    """
    cw = leads[c].word
    if not word_divides(cw, m, guard):
        return False
    if word_max(leads[a].word, cw, guard) == m and not tri.get(a, c):
        return False
    if word_max(leads[b].word, cw, guard) == m and not tri.get(b, c):
        return False
    return True


def graph_criterion(leads, a: int, b: int, m: int, guard: int,
                    tri: BitTriangle, vertices) -> bool:
    """Bayer's criterion: eliminate (a, b) when a path joins a to b in the
    graph on the divisors of m = lcm(hd a, hd b), an exponent word (guard
    the ring's guard mask), whose edges are the pairs with lcm != m or
    already eliminated."""
    unseen = set(vertices) | {b}
    unseen.discard(a)
    stack = [a]
    while stack:
        u = stack.pop()
        uw = leads[u].word
        for v in [v for v in unseen
                  if word_max(uw, leads[v].word, guard) != m
                  or tri.get(u, v)]:
            if v == b:
                return True
            unseen.remove(v)
            stack.append(v)
    return False


class _ClassicEngine(Completion):
    def __init__(self, ring: Ring, inputs, cfg: ClassicConfig):
        super().__init__(ring, cfg)
        self.leads = []
        self.tri = BitTriangle()
        self.cache = {}          # element -> last c that eliminated its pair
        self.key_bound = key_bound(ring.num_vars)
        self.stats = ClassicStats()
        if cfg.trace_pairs:
            self.stats.reduced_pairs = []
        for g in inputs:
            self._add(g)

    def _pair_key(self, i, j):
        # smallest lcm degree first, then ring order: (deg, key) of the
        # leads' lcm packed into one integer; the pair queue orders equal
        # keys by (j, i)
        ring = self.ring
        w = word_max(self.leads[i].word, self.leads[j].word, ring.guard)
        return ring.deg_of_word(w) * self.key_bound + ring.key_of_word(w)

    def _add(self, g: Polynomial):
        n = len(self.polys)
        self.polys.append(g)
        self.leads.append(g.lead_mono)
        self._sweep_new_pairs(n)
        # retire stale elements whose lead the new one divides, and forget
        # what the lcm cache holds of them
        mine = g.lead_mono
        gone = self.lookup.retire_multiples(mine)
        if gone:
            self.cache = {k: c for k, c in self.cache.items()
                          if k not in gone and c not in gone}
        self.lookup.insert(mine, n)
        self.lookup.maybe_rebuild()

    def _try_lcm(self, i, j, mw) -> bool:
        """Cached candidates first, then a full divisor sweep of the lcm
        of the pair's leads, whose exponent word is mw."""
        leads = self.leads
        tri = self.tri
        g = self.ring.guard
        # a cached c is live: _add drops every value equal to a retired index
        for c in (self.cache.get(i), self.cache.get(j)):
            if c is not None and c != i and c != j \
                    and lcm_criterion(leads, i, j, c, mw, g, tri):
                self.stats.lcm_cache += 1
                self.cache[i] = self.cache[j] = c
                return True
        for c in sorted(self.lookup.find_all_divisors(mw)):
            if c != i and c != j and lcm_criterion(leads, i, j, c, mw, g,
                                                   tri):
                self.stats.lcm_simple += 1
                self.cache[i] = self.cache[j] = c
                return True
        return False

    def _sweep_new_pairs(self, n):
        ring = self.ring
        cfg = self.cfg
        stats = self.stats
        leads = self.leads
        stats.spairs += n
        batch = []
        for i in range(n):
            if cfg.use_relprime and ring.mono_coprime(leads[i], leads[n]):
                stats.relprime += 1
                self.tri.set(i, n)
                continue
            mw = word_max(leads[i].word, leads[n].word, ring.guard)
            if cfg.use_lcm and self._try_lcm(i, n, mw):
                self.tri.set(i, n)
                continue
            # _pair_key(i, n), from the lcm word at hand
            batch.append((i, ring.deg_of_word(mw) * self.key_bound
                          + ring.key_of_word(mw)))
        self.pairs.add_column(n, batch)

    def _pop(self):
        """The S-polynomial of the next pair that survives the lcm and
        graph criteria, as its two products, both of lead term the lcm."""
        cfg = self.cfg
        stats = self.stats
        ring = self.ring
        leads = self.leads
        i, j = self.pairs.pop_min()
        mw = word_max(leads[i].word, leads[j].word, ring.guard)
        if cfg.use_lcm and self._try_lcm(i, j, mw):
            self.tri.set(i, j)
            return None
        if cfg.use_graph:
            verts = self.lookup.find_all_divisors(mw)
            if graph_criterion(leads, i, j, mw, ring.guard, self.tri, verts):
                stats.graph += 1
                self.tri.set(i, j)
                return None
        stats.reductions += 1
        if stats.reduced_pairs is not None:
            stats.reduced_pairs.append((i, j))
        # graph_criterion reads this bit, so it is set only now
        self.tri.set(i, j)
        m = ring.mono_lcm(leads[i], leads[j])
        return (((1, m, self.polys[i]), (ring.char - 1, m, self.polys[j])),
                None, None)

    def _settle(self, info, rem):
        if rem:
            if self.cfg.audit:
                divides = self.ring.mono_divides
                require(not any(divides(lead, m) for m in rem.monos
                                for lead, _ in self.lookup.entries()),
                        "remainder fully reduced")
            self._add(poly_monic(self.ring, rem))
        else:
            self.stats.zero_reductions += 1

    def result_basis(self):
        alive = [self.polys[i] for _, i in self.lookup.entries()]
        return reduced_basis(self.ring, alive, queue_cfg=self.cfg.queue)


def buchberger_run(ring: Ring, polys, cfg: ClassicConfig | None = None):
    """Reduced Groebner basis of the input ideal, plus run statistics."""
    cfg = cfg or ClassicConfig()
    inputs = prepare_inputs(ring, polys, cfg.interreduce, cfg.queue)
    engine = _ClassicEngine(ring, inputs, cfg)
    engine.run()
    stats = engine.stats
    stats.check()
    basis = engine.result_basis()
    stats.basis_size = len(basis)
    stats.monomials = sum(len(g) for g in basis)
    return basis, stats
