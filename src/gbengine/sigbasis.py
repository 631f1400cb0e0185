"""Signature-based Groebner basis engine.

Implements the signature-driven completion loop: S-pairs are processed in
ascending signature order, each surviving signature is regular-reduced
once, and the remainder either joins the basis or contributes a minimal
generator of the initial syzygy module.  The full elimination pipeline is
here: non-regular and base-divisor checks plus the signature criterion at
pair construction; duplicate-signature, late signature, Koszul, relatively
prime and singular checks at pop time.

Signature keys and sig/lead ratio ranks are single integers whose order
is the module order, and each basis element carries its ratio rank, so
every signature comparison in the hot paths is one integer comparison.

The engine runs on division.Completion, the completion loop classic
Buchberger runs on too: _pop applies the pop-time criteria and yields the
seed product with the regular-reducer rule as data (the entries for their
ratio ranks, the signature key, the module order's scale and the
configured reducer_select), which divide_queue tests inline; _settle adds
the remainder or records a syzygy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

from .division import Completion, prepare_inputs, reduced_basis
from .lookup import make_lookup
from .pairbits import BitTriangle
from .poly import poly_monic
from .ring import (MAX_EXPONENT, InvariantError, Monomial, Ring, guard_mask,
                   key_bound, require, word_divides, word_max)
from .spairqueue import MinHeap
from .termqueue import QueueConfig

MODULE_ORDERS = ("schreyer", "potop")
TIEBREAKS = ("low-gt", "high-gt")
KOSZUL_PUSH_MODES = ("survivor", "group")


class ModuleOrder:
    """Term order on the free module R^m over the input generators.

    schreyer: compare a*e_i against b*e_j through the ring order on
    a*hd(g_i) vs b*hd(g_j); ties broken by component ("low-gt": the lower
    component wins).  potop: higher component wins outright, ties fall
    back to the Schreyer comparison (within one component that is just the
    ring order).

    A signature key is mono.key * scale + offsets[comp], and a sig/lead
    ratio rank (sig.key - lead.key) * scale + offsets[comp].  Schreyer
    has scale = 2m + 1 and offsets[i] = hd[i].key * scale - i (low-gt)
    or + i (high-gt); potop has scale = 1 and offsets[i] = 2 * S * i, S
    bounding |key|.
    """

    __slots__ = ("hd_monos", "scale", "offsets")

    def __init__(self, kind: str, tiebreak: str, input_leads):
        if kind not in MODULE_ORDERS:
            raise ValueError("unknown module order %r" % (kind,))
        if tiebreak not in TIEBREAKS:
            raise ValueError("unknown tiebreak %r" % (tiebreak,))
        self.hd_monos = tuple(input_leads)
        if kind == "schreyer":
            self.scale = scale = 2 * len(self.hd_monos) + 1
            sign = -1 if tiebreak == "low-gt" else 1
            self.offsets = tuple(m.key * scale + sign * i
                                 for i, m in enumerate(self.hd_monos))
        else:
            self.scale = 1
            span = 2 * key_bound(len(self.hd_monos[0].exps))
            self.offsets = tuple(span * i for i in range(len(self.hd_monos)))

    def sig_key(self, mono: Monomial, comp: int) -> int:
        """Ascending sort key; equal keys iff equal module terms."""
        return mono.key * self.scale + self.offsets[comp]

    def ratio_rank(self, sig_mono, lead_mono, comp: int) -> int:
        """Sort key of the formal quotient sig/lead under this order."""
        return (sig_mono.key - lead_mono.key) * self.scale + self.offsets[comp]

    def module_cmp(self, a_mono, a_comp, b_mono, b_comp) -> int:
        ka = self.sig_key(a_mono, a_comp)
        kb = self.sig_key(b_mono, b_comp)
        return -1 if ka < kb else (1 if ka > kb else 0)


class SigEntry:
    """Basis member: signature, monic polynomial and sig/lead ratio data."""

    __slots__ = ("idx", "sig_mono", "sig_comp", "poly", "lead",
                 "ratio_rank")

    def __init__(self, idx, sig_mono, sig_comp, poly, ratio_rank):
        self.idx = idx
        self.sig_mono = sig_mono
        self.sig_comp = sig_comp
        self.poly = poly
        self.lead = poly.lead_mono
        self.ratio_rank = ratio_rank

    def __repr__(self):
        return "SigEntry(idx=%d, comp=%d)" % (self.idx, self.sig_comp)


@dataclass
class SigStats:
    """Counters over the whole run, one bucket per S-pair."""

    spairs: int = 0
    nonregular: int = 0
    basedivisor: int = 0
    sig_early: int = 0
    early_singular: int = 0
    queued: int = 0
    duplicate: int = 0
    sig_late: int = 0
    koszul: int = 0
    relprime: int = 0
    singular_late: int = 0
    need_reduction: int = 0
    to_sb: int = 0
    to_syzygy: int = 0
    sb_size: int = 0
    monomials: int = 0
    divmask: object = None

    def check(self, early_singular_enabled=False):
        require(self.spairs == self.nonregular + self.basedivisor
                + self.sig_early + self.early_singular + self.queued,
                "construction accounting")
        require(early_singular_enabled or not self.early_singular,
                "early singular eliminations while disabled")
        require(self.need_reduction == self.to_sb + self.to_syzygy,
                "reduction-count law")

    def rows(self):
        out = [
            ("#spairs", self.spairs),
            ("elim via non-regular criterion", self.nonregular),
            ("elim via base divisor criterion", self.basedivisor),
            ("elim via signature criterion", self.sig_early),
        ]
        if self.early_singular:
            out.append(("elim via singular criterion(early)",
                        self.early_singular))
        out += [
            ("#spairs queued", self.queued),
            ("elim via duplicate signature", self.duplicate),
            ("elim via signature criterion(late)", self.sig_late),
            ("elim via Koszul criterion", self.koszul),
            ("elim via rel. prime criterion", self.relprime),
            ("elim via singular criterion(late)", self.singular_late),
            ("#spairs which need reduction", self.need_reduction),
            ("reduce to SB elements", self.to_sb),
            ("reduce to new syzygy signatures", self.to_syzygy),
        ]
        return out


@dataclass
class SBConfig:
    module_order: str = "schreyer"
    tiebreak: str = "low-gt"
    queue: QueueConfig = field(default_factory=QueueConfig)
    lookup: str = "divkdtree"
    spair_queue: str = "triangle-tt"
    base_divisors: int = 2
    use_signature: bool = True
    use_koszul: bool = True
    use_singular: bool = True
    early_singular: bool = False
    koszul_push: str = "group"
    tri_bit_cap: int | None = None
    interreduce: bool = True
    reducer_select: object = None
    audit: bool = False

    def __post_init__(self):
        if self.koszul_push not in KOSZUL_PUSH_MODES:
            raise ValueError("unknown koszul push mode %r"
                             % (self.koszul_push,))
        if self.base_divisors not in (0, 1, 2):
            raise ValueError("base_divisors takes 0, 1 or 2")


class SyzygySet:
    """Minimal known syzygy signatures, one divisor structure per component."""

    def __init__(self, ring: Ring, num_components: int, kind: str):
        self.ring = ring
        self.lookups = [make_lookup(kind, ring) for _ in range(num_components)]
        self._next_id = 0

    def divides(self, mono: Monomial, comp: int) -> bool:
        return self.lookups[comp].find_divisor(mono) is not None

    def insert(self, mono: Monomial, comp: int) -> bool:
        lk = self.lookups[comp]
        if lk.find_divisor(mono) is not None:
            return False
        # keep the set an antichain: retire stored multiples of the newcomer
        lk.retire_multiples(mono)
        pid = self._next_id
        self._next_id += 1
        lk.insert(mono, pid)
        lk.maybe_rebuild()
        return True

    def signatures(self):
        """The stored (mono, comp) signatures, in no particular order."""
        return [(m, c) for c, lk in enumerate(self.lookups)
                for m, _ in lk.entries()]

    def audit_minimal(self):
        sigs = self.signatures()
        for i, (m1, c1) in enumerate(sigs):
            for j, (m2, c2) in enumerate(sigs):
                if i != j and c1 == c2:
                    require(not self.ring.mono_divides(m1, m2),
                            "syzygy set not minimal")


def spair_signature(ring: Ring, a: SigEntry, b: SigEntry):
    """Signature (mono, comp) of the S-pair of a and b; the pair is regular
    iff their ratio ranks differ.

    Compares the stored sig/lead ratios to pick the larger of
    (hd b / gcd) * sig a and (hd a / gcd) * sig b, and only computes the
    winning side.
    """
    win, other = (a, b) if a.ratio_rank >= b.ratio_rank else (b, a)
    lead, sig = win.lead, win.sig_mono
    # sig * mult, mult = lcm(hd a, hd b) / hd win, capped as mono_mul caps
    we = lead.exps
    mult = tuple(map(sub, map(max, we, other.lead.exps), we))
    exps = tuple(map(add, sig.exps, mult))
    deg = sig.deg + sum(mult)
    if deg >= MAX_EXPONENT and max(exps) >= MAX_EXPONENT:
        raise ValueError("exponent out of range")
    lw = lead.word
    mono = Monomial(exps, deg, sig.key + ring.key_of(mult),
                    sig.word + word_max(lw, other.lead.word, ring.guard) - lw)
    return mono, win.sig_comp


def koszul_signature(ring: Ring, a: SigEntry, b: SigEntry):
    """Signature of the Koszul syzygy of a and b (the larger cross product)."""
    win, other = (a, b) if a.ratio_rank >= b.ratio_rank else (b, a)
    return (ring.mono_mul(win.sig_mono, other.lead), win.sig_comp)


def low_base_divisor_bound(alpha: SigEntry, beta: SigEntry):
    """Exponent bound x^v of the low-ratio base divisor criterion, a tuple
    of ints.

    Requires sig alpha | sig beta.  For gamma ranked below both, the
    covering divisibility sig S(alpha,gamma) | sig S(beta,gamma) holds
    exactly when hd gamma divides x^v.  A coordinate with no bound gets
    MAX_EXPONENT, which every exponent stays below.
    """
    if alpha.sig_comp != beta.sig_comp:
        raise ValueError("signatures in different components")
    sa, sb = alpha.sig_mono.exps, beta.sig_mono.exps
    if not word_divides(alpha.sig_mono.word, beta.sig_mono.word,
                        guard_mask(len(sa))):
        raise ValueError("sig alpha does not divide sig beta")
    v = []
    for a, b, s, t in zip(alpha.lead.exps, beta.lead.exps, sa, sb):
        p = a + t - s           # of hd alpha * sig beta / sig alpha
        v.append(MAX_EXPONENT if b <= p else max(p, a))
    return tuple(v)


class _SBEngine(Completion):
    def __init__(self, ring: Ring, inputs, cfg: SBConfig):
        super().__init__(ring, cfg)
        self.morder = ModuleOrder(cfg.module_order, cfg.tiebreak,
                                  [g.lead_mono for g in inputs])
        self.m = len(inputs)
        self.entries = []
        self.sig_lookups = [make_lookup(cfg.lookup, ring)
                            for _ in range(self.m)]
        self.syz = SyzygySet(ring, self.m, cfg.lookup)
        self.tri = BitTriangle(cfg.tri_bit_cap)
        self.koszul = MinHeap()
        self.stats = SigStats()
        self._last_key = None
        for i, g in enumerate(inputs):
            self._append_entry(ring.one, i, g)

    # -- bookkeeping ------------------------------------------------------

    def _append_entry(self, sig_mono, sig_comp, poly):
        idx = len(self.entries)
        rank = self.morder.ratio_rank(sig_mono, poly.lead_mono, sig_comp)
        entry = SigEntry(idx, sig_mono, sig_comp, poly, rank)
        self.entries.append(entry)
        self.polys.append(poly)
        self._make_new_spairs(entry)
        self.lookup.insert(entry.lead, idx)
        self.lookup.maybe_rebuild()
        self.sig_lookups[sig_comp].insert(sig_mono, idx)
        self.sig_lookups[sig_comp].maybe_rebuild()
        return entry

    def _pair_key(self, i, j):
        """sig_key of spair_signature(entries[i], entries[j]), made with
        no Monomial: the larger ratio rank plus scale * key(lcm of leads)."""
        a, b = self.entries[i], self.entries[j]
        return max(a.ratio_rank, b.ratio_rank) + self.morder.scale * \
            self.ring.key_of(map(max, a.lead.exps, b.lead.exps))

    def _koszul_key(self, i, j):
        """sig_key of koszul_signature(entries[i], entries[j]), likewise."""
        a, b = self.entries[i], self.entries[j]
        return max(a.ratio_rank, b.ratio_rank) + self.morder.scale * (
            a.lead.key + b.lead.key)

    def _set_bits(self, pairs):
        tri = self.tri
        for i, j in pairs:
            tri.set(i, j)

    def _max_ratio_divisor(self, lookup, mono):
        """The entry among lookup's divisors of mono with the largest
        (ratio rank, -index), or None when there is none."""
        cands = lookup.find_all_divisors(mono)
        if not cands:
            return None
        entries = self.entries
        return max((entries[i] for i in cands),
                   key=lambda e: (e.ratio_rank, -e.idx))

    # -- S-pair construction ----------------------------------------------

    def _find_base_divisors(self, beta: SigEntry):
        """The high and low base divisors of beta (None where there is
        none) and the low one's bound as an exponent word with the guard
        bits set."""
        high = low = vbound = None
        if self.tri.dropped:        # every tri.get answers False now
            return high, low, vbound
        if self.cfg.base_divisors >= 1:
            high = self._max_ratio_divisor(self.lookup, beta.lead)
        if self.cfg.base_divisors >= 2:
            low = self._max_ratio_divisor(self.sig_lookups[beta.sig_comp],
                                          beta.sig_mono)
            if low is not None:
                # every exponent is below the cap, so clamping changes no
                # test and keeps each field inside its 16 bits
                ring = self.ring
                vbound = ring.guard | ring.word_of(
                    min(v, MAX_EXPONENT - 1)
                    for v in low_base_divisor_bound(low, beta))
        return high, low, vbound

    def _make_new_spairs(self, beta: SigEntry):
        stats = self.stats
        cfg = self.cfg
        bidx = beta.idx
        stats.spairs += bidx
        if bidx == 0:
            return
        high, low, vbound = self._find_base_divisors(beta)
        brank = beta.ratio_rank
        tri = self.tri
        syz = self.syz
        morder = self.morder
        guard = self.ring.guard
        batch = []
        for gamma in self.entries[:bidx]:
            grank = gamma.ratio_rank
            if grank == brank:
                stats.nonregular += 1
                continue
            if (high is not None and grank > brank and grank > high.ratio_rank
                    and tri.get(high.idx, gamma.idx)) or \
                    (low is not None and grank < brank
                     and grank < low.ratio_rank
                     # word_divides(hd gamma, x^v), inlined
                     and (vbound - gamma.lead.word) & guard == guard
                     and tri.get(low.idx, gamma.idx)):
                stats.basedivisor += 1
                tri.set(gamma.idx, bidx)
                continue
            sig = spair_signature(self.ring, beta, gamma)
            if cfg.use_signature and syz.divides(sig[0], sig[1]):
                stats.sig_early += 1
                tri.set(gamma.idx, bidx)
                continue
            if cfg.early_singular and self._early_singular(sig, beta, gamma):
                stats.early_singular += 1
                continue
            batch.append((gamma.idx, morder.sig_key(*sig)))
        stats.queued += len(batch)
        self.pairs.add_column(bidx, batch)

    def _early_singular(self, sig, beta, gamma):
        # a module term with this signature and a strictly smaller lead
        # term rewrites the pair away (strictly larger sig/lead ratio)
        winner = beta if beta.ratio_rank > gamma.ratio_rank else gamma
        mono, comp = sig
        best = self._max_ratio_divisor(self.sig_lookups[comp], mono)
        return best is not None and best.ratio_rank > winner.ratio_rank

    # -- pop-time pipeline --------------------------------------------------

    def _pop(self):
        """The seed product of the next surviving signature, with its
        regular-reducer rule."""
        pairs = self.pairs
        tkey = pairs.peek_min_key()
        group = [pairs.pop_min()]
        while pairs.peek_min_key() == tkey:
            group.append(pairs.pop_min())
        group.sort(key=lambda ij: (ij[1], ij[0]))
        require(self._last_key is None or tkey >= self._last_key,
                "signature monotonicity")
        self._last_key = tkey
        stats = self.stats
        cfg = self.cfg
        stats.duplicate += len(group) - 1
        i0, j0 = group[0]
        entries = self.entries
        tmono, tcomp = spair_signature(self.ring, entries[i0], entries[j0])
        require(self.morder.sig_key(tmono, tcomp) == tkey,
                "pair key is not its signature's key")
        if cfg.use_signature and self.syz.divides(tmono, tcomp):
            stats.sig_late += 1
            self._set_bits(group)
            return None
        if cfg.use_koszul:
            kq = self.koszul
            top = kq.peek()
            while top is not None and top < tkey:
                kq.pop()
                top = kq.peek()
            if top == tkey:
                stats.koszul += 1
                self.syz.insert(tmono, tcomp)
                self._set_bits(group)
                return None
        coprime = self.ring.mono_coprime
        for i, j in group:
            if coprime(entries[i].lead, entries[j].lead):
                stats.relprime += 1
                self.syz.insert(tmono, tcomp)
                self._set_bits(group)
                return None
        if cfg.use_koszul:
            pushees = group if cfg.koszul_push == "group" else group[:1]
            for i, j in pushees:
                self.koszul.push(self._koszul_key(i, j))
        champion, lead = self._champion(tmono, tcomp)
        if cfg.use_singular and not self._regular_top_reducible(lead, tkey):
            stats.singular_late += 1
            return None
        return (((1, lead, champion.poly),),
                (entries, tkey, self.morder.scale, cfg.reducer_select),
                (tmono, tcomp, group))

    def _champion(self, tmono, tcomp):
        """Basis element whose signature divides T with the smallest lead
        multiple (equivalently the divisor of maximal sig/lead ratio), and
        that lead multiple, the seed product's lead term."""
        lookup = self.sig_lookups[tcomp]
        champ = self._max_ratio_divisor(lookup, tmono)
        require(champ is not None,
                "no signature divisor for a popped S-pair signature")
        lead = self.ring.mono_mul(self.ring.mono_div(tmono, champ.sig_mono),
                                  champ.lead)
        if self.cfg.audit:
            entries = self.entries
            best = min(self.ring.mono_mul(
                self.ring.mono_div(tmono, entries[i].sig_mono),
                entries[i].lead).key
                for i in lookup.find_all_divisors(tmono))
            require(lead.key == best, "champion lead not minimal")
        return champ, lead

    def _regular_top_reducible(self, mono, tkey):
        """Has mono, a term of signature key tkey, a regular reducer (by
        divide_queue's rule)?"""
        bound = tkey - self.morder.scale * mono.key
        return any(self.entries[i].ratio_rank < bound
                   for i in self.lookup.find_all_divisors(mono))

    def _settle(self, info, rem):
        tmono, tcomp, group = info
        stats = self.stats
        if rem:
            rank = self.morder.ratio_rank(tmono, rem.lead_mono, tcomp)
            if self._singular_top_reducible(rem.lead_mono, rank):
                # the champion construction makes this unreachable while
                # the singular criterion is enabled
                if self.cfg.use_singular:
                    raise InvariantError("singular remainder")
                stats.singular_late += 1
                return
            stats.need_reduction += 1
            stats.to_sb += 1
            self._append_entry(tmono, tcomp, poly_monic(self.ring, rem))
        else:
            stats.need_reduction += 1
            stats.to_syzygy += 1
            self.syz.insert(tmono, tcomp)
            self._set_bits(group)

    def _singular_top_reducible(self, lead_mono, rank):
        return any(self.entries[i].ratio_rank == rank
                   for i in self.lookup.find_all_divisors(lead_mono))


class SBResult:
    """Signature basis entries, minimal syzygy signatures and counters."""

    def __init__(self, ring, morder, entries, syzygies, stats, cfg):
        self.ring = ring
        self.module_order = morder
        self.entries = entries
        self.syzygies = syzygies
        self.stats = stats
        self.config = cfg

    def images(self):
        return [e.poly for e in self.entries]

    def groebner_basis(self):
        return reduced_basis(self.ring, self.images(),
                             queue_cfg=self.config.queue)


def sb_run(ring: Ring, polys, cfg: SBConfig | None = None) -> SBResult:
    """Compute a signature Groebner basis and the initial syzygy module."""
    cfg = cfg or SBConfig()
    inputs = prepare_inputs(ring, polys, cfg.interreduce, cfg.queue)
    engine = _SBEngine(ring, inputs, cfg)
    engine.run()
    stats = engine.stats
    stats.sb_size = len(engine.entries)
    stats.monomials = sum(len(e.poly) for e in engine.entries)
    stats.check(cfg.early_singular)
    if cfg.audit:
        engine.syz.audit_minimal()
        for lookup in engine.sig_lookups + engine.syz.lookups:
            lookup.audit()
    syzygies = sorted(engine.syz.signatures(),
                      key=lambda mc: engine.morder.sig_key(*mc))
    return SBResult(ring, engine.morder, engine.entries, syzygies,
                    stats, cfg)
