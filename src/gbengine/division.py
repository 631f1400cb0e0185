"""The one completion loop and the one reduction loop of both engines, and
basis normalization helpers.

Completion.run pops S-pairs until none is left; each engine supplies the
pop-time criteria (_pop) and what happens to a remainder (_settle).
divide_queue keeps the pending terms of the polynomial being reduced in a
reducer queue, repeatedly extracts the id of the maximal one and asks a
divisor lookup which basis leads divide its monomial.  The reducer is the
smallest index among them, unless the signature engine passes its
regular-reducer rule, as data the loop tests inline: then the reducer is
the qualifying divisor of least sig/lead ratio, found as one min over
packed (ratio rank, index) ints.  Either way the choice is deterministic,
so runs are reproducible no matter which lookup structure serves the
divisor queries.  Each reducer product's row comes from the queue's one
row cache, under (popped id, reducer): the popped term is the product's
lead term, and a polynomial names itself by value, whatever list or index
holds it.  One queue serves every reduction of its owner: an engine, or
one interreduce or reduced_basis call.

A division returns its remainder only: no caller uses the quotients.
"""

from __future__ import annotations

from .lookup import DEFAULT_LOOKUP, make_lookup
from .poly import Polynomial, poly_monic, poly_normalize
from .ring import Ring, ff_inv, require
from .spairqueue import make_spair_queue
from .termqueue import ReducerQueue


def basis_lookup(ring: Ring, basis, kind: str = DEFAULT_LOOKUP):
    """Divisor structure over the lead terms, payloads = basis indices."""
    lookup = make_lookup(kind, ring)
    for idx, g in enumerate(basis):
        if g:
            lookup.insert(g.lead_mono, idx)
    lookup.rebuild()
    return lookup


def classic_reduce(ring: Ring, f: Polynomial, basis, lookup=None,
                   queue: ReducerQueue | None = None) -> Polynomial:
    """The remainder r of f divided by the basis.

    f - r is a sum of multiples q_i g_i with hd(q_i g_i) <= hd f, and no
    term of r is divisible by any live lead term.  The reducer for a term
    is the valid divisor of smallest basis index, so the outcome does not
    depend on the lookup structure.

    The division runs on queue, which it takes and leaves empty, so a
    caller dividing many polynomials passes one queue and each call reuses
    the products interned before; without one the call makes a default
    queue that lives only as long as the division.
    """
    if lookup is None:
        lookup = basis_lookup(ring, basis)
    if queue is None:
        queue = ReducerQueue(ring)
    if f:
        queue.push_product(1, queue.row(f.lead_mono, f), f)
    return divide_queue(ring, queue, basis, lookup)


def divide_queue(ring: Ring, queue: ReducerQueue, basis, lookup,
                 regular=None, audit: bool = False) -> Polynomial:
    """The remainder of the polynomial whose terms are pending in queue,
    divided by the basis as classic_reduce divides; it empties the queue.

    A popped term mono is reduced by the smallest basis index whose lead
    divides it.  With regular = (entries, rks, tkey, scale, select) only
    indices i of entries[i].ratio_rank < tkey - scale * mono.key qualify,
    and rks[i] packs entries[i].ratio_rank << 32 | i, so ints order as
    (ratio rank, index), negative ranks too.  With select None the reducer
    is the qualifying index of least packed int: the least of all
    candidates, which qualifies exactly when any does.  Otherwise select
    picks from the qualifying entries in index order.  The reducer
    product's row is the queue's, under (popped id, reducer), and audit
    has the queue check each reused one and checks each regular pick.
    """
    p = ring.char
    tmonos = queue.monos
    rows = queue.rows
    entries, rks, tkey, scale, select = regular or (None, None, 0, 0, None)
    coeffs = []
    monos = []
    while True:
        top = queue.pop_max()
        if top is None:
            break
        coeff, t = top
        mono = tmonos[t]
        cands = lookup.find_all_divisors(mono.word)
        if cands:
            if rks is None:
                g = basis[min(cands)]
            else:
                bound = (tkey - scale * mono.key) << 32
                if select is None:
                    best = min(map(rks.__getitem__, cands))
                    # the low 32 bits are the index
                    g = basis[best & 0xFFFFFFFF] if best < bound else None
                else:
                    valid = [entries[i] for i in sorted(cands)
                             if rks[i] < bound]
                    g = basis[select(valid).idx] if valid else None
                if audit:
                    _audit_pick(entries, rks, basis, cands, bound >> 32,
                                select, g)
            if g is not None:
                row = rows.get((t, g))
                if row is None or audit:
                    row = queue.row(mono, g, audit)
                lc = g.coeffs[0]
                c = coeff if lc == 1 else coeff * ff_inv(lc, p) % p
                queue.push_product(p - c, row, g, 1)
                continue
        coeffs.append(coeff)
        monos.append(mono)
    return Polynomial(coeffs, monos)


def _audit_pick(entries, rks, basis, cands, bound, select, g):
    """Check one regular step against the entries themselves: each
    candidate's packed int is its (ratio rank, index), a reducer g is
    picked iff some candidate's rank is below bound, and with no select it
    is the qualifying one of least (ratio rank, index)."""
    for i in cands:
        require(rks[i] == entries[i].ratio_rank << 32 | i,
                "packed ratio rank is not its entry's")
    valid = [i for i in cands if entries[i].ratio_rank < bound]
    if g is None:
        require(not valid, "a qualifying reducer left unpicked")
    elif select is None:
        require(bool(valid) and basis[min(
            valid, key=lambda i: (entries[i].ratio_rank, i))] is g,
            "reducer is not the qualifying one of least ratio")
    else:
        require(any(basis[i] is g for i in valid),
                "reducer does not qualify")


class Completion:
    """The completion loop: each turn _pop returns None when a criterion
    eliminates the popped pair, or (products, regular, info); the products
    (coeff, lead term, poly) are divided by the basis under the reducer
    rule regular, and _settle(info, remainder) records the outcome.  One
    queue serves every turn: each division leaves it empty.  Every
    division runs to the last term, so no term of a remainder has a
    reducer under its turn's rule."""

    def __init__(self, ring: Ring, cfg):
        self.ring = ring
        self.cfg = cfg
        self.polys = []                     # the reducers by basis index
        self.lookup = make_lookup(cfg.lookup, ring)     # over their leads
        self.pairs = make_spair_queue(cfg.spair_queue, self._pair_key)
        self.queue = ReducerQueue(ring, cfg.queue)  # for every reduction

    def run(self):
        ring, cfg, pairs, queue = self.ring, self.cfg, self.pairs, self.queue
        audit = cfg.audit
        while len(pairs):
            if audit:
                pairs.check_accounting()
            popped = self._pop()
            if popped is None:
                continue
            products, regular, info = popped
            if audit:
                require(queue.backend.peek() is None,
                        "reducer queue empty before a turn")
            for coeff, lead, poly in products:
                queue.push_product(coeff, queue.row(lead, poly, audit), poly)
            if audit:
                queue.audit()
            rem = divide_queue(ring, queue, self.polys, self.lookup,
                               regular=regular, audit=audit)
            self._settle(info, rem)
        if audit:
            self.lookup.audit()
        self.stats.divmask = self.lookup.stats
        # the drained pair queue holds the bound method self._pair_key:
        # dropping it breaks that cycle, so the engine's state is freed
        # when its caller lets go of it, not at a later cyclic collection
        self.pairs = None


def prepare_inputs(ring: Ring, polys, reduce: bool, queue_cfg=None):
    """The nonzero inputs, monic and, if reduce, interreduced, sorted by
    decreasing lead term: the canonical generators of both engines."""
    inputs = [poly_monic(ring, poly_normalize(ring, zip(g.coeffs, g.monos)))
              for g in polys]
    inputs = [g for g in inputs if g]
    if not inputs:
        raise ValueError("no nonzero input polynomials")
    if reduce:
        inputs = interreduce(ring, inputs, queue_cfg=queue_cfg)
    inputs.sort(key=lambda g: g.lead_mono.key, reverse=True)
    return inputs


def interreduce(ring: Ring, polys, queue_cfg=None):
    """Fully reduce every element against the others until nothing changes.

    Zero results are dropped; survivors are monic.  Deterministic: elements
    are processed in list order each sweep.  The inputs must be normalized
    polynomials, as prepare_inputs makes them.
    """
    work = [poly_monic(ring, g) for g in polys if g]
    queue = ReducerQueue(ring, queue_cfg)
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            g = work[i]
            if not g:
                continue
            others = [h for j, h in enumerate(work) if j != i and h]
            if not others:
                continue
            r = poly_monic(ring, classic_reduce(ring, g, others,
                                                queue=queue))
            if r != g:
                work[i] = r
                changed = True
    return [g for g in work if g]


def reduced_basis(ring: Ring, polys, queue_cfg=None):
    """Minimal, fully autoreduced, monic basis, sorted by ascending lead."""
    polys = [g for g in polys if g]
    polys.sort(key=lambda g: g.lead_mono.key)
    minimal = []
    for g in polys:
        if not any(ring.mono_divides(h.lead_mono, g.lead_mono)
                   for h in minimal):
            minimal.append(g)
    lookup = basis_lookup(ring, minimal)
    queue = ReducerQueue(ring, queue_cfg)
    out = []
    for g in minimal:
        # no other lead divides g's lead, and g's lead divides no smaller
        # term: reduce the tail and put the lead back in front
        queue.push_product(1, queue.row(g.lead_mono, g), g, start=1)
        r = divide_queue(ring, queue, minimal, lookup)
        out.append(poly_monic(ring, Polynomial((g.lead_coeff,) + r.coeffs,
                                               (g.lead_mono,) + r.monos)))
    return out


def reduces_to_zero(ring: Ring, f: Polynomial, basis, lookup=None) -> bool:
    """Membership oracle: does f reduce to zero against the basis?

    For a Groebner basis the choice of divisor cannot change the answer.
    """
    return not classic_reduce(ring, f, basis, lookup)
