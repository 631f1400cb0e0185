"""Classic polynomial division and basis normalization helpers.

Division keeps the pending terms of the current polynomial in a reducer
queue and repeatedly extracts the maximal one.  The divisor for a term is
chosen deterministically (the live basis element of smallest index among
all whose lead term divides it) so that runs are reproducible no matter
which lookup structure serves the divisor queries.
"""

from __future__ import annotations

from .lookup import make_lookup
from .poly import Polynomial, poly_monic, poly_normalize
from .ring import Ring, ff_inv
from .termqueue import MonomialTable, QueueConfig, ReducerQueue


def basis_lookup(ring: Ring, basis, kind: str = "divkdtree"):
    """Divisor structure over the lead terms, payloads = basis indices."""
    lookup = make_lookup(kind, ring)
    for idx, g in enumerate(basis):
        if g:
            lookup.insert(g.lead_mono, idx)
    lookup.rebuild()
    return lookup


def classic_reduce(ring: Ring, f: Polynomial, basis, lookup=None,
                   top_only: bool = False,
                   queue_cfg: QueueConfig | None = None,
                   track_quotients: bool = True, exclude: int | None = None,
                   table: MonomialTable | None = None):
    """Divide f by the basis: returns (per-basis quotient term lists, r).

    Guarantees f = sum q_i g_i + r with hd f >= hd(q_i g_i); no term of r
    is divisible by any live lead term (top_only: the lead term of r only).
    The reducer for a term is the valid divisor of smallest basis index,
    so the outcome does not depend on the lookup structure.

    A hashed queue interns its products in table, which callers dividing
    many polynomials share across the calls; without one the call makes a
    table that lives only as long as the division.
    """
    if lookup is None:
        lookup = basis_lookup(ring, basis, "list")
    queue = ReducerQueue(ring, queue_cfg, table)
    queue.push_product(1, ring.one, f)
    return divide_queue(ring, queue, basis, lookup, top_only,
                        track_quotients, exclude)


def divide_queue(ring: Ring, queue: ReducerQueue, basis, lookup,
                 top_only: bool, track_quotients: bool = False,
                 exclude: int | None = None):
    """classic_reduce of the polynomial whose terms are pending in queue,
    which it empties."""
    p = ring.char
    quotients = [[] for _ in basis] if track_quotients else None
    remainder = []
    tail_done = False
    while True:
        top = queue.pop_max()
        if top is None:
            break
        coeff, mono = top
        if tail_done:
            remainder.append(top)
            continue
        idx = -1
        for c in lookup.find_all_divisors(mono):
            if c != exclude and (idx < 0 or c < idx):
                idx = c
        if idx < 0:
            remainder.append(top)
            if top_only:
                tail_done = True
            continue
        g = basis[idx]
        mult = ring.mono_div(mono, g.lead_mono)
        scale = coeff * ff_inv(g.lead_coeff, p) % p
        if track_quotients:
            quotients[idx].append((scale, mult))
        queue.push_product(p - scale, mult, g, start=1)
    return quotients, Polynomial(remainder)


def prepare_inputs(ring: Ring, polys, reduce: bool, queue_cfg=None):
    """The nonzero inputs, monic and, if reduce, interreduced, sorted by
    decreasing lead term: the canonical generators of both engines."""
    inputs = [poly_monic(ring, poly_normalize(ring, g.terms)) for g in polys]
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
    are processed in list order each sweep.
    """
    work = [poly_monic(ring, poly_normalize(ring, g.terms)) for g in polys
            if g]
    table = MonomialTable(ring)
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
            _, r = classic_reduce(ring, g, others, top_only=False,
                                  queue_cfg=queue_cfg, track_quotients=False,
                                  table=table)
            r = poly_monic(ring, r)
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
    table = MonomialTable(ring)
    out = []
    for i, g in enumerate(minimal):
        _, r = classic_reduce(ring, g, minimal, lookup, queue_cfg=queue_cfg,
                              track_quotients=False, exclude=i, table=table)
        out.append(poly_monic(ring, r))
    out.sort(key=lambda g: g.lead_mono.key)
    return out


def reduces_to_zero(ring: Ring, f: Polynomial, basis, lookup=None,
                    queue_cfg=None) -> bool:
    """Membership oracle: does f top-reduce to zero against the basis?

    For a Groebner basis the choice of divisor cannot change the answer.
    """
    _, r = classic_reduce(ring, f, basis, lookup, top_only=True,
                          queue_cfg=queue_cfg, track_quotients=False)
    return not r
