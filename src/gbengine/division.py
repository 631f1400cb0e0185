"""The one reduction loop of both engines, and basis normalization helpers.

divide_queue keeps the pending terms of the polynomial being reduced in a
reducer queue, repeatedly extracts the maximal one and asks a divisor
lookup which basis leads divide it.  A reducer rule argument picks the
divisor among those candidates: classic division, interreduction and the
final autoreduction take the default, the smallest basis index, while
the signature engine passes its regular-reducer rule.  Either way the
choice is deterministic, so runs are reproducible no matter which lookup
structure serves the divisor queries.
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
                   track_quotients: bool = True,
                   table: MonomialTable | None = None):
    """Divide f by the basis: returns (per-basis quotient term lists, r).

    Guarantees f = sum q_i g_i + r with hd f >= hd(q_i g_i); no term of r
    is divisible by any live lead term (top_only: the lead term of r only).
    The reducer for a term is the valid divisor of smallest basis index,
    so the outcome does not depend on the lookup structure.

    The queue interns its products in table, which callers dividing many
    polynomials share across the calls; without one the call makes a
    table that lives only as long as the division.
    """
    if lookup is None:
        lookup = basis_lookup(ring, basis, "list")
    queue = ReducerQueue(ring, queue_cfg, table)
    queue.push_product(1, ring.one, f)
    return divide_queue(ring, queue, basis, lookup, top_only,
                        track_quotients)


def divide_queue(ring: Ring, queue: ReducerQueue, basis, lookup,
                 top_only: bool, track_quotients: bool = False, pick=None):
    """classic_reduce of the polynomial whose terms are pending in queue,
    which it empties.

    pick(mono, cands) chooses the reducer of a popped term mono among
    cands, the nonempty list of basis indices whose lead divides it, and
    returns its index, or None to keep the term.  The default is the
    smallest index.
    """
    p = ring.char
    quotients = [[] for _ in basis] if track_quotients else None
    coeffs = []
    monos = []
    tail_done = False
    while True:
        top = queue.pop_max()
        if top is None:
            break
        coeff, mono = top
        if not tail_done:
            cands = lookup.find_all_divisors(mono)
            if cands:
                idx = min(cands) if pick is None else pick(mono, cands)
                if idx is not None:
                    g = basis[idx]
                    mult = ring.mono_div(mono, g.monos[0])
                    lc = g.coeffs[0]
                    scale = coeff if lc == 1 else coeff * ff_inv(lc, p) % p
                    if track_quotients:
                        quotients[idx].append((scale, mult))
                    queue.push_product(p - scale, mult, g, start=1)
                    continue
            tail_done = top_only
        coeffs.append(coeff)
        monos.append(mono)
    return quotients, Polynomial(coeffs, monos)


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
    for g in minimal:
        # no other lead divides g's lead, and g's lead divides no smaller
        # term: reduce the tail and put the lead back in front
        queue = ReducerQueue(ring, queue_cfg, table)
        queue.push_product(1, ring.one, g, start=1)
        _, r = divide_queue(ring, queue, minimal, lookup, top_only=False)
        out.append(poly_monic(ring, Polynomial((g.lead_coeff,) + r.coeffs,
                                               (g.lead_mono,) + r.monos)))
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
