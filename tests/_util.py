"""Shared helpers for the test suite: reference comparators and oracles."""

import random

from gbengine import Polynomial, Ring, poly_from_exps


def grevlex_cmp(a_exps, b_exps):
    """Reference graded-reverse-lex comparison, straight off the definition."""
    da, db = sum(a_exps), sum(b_exps)
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(reversed(a_exps), reversed(b_exps)):
        if x != y:
            # last nonzero of a-b negative => a greater
            return 1 if x < y else -1
    return 0


def lex_cmp(a_exps, b_exps):
    for x, y in zip(a_exps, b_exps):
        if x != y:
            return -1 if x < y else 1
    return 0


def elim_cmp(a_exps, b_exps, k):
    da, db = sum(a_exps[:k]), sum(b_exps[:k])
    if da != db:
        return -1 if da < db else 1
    return grevlex_cmp(a_exps, b_exps)


def random_mono(ring, rng, max_exp=6):
    return ring.mono(tuple(rng.randrange(max_exp + 1)
                           for _ in range(ring.num_vars)))


def random_poly(ring, rng, max_terms=6, max_exp=6):
    raw = [(rng.randrange(1, ring.char), random_mono(ring, rng, max_exp))
           for _ in range(rng.randrange(1, max_terms + 1))]
    return poly_from_exps(ring, [(c, m.exps) for c, m in raw])


def spoly(ring, f, g):
    """Classic S-polynomial, dict arithmetic (independent of the engines)."""
    from gbengine import poly_normalize
    p = ring.char
    m = ring.mono_lcm(f.lead_mono, g.lead_mono)
    uf = ring.mono_div(m, f.lead_mono)
    ug = ring.mono_div(m, g.lead_mono)
    from gbengine.ring import ff_inv
    cf = ff_inv(f.lead_coeff, p)
    cg = ff_inv(g.lead_coeff, p)
    raw = [(c * cf % p, ring.mono_mul(mo, uf))
           for c, mo in zip(f.coeffs, f.monos)]
    raw += [((p - c) * cg % p, ring.mono_mul(mo, ug))
            for c, mo in zip(g.coeffs, g.monos)]
    return poly_normalize(ring, raw)


def reduces_to_zero(ring, f, basis, lookup=None):
    from gbengine import reduces_to_zero as _rz
    return _rz(ring, f, basis, lookup)


def is_reduced_gb(ring, basis):
    """Every S-poly reduces to zero; basis is interreduced and monic."""
    from gbengine import basis_lookup
    for g in basis:
        if g.lead_coeff != 1:
            return False
    lookup = basis_lookup(ring, basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not reduces_to_zero(ring, spoly(ring, basis[i], basis[j]),
                                   basis, lookup):
                return False
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        for mono in g.monos:
            for h in others:
                if ring.mono_divides(h.lead_mono, mono):
                    return False
    return True
