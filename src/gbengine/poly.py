"""Sparse polynomials: strictly decreasing term lists over a prime field.

A term is a (coeff, Monomial) pair with coeff in [1, p-1].  The zero
polynomial is the empty term list.  The dict-based helpers at the bottom
are deliberately naive; the tests use them as independent oracles for the
queue-driven division code.
"""

from __future__ import annotations

from .ring import Monomial, Ring, ff_inv


class Polynomial:
    """Immutable term list, strictly decreasing in the ring order."""

    __slots__ = ("terms", "_coeffs", "_keys", "_monos", "_hash")

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._coeffs = None
        self._keys = None
        self._monos = None
        self._hash = None

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(c == d and m.exps == n.exps
                   for (c, m), (d, n) in zip(self.terms, other.terms))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple((c, m.exps) for c, m in self.terms))
        return h

    def __repr__(self):
        return "Polynomial(%d terms)" % len(self.terms)

    @property
    def lead_coeff(self) -> int:
        return self.terms[0][0]

    @property
    def lead_mono(self) -> Monomial:
        return self.terms[0][1]

    # Parallel coefficient/key/monomial tuples, cached for the reducer
    # queues whose inner loops only touch ints.
    def arrays(self):
        if self._coeffs is None:
            self._coeffs = tuple(c for c, _ in self.terms)
            self._monos = tuple(m for _, m in self.terms)
            self._keys = tuple(m.key for m in self._monos)
        return self._coeffs, self._keys, self._monos


ZERO = Polynomial(())


def poly_normalize(ring: Ring, raw_terms) -> Polynomial:
    """Sort terms, fold like monomials mod p and drop zeros."""
    p = ring.char
    acc = {}
    for c, m in raw_terms:
        k = m.key
        got = acc.get(k)
        if got is None:
            acc[k] = [c % p, m]
        else:
            got[0] = (got[0] + c) % p
    out = [(c, m) for c, m in acc.values() if c]
    out.sort(key=lambda t: t[1].key, reverse=True)
    return Polynomial(out)


def poly_monic(ring: Ring, f: Polynomial) -> Polynomial:
    if not f or f.lead_coeff == 1:
        return f
    p = ring.char
    s = ff_inv(f.lead_coeff, p)
    return Polynomial([(c * s % p, m) for c, m in f.terms])


# -- naive dict-based arithmetic (test oracles and cold paths) -----------

def poly_add(ring: Ring, f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_normalize(ring, list(f.terms) + list(g.terms))


def poly_sub(ring: Ring, f: Polynomial, g: Polynomial) -> Polynomial:
    p = ring.char
    return poly_normalize(ring,
                          list(f.terms) + [(p - c, m) for c, m in g.terms])


def poly_mul_term(ring: Ring, f: Polynomial, coeff: int, mono: Monomial) -> Polynomial:
    p = ring.char
    coeff %= p
    if coeff == 0 or not f:
        return ZERO
    mul = ring.mono_mul
    return Polynomial([(c * coeff % p, mul(m, mono)) for c, m in f.terms])


def poly_mul(ring: Ring, f: Polynomial, g: Polynomial) -> Polynomial:
    raw = []
    mul = ring.mono_mul
    for c, m in f.terms:
        for d, n in g.terms:
            raw.append((c * d, mul(m, n)))
    return poly_normalize(ring, raw)


def poly_from_exps(ring: Ring, pairs) -> Polynomial:
    """Build a polynomial from (coeff, exponent-tuple) pairs."""
    return poly_normalize(ring, [(c, ring.mono(e)) for c, e in pairs])
