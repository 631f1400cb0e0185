"""Sparse polynomials: strictly decreasing terms over a prime field.

A polynomial holds two parallel tuples: coeffs, each in [1, p-1], and
monos, the Monomials of its terms in strictly decreasing ring order.  The
zero polynomial has no terms.  Its packed form, built on first use and
kept, is one int holding coeffs[i] in the 64-bit slot i, so that one
big-integer multiply scales every coefficient: Ring takes p < 2^31, so a
product of a coefficient and a multiplier below p is below 2^62 and never
carries into the next slot.  The dict-based helpers at the bottom are
deliberately naive; the tests use them as independent oracles for the
queue-driven division code.
"""

from __future__ import annotations

import sys
from array import array

from .ring import Monomial, Ring, ff_inv


class Polynomial:
    """Immutable terms, strictly decreasing in the ring order."""

    __slots__ = ("coeffs", "monos", "_hash", "_packed")

    def __init__(self, coeffs, monos):
        self.coeffs = tuple(coeffs)
        self.monos = tuple(monos)
        self._hash = None
        self._packed = None

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        # monomials compare, and hash, by exponent vector
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs and self.monos == other.monos

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.coeffs, self.monos))
        return h

    @property
    def packed(self) -> int:
        """sum(coeffs[i] << 64*i), built in C and kept; its bytes in
        sys.byteorder are coeffs as an array('Q')."""
        v = self._packed
        if v is None:
            v = self._packed = int.from_bytes(array("Q", self.coeffs)
                                              .tobytes(), sys.byteorder)
        return v

    def __repr__(self):
        return "Polynomial(%d terms)" % len(self.coeffs)

    @property
    def lead_coeff(self) -> int:
        return self.coeffs[0]

    @property
    def lead_mono(self) -> Monomial:
        return self.monos[0]


ZERO = Polynomial((), ())


def poly_normalize(ring: Ring, raw_terms) -> Polynomial:
    """Sort (coeff, Monomial) terms, fold like monomials mod p and drop
    zeros."""
    p = ring.char
    acc = {}
    for c, m in raw_terms:
        k = m.key
        got = acc.get(k)
        if got is None:
            acc[k] = [c % p, m]
        else:
            got[0] = (got[0] + c) % p
    keys = sorted((k for k, (c, _) in acc.items() if c), reverse=True)
    return Polynomial([acc[k][0] for k in keys], [acc[k][1] for k in keys])


def poly_monic(ring: Ring, f: Polynomial) -> Polynomial:
    if not f or f.lead_coeff == 1:
        return f
    p = ring.char
    s = ff_inv(f.lead_coeff, p)
    return Polynomial([c * s % p for c in f.coeffs], f.monos)


# -- naive dict-based arithmetic (test oracles and cold paths) -----------

def poly_add(ring: Ring, f: Polynomial, g: Polynomial) -> Polynomial:
    return poly_normalize(ring, zip(f.coeffs + g.coeffs, f.monos + g.monos))


def poly_mul_term(ring: Ring, f: Polynomial, coeff: int, mono: Monomial) -> Polynomial:
    p = ring.char
    coeff %= p
    if coeff == 0 or not f:
        return ZERO
    mul = ring.mono_mul
    return Polynomial([c * coeff % p for c in f.coeffs],
                      [mul(m, mono) for m in f.monos])


def poly_from_exps(ring: Ring, pairs) -> Polynomial:
    """Build a polynomial from (coeff, exponent-tuple) pairs."""
    return poly_normalize(ring, [(c, ring.mono(e)) for c, e in pairs])
