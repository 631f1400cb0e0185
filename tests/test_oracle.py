"""Both engines against an independent oracle: sympy's groebner.

sympy shares no code with gbengine, so an exact match of the whole
reduced basis, coefficients and term order included, checks the engines
from outside.  The package declares no dependencies, so the module is
skipped where sympy is missing.
"""

import pytest

from gbengine import (LEX, Ring, buchberger_run, builtin_ideal,
                      poly_from_exps, sb_run)

sympy = pytest.importorskip("sympy")

P = 32003

CASES = [("katsura4", "grevlex"), ("cyclic4", "grevlex"),
         ("katsura5", "grevlex"), ("katsura4", "lex"), ("cyclic4", "lex")]


def _ideal(name, order):
    ring, polys = builtin_ideal(name, P)
    if order == "lex":
        ring = Ring(P, ring.num_vars, LEX)
        polys = [poly_from_exps(ring, list(zip(g.coeffs,
                                               (m.exps for m in g.monos))))
                 for g in polys]
    return ring, polys


def _ours(ring, basis):
    """Each element as its (coeff, exps) terms in ring order, elements by
    ascending lead."""
    out = [tuple((c, m.exps) for c, m in zip(g.coeffs, g.monos))
           for g in basis]
    return sorted(out, key=lambda t: ring.mono(t[0][1]).key)


def _sympy(ring, polys, order):
    xs = sympy.symbols("x1:%d" % (ring.num_vars + 1))
    exprs = [sympy.Add(*[c * sympy.Mul(*[x ** e for x, e in zip(xs, m.exps)])
                         for c, m in zip(g.coeffs, g.monos)])
             for g in polys]
    gb = sympy.groebner(exprs, *xs, order=order, modulus=P, method="f5b")
    out = []
    for g in gb.polys:
        terms = [(int(c) % P, exps) for exps, c in g.terms()]
        terms.sort(key=lambda t: ring.mono(t[1]).key, reverse=True)
        out.append(tuple(terms))
    return sorted(out, key=lambda t: ring.mono(t[0][1]).key)


@pytest.mark.parametrize("name,order", CASES)
def test_both_engines_match_sympy(name, order):
    ring, polys = _ideal(name, order)
    want = _sympy(ring, polys, order)
    classic, _ = buchberger_run(ring, polys)
    assert _ours(ring, classic) == want
    assert _ours(ring, sb_run(ring, polys).groebner_basis()) == want
