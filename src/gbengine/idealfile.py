"""Text format for ideals.

Line 1: the characteristic p.  Line 2: the variable count.  Line 3: the
order spec ("grevlex", "lex" or "elim <k>").  Every further non-empty
line is one polynomial built from terms like "3*x1^2*x2" joined by + and
-.  Printing is canonical (terms strictly decreasing, coefficients as
least positive residues, no minus signs), so parse-print-parse is a fixed
point.
"""

from __future__ import annotations

import re

from .poly import Polynomial, poly_normalize
from .ring import (MAX_VARS, Ring, clip, is_decimal, is_prime,
                   ring_from_order_spec)

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^(?:([0-9]+)|x([0-9]+)(?:\^([0-9]+))?)$")


class IdealFileError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _int(literal: str, error: str, lineno: int) -> int:
    try:
        if is_decimal(literal):
            return int(literal)
    except ValueError:          # more digits than int() takes
        pass
    raise IdealFileError(error, lineno)


def _parse_poly(ring: Ring, text: str, lineno: int) -> Polynomial:
    p = ring.char
    terms = []
    chunks = [c.strip() for c in _TERM_SPLIT.split(text.replace(" ", ""))
              if c.strip()]
    if not chunks:
        raise IdealFileError("empty polynomial", lineno)
    for chunk in chunks:
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise IdealFileError("dangling sign", lineno)
        coeff = 1
        exps = [0] * ring.num_vars
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise IdealFileError("bad term factor %r" % clip(factor),
                                     lineno)
            if m.group(1) is not None:
                coeff = coeff * _int(m.group(1), "coefficient literal too "
                                     "long", lineno) % p
            else:
                var = _int(m.group(2), "variable index out of range", lineno)
                if not 1 <= var <= ring.num_vars:
                    raise IdealFileError(
                        "variable index %s out of range" % clip(str(var)),
                        lineno)
                exps[var - 1] += (_int(m.group(3), "exponent out of range",
                                       lineno) if m.group(3) else 1)
        try:
            mono = ring.mono(exps)
        except ValueError as exc:
            raise IdealFileError(str(exc), lineno)
        terms.append((sign * coeff, mono))
    return poly_normalize(ring, terms)


def parse_ideal(text: str):
    """Parse the ideal file format: returns (Ring, list of Polynomial)."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise IdealFileError("expected characteristic, num_vars and order "
                             "header lines")
    head = [line.strip() for line in lines[:3]]
    p = _int(head[0], "bad characteristic %r" % clip(head[0]), 1)
    if not 2 <= p < 2**31 or not is_prime(p):
        raise IdealFileError("characteristic not prime", 1)
    nv = _int(head[1], "bad variable count %r" % clip(head[1]), 2)
    if not 1 <= nv <= MAX_VARS:
        raise IdealFileError("variable count not in 1..%d" % MAX_VARS, 2)
    try:
        ring = ring_from_order_spec(p, nv, head[2])
    except ValueError as exc:
        raise IdealFileError(str(exc), 3)
    polys = []
    for lineno, line in enumerate(lines[3:], start=4):
        line = line.strip()
        if not line:
            continue
        polys.append(_parse_poly(ring, line, lineno))
    return ring, polys


def mono_str(ring: Ring, mono) -> str:
    parts = []
    for i, e in enumerate(mono.exps):
        if e == 1:
            parts.append("x%d" % (i + 1))
        elif e > 1:
            parts.append("x%d^%d" % (i + 1, e))
    return "*".join(parts) if parts else "1"


def poly_str(ring: Ring, f: Polynomial, texts=None) -> str:
    """f as text.  texts maps words to mono_str texts; the polynomials of
    one output share it, as they repeat few distinct monomials."""
    if not f:
        return "0"
    texts = {} if texts is None else texts
    parts = []
    for c, m in zip(f.coeffs, f.monos):
        ms = texts.get(m.word)
        if ms is None:
            ms = texts[m.word] = mono_str(ring, m)
        if ms == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(ms)
        else:
            parts.append("%d*%s" % (c, ms))
    return "+".join(parts)


def print_ideal(ring: Ring, polys) -> str:
    texts = {}
    lines = [str(ring.char), str(ring.num_vars), ring.order_spec()]
    lines += [poly_str(ring, g, texts) for g in polys]
    return "\n".join(lines) + "\n"
