"""Built-in benchmark ideal families: katsura and (homogenized) cyclic.

katsura_ideal(n) follows the size naming where "katsura-n" has n
variables and n equations (one linear relation plus n-1 quadratic
convolution identities), not the indexing where katsura(n) lives in n+1
variables.
"""

from __future__ import annotations

from .poly import poly_from_exps
from .ring import Ring, clip, is_decimal

DEFAULT_CHAR = 101      # the field of a builtin ideal given no characteristic


def katsura_ideal(n: int, p: int = DEFAULT_CHAR):
    """Katsura system over F_p, grevlex: n variables u_0..u_{n-1} and n
    equations."""
    if n < 1:
        raise ValueError("katsura size too small")
    ring = Ring(p, n)
    top = n - 1                      # largest index of u_0..u_top
    # linear relation: u_0 + 2*(u_1 + ... + u_top) - 1
    lin = [(1, _unit_exps(n, 0))]
    for i in range(1, n):
        lin.append((2, _unit_exps(n, i)))
    lin.append((p - 1, (0,) * n))
    linear = poly_from_exps(ring, lin)
    # convolution identities: sum_{i+j=k, |i|,|j|<=top} u_i u_j = u_k
    quads = []
    for k in range(top):
        raw = []
        for i in range(-top, top + 1):
            j = k - i
            if -top <= j <= top:
                e = [0] * n
                e[abs(i)] += 1
                e[abs(j)] += 1
                raw.append((1, tuple(e)))
        raw.append((p - 1, _unit_exps(n, k)))
        quads.append(poly_from_exps(ring, raw))
    return ring, [linear] + quads


def _unit_exps(n, i, power=1):
    e = [0] * n
    e[i] = power
    return tuple(e)


def cyclic_ideal(n: int, p: int = DEFAULT_CHAR, homogenize: bool = False):
    """Cyclic-n system over F_p, grevlex; homogenize adds a variable h and
    turns x_1...x_n - 1 into x_1...x_n - h^n."""
    if n < 2:
        raise ValueError("cyclic size too small")
    nv = n + 1 if homogenize else n
    ring = Ring(p, nv)
    polys = []
    for d in range(1, n):
        raw = []
        for i in range(n):
            e = [0] * nv
            for j in range(d):
                e[(i + j) % n] += 1
            raw.append((1, tuple(e)))
        polys.append(poly_from_exps(ring, raw))
    e = [0] * nv
    for i in range(n):
        e[i] = 1
    last = [(1, tuple(e))]
    if homogenize:
        last.append((p - 1, _unit_exps(nv, n, n)))
    else:
        last.append((p - 1, (0,) * nv))
    polys.append(poly_from_exps(ring, last))
    return ring, polys


def builtin_ideal(name: str, p: int = DEFAULT_CHAR):
    """Resolve names like katsura10, cyclic5 or hcyclic6."""
    for prefix, builder in (("hcyclic", lambda k: cyclic_ideal(k, p, True)),
                            ("katsura", lambda k: katsura_ideal(k, p)),
                            ("cyclic", lambda k: cyclic_ideal(k, p))):
        size = name[len(prefix):]
        if name.startswith(prefix) and is_decimal(size):
            if len(size) > 3:       # no family that large fits MAX_VARS
                raise ValueError("%s size out of range" % prefix)
            return builder(int(size))
    raise ValueError("unknown builtin ideal %r" % (clip(name),))
