import random

from gbengine import (Ring, classic_reduce, poly_add, poly_from_exps,
                      poly_mul_term, poly_normalize, poly_str)

from _util import random_poly


def test_normalize_cancellation():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(3, (2, 0, 0)), (98, (2, 0, 0))])
    assert not f


def test_normalize_sorts():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(1, (0, 1, 0)), (1, (1, 0, 0))])
    assert [m.exps for m in f.monos] == [(1, 0, 0), (0, 1, 0)]


def test_normalize_folds():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(2, (1, 0, 0)), (3, (1, 0, 0)), (1, (0, 0, 0))])
    assert f.coeffs == (5, 1)
    assert [m.exps for m in f.monos] == [(1, 0, 0), (0, 0, 0)]


def _mono(r, *exps):
    return r.mono(exps)


def test_classic_reduce_one_step():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(1, (2, 1, 0))])            # x^2 y
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])  # x^2 - y
    quot, rem = classic_reduce(r, f, [g])
    assert poly_str(r, rem) == "x2^2"
    assert [(c, m.exps) for c, m in quot[0]] == [(1, (0, 1, 0))]


def test_classic_reduce_self():
    r = Ring(101, 3)
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    _, rem = classic_reduce(r, g, [g])
    assert not rem


def test_classic_reduce_no_divisible_term():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(1, (0, 0, 3))])
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    _, rem = classic_reduce(r, f, [g])
    assert rem == f


def test_classic_reduce_zero_input():
    r = Ring(101, 3)
    g = poly_from_exps(r, [(1, (2, 0, 0))])
    quot, rem = classic_reduce(r, poly_normalize(r, []), [g])
    assert not rem and quot[0] == []


def test_classic_reduce_identity_and_contract():
    # f = sum q_i g_i + r, and no term of r is divisible by any lead
    rng = random.Random(23)
    r = Ring(101, 3)
    for _ in range(150):
        f = random_poly(r, rng, max_terms=8, max_exp=5)
        basis = [random_poly(r, rng, max_terms=4, max_exp=3)
                 for _ in range(rng.randrange(1, 4))]
        basis = [g for g in basis if g]
        if not basis:
            continue
        quot, rem = classic_reduce(r, f, basis)
        rebuilt = rem
        for q, g in zip(quot, basis):
            for c, m in q:
                rebuilt = poly_add(r, rebuilt, poly_mul_term(r, g, c, m))
                if f:
                    # hd f >= hd(q_i g_i)
                    assert r.mono_mul(m, g.lead_mono).key <= f.lead_mono.key
        assert rebuilt == f
        for mono in rem.monos:
            for g in basis:
                assert not r.mono_divides(g.lead_mono, mono)


def test_classic_reduce_top_only():
    r = Ring(101, 2)
    # f = x^2 + x, basis {x}: top term reducible, then x reducible too,
    # but top-only must stop reducing after the first irreducible term.
    f = poly_from_exps(r, [(1, (2, 0)), (1, (1, 1)), (1, (0, 1))])
    g = poly_from_exps(r, [(1, (1, 0)), (1, (0, 1))])  # x + y
    _, rem_full = classic_reduce(r, f, [g])
    _, rem_top = classic_reduce(r, f, [g], top_only=True)
    # the full remainder has no x at all
    assert all(m.exps[0] == 0 for m in rem_full.monos)
    # top-only guarantees just the lead term
    if rem_top:
        assert not r.mono_divides(g.lead_mono, rem_top.lead_mono)

