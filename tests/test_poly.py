import random

from gbengine import (Ring, classic_reduce, poly_from_exps, poly_normalize,
                      poly_str)

from _util import naive_remainder, random_poly


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
    rem = classic_reduce(r, f, [g])
    assert poly_str(r, rem) == "x2^2"


def test_classic_reduce_self():
    r = Ring(101, 3)
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    assert not classic_reduce(r, g, [g])


def test_classic_reduce_no_divisible_term():
    r = Ring(101, 3)
    f = poly_from_exps(r, [(1, (0, 0, 3))])
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    assert classic_reduce(r, f, [g]) == f


def test_classic_reduce_zero_input():
    r = Ring(101, 3)
    g = poly_from_exps(r, [(1, (2, 0, 0))])
    assert not classic_reduce(r, poly_normalize(r, []), [g])


def test_classic_reduce_identity_and_contract():
    # r is the plain division's remainder, and no term of r is divisible
    # by any lead
    rng = random.Random(23)
    r = Ring(101, 3)
    for _ in range(150):
        f = random_poly(r, rng, max_terms=8, max_exp=5)
        basis = [random_poly(r, rng, max_terms=4, max_exp=3)
                 for _ in range(rng.randrange(1, 4))]
        basis = [g for g in basis if g]
        if not basis:
            continue
        rem = classic_reduce(r, f, basis)
        assert rem == naive_remainder(r, f, basis)
        for mono in rem.monos:
            for g in basis:
                assert not r.mono_divides(g.lead_mono, mono)
