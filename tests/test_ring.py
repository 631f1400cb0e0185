import functools
import random
from operator import add, le, sub

import pytest

from gbengine import GREVLEX, LEX, Ring, ff_inv
from gbengine.ring import ELIM, MAX_EXPONENT, MAX_VARS

from _util import elim_cmp, grevlex_cmp, lex_cmp, random_mono

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the package declares no dependencies
    given = None


def _cmp(a, b):
    """-1, 0 or +1 as a's order key is below, equal to or above b's."""
    return (a.key > b.key) - (a.key < b.key)


def egcd_inverse(a, p):
    # extended Euclid, the independent oracle for ff_inv
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_ff_inv_examples():
    assert ff_inv(1, 101) == 1
    assert ff_inv(2, 101) == egcd_inverse(2, 101) == 51
    assert ff_inv(100, 101) == egcd_inverse(100, 101) == 100


def test_ff_inv_not_invertible():
    with pytest.raises(ValueError):
        ff_inv(0, 101)
    with pytest.raises(ValueError):
        ff_inv(202, 101)


def test_ff_inv_random():
    rng = random.Random(7)
    for p in (2, 3, 101, 32003):
        for _ in range(200):
            a = rng.randrange(1, p)
            assert a * ff_inv(a, p) % p == 1


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(4, 3)                    # not prime
    with pytest.raises(ValueError):
        Ring(2**31 + 11, 3)           # out of range
    with pytest.raises(ValueError):
        Ring(101, 0)
    with pytest.raises(ValueError):
        Ring(101, 3, "elim", 3)       # block must be < num_vars
    with pytest.raises(ValueError):
        Ring(101, 3, "weird")


def test_characteristic_range_checked_before_primality(monkeypatch):
    # a primality test of a 4,000-digit characteristic takes seconds;
    # out of range, it is never run
    def no_prime_test(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr("gbengine.ring.is_prime", no_prime_test)
    for char in (2**31 + 11, 10**4000 + 1):
        with pytest.raises(ValueError, match="out of range"):
            Ring(char, 3)


def test_variable_count_capped():
    # a degree sum over every field must fit one 28-bit key digit
    assert Ring(101, MAX_VARS).num_vars == MAX_VARS
    with pytest.raises(ValueError, match="variable count not in 1..%d"
                       % MAX_VARS):
        Ring(101, MAX_VARS + 1)


def test_key_grevlex_examples():
    r = Ring(101, 3)
    x2 = r.mono((2, 0, 0))
    xy = r.mono((1, 1, 0))
    xz = r.mono((1, 0, 1))
    y2 = r.mono((0, 2, 0))
    assert _cmp(x2, r.mono((2, 0, 0))) == 0
    assert _cmp(x2, xy) == 1
    assert _cmp(xz, y2) == -1


def test_mono_checks_length_then_range():
    r = Ring(101, 2)
    for exps in ((1,), (1, 2, 3), (-1,), (MAX_EXPONENT, 0, 0)):
        with pytest.raises(ValueError, match="^wrong number of exponents$"):
            r.mono(exps)
    for exps in ((-1, 0), (0, -1), (MAX_EXPONENT, 0), (3, MAX_EXPONENT)):
        with pytest.raises(ValueError, match="^exponent out of range$"):
            r.mono(exps)
    top = r.mono((MAX_EXPONENT - 1, 2))
    assert top.exps == (MAX_EXPONENT - 1, 2) and top.deg == MAX_EXPONENT + 1
    # keys at the cap still order as the reference does
    for other in ((MAX_EXPONENT - 1, 1), (MAX_EXPONENT - 2, 3),
                  (2, MAX_EXPONENT - 1)):
        assert _cmp(top, r.mono(other)) == grevlex_cmp(top.exps, other)


def test_mono_ops_examples():
    r = Ring(101, 3)
    a = r.mono((2, 1, 0))   # x^2 y
    b = r.mono((1, 2, 0))   # x y^2
    assert r.mono_gcd(a, b).exps == (1, 1, 0)
    assert r.mono_lcm(r.mono((2, 0, 0)), r.mono((0, 1, 0))).exps == (2, 1, 0)
    assert r.mono_div(a, r.mono((1, 1, 0))).exps == (1, 0, 0)
    with pytest.raises(ValueError):
        r.mono_div(r.mono((1, 1, 0)), r.mono((0, 2, 0)))
    assert r.mono_divides(r.mono((1, 1, 0)), a)
    assert not r.mono_divides(a, r.mono((1, 1, 0)))


def test_mono_caches():
    r = Ring(101, 4)
    rng = random.Random(3)
    for _ in range(200):
        a = random_mono(r, rng)
        b = random_mono(r, rng)
        ab = r.mono_mul(a, b)
        assert ab.deg == sum(ab.exps)
        assert ab.key == _ref_key(r, ab.exps)
        g = r.mono_gcd(a, b)
        d = r.mono_div(ab, b)
        assert d.exps == a.exps and d.key == a.key and d.deg == a.deg
        assert g.deg == sum(g.exps)


def test_hash_is_function_of_exponents():
    r = Ring(101, 3)
    a = r.mono((1, 2, 3))
    b = r.mono_mul(r.mono((1, 2, 0)), r.mono((0, 0, 3)))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(r.mono((1, 2, 3)))


@pytest.mark.parametrize("order,ref", [
    (GREVLEX, grevlex_cmp),
    (LEX, lex_cmp),
])
def test_key_matches_reference_order(order, ref):
    rng = random.Random(11)
    for nv in (1, 2, 3, 7):
        r = Ring(101, nv, order)
        for _ in range(2000):
            a = random_mono(r, rng, 9)
            b = random_mono(r, rng, 9)
            assert _cmp(a, b) == ref(a.exps, b.exps)


def test_key_matches_reference_elim():
    rng = random.Random(13)
    for nv, k in ((3, 1), (5, 2), (6, 4)):
        r = Ring(101, nv, "elim", k)
        for _ in range(2000):
            a = random_mono(r, rng, 9)
            b = random_mono(r, rng, 9)
            assert _cmp(a, b) == elim_cmp(a.exps, b.exps, k)


def test_order_compatible_with_multiplication():
    # a < b implies ca < cb, 10^5 random triples across the orders
    rng = random.Random(17)
    rings = [Ring(101, 4), Ring(101, 4, LEX), Ring(101, 5, "elim", 2)]
    for _ in range(100_000 // 3):
        for r in rings:
            a = random_mono(r, rng, 8)
            b = random_mono(r, rng, 8)
            c = random_mono(r, rng, 8)
            ca, cb = r.mono_mul(c, a), r.mono_mul(c, b)
            assert _cmp(a, b) == _cmp(ca, cb)


def test_exponent_bound_enforced():
    r = Ring(101, 2)
    with pytest.raises(ValueError):
        r.mono((1 << 16, 0))
    with pytest.raises(ValueError):
        r.mono((-1, 0))


def test_mono_mul_enforces_exponent_bound():
    r = Ring(101, 2)
    a = r.mono((60000, 0))
    with pytest.raises(ValueError):
        r.mono_mul(a, a)
    top = r.mono_mul(a, r.mono((5535, 7)))
    assert top.exps == ((1 << 16) - 1, 7)
    with pytest.raises(ValueError):
        r.mono_mul(top, r.mono((1, 0)))
    # a degree past the cap spread over several variables is fine
    assert r.mono_mul(a, r.mono((0, 60000))).exps == (60000, 60000)


# -- packed exponent words against their exponent-tuple definitions ---------

WORD_VAR_COUNTS = (1, 2, 7, 10, MAX_VARS)


def _rings(n):
    """grevlex, lex and elim 1, n // 2 and n - 1 rings in n variables."""
    out = [Ring(101, n), Ring(101, n, LEX)]
    out += [Ring(101, n, ELIM, k) for k in sorted({1, n // 2, n - 1})
            if 0 < k < n]
    return out


WORD_RINGS = {n: _rings(n) for n in WORD_VAR_COUNTS}


def _word(ring, exps):
    # reference packing: exponent i in the 28-bit field at bit 28 * i,
    # at bit 28 * (n - 1 - i) under lex
    n = len(exps)
    return sum(e << 28 * (n - 1 - i if ring.order == LEX else i)
               for i, e in enumerate(exps))


@functools.lru_cache(maxsize=None)
def _weights(order, n, k):
    # the order's weight per variable, digit base B = 2^28
    B = 1 << 28
    if order == LEX:
        return [B ** (n - 1 - i) for i in range(n)]
    # grevlex: deg * B^n - sum e_i B^i; elim adds block degree * B^(n+2)
    return [B ** n - B ** i + (B ** (n + 2) if i < k else 0)
            for i in range(n)]


def _ref_key(ring, exps):
    # reference key: the dot product of exps with the order's weights
    weights = _weights(ring.order, ring.num_vars, ring.elim_block or 0)
    return sum(e * w for e, w in zip(exps, weights))


def _assert_made_right(ring, mono, exps):
    assert mono.exps == exps
    assert mono.deg == sum(exps)
    assert mono.key == _ref_key(ring, exps)
    assert mono.word == _word(ring, exps)


def test_keys_match_reference_weights():
    # every variable count and order of WORD_RINGS, at the exponent cap
    # too, where a degree sum passes 16 bits
    rng = random.Random(23)
    top = MAX_EXPONENT - 1
    for rings in WORD_RINGS.values():
        for ring in rings:
            n = ring.num_vars
            for exps in ([top] * n, [0] * n, [top] + [0] * (n - 1),
                         [0] * (n - 1) + [top]):
                _assert_made_right(ring, ring.mono(exps), tuple(exps))
            for _ in range(20):
                exps = tuple(rng.choice((0, 1, top, rng.randrange(top + 1)))
                             for _ in range(n))
                _assert_made_right(ring, ring.mono(exps), exps)


def _pairs():
    """(ring, a, b): two monomials of one of WORD_RINGS, each exponent in
    [0, 2^16), with 0, 2^16 - 1 and small ones drawn often; b is unrelated
    to a, a multiple of a, or shares no variable with a."""
    top = MAX_EXPONENT - 1
    entry = st.one_of(st.sampled_from((0, top)), st.integers(0, 3),
                      st.integers(0, top))

    @st.composite
    def pairs(draw):
        n = draw(st.sampled_from(WORD_VAR_COUNTS))
        a = draw(st.lists(entry, min_size=n, max_size=n))
        b = draw(st.lists(entry, min_size=n, max_size=n))
        how = draw(st.sampled_from(("free", "multiple", "coprime")))
        if how == "multiple":
            b = [min(x + y, top) for x, y in zip(a, b)]
        elif how == "coprime":
            a = [0 if y else x for x, y in zip(a, b)]
        ring = draw(st.sampled_from(WORD_RINGS[n]))
        return ring, ring.mono(a), ring.mono(b)
    return pairs()


def _over_pairs(check):
    """check(ring, a, b) as a property over _pairs(); skipped where
    hypothesis is missing."""
    if given is None:
        def test():
            pytest.skip("hypothesis is not installed")
        return test

    @settings(derandomize=True, deadline=None, database=None)
    @given(_pairs())
    def test(case):
        check(*case)
    return test


@_over_pairs
def test_words_of_made_monomials(ring, a, b):
    for m in (a, b):
        _assert_made_right(ring, m, m.exps)


@_over_pairs
def test_exps_of_inverts_word_of(ring, a, b):
    for m in (a, b, ring.mono_lcm(a, b)):
        assert ring.exps_of(ring.word_of(m.exps)) == m.exps
        assert ring.exps_of(m.word) == m.exps


@_over_pairs
def test_word_divides(ring, a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        assert ring.mono_divides(x, y) == all(map(le, x.exps, y.exps))


@_over_pairs
def test_word_coprime(ring, a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        assert ring.mono_coprime(x, y) == \
            (not any(map(min, x.exps, y.exps)))


@_over_pairs
def test_word_lcm(ring, a, b):
    _assert_made_right(ring, ring.mono_lcm(a, b),
                       tuple(map(max, a.exps, b.exps)))


@_over_pairs
def test_word_mul(ring, a, b):
    exps = tuple(map(add, a.exps, b.exps))
    if max(exps) >= MAX_EXPONENT:
        with pytest.raises(ValueError, match="^exponent out of range$"):
            ring.mono_mul(a, b)
    else:
        _assert_made_right(ring, ring.mono_mul(a, b), exps)


@_over_pairs
def test_word_div(ring, a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        exps = tuple(map(sub, y.exps, x.exps))
        if min(exps) < 0:
            with pytest.raises(ValueError, match="^not divisible$"):
                ring.mono_div(y, x)
        else:
            _assert_made_right(ring, ring.mono_div(y, x), exps)
