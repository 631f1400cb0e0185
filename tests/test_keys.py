"""Integer signature, ratio and pair keys against the tuple encodings they
pack: each integer must order exactly like its tuple and be equal exactly
when the tuple is."""

import itertools
import random

import pytest

from gbengine import (ClassicConfig, ModuleOrder, PairTriangle, Ring,
                      SBConfig, builtin_ideal, koszul_signature,
                      poly_from_exps, sb_run)
from gbengine.buchberger import _ClassicEngine
from gbengine.ring import MAX_EXPONENT
from gbengine.sigbasis import _SBEngine, spair_word

RINGS = [Ring(32003, 4, "grevlex"), Ring(32003, 4, "lex"),
         Ring(32003, 5, "elim", 2)]


def _sign(x, y):
    return (x > y) - (x < y)


def _assert_same_order(ints, tuples):
    for (a, ta), (b, tb) in itertools.combinations(zip(ints, tuples), 2):
        assert _sign(a, b) == _sign(ta, tb), (ta, tb)


def _mono(ring, rng):
    # mostly small exponents, so that keys collide; some at the cap
    return ring.mono(tuple(rng.choice((0, 0, 1, 2, 3, MAX_EXPONENT - 1,
                                       rng.randrange(MAX_EXPONENT)))
                           for _ in range(ring.num_vars)))


def _tb(tiebreak, comp):
    return -comp if tiebreak == "low-gt" else comp


def _tuple_sig_key(kind, tiebreak, hd_keys, mono, comp):
    if kind == "schreyer":
        return (mono.key + hd_keys[comp], _tb(tiebreak, comp))
    return (comp, mono.key)


def _tuple_ratio_rank(kind, tiebreak, hd_keys, sig, lead, comp):
    if kind == "schreyer":
        return (sig.key - lead.key + hd_keys[comp], _tb(tiebreak, comp))
    return (comp, sig.key - lead.key)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.order_spec())
@pytest.mark.parametrize("kind", ["schreyer", "potop"])
@pytest.mark.parametrize("tiebreak", ["low-gt", "high-gt"])
@pytest.mark.parametrize("m", [3, 4])
def test_sig_key_and_ratio_rank_match_tuples(ring, kind, tiebreak, m):
    rng = random.Random("%s %s %s %d" % (ring.order_spec(), kind, tiebreak,
                                         m))
    # the first and last components share a lead, so their tie-breaks are
    # the two extremes, one ring-key step apart (one vs x_n under lex)
    leads = [_mono(ring, rng) for _ in range(m - 1)]
    leads.append(leads[0])
    hd = [g.key for g in leads]
    mo = ModuleOrder(kind, tiebreak, leads, ring.num_vars)
    last = ring.mono((0,) * (ring.num_vars - 1) + (1,))
    pool = [ring.one, last] + [_mono(ring, rng) for _ in range(10)]
    sigs = [(s, c) for s in pool for c in range(m)]
    _assert_same_order([mo.sig_key(s, c) for s, c in sigs],
                       [_tuple_sig_key(kind, tiebreak, hd, s, c)
                        for s, c in sigs])
    # random draws plus zero differences, so equal ranks occur
    ratios = [(rng.choice(pool), rng.choice(pool), rng.randrange(m))
              for _ in range(80)]
    ratios += [(s, s, c) for s in pool[:3] for c in range(m)]
    tuples = [_tuple_ratio_rank(kind, tiebreak, hd, s, l, c)
              for s, l, c in ratios]
    assert any(s.key < l.key for s, l, _ in ratios)
    assert len(set(tuples)) < len(tuples)
    _assert_same_order([mo.ratio_rank(s, l, c) for s, l, c in ratios],
                       tuples)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.order_spec())
def test_classic_pair_key_matches_tuple(ring):
    rng = random.Random(7)
    leads = [_mono(ring, rng) for _ in range(9)]
    inputs = [poly_from_exps(ring, [(1, g.exps)]) for g in leads]
    engine = _ClassicEngine(ring, inputs, ClassicConfig())
    pairs = [(i, j) for j in range(len(engine.leads)) for i in range(j)]
    ints, tuples = [], []
    for i, j in pairs:
        m = ring.mono_lcm(engine.leads[i], engine.leads[j])
        ints.append(engine._pair_key(i, j))
        tuples.append((m.deg, m.key))
    _assert_same_order(ints, tuples)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("kind", ["schreyer", "potop"])
@pytest.mark.parametrize("tiebreak", ["low-gt", "high-gt"])
def test_sb_pair_and_koszul_keys_match_signatures(order, kind, tiebreak):
    # a finished cyclic4 run, so that signatures are not all trivial
    base, polys = builtin_ideal("cyclic4")
    ring = Ring(base.char, base.num_vars, order)
    inputs = [poly_from_exps(ring, [(c, m.exps)
                                    for c, m in zip(g.coeffs, g.monos)])
              for g in polys]
    engine = _SBEngine(ring, inputs, SBConfig(module_order=kind,
                                              tiebreak=tiebreak))
    engine.run()
    entries = engine.entries
    assert any(e.sig_mono != ring.one for e in entries)
    for j in range(len(entries)):
        for i in range(j):
            a, b = entries[i], entries[j]
            word, comp = spair_word(ring, a, b)
            assert engine._pair_key(i, j) == engine.morder.sig_key(
                ring.mono_of_word(word), comp)
            assert engine._koszul_key(i, j) == engine.morder.sig_key(
                *koszul_signature(ring, a, b))


@pytest.mark.parametrize("name", ["hcyclic5", "katsura5"])
@pytest.mark.parametrize("kind, tiebreak", [("schreyer", "low-gt"),
                                            ("schreyer", "high-gt"),
                                            ("potop", "low-gt")])
def test_queued_pair_keys_are_pair_keys(monkeypatch, name, kind, tiebreak):
    # pair construction keys each queued pair from its signature word; the
    # pair triangle recomputes every later key with its key_fn, the
    # engine's _pair_key, so the two must agree on every pair
    queued = []
    real_add = PairTriangle.add_column

    def spy(self, j, pairs):
        queued.extend((i, j, key, self.key_fn) for i, key in pairs)
        real_add(self, j, pairs)

    monkeypatch.setattr(PairTriangle, "add_column", spy)
    ring, polys = builtin_ideal(name)
    sb_run(ring, polys, SBConfig(module_order=kind, tiebreak=tiebreak))
    assert len(queued) > 50
    for i, j, key, pair_key in queued:
        assert key == pair_key(i, j), (i, j)
