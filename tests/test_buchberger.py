import itertools
import random

import pytest

from gbengine import (ClassicConfig, Ring, buchberger_run, builtin_ideal,
                      graph_criterion, lcm_criterion, poly_from_exps,
                      poly_str)
from gbengine.buchberger import _ClassicEngine
from gbengine.division import prepare_inputs
from gbengine.pairbits import BitTriangle

from _util import is_reduced_gb, reduces_to_zero, spoly


def _r3():
    return Ring(101, 3)


def _mono_poly(r, exps):
    return poly_from_exps(r, [(1, exps)])


def _lcm(r, leads, a, b):
    # the criteria take the pair's lcm as an exponent word
    return r.mono_lcm(leads[a], leads[b]).word


def test_relprime_examples():
    r = _r3()
    assert r.mono_coprime(r.mono((2, 0, 0)), r.mono((0, 1, 0)))
    assert not r.mono_coprime(r.mono((1, 1, 0)), r.mono((0, 1, 1)))
    assert r.mono_coprime(r.mono((0, 0, 0)), r.mono((1, 1, 1)))


def test_lcm_criterion_strict_divisor_case():
    r = _r3()
    # leads: a=x^2y^2, b=y^2z^2, c=xyz: lcm(a,c) and lcm(b,c) are strict
    # divisors of lcm(a,b)=x^2y^2z^2, so (a,b) goes regardless of the bits
    leads = [r.mono((2, 2, 0)), r.mono((0, 2, 2)), r.mono((1, 1, 1))]
    tri = BitTriangle()
    assert lcm_criterion(leads, 0, 1, 2, _lcm(r, leads, 0, 1), r.guard,
                         tri)


def test_lcm_criterion_equal_lcm_blocks_without_bit():
    r = _r3()
    # lcm(a,c) == lcm(a,b): not eliminable until (a,c) is marked done
    leads = [r.mono((1, 1, 0)), r.mono((1, 0, 1)), r.mono((0, 1, 1))]
    m = _lcm(r, leads, 0, 1)
    tri = BitTriangle()
    assert not lcm_criterion(leads, 0, 1, 2, m, r.guard, tri)
    tri.set(0, 2)
    # (b,c) still open
    assert not lcm_criterion(leads, 0, 1, 2, m, r.guard, tri)
    tri.set(1, 2)
    assert lcm_criterion(leads, 0, 1, 2, m, r.guard, tri)


def test_lcm_criterion_inapplicable_divisor():
    r = _r3()
    leads = [r.mono((2, 0, 0)), r.mono((0, 2, 0)), r.mono((0, 0, 1))]
    assert not lcm_criterion(leads, 0, 1, 2, _lcm(r, leads, 0, 1), r.guard,
                             BitTriangle())


def test_three_way_equal_lcm_exactly_one_eliminable():
    # xy, xz, yz: all three pairwise lcms equal xyz; processing any two
    # pairs first lets the criterion eliminate exactly the third
    r = _r3()
    leads = [r.mono((1, 1, 0)), r.mono((1, 0, 1)), r.mono((0, 1, 1))]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for order in itertools.permutations(pairs):
        tri = BitTriangle()
        eliminated = []
        for (a, b) in order:
            c = ({0, 1, 2} - {a, b}).pop()
            if lcm_criterion(leads, a, b, c, _lcm(r, leads, a, b), r.guard,
                             tri):
                eliminated.append((a, b))
            tri.set(a, b)     # eliminated or reduced either way
        assert len(eliminated) == 1
        assert eliminated[0] == order[-1]


def test_graph_criterion_examples():
    r = _r3()
    leads = [r.mono((1, 1, 0)), r.mono((1, 0, 1))]
    tri = BitTriangle()
    assert not graph_criterion(leads, 0, 1, _lcm(r, leads, 0, 1), r.guard,
                               tri, [0, 1])
    # third vertex dividing m with both lcms != m gives the path a-c-b
    leads = [r.mono((2, 1, 0)), r.mono((1, 0, 2)), r.mono((1, 1, 1))]
    assert r.mono_divides(leads[2], r.mono_lcm(leads[0], leads[1]))
    assert graph_criterion(leads, 0, 1, _lcm(r, leads, 0, 1), r.guard, tri,
                           [0, 1, 2])


def _connected_oracle(leads, a, b, m, tri, vertices):
    # transitive closure of the edge relation over every vertex; m is the
    # lcm's exponent tuple
    verts = sorted(set(vertices) | {a, b})
    reach = {(u, v): u == v or tuple(map(max, leads[u].exps,
                                         leads[v].exps)) != m
             or tri.get(u, v) for u in verts for v in verts}
    for w in verts:
        for u in verts:
            for v in verts:
                if reach[u, w] and reach[w, v]:
                    reach[u, v] = True
    return reach[a, b]


def test_graph_criterion_matches_closure_oracle():
    rng = random.Random(131)
    r = _r3()
    outcomes = []
    for _ in range(500):
        n = rng.randint(3, 7)
        leads = [r.mono(tuple(rng.randint(0, 2) for _ in range(3)))
                 for _ in range(n)]
        tri = BitTriangle()
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                tri.set(i, j)
        a, b = rng.sample(range(n), 2)
        m = r.mono_lcm(leads[a], leads[b])
        vertices = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.5:
            vertices += [a, b]
        rng.shuffle(vertices)
        want = _connected_oracle(leads, a, b, m.exps, tri, vertices)
        assert graph_criterion(leads, a, b, m.word, r.guard, tri,
                               vertices) == want
        outcomes.append(want)
    assert 50 < sum(outcomes) < 450


def test_buchberger_two_generators():
    r = _r3()
    f = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])   # x^2 - y
    g = poly_from_exps(r, [(1, (1, 1, 0)), (100, (0, 0, 1))])   # xy - z
    basis, stats = buchberger_run(r, [f, g])
    texts = sorted(poly_str(r, b) for b in basis)
    assert texts == sorted(["x1^2+100*x2", "x1*x2+100*x3",
                            "x2^2+100*x1*x3"])
    assert is_reduced_gb(r, basis)


def test_buchberger_relprime_pair():
    r = Ring(101, 2)
    basis, stats = buchberger_run(r, [_mono_poly(r, (1, 0)),
                                      _mono_poly(r, (0, 1))])
    assert sorted(poly_str(r, b) for b in basis) == ["x1", "x2"]
    assert stats.relprime == 1 and stats.reductions == 0


def test_output_is_reduced_gb():
    for name in ("katsura4", "cyclic4", "katsura5"):
        ring, polys = builtin_ideal(name)
        basis, stats = buchberger_run(ring, polys)
        assert is_reduced_gb(ring, basis), name
        stats.check()


def test_accounting_identity():
    for name in ("katsura4", "katsura5", "cyclic4", "cyclic5"):
        ring, polys = builtin_ideal(name)
        _, stats = buchberger_run(ring, polys)
        assert stats.spairs == (stats.relprime + stats.lcm_cache
                                + stats.lcm_simple + stats.graph
                                + stats.reductions)
        assert stats.zero_reductions <= stats.reductions


def test_lcm_cache_hits_occur():
    ring, polys = builtin_ideal("katsura6")
    _, stats = buchberger_run(ring, polys)
    assert stats.lcm_cache > 0 and stats.lcm_simple > 0


def test_criteria_disabling_never_changes_basis():
    # soundness: any subset of {relprime, lcm, graph} off, same reduced GB
    cases = [dict(use_relprime=False), dict(use_lcm=False),
             dict(use_graph=False)]
    for name in ("katsura4", "katsura5", "katsura6", "cyclic4", "cyclic5"):
        ring, polys = builtin_ideal(name)
        ref, _ = buchberger_run(ring, polys)
        ref_texts = [poly_str(ring, g) for g in ref]
        todo = list(cases)
        todo.append(dict(use_relprime=False, use_lcm=False, use_graph=False))
        for kw in todo:
            basis, stats = buchberger_run(ring, polys, ClassicConfig(**kw))
            assert [poly_str(ring, g) for g in basis] == ref_texts, (name, kw)
            stats.check()


def test_result_invariant_under_structures():
    ring, polys = builtin_ideal("katsura5")
    ref, ref_stats = buchberger_run(ring, polys)
    ref_texts = [poly_str(ring, g) for g in ref]
    from gbengine import QueueConfig
    for lookup in ("list", "divkdtree"):
        for backend in ("heap", "tourtree"):
            cfg = ClassicConfig(queue=QueueConfig(backend=backend),
                                lookup=lookup, spair_queue="heap")
            basis, stats = buchberger_run(ring, polys, cfg)
            assert [poly_str(ring, g) for g in basis] == ref_texts
            assert stats.rows() == ref_stats.rows()


def test_retirement_keeps_gb_property():
    # inputs engineered so a later element's lead divides an earlier one's
    r = Ring(101, 2)
    f = poly_from_exps(r, [(1, (3, 0)), (1, (0, 1))])   # x^3 + y
    g = poly_from_exps(r, [(1, (1, 1))])                # xy
    basis, _ = buchberger_run(r, [f, g])
    assert is_reduced_gb(r, basis)


@pytest.mark.parametrize("name", ["katsura5", "cyclic5"])
def test_every_element_is_fully_reduced(name):
    # each remainder is reduced by every live lead, and every retired lead
    # is divided by a live one, so no earlier lead divides a later term
    ring, polys = builtin_ideal(name)
    engine = _ClassicEngine(ring, prepare_inputs(ring, polys, True),
                            ClassicConfig())
    engine.run()
    for i, g in enumerate(engine.polys):
        for k in range(i):
            lead = engine.polys[k].lead_mono
            assert not any(ring.mono_divides(lead, m) for m in g.monos), \
                (name, k, i)
