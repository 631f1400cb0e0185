import random
from collections import Counter

import pytest

from gbengine import (ClassicConfig, InvariantError, QueueConfig,
                      ReducerQueue, Ring, SBConfig, all_queue_configs,
                      buchberger_run, builtin_ideal, sb_run, termqueue)
from gbengine.poly import Polynomial, poly_from_exps
from gbengine.spairqueue import SPAIR_QUEUE_KINDS
from gbengine.termqueue import (BACKENDS, EMPTY, FLAVOURS, ID_BITS, ID_MASK,
                                Geobucket, Heap, TourTree)

from _util import random_poly, run_optimized

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the package declares no dependencies
    given = None


def test_config_validation():
    with pytest.raises(ValueError, match="unknown queue backend"):
        QueueConfig(backend="stack")
    with pytest.raises(ValueError, match="unknown queue flavour"):
        QueueConfig(backend="heap", flavour="hashed+dedup")
    # 3 backends x plain, dedup, hashed and compressed
    assert len(all_queue_configs()) == 12
    assert [(c.backend, c.flavour) for c in all_queue_configs()] == \
        [(b, f) for b in BACKENDS for f in FLAVOURS]
    assert QueueConfig() == QueueConfig("geobucket", "hashed")


def _e(k):
    # a backend entry is one int, compared whole
    return k


@pytest.mark.parametrize("make", [Heap, TourTree])
def test_backend_replace_top_examples(make):
    q = make()
    for k in (1, 4, 6, 8):
        q.push(_e(k))
    q.replace_top(_e(7))
    assert q.peek() == 4
    q.replace_top(_e(4))
    assert q.peek() == 4
    with pytest.raises(ValueError):
        q.replace_top(_e(-99))


@pytest.mark.parametrize("make", [Heap, Geobucket, TourTree])
def test_backend_random_vs_sorted(make):
    rng = random.Random(3)
    for _ in range(50):
        q = make()
        vals = [rng.randrange(100) for _ in range(rng.randrange(1, 40))]
        for v in vals:
            q.push(_e(v))
        q.audit()
        got = []
        while True:
            e = q.pop()
            if e is None:
                break
            got.append(e)
        assert got == sorted(vals)


@pytest.mark.parametrize("make", [Heap, TourTree])
def test_backend_replace_top_equals_pop_push(make):
    rng = random.Random(5)
    for _ in range(200):
        vals = [rng.randrange(50) for _ in range(rng.randrange(2, 20))]
        a, b = make(), make()
        for v in vals:
            a.push(_e(v))
            b.push(_e(v))
        new = rng.randrange(min(vals), 50)
        a.replace_top(_e(new))
        b.pop()
        b.push(_e(new))
        out_a, out_b = [], []
        while (e := a.pop()) is not None:
            out_a.append(e)
        while (e := b.pop()) is not None:
            out_b.append(e)
        assert out_a == out_b


def test_geobucket_capacity_contract():
    rng = random.Random(7)
    q = Geobucket()
    for _ in range(500):
        q.push(_e(rng.randrange(1000)))
        q.audit()
    while q.pop() is not None:
        q.audit()


def test_tourtree_interior_invariant():
    rng = random.Random(9)
    q = TourTree()
    for _ in range(300):
        q.push(_e(rng.randrange(100)))
        q.audit()
    for _ in range(150):
        q.pop()
        q.audit()


def test_tourtree_grows_through_doublings():
    # pushes outrun pops, so the tree doubles from 2 to 1024 leaves with
    # entries spread over the leaves freed by earlier pops; each pop must
    # be the smallest pending key, and every grown tree must audit clean
    rng = random.Random(41)
    q = TourTree()
    pending = []
    caps = [q.cap]
    for _ in range(300):
        for _ in range(3):
            k = rng.randrange(200)
            q.push(_e(k))
            pending.append(k)
            if q.cap != caps[-1]:
                caps.append(q.cap)
                q.audit()
        pending.sort()
        assert q.pop() == pending.pop(0)
    assert caps == [2 ** i for i in range(1, 11)]
    q.audit()
    got = []
    while (e := q.pop()) is not None:
        got.append(e)
    assert got == sorted(pending)
    # a grown tree is whole before the push that made it grow
    full = TourTree()
    for k in (5, 3, 8, 1):
        full.push(_e(k))
    full._grow()
    full.audit()
    assert full.peek() == 1 and len(full) == 4


def _ring():
    return Ring(101, 3)


def _lead(r, mono, poly):
    # the lead term of mono * poly, made without Ring.mono_mul, which some
    # tests count
    return r.mono(tuple(map(sum, zip(mono.exps, poly.lead_mono.exps))))


def _push(q, coeff, mono, poly, start=0):
    # push (coeff * mono) * poly[start:] as the row of ids of mono * poly,
    # which the queue names by its lead term
    lead = _lead(q.ring, mono, poly)
    q.push_product(coeff, q.row(lead, poly), poly, start)


def _pop(q):
    # pop_max with the popped id read back as its exponent tuple
    t = q.pop_max()
    return None if t is None else (t[0], q.monos[t[1]].exps)


def test_push_product_logical_content():
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])   # x^2 - y
    x = r.mono((1, 0, 0))
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        _push(q, 1, x, g)
        pops = []
        while (t := _pop(q)) is not None:
            pops.append(t)
        assert pops == [(1, (3, 0, 0)), (100, (1, 1, 0))], cfg.label()


def test_pop_skips_cancelled_terms():
    r = _ring()
    x2 = poly_from_exps(r, [(1, (2, 0, 0))])
    y = poly_from_exps(r, [(1, (0, 1, 0))])
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        _push(q, 3, r.one, x2)
        _push(q, 98, r.one, x2)
        _push(q, 1, r.one, y)
        assert _pop(q) == (1, (0, 1, 0)), cfg.label()
        assert q.pop_max() is None


def test_one_product_per_nonzero_pop(monkeypatch):
    # x^2 and xy cancel, y^2 folds three contributions: 9 pushed terms
    # name 6 monomials and make 4 nonzero pops; the queue makes each
    # monomial once, when it interns it
    r = _ring()
    f = poly_from_exps(r, [(1, (2, 0, 0)), (1, (1, 1, 0)), (1, (0, 2, 0)),
                           (1, (0, 0, 1))])
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (1, 1, 0)), (1, (0, 1, 1)),
                           (1, (0, 0, 2))])
    y2 = poly_from_exps(r, [(1, (0, 2, 0))])
    calls = []
    real_mul = Ring.mono_mul

    def counting_mul(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)

    monkeypatch.setattr(Ring, "mono_mul", counting_mul)
    for cfg in all_queue_configs():
        del calls[:]
        q = ReducerQueue(r, cfg)
        _push(q, 1, r.one, f)
        _push(q, 100, r.one, g)
        _push(q, 1, r.one, y2)
        pops = []
        while (t := _pop(q)) is not None:
            pops.append(t)
        assert pops == [(2, (0, 2, 0)), (100, (0, 1, 1)), (100, (0, 0, 2)),
                        (1, (0, 0, 1))], cfg.label()
        assert len(calls) == len(q.monos) == 6, cfg.label()


def test_product_past_exponent_cap_raises():
    # the lead x1^60000*x2^20000 of x1^40000 * g stays below the exponent
    # cap, its tail term x1^70000 passes it; every config raises by the
    # time that term pops (the queue makes the product at push), and the
    # queue keeps ids, keys, monomials and a hashed queue's sums in step
    r = Ring(101, 2)
    g = poly_from_exps(r, [(1, (20000, 20000)), (1, (30000, 0))])
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        with pytest.raises(ValueError, match="exponent out of range"):
            _push(q, 1, r.mono((40000, 0)), g)
            q.pop_max()
        assert len(q.ids) == len(q.keys) == len(q.monos) == 1
        assert q.acc is None or len(q.acc) == 1
        assert q.rows == {}


def test_hashed_key_pushed_again_after_pop():
    # x^2 pops, then a push brings x^2 back with a new contribution: the key
    # gets one fresh entry and pops once, with only the new coefficient
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0))])      # x^2 + y
    for cfg in all_queue_configs():
        if cfg.flavour != "hashed":
            continue
        q = ReducerQueue(r, cfg)
        _push(q, 3, r.one, g)
        assert _pop(q) == (3, (2, 0, 0))
        q.audit()
        _push(q, 5, r.one, g)
        _push(q, 2, r.one, g)
        q.audit()
        pops = []
        while (t := _pop(q)) is not None:
            pops.append(t)
            q.audit()
        assert pops == [(7, (2, 0, 0)), (10, (0, 1, 0))], cfg.label()


def test_compressed_single_entry_advances():
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    cfg = QueueConfig(backend="heap", flavour="compressed")
    q = ReducerQueue(r, cfg)
    _push(q, 1, r.mono((1, 0, 0)), g)
    assert len(q.backend) == 1
    assert _pop(q) == (1, (3, 0, 0))
    assert len(q.backend) == 1        # the cursor's chain, at its next id
    assert _pop(q) == (100, (1, 1, 0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_compressed_gather_chains_cursors_to_one_entry(backend):
    # five products x^3 + c*x^2*y + (a lower term of its own): the gather
    # at x^3 advances all five cursors to x^2*y, where they form one chain
    # under one backend entry; the pops are the summed products, as a dict
    # of the sums has them
    r = _ring()
    q = ReducerQueue(r, QueueConfig(backend, "compressed"))
    sums = {}
    tails = ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (0, 0, 1))
    for i, tail in enumerate(tails):
        terms = [(1, (3, 0, 0)), (i + 1, (2, 1, 0)), (3, tail)]
        _push(q, i + 2, r.one, poly_from_exps(r, terms))
        for c, exps in terms:
            sums[exps] = sums.get(exps, 0) + (i + 2) * c
    want = sorted(((c % r.char, exps) for exps, c in sums.items()
                   if c % r.char), key=lambda t: r.mono(t[1]).key,
                  reverse=True)
    assert len(q.backend) == len(tails)
    pops = [_pop(q)]
    assert len(q.backend) == 1
    q.audit()
    pops += iter(lambda: _pop(q), None)
    assert pops == want


def test_drained_queue_takes_a_fresh_backend():
    # a tournament tree grown for one reduction does not stay tall for the
    # next, which would replay every level on each later operation
    r = _ring()
    g = poly_from_exps(r, [(1, (i, 0, 0)) for i in range(6)])
    q = ReducerQueue(r, QueueConfig("tourtree", "plain"))
    _push(q, 1, r.one, g)
    assert q.backend.cap == 8
    while q.pop_max() is not None:
        pass
    assert q.backend.cap == 2 and len(q.backend) == 0


def _run_script(r, cfg, script, queue=None):
    # run script on queue (a new one of config cfg by default), draining it
    q = ReducerQueue(r, cfg) if queue is None else queue
    out = []
    for op in script:
        if op[0] == "push":
            _, coeff, mono, poly, start = op
            _push(q, coeff, mono, poly, start)
        else:
            out.append(_pop(q))
        q.audit()
    while (t := _pop(q)) is not None:
        out.append(t)
        q.audit()
    return out


def _oracle(r, script):
    # sort-and-fold reference: accumulate all pushed terms, fold mod p,
    # emit in decreasing order interleaved with the pops
    p = r.char
    pending = {}
    out = []

    def pop_one():
        while pending:
            k = max(pending)
            c, exps = pending.pop(k)
            if c % p:
                return (c % p, exps)
        return None

    for op in script:
        if op[0] == "push":
            _, coeff, mono, poly, start = op
            for c, m in zip(poly.coeffs[start:], poly.monos[start:]):
                mm = r.mono_mul(mono, m)
                got = pending.get(mm.key)
                pending[mm.key] = ((got[0] + coeff * c) % p if got else
                                   coeff * c % p, mm.exps)
        else:
            out.append(pop_one())
    while (t := pop_one()) is not None:
        out.append(t)
    return out


def make_script(r, rng, n_ops=30):
    script = []
    polys = [random_poly(r, rng, max_terms=5, max_exp=4) for _ in range(6)]
    polys = [g for g in polys if g]
    for _ in range(n_ops):
        if rng.random() < 0.65:
            g = rng.choice(polys)
            start = rng.randrange(len(g))
            script.append(("push", rng.randrange(1, r.char),
                           rng.choice(polys).lead_mono, g, start))
        else:
            script.append(("pop",))
    return script


def test_black_box_equivalence_all_configs():
    # one queue per config serves all 60 scripts, so later scripts reuse
    # the ids and rows of earlier ones
    rng = random.Random(13)
    r = _ring()
    queues = [ReducerQueue(r, cfg) for cfg in all_queue_configs()]
    pushes = 0
    for _ in range(60):
        script = make_script(r, rng)
        pushes += sum(op[0] == "push" for op in script)
        expected = _oracle(r, script)
        for q in queues:
            assert _run_script(r, q.cfg, script, q) == expected, \
                q.cfg.label()
            assert q.backend.peek() is None
    for q in queues:
        assert 0 < len(q.rows) <= pushes
        assert q.acc is None or len(q.acc) == len(q.keys)


def test_equal_products_share_one_row():
    r = _ring()
    coeffs, monos = [1, 5], [r.mono((2, 0, 0)), r.mono((0, 1, 0))]
    f, g = Polynomial(coeffs, monos), Polynomial(coeffs, list(monos))
    assert f is not g and f == g and hash(f) == hash(g)
    x, y = r.mono((1, 0, 0)), r.mono((0, 1, 0))
    x3, x2y = r.mono((3, 0, 0)), r.mono((2, 1, 0))  # leads of x*f and y*f
    q = ReducerQueue(r, QueueConfig())
    _push(q, 1, x, f)
    _push(q, 1, r.mono((1, 0, 0)), g, start=1)
    assert len(q.rows) == 1 and len(q.keys) == 2
    assert q.row(x3, g) is q.row(x3, f)
    _push(q, 1, y, f)
    assert len(q.rows) == 2 and q.row(x2y, f) != q.row(x3, f)
    assert list(iter(lambda: _pop(q), None)) == \
        [(1, (3, 0, 0)), (1, (2, 1, 0)), (10, (1, 1, 0)), (5, (0, 2, 0))]


def test_unhashed_flavours_reuse_one_queue(monkeypatch):
    # one plain, dedup or compressed queue per config, reused across the
    # 20 scripts, pops the oracle's stream for each, and makes each id's
    # monomial once
    rng = random.Random(31)
    r = _ring()
    scripts = [make_script(r, rng) for _ in range(20)]
    expected = [_oracle(r, script) for script in scripts]
    calls = []
    real_mul = Ring.mono_mul

    def counting_mul(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)

    monkeypatch.setattr(Ring, "mono_mul", counting_mul)
    queues = [ReducerQueue(r, cfg) for cfg in all_queue_configs()
              if cfg.flavour != "hashed"]
    for script, want in zip(scripts, expected):
        for q in queues:
            assert _run_script(r, q.cfg, script, q) == want, q.cfg.label()
    made = sum(len(q.monos) for q in queues)
    assert 0 < len(calls) == made
    assert all(len(q.monos) == len(q.keys) == len(q.ids) for q in queues)


@pytest.mark.parametrize("corrupt", ["forget_pending", "stale_sum",
                                     "duplicate_entry", "wrong_key",
                                     "wrong_id", "plain_wrong_key",
                                     "cursor_wrong_key", "cursor_unknown",
                                     "plain_lost_entry", "dedup_lost_entry",
                                     "chain_cycle", "chain_wrong_id",
                                     "chain_twice", "chain_exhausted"])
def test_hashed_audit_catches_corruption(corrupt):
    # a hashed queue, and for the other inputs a plain, a compressed or a
    # dedup queue: entries are audited against the queue's, a cursor
    # entry must name a cursor, and a plain or dedup queue must hold an
    # entry for every pending id.  The chain inputs push two products
    # whose cursors, after one pop, form one chain at the second term:
    # every cursor of a chain must be in it once, in no other chain,
    # inside its row and at the chain's id
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))])
    compressed = QueueConfig("heap", "compressed")
    chained = corrupt.startswith("chain")
    cfg = {"plain_wrong_key": QueueConfig("heap", "plain"),
           "cursor_wrong_key": compressed,
           "cursor_unknown": compressed,
           "plain_lost_entry": QueueConfig("heap", "plain"),
           "dedup_lost_entry": QueueConfig("tourtree", "dedup")}
    q = ReducerQueue(r, compressed if chained
                     else cfg.get(corrupt, QueueConfig("heap")))
    _push(q, 1, r.one, g)
    if chained:
        _push(q, 1, r.one, g)
        assert _pop(q) == (2, (2, 0, 0)) and len(q.backend) == 1
    q.audit()
    e = q.backend.peek()
    t = e & ID_MASK
    if chained:
        tail = q.cursors[t][4]
        assert tail not in (-1, t) and q.cursors[tail][4] == -1
    if corrupt == "chain_cycle":
        q.cursors[tail][4] = t
    elif corrupt == "chain_wrong_id":
        q.cursors[tail][1] += 1
    elif corrupt == "chain_twice":
        # a second chain, headed by the first one's tail
        q.backend.push(e - t + tail)
    elif corrupt == "chain_exhausted":
        q.cursors[tail][1] = len(g)
    elif corrupt == "forget_pending":
        q.acc[t] = 0
    elif corrupt in ("stale_sum", "plain_lost_entry", "dedup_lost_entry"):
        q.backend.pop()
    elif corrupt == "duplicate_entry":
        q.backend.push(e)
    elif corrupt == "wrong_id":
        # the key of the top id over the id of the next term
        q.backend.replace_top(e + 1)
    elif corrupt == "cursor_unknown":
        q.backend.replace_top(e + 1)
    else:
        # the key field one lower: the entry of no id
        q.backend.pop()
        q.backend.push(e - (1 << ID_BITS))
    with pytest.raises(InvariantError):
        q.audit()


def test_hashed_audit_wants_one_sum_per_id():
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0))])
    q = ReducerQueue(r, QueueConfig("heap"))
    _push(q, 1, r.one, g)
    while q.pop_max() is not None:
        pass
    q.audit()
    q.acc.pop()
    with pytest.raises(InvariantError, match="one sum per id"):
        q.audit()


def _audit_under_optimize(corrupt):
    # the InvariantError message of an audit after the corrupt lines, which
    # run on a queue q of a Ring(101, 3) r and a polynomial g = x^2 + y,
    # under python -O
    script = "\n".join([
        "from gbengine import InvariantError, QueueConfig, ReducerQueue, Ring",
        "from gbengine.poly import poly_from_exps",
        "from gbengine.termqueue import ID_MASK",
        "assert False  # stripped by -O",
        "r = Ring(101, 3)",
        "g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0))])",
        *corrupt,
        "try:",
        "    q.audit()",
        "except InvariantError as exc:",
        "    print(exc)"])
    return run_optimized(script).strip()


def test_queue_audit_fires_under_optimize():
    # the audits raise InvariantError, not AssertionError, so python -O
    # keeps them
    assert _audit_under_optimize([
        "q = ReducerQueue(r, QueueConfig('heap'))",
        "q.push_product(1, q.row(g.lead_mono, g), g)",
        "q.audit()",
        "q.acc[q.backend.peek() & ID_MASK] = 0"]) == \
        "pending ids are the backend's"


def test_chain_audit_fires_under_optimize():
    # two cursors chained at y, the tail linked back to the head
    assert _audit_under_optimize([
        "q = ReducerQueue(r, QueueConfig('heap', 'compressed'))",
        "for _ in range(2):",
        "    q.push_product(1, q.row(g.lead_mono, g), g)",
        "q.pop_max()",
        "q.audit()",
        "head = q.backend.peek() & ID_MASK",
        "q.cursors[q.cursors[head][4]][4] = head"]) == \
        "each cursor in one chain, once"


def test_uncompressed_entries_are_ints():
    # plain, dedup and hashed queues keep a pending sum in acc, unreduced,
    # and give every backend the id's entry, one non-negative int packing
    # the key bound plus the negated order key over the id: eight pushes
    # of x leave acc[x] == 8 under eight, one and one entries
    r = _ring()
    g = poly_from_exps(r, [(1, (1, 0, 0))])
    for backend in BACKENDS:
        for flavour, entries in (("plain", 8), ("dedup", 1), ("hashed", 1)):
            q = ReducerQueue(r, QueueConfig(backend, flavour))
            for _ in range(8):
                _push(q, 1, r.one, g)
            q.audit()
            t = q.row(g.lead_mono, g)[0]
            assert q.acc[t] == 8, q.cfg.label()
            entry = (q.kb - q.monos[t].key) << ID_BITS | t
            assert q.keys[t] == entry > 0
            assert list(q.backend) == [entry] * entries, q.cfg.label()
            assert _pop(q) == (8, (1, 0, 0)) and q.pop_max() is None
            assert q.acc[t] == 0


@pytest.mark.parametrize("fold", [False, True])
def test_geobucket_cached_top_random_ops(fold):
    # each backend against an oracle under interleaved push, push_run,
    # peek and pop.  The oracle counts the pushes of each
    # pending key.  Without fold the backend holds just those entries; a
    # fold drops an entry that meets an equal queued key, so the backend
    # holds every pending key, never more often than it was pushed, and a
    # key whose last entry pops is no longer pending
    rng = random.Random(17)
    for make in (Heap, Geobucket, TourTree):
        for _ in range(30):
            q = make(fold)
            oracle = Counter()
            for _ in range(rng.randrange(50, 300)):
                op = rng.random()
                taken = None
                if op < 0.25:
                    k = rng.randrange(60)
                    q.push(_e(k))
                    oracle[k] += 1
                elif op < 0.4:
                    run = sorted(rng.randrange(60)
                                 for _ in range(rng.randrange(1, 30)))
                    q.push_run([_e(k) for k in run])
                    oracle.update(run)
                elif op < 0.65:
                    top = q.peek()
                    assert top == min(oracle, default=None)
                else:
                    e = q.pop()
                    if e is None:
                        assert not oracle
                        continue
                    taken = e
                    assert taken == min(oracle)
                q.audit()
                held = Counter(q)
                if taken is not None:
                    oracle[taken] -= 1
                    if not oracle[taken] or fold and not held[taken]:
                        del oracle[taken]
                assert set(held) == set(oracle), make.__name__
                assert all(held[k] <= oracle[k] for k in held)
                if not fold:
                    assert held == oracle, make.__name__
                assert len(q) == sum(held.values()), make.__name__


def _property(strategy):
    """check(case) as a derandomized hypothesis property over strategy(),
    with no deadline and no database; skipped where hypothesis is
    missing."""
    def wrap(check):
        if given is None:
            def test():
                pytest.skip("hypothesis is not installed")
            return test
        return settings(derandomize=True, deadline=None, database=None)(
            given(strategy())(check))
    return wrap


_PACK_PRIMES = (2 ** 31 - 1, 2)


def _field_coeff(p):
    # 1 and p - 1 drawn often: the smallest and the largest slot products
    return st.one_of(st.sampled_from((1, p - 1)), st.integers(1, p - 1))


def _products():
    """(p, [(coeff, multiplier exps, terms, start)]): one to three products
    in two variables over p = 2^31 - 1 or 2, each of 1-300 terms (coeff,
    exps) from a 20 x 20 grid, so that products overlap and fold."""
    @st.composite
    def products(draw):
        p = draw(st.sampled_from(_PACK_PRIMES))
        out = []
        for _ in range(draw(st.integers(1, 3))):
            cells = draw(st.lists(st.integers(0, 399), min_size=1,
                                  max_size=300, unique=True))
            terms = [(draw(_field_coeff(p)), divmod(c, 20)) for c in cells]
            n = len(terms)
            start = draw(st.sampled_from(sorted({0, 1, n - 1} - {n})))
            mult = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            out.append((draw(_field_coeff(p)), mult, terms, start))
        return p, out
    return products()


@_property(_products)
def test_hashed_push_matches_dict_oracle(case):
    # every config (an uncompressed push takes the packed multiply, and
    # compressed cursors that meet at one id chain) pops the terms of the
    # summed products, each coefficient the sum of coeff * c mod p,
    # against a dict of the sums
    p, products = case
    r = Ring(p, 2)
    pushes = []
    sums = {}
    for coeff, mult, terms, start in products:
        g = poly_from_exps(r, terms)
        pushes.append((coeff, r.mono(mult), g, start))
        for c, m in zip(g.coeffs[start:], g.monos[start:]):
            exps = (m.exps[0] + mult[0], m.exps[1] + mult[1])
            sums[exps] = sums.get(exps, 0) + coeff * c
    want = sorted(((c % p, exps) for exps, c in sums.items() if c % p),
                  key=lambda t: r.mono(t[1]).key, reverse=True)
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        for coeff, mono, g, start in pushes:
            _push(q, coeff, mono, g, start)
        q.audit()
        assert list(iter(lambda: _pop(q), None)) == want, cfg.label()


def _scalings():
    """(k, coeffs): k in [0, p-1] and 1-300 coefficients in [1, p-1], for p
    = 2^31 - 1 or 2."""
    return st.sampled_from(_PACK_PRIMES).flatmap(lambda p: st.tuples(
        st.just(0) | _field_coeff(p),
        st.lists(_field_coeff(p), min_size=1, max_size=300)))


@_property(_scalings)
def test_packed_coeffs_scale_slot_by_slot(case):
    # unpacked by shifts and masks, slot i of k * packed is k * coeffs[i]
    k, coeffs = case
    f = Polynomial(coeffs, [None] * len(coeffs))
    packed = f.packed
    assert packed is f.packed
    assert packed == sum(c << 64 * i for i, c in enumerate(coeffs))
    mask = (1 << 64) - 1
    assert [k * packed >> 64 * i & mask for i in range(len(coeffs))] == \
        [k * c for c in coeffs]


def _backend_ops():
    """(fold, ops): up to 150 operations on int entries in [-8, 24), so
    that entries repeat, some negative; runs of up to 40 entries make a
    tournament tree double several times."""
    entry = st.integers(-8, 23)
    op = st.one_of(
        st.tuples(st.just("push"), entry),
        st.tuples(st.just("run"),
                  st.lists(entry, min_size=1, max_size=40).map(sorted)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("replace"), st.integers(0, 10)))
    return st.tuples(st.booleans(), st.lists(op, max_size=150))


@_property(_backend_ops)
def test_backends_pop_sorted_and_audit_clean(case):
    # every backend against a count of the pushes of each pending entry;
    # a fold may drop an entry that meets an equal one, so the backend
    # then holds each pending entry at least once and at most as often
    # as it was pushed, and an entry whose last copy pops is gone
    fold, ops = case
    for make in (Heap, Geobucket, TourTree):
        q = make(fold)
        pending = Counter()
        for op in ops:
            taken = None
            if op[0] == "push":
                q.push(op[1])
                pending[op[1]] += 1
            elif op[0] == "run":
                q.push_run(op[1])
                pending.update(op[1])
            elif op[0] == "pop":
                taken = q.pop()
                assert taken == min(pending, default=None), make.__name__
            elif pending and make is not Geobucket:
                # only the pair queue's fronts replace their top
                taken = q.peek()
                e = taken + op[1]
                assert q.replace_top(e) == q.peek()
                pending[e] += 1
            q.audit()
            held = Counter(q)
            if taken is not None:
                pending[taken] -= 1
                if not pending[taken] or fold and not held[taken]:
                    del pending[taken]
            assert q.peek() == min(pending, default=None), make.__name__
            assert set(held) == set(pending), make.__name__
            assert all(held[e] <= pending[e] for e in held)
            if not fold:
                assert held == pending, make.__name__
        out = list(iter(q.pop, None))
        assert out == sorted(out) and set(out) == set(pending)
        q.audit()


@pytest.mark.parametrize("make", [Heap, TourTree])
def test_replace_top_returns_the_new_min(make):
    q = make()
    q.push_run([3, 5, 9])
    assert q.replace_top(4) == 4
    assert q.replace_top(7) == 5
    assert [q.pop() for _ in range(4)] == [5, 7, 9, None]


def test_tourtree_free_leaves_hold_the_sentinel():
    # a free leaf holds EMPTY, which loses to every int; the empty tree
    # peeks and pops None
    q = TourTree()
    assert q.leaves == [EMPTY, EMPTY] and q.peek() is None
    q.push_run([2, 1, 3])
    assert q.cap == 4 and q.leaves.count(EMPTY) == 1
    assert [q.pop() for _ in range(4)] == [1, 2, 3, None]
    assert q.leaves == [EMPTY] * 4 and q.pop() is None
    with pytest.raises(ValueError, match="empty"):
        q.replace_top(0)


def _narrow_ids(monkeypatch, bits):
    monkeypatch.setattr(termqueue, "ID_BITS", bits)
    monkeypatch.setattr(termqueue, "ID_MASK", (1 << bits) - 1)


def test_interning_past_the_id_width_raises(monkeypatch):
    # with 2-bit ids the fifth monomial cannot be interned: ValueError,
    # and ids, keys, monos and acc stay in step; the four ids work
    _narrow_ids(monkeypatch, 2)
    r = _ring()
    g = poly_from_exps(r, [(1, (i, 0, 0)) for i in range(4, -1, -1)])
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        with pytest.raises(ValueError, match="ids reach 2"):
            _push(q, 1, r.one, g)
        assert len(q.ids) == len(q.keys) == len(q.monos) == 4
        assert q.acc is None or len(q.acc) == 4
        assert q.rows == {} and len(q.backend) == 0
        h = poly_from_exps(r, [(1, (i, 0, 0)) for i in range(4, 0, -1)])
        _push(q, 1, r.one, h)
        q.audit()
        assert [t[1] for t in iter(lambda: _pop(q), None)] == \
            [(i, 0, 0) for i in range(4, 0, -1)], cfg.label()


def test_opening_past_the_cursor_width_raises(monkeypatch):
    # with 2-bit fields a compressed queue holds four cursors; the fifth
    # push raises ValueError and leaves the queue as it was, and a drained
    # queue starts its cursors afresh
    _narrow_ids(monkeypatch, 2)
    r = _ring()
    g = poly_from_exps(r, [(1, (1, 0, 0)), (1, (0, 1, 0))])
    for backend in BACKENDS:
        q = ReducerQueue(r, QueueConfig(backend, "compressed"))
        for c in range(1, 5):
            _push(q, c, r.one, g)
        with pytest.raises(ValueError, match="cursors reach 2"):
            _push(q, 5, r.one, g)
        assert len(q.cursors) == len(q.backend) == 4
        q.audit()
        assert list(iter(lambda: _pop(q), None)) == \
            [(10, (1, 0, 0)), (10, (0, 1, 0))]
        assert q.cursors == []
        _push(q, 5, r.one, g)
        assert _pop(q) == (5, (1, 0, 0))


def _basis(result):
    # the reduced basis of an sb or classic run, as comparable tuples
    basis = result.groebner_basis() if hasattr(result, "groebner_basis") \
        else result[0]
    return [(tuple(g.coeffs), tuple(m.exps for m in g.monos))
            for g in basis]


@pytest.mark.parametrize("cfg", all_queue_configs(), ids=QueueConfig.label)
def test_audited_traffic_through_every_reducer_queue(cfg):
    # an audited run checks the queue after each turn's pushes: every
    # entry is its id's (a cursor inside its row), the tournament winners,
    # the geobucket heads; each config gives the default's basis
    for name, run, make in (("katsura4", sb_run, SBConfig),
                            ("cyclic4", buchberger_run, ClassicConfig)):
        ring, polys = builtin_ideal(name)
        want = _basis(run(ring, polys, make()))
        assert _basis(run(ring, polys, make(queue=cfg, audit=True))) == \
            want, (name, cfg.label())


@pytest.mark.parametrize("kind", SPAIR_QUEUE_KINDS)
def test_audited_traffic_through_every_pair_queue(kind):
    # an audited run checks the pair queue on each turn: every front entry
    # is its column's minimum, and the heap or tournament tree audits clean
    for name, run, make in (("katsura4", sb_run, SBConfig),
                            ("cyclic4", buchberger_run, ClassicConfig)):
        ring, polys = builtin_ideal(name)
        want = _basis(run(ring, polys, make()))
        assert _basis(run(ring, polys, make(spair_queue=kind,
                                            audit=True))) == want, \
            (name, kind)
