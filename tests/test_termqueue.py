import random

import pytest

from gbengine import QueueConfig, ReducerQueue, Ring, all_queue_configs
from gbengine.poly import Polynomial, poly_from_exps
from gbengine.termqueue import Geobucket, MaxHeap, MaxTourTree, MonomialTable

from _util import random_poly


def test_config_validation():
    with pytest.raises(ValueError):
        QueueConfig(backend="heap", hashed=True, dedup=True)
    with pytest.raises(ValueError):
        QueueConfig(backend="stack")
    with pytest.raises(ValueError, match="compressed excludes hashed"):
        QueueConfig(backend="heap", hashed=True, compressed=True)
    with pytest.raises(ValueError, match="compressed excludes dedup"):
        QueueConfig(backend="heap", hashed=False, dedup=True,
                    compressed=True)
    # 3 backends x plain, dedup, hashed and compressed
    assert len(all_queue_configs()) == 12


def _e(k, c=1):
    # a plain entry (key, c, id); backends read key and c only
    return (k, c, 0)


@pytest.mark.parametrize("make", [MaxHeap, Geobucket, MaxTourTree])
def test_backend_replace_top_examples(make):
    q = make()
    for k in (8, 5, 3, 1):
        q.push(_e(k))
    q.replace_top(_e(2))
    assert q.peek()[0] == 5
    q.replace_top(_e(5))
    assert q.peek()[0] == 5
    with pytest.raises(ValueError):
        q.replace_top(_e(99))


@pytest.mark.parametrize("make", [MaxHeap, Geobucket, MaxTourTree])
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
            got.append(e[0])
        assert got == sorted(vals, reverse=True)


@pytest.mark.parametrize("make", [MaxHeap, Geobucket, MaxTourTree])
def test_backend_replace_top_equals_pop_push(make):
    rng = random.Random(5)
    for _ in range(200):
        vals = [rng.randrange(50) for _ in range(rng.randrange(2, 20))]
        a, b = make(), make()
        for v in vals:
            a.push(_e(v))
            b.push(_e(v))
        new = rng.randrange(min(max(vals), 50))
        a.replace_top(_e(new))
        b.pop()
        b.push(_e(new))
        out_a, out_b = [], []
        while (e := a.pop()) is not None:
            out_a.append(e[0])
        while (e := b.pop()) is not None:
            out_b.append(e[0])
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
    q = MaxTourTree()
    for _ in range(300):
        q.push(_e(rng.randrange(100)))
        q.audit()
    for _ in range(150):
        q.pop()
        q.audit()


def _ring():
    return Ring(101, 3)


def test_push_product_logical_content():
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])   # x^2 - y
    x = r.mono((1, 0, 0))
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        q.push_product(1, x, g)
        pops = []
        while (t := q.pop_max()) is not None:
            pops.append((t[0], t[1].exps))
        assert pops == [(1, (3, 0, 0)), (100, (1, 1, 0))], cfg.label()


def test_pop_skips_cancelled_terms():
    r = _ring()
    x2 = poly_from_exps(r, [(1, (2, 0, 0))])
    y = poly_from_exps(r, [(1, (0, 1, 0))])
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        q.push_product(3, r.one, x2)
        q.push_product(98, r.one, x2)
        q.push_product(1, r.one, y)
        t = q.pop_max()
        assert t[1].exps == (0, 1, 0) and t[0] == 1, cfg.label()
        assert q.pop_max() is None


def test_one_product_per_nonzero_pop(monkeypatch):
    # x^2 and xy cancel, y^2 folds three contributions: 9 pushed terms
    # make 4 nonzero pops, and a monomial is made for those pops only
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
        q.push_product(1, r.one, f)
        q.push_product(100, r.one, g)
        q.push_product(1, r.one, y2)
        pops = []
        while (t := q.pop_max()) is not None:
            pops.append((t[0], t[1].exps))
        assert pops == [(2, (0, 2, 0)), (100, (0, 1, 1)), (100, (0, 0, 2)),
                        (1, (0, 0, 1))], cfg.label()
        assert len(calls) == len(pops), cfg.label()


def test_product_past_exponent_cap_raises():
    # x1^40000 * x1^30000 passes the exponent cap; every config raises by
    # the time that term pops (plain queues make the product only then)
    r = Ring(101, 2)
    g = poly_from_exps(r, [(1, (30000, 0)), (1, (0, 1))])
    for cfg in all_queue_configs():
        q = ReducerQueue(r, cfg)
        with pytest.raises(ValueError):
            q.push_product(1, r.mono((40000, 0)), g)
            q.pop_max()


def test_hashed_key_pushed_again_after_pop():
    # x^2 pops, then a push brings x^2 back with a new contribution: the key
    # gets one fresh entry and pops once, with only the new coefficient
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0))])      # x^2 + y
    for cfg in all_queue_configs():
        if not cfg.hashed:
            continue
        q = ReducerQueue(r, cfg)
        q.push_product(3, r.one, g)
        assert q.pop_max() == (3, g.lead_mono)
        q.audit()
        q.push_product(5, r.one, g)
        q.push_product(2, r.one, g)
        q.audit()
        pops = []
        while (t := q.pop_max()) is not None:
            pops.append((t[0], t[1].exps))
            q.audit()
        assert pops == [(7, (2, 0, 0)), (10, (0, 1, 0))], cfg.label()


def test_compressed_single_entry_advances():
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])
    cfg = QueueConfig(backend="heap", hashed=False, compressed=True)
    q = ReducerQueue(r, cfg)
    q.push_product(1, r.mono((1, 0, 0)), g)
    assert len(q.backend) == 1
    t = q.pop_max()
    assert t[1].exps == (3, 0, 0)
    assert len(q.backend) == 1        # advanced in place via replace-top
    t = q.pop_max()
    assert (t[0], t[1].exps) == (100, (1, 1, 0))


def _run_script(r, cfg, script, table=None):
    q = ReducerQueue(r, cfg, table)
    out = []
    for op in script:
        if op[0] == "push":
            _, coeff, mono, poly, start = op
            q.push_product(coeff, mono, poly, start)
        else:
            t = q.pop_max()
            out.append(None if t is None else (t[0], t[1].exps))
        q.audit()
    while (t := q.pop_max()) is not None:
        out.append((t[0], t[1].exps))
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
    # one table serves every hashed queue, so later scripts reuse the ids
    # and rows of earlier ones
    rng = random.Random(13)
    r = _ring()
    configs = all_queue_configs()
    table = MonomialTable(r)
    pushes = 0
    for _ in range(60):
        script = make_script(r, rng)
        pushes += sum(op[0] == "push" for op in script)
        expected = _oracle(r, script)
        for cfg in configs:
            assert _run_script(r, cfg, script, table) == expected, \
                cfg.label()
    # the three hashed backends ran every push on the one table
    assert 0 < len(table.rows) <= pushes


def test_shared_table_survives_abandoned_queue():
    # the first queue stops with sums pending; the second, on the same
    # table, still pops exactly what the oracle pops
    rng = random.Random(29)
    r = _ring()
    for cfg in all_queue_configs():
        if not cfg.hashed:
            continue
        table = MonomialTable(r)
        for _ in range(20):
            script = make_script(r, rng)
            first = ReducerQueue(r, cfg, table)
            for op in script[:len(script) // 2]:
                if op[0] == "push":
                    first.push_product(*op[1:])
                else:
                    first.pop_max()
            assert _run_script(r, cfg, script, table) == _oracle(r, script), \
                cfg.label()


def test_equal_products_share_one_row():
    r = _ring()
    coeffs, monos = [1, 5], [r.mono((2, 0, 0)), r.mono((0, 1, 0))]
    f, g = Polynomial(coeffs, monos), Polynomial(coeffs, list(monos))
    assert f is not g and f == g and hash(f) == hash(g)
    x, y = r.mono((1, 0, 0)), r.mono((0, 1, 0))
    table = MonomialTable(r)
    q = ReducerQueue(r, QueueConfig(), table)
    q.push_product(1, x, f)
    q.push_product(1, r.mono((1, 0, 0)), g, start=1)
    assert len(table.rows) == 1 and len(table.keys) == 2
    assert table.row(x, g) is table.row(x, f)
    q.push_product(1, y, f)
    assert len(table.rows) == 2 and table.row(y, f) != table.row(x, f)
    assert [(c, m.exps) for c, m in iter(q.pop_max, None)] == \
        [(1, (3, 0, 0)), (1, (2, 1, 0)), (10, (1, 1, 0)), (5, (0, 2, 0))]


def test_unhashed_flavours_share_one_table(monkeypatch):
    # plain, dedup and compressed queues on one table each pop the oracle's
    # stream, and each id's monomial is made once for all of them
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
    table = MonomialTable(r)
    configs = [cfg for cfg in all_queue_configs() if not cfg.hashed]
    for script, want in zip(scripts, expected):
        for cfg in configs:
            assert _run_script(r, cfg, script, table) == want, cfg.label()
    made = sum(m is not None for m in table.monos)
    assert 0 < len(calls) == made <= len(table.keys)


@pytest.mark.parametrize("corrupt", ["forget_pending", "stale_sum",
                                     "duplicate_entry", "wrong_key",
                                     "plain_wrong_key", "cursor_wrong_key"])
def test_hashed_audit_catches_corruption(corrupt):
    # a hashed queue, and for the last two inputs a plain queue and a
    # compressed one, each audited against the table
    r = _ring()
    g = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))])
    cfg = {"plain_wrong_key": QueueConfig("heap", hashed=False),
           "cursor_wrong_key": QueueConfig("heap", hashed=False,
                                           compressed=True)}
    q = ReducerQueue(r, cfg.get(corrupt, QueueConfig("heap")))
    q.push_product(1, r.one, g)
    q.audit()
    e = q.backend.peek()
    key, t = e[0], e[-1]
    if corrupt == "forget_pending":
        q.acc[t] = 0
    elif corrupt == "stale_sum":
        q.backend.pop()
    elif corrupt == "duplicate_entry":
        q.backend.push((key, t))
    else:
        e = q.backend.pop()
        q.backend.push((key - 1,) + e[1:])
    with pytest.raises(AssertionError):
        q.audit()


def test_dedup_merges_like_terms():
    r = _ring()
    g = poly_from_exps(r, [(1, (1, 0, 0))])
    cfg = QueueConfig(backend="geobucket", hashed=False, dedup=True)
    q = ReducerQueue(r, cfg)
    for _ in range(8):
        q.push_product(1, r.one, g)
    # geobucket merges fold like plain terms, so fewer than 8 entries remain
    assert len(q.backend) < 8
    assert q.pop_max() == (8, g.lead_mono)


@pytest.mark.parametrize("fold", [False, True])
def test_geobucket_cached_top_random_ops(fold):
    # every entry has coefficient 1 and p exceeds any fold, so an entry of
    # coefficient c stands for c pushed entries of its key
    rng = random.Random(17)
    for _ in range(30):
        q = Geobucket(fold, 1009)
        oracle = []             # pending keys, ascending, with multiplicity
        for _ in range(rng.randrange(50, 300)):
            op = rng.random()
            if op < 0.25:
                k = rng.randrange(60)
                q.push(_e(k))
                oracle.append(k)
            elif op < 0.4:
                run = sorted((rng.randrange(60)
                              for _ in range(rng.randrange(1, 30))),
                             reverse=True)
                q.push_run([_e(k) for k in run])
                oracle += run
            elif op < 0.65:
                top = q.peek()
                assert (top[0] if top else None) == max(oracle, default=None)
            elif op < 0.85 or not oracle:
                e = q.pop()
                if e is None:
                    assert not oracle
                    continue
                assert e[0] == oracle[-1] and oracle[-e[1]:] == [e[0]] * e[1]
                del oracle[-e[1]:]
            else:
                top = q.peek()
                k = rng.randrange(top[0] + 1)
                q.replace_top(_e(k))
                del oracle[-top[1]:]
                oracle.append(k)
            oracle.sort()
            q.audit()
            held = sorted(e[0] for b in q.buckets for e in b
                          for _ in range(e[1]))
            assert held == oracle
            if not fold:
                assert len(q) == len(oracle)
