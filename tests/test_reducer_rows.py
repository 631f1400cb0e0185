"""One reducer queue per run, and its one row cache under (lead id, poly):
a polynomial names itself by value, whatever basis list or index holds it,
a hit does no multiplier work, and an audited run checks every reused row
and that each turn starts on an empty queue."""

import random

import pytest

from gbengine import (ClassicConfig, InvariantError, ReducerQueue, Ring,
                      SBConfig, all_queue_configs, buchberger_run,
                      builtin_ideal, classic_reduce, sb_run)
from gbengine import division
from gbengine.poly import Polynomial, poly_from_exps

from _util import naive_remainder, random_poly, run_optimized


def test_one_queue_serves_bases_that_differ_at_one_index():
    # both bases hold, at each index, polynomials of one lead and different
    # tails, so every reducer product of the first call has the lead and
    # the basis index of one of the second, but another polynomial: the
    # queue's rows, keyed by polynomial value, keep the two apart
    rng = random.Random(37)
    r = Ring(101, 3)
    cases = []
    for _ in range(25):
        leads = [rng.choice(((1, 0, 0), (0, 1, 0), (2, 0, 1), (1, 1, 0)))
                 for _ in range(2)]
        one, other = (
            [poly_from_exps(r, [(1, e)] + [(rng.randrange(1, 101),
                                            (0, 0, rng.randrange(2)))])
             for e in leads] for _ in range(2))
        f = random_poly(r, rng, max_terms=8, max_exp=4)
        if f and one != other:
            cases.append((f, one, other))
    assert len(cases) > 10
    for cfg in all_queue_configs():
        queue = ReducerQueue(r, cfg)
        for f, one, other in cases:
            for basis in (one, other):
                rem = classic_reduce(r, f, basis, queue=queue)
                assert rem == naive_remainder(r, f, basis), cfg.label()


def test_a_hit_does_no_multiplier_work(monkeypatch):
    # a and b sit at indices 0 and 1 of one basis list and at 1 and 2 of
    # another, whose index 0 divides no term ever pending; a second
    # division of f, through the second list on the queue the first
    # filled, finds every row cached and divides out no multiplier
    rng = random.Random(41)
    r = Ring(101, 3)
    a = poly_from_exps(r, [(1, (1, 0, 0)), (3, (0, 0, 1))])
    b = poly_from_exps(r, [(1, (0, 2, 0)), (5, (0, 1, 1)), (7, (0, 0, 0))])
    c = poly_from_exps(r, [(1, (0, 0, 60)), (2, (0, 0, 0))])
    fs = [random_poly(r, rng, max_terms=10, max_exp=5) for _ in range(5)]
    calls = []
    real_div = Ring.mono_div

    def counting_div(self, x, y):
        calls.append(1)
        return real_div(self, x, y)

    monkeypatch.setattr(Ring, "mono_div", counting_div)
    for cfg in all_queue_configs():
        queue = ReducerQueue(r, cfg)
        for f in fs:
            classic_reduce(r, f, [a, b], queue=queue)
            del calls[:]
            rem = classic_reduce(r, f, [c, a, b], queue=queue)
            assert calls == [], cfg.label()
            assert rem == naive_remainder(r, f, [a, b]), cfg.label()
    assert len(queue.rows) > len(fs)


def test_two_reductions_through_one_queue(monkeypatch):
    # the first division leaves the queue empty; the second, of the same
    # polynomial by the same basis, finds every row interned and gives the
    # plain division's remainder
    rng = random.Random(53)
    r = Ring(101, 3)
    basis = [poly_from_exps(r, [(1, (1, 1, 0)), (4, (0, 0, 2))]),
             poly_from_exps(r, [(1, (0, 2, 0)), (9, (1, 0, 0)),
                                (2, (0, 0, 0))])]
    f = random_poly(r, rng, max_terms=10, max_exp=5)
    calls = []
    real_div = Ring.mono_div

    def counting_div(self, x, y):
        calls.append(1)
        return real_div(self, x, y)

    monkeypatch.setattr(Ring, "mono_div", counting_div)
    want = naive_remainder(r, f, basis)
    for cfg in all_queue_configs():
        queue = ReducerQueue(r, cfg)
        made = []
        for _ in range(2):
            del calls[:]
            rem = classic_reduce(r, f, basis, queue=queue)
            made.append(len(calls))
            assert queue.backend.peek() is None, cfg.label()
            assert queue.acc is None or not any(queue.acc)
            assert rem == want, cfg.label()
        assert made[0] > 0 and made[1] == 0, cfg.label()
    assert want != f


def _corrupt_after_each_reduction(monkeypatch):
    # drop the last id of every cached row of more than two ids once each
    # audited reduction is done, so the next reuse of any of them is a
    # wrong row (one that still ends, as an unaudited run does not notice);
    # the unaudited input interreduction keeps its queue's rows whole
    real = division.divide_queue

    def corrupting(ring, queue, *args, **kw):
        out = real(ring, queue, *args, **kw)
        rows = queue.rows
        for key, row in rows.items():
            if kw.get("audit") and len(row) > 2:
                rows[key] = row[:-1]
        return out

    monkeypatch.setattr(division, "divide_queue", corrupting)


@pytest.mark.parametrize("algorithm,name", [("sb", "katsura4"),
                                            ("classic", "cyclic4")])
def test_audited_run_catches_a_corrupted_cached_row(monkeypatch, algorithm,
                                                    name):
    ring, polys = builtin_ideal(name)
    _corrupt_after_each_reduction(monkeypatch)
    with pytest.raises(InvariantError, match="stale cached reducer row"):
        if algorithm == "sb":
            sb_run(ring, polys, SBConfig(audit=True))
        else:
            buchberger_run(ring, polys, ClassicConfig(audit=True))


def test_row_check_fires_under_optimize():
    script = "\n".join([
        "from gbengine import *",
        "from gbengine import division",
        "assert False  # stripped by -O",
        "real = division.divide_queue",
        "def corrupting(ring, queue, *args, **kw):",
        "    out = real(ring, queue, *args, **kw)",
        "    rows = queue.rows",
        "    for key, row in rows.items():",
        "        if kw.get('audit') and len(row) > 2:",
        "            rows[key] = row[:-1]",
        "    return out",
        "division.divide_queue = corrupting",
        "ring, polys = builtin_ideal('katsura4')",
        "try:",
        "    sb_run(ring, polys, SBConfig(audit=True))",
        "except InvariantError as exc:",
        "    print(exc)"])
    out = run_optimized(script)
    assert out.strip() == "stale cached reducer row"


def test_a_miss_of_known_terms_divides_out_no_multiplier(monkeypatch):
    # x * (x^2 + 2y) is a new product whose terms x^3 and xy the queue
    # already interned for x * (x^2 + y): its row needs no multiplier
    r = Ring(101, 3)
    f = poly_from_exps(r, [(1, (2, 0, 0)), (1, (0, 1, 0))])
    g = poly_from_exps(r, [(1, (2, 0, 0)), (2, (0, 1, 0))])
    x3 = r.mono((3, 0, 0))
    queue = ReducerQueue(r)
    row = queue.row(x3, f)
    calls = []
    real_div = Ring.mono_div

    def counting_div(self, x, y):
        calls.append(1)
        return real_div(self, x, y)

    monkeypatch.setattr(Ring, "mono_div", counting_div)
    assert queue.row(x3, g) == row and calls == []
    assert len(queue.rows) == 2 and len(queue.keys) == len(queue.acc) == 2


def test_audited_run_catches_a_stray_queued_term(monkeypatch):
    # a reduction that left a term behind in the engine's queue would add
    # it to the next turn's S-polynomial; an audited run refuses that turn
    real = division.divide_queue

    def leaky(ring, queue, *args, **kw):
        out = real(ring, queue, *args, **kw)
        if kw.get("audit"):
            f = Polynomial((1,), (ring.mono((1,) * ring.num_vars),))
            queue.push_product(1, queue.row(f.lead_mono, f), f)
        return out

    monkeypatch.setattr(division, "divide_queue", leaky)
    ring, polys = builtin_ideal("katsura4")
    with pytest.raises(InvariantError,
                       match="reducer queue empty before a turn"):
        sb_run(ring, polys, SBConfig(audit=True))
