import random

import pytest

from gbengine import InvariantError, spairqueue
from gbengine.spairqueue import (SPAIR_QUEUE_KINDS, FlatPairQueue,
                                 MinHeap, PairTriangle, make_spair_queue)


def test_koszul_min_heap():
    rng = random.Random(5)
    q = MinHeap()
    assert q.peek() is None and q.pop() is None
    keys = [rng.randrange(-50, 50) for _ in range(200)]
    for k in keys:
        q.push(k)
    assert len(q) == len(keys) and q.peek() == min(keys)
    got = []
    while (k := q.pop()) is not None:
        got.append(k)
    assert got == sorted(keys) and len(q) == 0


def _keyed(pairs):
    table = {(i, j): k for i, j, k in pairs}
    return (lambda i, j: table[(i, j)]), table


def test_add_column_empty_is_noop():
    key_fn = lambda i, j: 0
    t = PairTriangle(key_fn)
    t.add_column(1, [])
    assert len(t) == 0 and t.peek_min_key() is None
    assert t.pop_min() is None


def test_column_sorting_and_front():
    key_fn, _ = _keyed([(0, 2, 5), (1, 2, 3)])
    t = PairTriangle(key_fn)
    t.add_column(2, [(0, 5), (1, 3)])
    assert t.peek_min_key() == 3
    assert t.pop_min() == (1, 2)
    assert t.peek_min_key() == 5
    assert t.pop_min() == (0, 2)
    assert t.pop_min() is None


def test_peek_stable_under_larger_additions():
    key_fn, table = _keyed([(0, 1, 2), (0, 2, 7), (1, 2, 9)])
    t = PairTriangle(key_fn)
    t.add_column(1, [(0, 2)])
    assert t.peek_min_key() == 2
    t.add_column(2, [(0, 7), (1, 9)])
    assert t.peek_min_key() == 2


@pytest.mark.parametrize("kind", SPAIR_QUEUE_KINDS)
def test_pop_order_matches_flat_sort(kind):
    rng = random.Random(17)
    for _ in range(1000):
        ncols = rng.randrange(2, 8)
        table = {}
        for j in range(1, ncols + 1):
            for i in range(j):
                table[(i, j)] = rng.randrange(-200, 200)
        q = make_spair_queue(kind, lambda i, j: table[(i, j)])
        for j in range(1, ncols + 1):
            q.add_column(j, [(i, table[(i, j)]) for i in range(j)])
        got = []
        while True:
            k = q.peek_min_key()
            p = q.pop_min()
            if p is None:
                break
            assert table[p] == k
            got.append(k)
        assert got == sorted(table[p] for p in table)
        q.check_accounting()


def test_ties_pop_adjacent():
    key_fn = lambda i, j: 1
    t = PairTriangle(key_fn)
    t.add_column(1, [(0, 1)])
    t.add_column(2, [(0, 1), (1, 1)])
    seen = set()
    while t.peek_min_key() == 1:
        p = t.pop_min()
        if p is None:
            break
        seen.add(p)
    assert seen == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("kind", SPAIR_QUEUE_KINDS)
def test_equal_keys_pop_in_key_j_i_order(kind):
    # the queues alone break ties: with few distinct keys and columns added
    # between pops, every pop is the least queued (key, j, i)
    rng = random.Random(29)
    for _ in range(300):
        table = {}
        q = make_spair_queue(kind, lambda i, j: table[(i, j)])
        queued = set()

        def pop_least():
            want = min(queued)
            queued.remove(want)
            assert q.peek_min_key() == want[0]
            assert q.pop_min() == (want[2], want[1])

        for j in range(1, rng.randrange(2, 10)):
            batch = [(i, rng.randrange(3)) for i in range(j)
                     if rng.random() < 0.8]
            for i, k in batch:
                table[(i, j)] = k
                queued.add((k, j, i))
            q.add_column(j, batch)
            for _ in range(min(rng.randrange(4), len(queued))):
                pop_least()
        while queued:
            pop_least()
        assert q.pop_min() is None and len(q) == 0
        q.check_accounting()


def test_byte_accounting_and_widths():
    key_fn = lambda i, j: i
    t = PairTriangle(key_fn)
    t.add_column(10, [(i, i) for i in range(10)])
    assert t.cols[10].itemsize == 2
    assert t.queued_bytes == 2 * 10
    wide = 1 << 16
    t.add_column(wide, [(i, i) for i in range(5)])
    assert t.cols[wide].itemsize == 4
    assert t.queued_bytes == 2 * 10 + 4 * 5
    t.check_accounting()
    for _ in range(6):
        t.pop_min()
        t.check_accounting()
    # the counts are checked against the columns, so a drift is caught
    t.queued_bytes -= 2
    with pytest.raises(InvariantError):
        t.check_accounting()
    t.queued_bytes += 2
    t.pairs += 1
    with pytest.raises(InvariantError):
        t.check_accounting()


def test_front_size_bounded_by_columns():
    rng = random.Random(19)
    rng_keys = {}
    t = PairTriangle(lambda i, j: rng_keys[(i, j)])
    for j in range(1, 12):
        for i in range(j):
            rng_keys[(i, j)] = rng.randrange(50)
        t.add_column(j, [(i, rng_keys[(i, j)]) for i in range(j)])
        assert len(t.front) == len(t.cols)
    while t.pop_min() is not None:
        assert len(t.front) == len(t.cols)


def test_duplicate_column_rejected():
    t = PairTriangle(lambda i, j: 0)
    t.add_column(1, [(0, 0)])
    with pytest.raises(ValueError):
        t.add_column(1, [(0, 0)])


def _groups(kind, table, script):
    # run script (columns to add, then a number of equal-key groups to
    # pop) on a queue of kind; the popped groups as (key, set of pairs)
    q = make_spair_queue(kind, lambda i, j: table[(i, j)])
    out = []
    for cols, pops in script:
        for j in cols:
            q.add_column(j, [(i, table[(i, j)]) for i in range(j)])
        for _ in range(pops):
            key = q.peek_min_key()
            if key is None:
                break
            group = set()
            while q.peek_min_key() == key:
                group.add(q.pop_min())
            out.append((key, group))
        q.check_accounting()
    while (key := q.peek_min_key()) is not None:
        group = set()
        while q.peek_min_key() == key:
            group.add(q.pop_min())
        out.append((key, group))
    return out


def test_queue_kinds_yield_the_same_equal_key_groups():
    # keys from a narrow range, half of them negative, tie often; columns
    # arrive between pops, as they do in a run
    rng = random.Random(29)
    for _ in range(300):
        ncols = rng.randrange(1, 10)
        lo = rng.choice((-3, -40))
        table = {(i, j): rng.randrange(lo, 4)
                 for j in range(1, ncols + 1) for i in range(j)}
        script, j = [], 1
        while j <= ncols:
            k = rng.randrange(1, 4)
            script.append((range(j, min(j + k, ncols + 1)),
                           rng.randrange(3)))
            j += k
        want = _groups(SPAIR_QUEUE_KINDS[0], table, script)
        assert sum(len(g) for _, g in want) == len(table)
        for kind in SPAIR_QUEUE_KINDS[1:]:
            assert _groups(kind, table, script) == want, kind


def test_flat_queue_breaks_key_ties_by_column_then_row():
    for kind in ("heap", "tourtree"):
        q = make_spair_queue(kind, None)
        q.add_column(3, [(2, -1), (0, -1), (1, 5)])
        q.add_column(2, [(1, -1), (0, -1)])
        assert [q.pop_min() for _ in range(6)] == \
            [(0, 2), (1, 2), (0, 3), (2, 3), (1, 3), None]


@pytest.mark.parametrize("kind", SPAIR_QUEUE_KINDS)
def test_pair_index_past_its_width_raises(monkeypatch, kind):
    # with 3-bit pair indices, column 8 (and in a flat queue row 8) cannot
    # be queued: ValueError, and the queue is as it was
    monkeypatch.setattr(spairqueue, "PAIR_INDEX_BITS", 3)
    q = make_spair_queue(kind, lambda i, j: i - j)
    q.add_column(7, [(i, i - 7) for i in range(7)])
    with pytest.raises(ValueError, match="pair index 8 reaches 2"):
        q.add_column(8, [(0, -8)])
    if kind in ("heap", "tourtree"):
        with pytest.raises(ValueError, match="pair index 8 reaches 2"):
            q.add_column(6, [(8, 0)])
    assert len(q) == 7
    q.check_accounting()
    assert [q.pop_min() for _ in range(8)] == \
        [(i, 7) for i in range(7)] + [None]
