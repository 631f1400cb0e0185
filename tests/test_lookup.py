import random

import pytest

from gbengine import (ClassicConfig, DivMap, InvariantError, Monomial, Ring,
                      SBConfig, basis_lookup, cli, make_lookup, may_divide)
from gbengine.lookup import (DEFAULT_LEAF_CAPACITY, DEFAULT_LOOKUP,
                             LOOKUP_KINDS, KdLookup, _KdNode)
from gbengine.ring import MAX_EXPONENT, MAX_VARS, word_divides

from _util import random_mono

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the package declares no dependencies
    given = None


def test_calibrate_one_bit_per_var_uses_floor_average():
    # 32 variables: each gets exactly one bit
    r = Ring(101, 32)
    monos = [r.mono((0,) + (0,) * 31), r.mono((3,) + (0,) * 31)]
    dm = DivMap.calibrate(r, monos)
    thresholds = {var: t for var, t in dm.entries}
    assert thresholds[0] == 1          # floor((0+3)/2)
    assert len(dm.entries) == 32


def test_calibrate_single_monomial_thresholds_equal_exponents():
    r = Ring(101, 32)
    exps = tuple((i * 3) % 5 for i in range(32))
    dm = DivMap.calibrate(r, [r.mono(exps)])
    for var, t in dm.entries:
        assert t == exps[var]


def test_calibrate_ignores_variables_past_32():
    r = Ring(101, 51)
    rng = random.Random(5)
    dm = DivMap.calibrate(r, [random_mono(r, rng) for _ in range(20)])
    assert all(var < 32 for var, _ in dm.entries)
    assert len(dm.entries) == 32


def test_calibrate_empty_set_errors():
    with pytest.raises(ValueError):
        DivMap.calibrate(Ring(101, 3), [])


def test_may_divide_examples():
    r = Ring(101, 3)
    monos = [r.mono((0, 3, 0)), r.mono((1, 1, 1)), r.mono((2, 0, 0)),
             r.mono((0, 0, 0))]
    dm = DivMap.calibrate(r, monos)
    y3 = dm.mask_of((0, 3, 0))
    xyz = dm.mask_of((1, 1, 1))
    # y^3 does not divide xyz and some y-threshold >= 2 witnesses it
    if any(var == 1 and t >= 2 for var, t in dm.entries):
        assert not may_divide(y3, xyz)
    assert may_divide(0, xyz)
    assert may_divide(y3, y3)


def test_divmask_soundness_small():
    rng = random.Random(9)
    r = Ring(101, 6)
    monos = [random_mono(r, rng) for _ in range(50)]
    dm = DivMap.calibrate(r, monos)
    for _ in range(5000):
        a = random_mono(r, rng)
        b = random_mono(r, rng)
        if r.mono_divides(a, b):
            assert may_divide(dm.mask_of(a.exps), dm.mask_of(b.exps))


def test_mask_monotone_under_divisibility():
    rng = random.Random(29)
    r = Ring(101, 5)
    dm = DivMap.calibrate(r, [random_mono(r, rng) for _ in range(30)])
    for _ in range(2000):
        a = random_mono(r, rng, 4)
        b = r.mono_mul(a, random_mono(r, rng, 3))
        ma, mb = dm.mask_of(a.exps), dm.mask_of(b.exps)
        assert ma & ~mb == 0


def test_insert_empty_then_query():
    r = Ring(101, 3)
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r)
        s.insert(r.mono((1, 0, 0)), 0)
        assert len(s) == 1
        assert s.find_divisor(r.mono((1, 1, 0)).word) == 0
        assert s.find_divisor(r.mono((0, 1, 1)).word) is None


def test_duplicate_monomials_distinct_ids():
    r = Ring(101, 3)
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r)
        s.insert(r.mono((1, 0, 0)), 10)
        s.insert(r.mono((1, 0, 0)), 11)
        assert sorted(s.find_all_divisors(r.mono((1, 0, 0)).word)) == [10, 11]


def test_kdtree_split_exponent_and_variable_cycling():
    r = Ring(101, 2)
    s = KdLookup(r, use_masks=False, leaf_capacity=2)
    # x-exponents {0, 4}: the split lands at x^2 and x^2|m goes right
    s.insert(r.mono((0, 0)), 0)
    s.insert(r.mono((0, 1)), 1)
    s.insert(r.mono((4, 0)), 2)
    root = s.root
    from gbengine.lookup import _KdNode
    assert isinstance(root, _KdNode)
    assert root.var == 0 and root.power == r.mono((2, 0)).word
    right_ids = [rec[1] for rec in root.right]
    assert right_ids == [2]
    s.audit()
    # child splits cycle to the next variable
    for i in range(3, 9):
        s.insert(r.mono((4, i)), i)
    s.audit()

    def vars_of(node, acc):
        if isinstance(node, _KdNode):
            acc.append((node.var, node.power))
            vars_of(node.left, acc)
            vars_of(node.right, acc)
        return acc
    splits = vars_of(s.root, [])
    assert any(var == 1 for var, _ in splits)


def test_retire_examples():
    r = Ring(101, 3)
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r)
        s.insert(r.mono((1, 0, 0)), 0)
        s.retire(0)
        assert s.find_divisor(r.mono((1, 1, 1)).word) is None
        with pytest.raises(KeyError):
            s.retire(0)
        with pytest.raises(KeyError):
            s.retire(99)
        s.insert(r.mono((0, 1, 0)), 1)
        s.insert(r.mono((0, 0, 1)), 2)
        s.retire(1)
        s.rebuild()
        assert len(s) == 1
        assert s.find_divisor(r.mono((0, 1, 1)).word) == 2


def test_retired_records_leave_their_leaf():
    # a retire unlinks its record at once, so retired records take no
    # room in a leaf: two retired and one inserted fit a leaf of two
    r = Ring(101, 3)
    s = make_lookup("kdtree", r, leaf_capacity=2)
    s.insert(r.mono((1, 0, 0)), 0)
    s.insert(r.mono((0, 1, 0)), 1)
    s.retire(0)
    s.retire(1)
    s.insert(r.mono((0, 0, 1)), 2)
    assert not isinstance(s.root, _KdNode)
    assert len(s.root) == 1 and s.root[0] is s.by_id[2]
    s.audit()


def test_retire_multiples_returns_ids_in_entries_order():
    r = Ring(101, 3)
    exps = [(2, 1, 0), (0, 1, 0), (1, 1, 3), (1, 0, 0), (1, 2, 0)]
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r)
        for pid, e in enumerate(exps):
            s.insert(r.mono(e), pid)
        order = [pid for _, pid in s.entries()]
        gone = s.retire_multiples(r.mono((1, 1, 0)))
        assert sorted(gone) == [0, 2, 4]
        assert gone == [pid for pid in order if pid in gone], kind
        assert sorted(pid for _, pid in s.entries()) == [1, 3]
        assert s.retire_multiples(r.mono((3, 3, 3))) == []
        assert sorted(s.find_all_divisors(r.mono((2, 2, 0)).word)) == [1, 3]


def test_maybe_rebuild_trigger():
    r = Ring(101, 3)
    rng = random.Random(31)
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r)
        assert not s.maybe_rebuild()          # fresh structure
        for i in range(10):
            s.insert(random_mono(r, rng), i)
        s.rebuild()
        # retiring 60% of the entries out-churns the live size
        for i in range(6):
            s.retire(i)
        q = r.mono((6,) * 3)
        before = sorted(s.find_all_divisors(q.word))
        assert s.maybe_rebuild()
        assert len(s) == 4
        assert sorted(s.find_all_divisors(q.word)) == before


def test_structure_equivalence_random_ops():
    # under lex the word fields are laid out in reverse, and kd nodes read
    # them in the ring's layout
    rng = random.Random(37)
    for r in (Ring(101, 4), Ring(101, 4, "lex")):
        for _ in range(40):
            structures = {kind: make_lookup(kind, r, leaf_capacity=4)
                          for kind in LOOKUP_KINDS}
            live = []
            next_id = 0
            for _ in range(rng.randrange(10, 60)):
                op = rng.random()
                if op < 0.5 or not live:
                    m = random_mono(r, rng, 4)
                    for s in structures.values():
                        s.insert(m, next_id)
                    live.append(next_id)
                    next_id += 1
                elif op < 0.65:
                    pid = live.pop(rng.randrange(len(live)))
                    for s in structures.values():
                        s.retire(pid)
                elif op < 0.75:
                    for s in structures.values():
                        s.maybe_rebuild()
                else:
                    q = random_mono(r, rng, 6)
                    expected = sorted(
                        structures["list"].find_all_divisors(q.word))
                    for kind, s in structures.items():
                        assert sorted(s.find_all_divisors(q.word)) == \
                            expected, kind
                        one = s.find_divisor(q.word)
                        assert (one is None) == (not expected)
                        if one is not None:
                            assert one in expected
            structures["kdtree"].audit()
            structures["divkdtree"].audit()


def test_divkdtree_node_mask_is_and_of_subtree():
    rng = random.Random(43)
    r = Ring(101, 5)
    s = make_lookup("divkdtree", r, leaf_capacity=4)
    for i in range(40):
        s.insert(random_mono(r, rng, 4), i)
    s.rebuild()
    want = -1
    for mono, _ in s.entries():
        want &= s.divmap.mask_of(mono.exps)
    assert s.root.mask == want
    for i in range(40, 60):
        s.insert(random_mono(r, rng, 4), i)
    s.audit()
    # a node bit that some live entry below lacks would prune a divisor
    s.root.mask = -1
    with pytest.raises(InvariantError, match="node mask"):
        s.audit()


def test_hit_accounting_identity():
    rng = random.Random(41)
    r = Ring(101, 5)
    for kind in ("divlist", "divkdtree"):
        s = make_lookup(kind, r, leaf_capacity=4)
        for i in range(40):
            s.insert(random_mono(r, rng, 4), i)
        s.rebuild()
        for _ in range(300):
            s.find_all_divisors(random_mono(r, rng, 6).word)
            s.find_divisor(random_mono(r, rng, 6).word)
        st = s.stats
        assert st.consultations == st.hits + st.misses + st.divisibilities
        assert st.consultations > 0
        assert 0.0 <= st.effective_hit_rate() <= st.hit_rate() <= 1.0


def _mask_by_threshold_loop(dm, mono):
    # reference: bit b is set when x_i >= t for entries[b] = (i, t)
    mask = 0
    for b, (i, t) in enumerate(dm.entries):
        if mono.exps[i] >= t:
            mask |= 1 << b
    return mask


def test_mask_of_matches_threshold_loop():
    rng = random.Random(47)
    for nv, max_exp in ((3, 6), (10, 40), (40, 5), (2, (1 << 16) - 1)):
        r = Ring(101, nv)
        calib = [random_mono(r, rng, max_exp) for _ in range(20)]
        maps = [DivMap.trivial(r), DivMap.calibrate(r, calib),
                # bits in no particular variable order, one variable unused
                DivMap([(rng.randrange(1, nv) if nv > 1 else 0,
                         rng.randrange(max_exp + 1)) for _ in range(32)])]
        for dm in maps:
            for _ in range(300):
                m = random_mono(r, rng, max_exp)
                assert dm.mask_of(m.exps) == _mask_by_threshold_loop(dm, m)
                # a Monomial iterates as its exponent vector
                assert dm.mask_of(m) == dm.mask_of(m.exps)


def test_stored_answers_across_mutations():
    # a fixed pool of queries, so stored answers are hit again after
    # inserts (extended), retires (dropped) and rebuilds (kept)
    rng = random.Random(43)
    r = Ring(101, 4)
    pool = [random_mono(r, rng, 6) for _ in range(12)]
    for kind in LOOKUP_KINDS:
        s = make_lookup(kind, r, leaf_capacity=4)
        live = {}
        retired = set()
        queries = 0
        for step in range(800):
            op = rng.random()
            if op < 0.25 or not live:
                live[step] = random_mono(r, rng, 4)
                s.insert(live[step], step)
            elif op < 0.3:
                pid = rng.choice(sorted(live))
                s.retire(pid)
                del live[pid]
                retired.add(pid)
            elif op < 0.33:
                s.maybe_rebuild()
            elif op < 0.35:
                s.rebuild()
            else:
                q = rng.choice(pool)
                want = {pid for pid, m in live.items() if r.mono_divides(m, q)}
                got = s.find_all_divisors(q.word)
                assert len(got) == len(set(got)), kind
                assert set(got) == want, kind
                assert not retired.intersection(got), kind
                one = s.find_divisor(q.word)
                assert one in want if want else one is None, kind
                queries += 2
        st = s.stats
        assert st.reused and st.extended and st.computed, kind
        assert st.reused + st.extended + st.computed == queries, kind
        assert st.consultations == st.hits + st.misses + st.divisibilities
        if s.use_masks:
            assert st.consultations > 0, kind


def test_divlist_counts_only_consultations_made():
    # a fresh answer consults every live entry, an extended one only the
    # entries inserted since it was made, a reused one none
    rng = random.Random(53)
    r = Ring(101, 4)
    pool = [random_mono(r, rng, 6) for _ in range(6)]
    s = make_lookup("divlist", r)
    made = {}          # query key -> number of inserts when last answered
    inserts = 0
    expected = 0
    for step in range(400):
        op = rng.random()
        if op < 0.3 or not len(s):
            s.insert(random_mono(r, rng, 4), step)
            inserts += 1
        elif op < 0.35:
            s.retire(rng.choice([pid for _, pid in s.entries()]))
            made = {}
            inserts = 0
        elif op < 0.4:
            s.rebuild()
        else:
            q = rng.choice(pool)
            if q.key in made:
                expected += inserts - made[q.key]
            else:
                expected += len(s)
            made[q.key] = inserts
            s.find_all_divisors(q.word)
            assert s.stats.consultations == expected


@pytest.mark.parametrize("kind", ["divlist", "divkdtree"])
def test_extended_answer_reuses_query_mask(kind, monkeypatch):
    # the first answer computes the query's mask; answers brought up to
    # date after inserts reuse it until a rebuild recalibrates the divmap
    rng = random.Random(61)
    r = Ring(101, 4)
    q = r.mono((3, 3, 2, 2))
    s = make_lookup(kind, r, leaf_capacity=4)
    monos = [random_mono(r, rng, 4) for _ in range(24)]
    for i in range(20):
        s.insert(monos[i], i)
    s.rebuild()
    made = []
    real = DivMap.mask_of

    def counting(self, exps):
        if tuple(exps) == q.exps:
            made.append(self)
        return real(self, exps)

    monkeypatch.setattr(DivMap, "mask_of", counting)
    for i, rebuild, masks in ((20, False, 1), (21, False, 1), (22, True, 2),
                              (23, False, 2)):
        if rebuild:
            s.rebuild()
        s.insert(monos[i], i)
        got = s.find_all_divisors(q.word)
        assert len(made) == masks and made[-1] is s.divmap
        assert sorted(got) == [j for j in range(i + 1)
                               if r.mono_divides(monos[j], q)]


# -- find_divisor by exponent word against a scan -----------------------------

WORD_RINGS = tuple([Ring(101, n) for n in (1, 2, 7, 10, MAX_VARS)]
                   + [Ring(101, 7, "lex"), Ring(101, 7, "elim", 3)])


def _lookup_ops():
    """(ring, ops): a ring of WORD_RINGS and up to 40 lookup operations,
    ("insert", exps), ("retire", k), ("rebuild", full) or ("query", exps,
    k), each exponent in [0, 2^16) with 0, 2^16 - 1 and small ones drawn
    often; k picks a live entry, which a query then takes the lcm with so
    that it has a divisor, or none when k is None."""
    top = MAX_EXPONENT - 1
    entry = st.one_of(st.sampled_from((0, top)), st.integers(0, 3),
                      st.integers(0, top))
    pick = st.one_of(st.none(), st.integers(0, 1 << 16))

    @st.composite
    def cases(draw):
        ring = draw(st.sampled_from(WORD_RINGS))
        n = ring.num_vars
        exps = st.lists(entry, min_size=n, max_size=n).map(tuple)
        ops = []
        for _ in range(draw(st.integers(1, 40))):
            kind = draw(st.sampled_from(("insert",) * 4 + ("query",) * 4
                                        + ("retire", "rebuild")))
            if kind == "insert":
                ops.append((kind, draw(exps)))
            elif kind == "query":
                ops.append((kind, draw(exps), draw(pick)))
            elif kind == "retire":
                ops.append((kind, draw(st.integers(0, 1 << 16))))
            else:
                ops.append((kind, draw(st.booleans())))
        return ring, ops
    return cases()


def _check_find_divisor(ring, ops):
    lookups = [make_lookup(kind, ring, leaf_capacity=cap)
               for cap in (2, DEFAULT_LEAF_CAPACITY) for kind in LOOKUP_KINDS]
    live = {}
    for step, op in enumerate(ops):
        if op[0] == "insert":
            live[step] = ring.mono(op[1])
            for lk in lookups:
                lk.insert(live[step], step)
        elif op[0] == "retire" and live:
            pid = sorted(live)[op[1] % len(live)]
            del live[pid]
            for lk in lookups:
                lk.retire(pid)
        elif op[0] == "rebuild" and op[1]:
            for lk in lookups:
                lk.rebuild()
        elif op[0] == "rebuild":
            for lk in lookups:
                lk.maybe_rebuild()
        elif op[0] == "query":
            q = op[1]
            if op[2] is not None and live:
                divisor = live[sorted(live)[op[2] % len(live)]]
                q = tuple(map(max, q, divisor.exps))
            word = ring.mono(q).word
            want = {pid for pid, m in live.items()
                    if word_divides(m.word, word, ring.guard)}
            for lk in lookups:
                for _ in range(2):      # computed, then reused
                    got = lk.find_divisor(word)
                    assert got in want if want else got is None, lk
    for lk in lookups:
        lk.audit()


if given is None:
    def test_find_divisor_by_word_agrees_with_a_scan():
        pytest.skip("hypothesis is not installed")
else:
    @settings(derandomize=True, deadline=None, database=None)
    @given(_lookup_ops())
    def test_find_divisor_by_word_agrees_with_a_scan(case):
        _check_find_divisor(*case)


# -- the default lookup and its word-only find_divisor ------------------------

def test_every_default_lookup_is_default_lookup():
    args = cli._build_parser().parse_args(["run", "katsura4"])
    r = Ring(101, 3)
    made = basis_lookup(r, [])
    assert DEFAULT_LOOKUP in LOOKUP_KINDS
    assert SBConfig().lookup == ClassicConfig().lookup == DEFAULT_LOOKUP
    assert args.lookup == DEFAULT_LOOKUP
    assert isinstance(made, KdLookup) and not made.use_masks
    assert made.leaf_capacity == DEFAULT_LEAF_CAPACITY


def _counting_exps_of(monkeypatch):
    """A list that every Ring.exps_of call and Monomial.exps read appends
    the word of to."""
    calls = []
    real_of, real_exps = Ring.exps_of, Monomial.exps.fget

    def exps_of(self, word):
        calls.append(word)
        return real_of(self, word)

    def exps(mono):
        calls.append(mono.word)
        return real_exps(mono)

    monkeypatch.setattr(Ring, "exps_of", exps_of)
    monkeypatch.setattr(Monomial, "exps", property(exps))
    return calls


def _check_word_only_queries(monkeypatch, r, s, monos, rng):
    calls = _counting_exps_of(monkeypatch)
    for _ in range(60):
        q = random_mono(r, rng, 5)
        want = [i for i, m in enumerate(monos) if r.mono_divides(m, q)]
        got = s.find_divisor(q.word)
        assert got in want if want else got is None
        assert sorted(s.find_all_divisors(q.word)) == want
    assert calls == []


def test_maskless_leaf_root_answers_from_the_word_alone(monkeypatch):
    rng = random.Random(21)
    r = Ring(101, 4)
    s = make_lookup("kdtree", r)
    monos = [random_mono(r, rng, 3) for _ in range(DEFAULT_LEAF_CAPACITY)]
    for i, m in enumerate(monos):
        s.insert(m, i)
    assert not isinstance(s.root, _KdNode)
    _check_word_only_queries(monkeypatch, r, s, monos, rng)


def test_find_divisor_after_the_root_splits(monkeypatch):
    # a kd node routes the query on the split variable's word field, so a
    # split root reads no exponent vector either
    rng = random.Random(22)
    r = Ring(101, 4)
    s = make_lookup("kdtree", r, leaf_capacity=4)
    monos = [random_mono(r, rng, 3) for _ in range(30)]
    for i, m in enumerate(monos):
        s.insert(m, i)
    assert isinstance(s.root, _KdNode)
    _check_word_only_queries(monkeypatch, r, s, monos, rng)
    s.audit()
