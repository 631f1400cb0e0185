import gc
import hashlib
import random

import pytest

from gbengine import (InvariantError, ModuleOrder, ReducerQueue, Ring,
                      SBConfig, buchberger_run, builtin_ideal,
                      koszul_signature, low_base_divisor_bound,
                      poly_from_exps, poly_str, sb_run, sigbasis)
from gbengine.division import _audit_pick, basis_lookup, divide_queue
from gbengine.ring import MAX_EXPONENT
from gbengine.sigbasis import SigEntry, spair_word

from _util import is_reduced_gb, random_mono, run_optimized

# the smallest qualifying index, the regular reducer before the least ratio
SMALLEST_INDEX = SBConfig(reducer_select=lambda valid: valid[0])


def _two_gens():
    r = Ring(101, 3)
    g1 = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])   # x^2 - y
    g2 = poly_from_exps(r, [(1, (1, 1, 0)), (100, (0, 0, 1))])   # xy - z
    return r, g1, g2


def _entry(morder, ring, idx, sig_exps, comp, poly):
    e = SigEntry(idx, ring.mono(sig_exps), comp, poly,
                 morder.ratio_rank(ring.mono(sig_exps), poly.lead_mono, comp))
    return e


def _spair_sig(ring, a, b):
    """The S-pair's signature (mono, comp), made from spair_word."""
    word, comp = spair_word(ring, a, b)
    return ring.mono_of_word(word), comp


def _assert_order(mo, lo, hi):
    """lo = (mono, comp) is below hi in the module order mo, by sig_key
    and by module_cmp both ways."""
    assert mo.sig_key(*lo) < mo.sig_key(*hi)
    assert mo.module_cmp(*lo, *hi) == -1 and mo.module_cmp(*hi, *lo) == 1


def test_module_cmp_examples():
    r, g1, g2 = _two_gens()
    mo = ModuleOrder("schreyer", "low-gt", [g1.lead_mono, g2.lead_mono])
    y, x, one = r.mono((0, 1, 0)), r.mono((1, 0, 0)), r.one
    # weights tie at x^2 y; the lower component wins
    _assert_order(mo, (x, 1), (y, 0))
    assert mo.sig_key(one, 0) == mo.sig_key(r.mono((0, 0, 0)), 0)
    assert mo.module_cmp(one, 0, one, 0) == 0
    _assert_order(mo, (one, 0), (x, 0))
    # the alternative tie-break flips the first comparison
    mo2 = ModuleOrder("schreyer", "high-gt", [g1.lead_mono, g2.lead_mono])
    _assert_order(mo2, (y, 0), (x, 1))


def test_module_cmp_potop():
    r, g1, g2 = _two_gens()
    mo = ModuleOrder("potop", "low-gt", [g1.lead_mono, g2.lead_mono],
                     r.num_vars)
    big, small = r.mono((5, 5, 5)), r.one
    # higher component dominates regardless of the monomials
    _assert_order(mo, (big, 0), (small, 1))
    _assert_order(mo, (small, 1), (big, 1))


def test_spair_signature_example():
    r, g1, g2 = _two_gens()
    res = sb_run(r, [g1, g2])
    e_x2, e_xy = sorted(res.entries[:2], key=lambda e: -e.lead.key)
    sig = _spair_sig(r, e_x2, e_xy)
    # gcd x: the x^2 side wins the weight tie under low-gt
    assert e_x2.ratio_rank != e_xy.ratio_rank
    assert sig[1] == e_x2.sig_comp
    assert sig[0].exps == (0, 1, 0)


def test_spair_signature_matches_compute_both_oracle():
    rng = random.Random(43)
    r = Ring(101, 4)
    mo = ModuleOrder("schreyer", "low-gt",
                     [r.mono((2, 0, 0, 0)), r.mono((0, 2, 0, 0)),
                      r.mono((1, 1, 1, 0))])
    for _ in range(2000):
        entries = []
        for i in range(2):
            lead = random_mono(r, rng, 4)
            sig = random_mono(r, rng, 4)
            poly = poly_from_exps(r, [(1, lead.exps)])
            entries.append(_entry(mo, r, i, sig.exps, rng.randrange(3), poly))
        a, b = entries
        sig = _spair_sig(r, a, b)
        regular = a.ratio_rank != b.ratio_rank
        # oracle: compute both candidate module terms, compare directly
        d = r.mono_gcd(a.lead, b.lead)
        ea = (r.mono_mul(r.mono_div(b.lead, d), a.sig_mono), a.sig_comp)
        eb = (r.mono_mul(r.mono_div(a.lead, d), b.sig_mono), b.sig_comp)
        cmp = mo.module_cmp(ea[0], ea[1], eb[0], eb[1])
        assert regular == (cmp != 0)
        want = ea if cmp >= 0 else eb
        if regular:
            assert (sig[0].exps, sig[1]) == (want[0].exps, want[1])


def test_koszul_signature_example_and_divisibility():
    r, g1, g2 = _two_gens()
    res = sb_run(r, [g1, g2])
    e_x2, e_xy = sorted(res.entries[:2], key=lambda e: -e.lead.key)
    ksig = koszul_signature(r, e_x2, e_xy)
    assert ksig[1] == e_x2.sig_comp and ksig[0].exps == (1, 1, 0)
    # sig(spair) divides sig(koszul), with the same component
    rng = random.Random(47)
    mo = res.module_order
    for _ in range(2000):
        entries = []
        for i in range(2):
            lead = random_mono(r, rng, 4)
            sig = random_mono(r, rng, 4)
            poly = poly_from_exps(r, [(1, lead.exps)])
            entries.append(_entry(mo, r, i, sig.exps, rng.randrange(2), poly))
        a, b = entries
        if a.ratio_rank == b.ratio_rank:
            continue
        ssig = _spair_sig(r, a, b)
        ksig = koszul_signature(r, a, b)
        assert ksig[1] == ssig[1]
        assert r.mono_divides(ssig[0], ksig[0])


def test_high_base_divisor_core_fact():
    # componentwise: min(b,c) - min(a,c) <= b - a whenever a <= b
    a, b, c = (1, 0), (2, 0), (1, 3)
    diff = tuple(min(bb, cc) - min(aa, cc)
                 for aa, bb, cc in zip(a, b, c))
    assert all(d <= e - f for d, e, f in zip(diff, b, a))
    assert diff == (0, 0)


def test_low_base_divisor_bound_example():
    r = Ring(101, 2)
    mo = ModuleOrder("schreyer", "low-gt", [r.one])
    alpha = _entry(mo, r, 0, (0, 0), 0, poly_from_exps(r, [(1, (1, 0))]))
    beta = _entry(mo, r, 1, (0, 2), 0, poly_from_exps(r, [(1, (2, 1))]))
    # p = hd(alpha)*sig(beta)/sig(alpha) = (1,2); v1=max(p1,a1)=1, and v2 is
    # unbounded, so it is MAX_EXPONENT
    assert low_base_divisor_bound(alpha, beta) == (1, MAX_EXPONENT)


def test_low_base_divisor_bound_vacuous_when_ratio_divides():
    r = Ring(101, 2)
    mo = ModuleOrder("schreyer", "low-gt", [r.one])
    # ratio(alpha) | ratio(beta): v is unbounded, all MAX_EXPONENT
    alpha = _entry(mo, r, 0, (1, 1), 0, poly_from_exps(r, [(1, (1, 1))]))
    beta = _entry(mo, r, 1, (2, 2), 0, poly_from_exps(r, [(1, (1, 1))]))
    assert low_base_divisor_bound(alpha, beta) == (MAX_EXPONENT,
                                                   MAX_EXPONENT)


def test_base_divisor_precondition_errors():
    r = Ring(101, 2)
    mo = ModuleOrder("schreyer", "low-gt", [r.one, r.one])
    alpha = _entry(mo, r, 0, (1, 0), 0, poly_from_exps(r, [(1, (1, 0))]))
    beta = _entry(mo, r, 1, (0, 1), 0, poly_from_exps(r, [(1, (2, 1))]))
    with pytest.raises(ValueError):
        low_base_divisor_bound(alpha, beta)


def test_regular_reduce_hand_example():
    # seed y*e1 over {x^2-y, xy-z} regular-reduces to -(y^2 - xz)
    r, g1, g2 = _two_gens()
    res = sb_run(r, [g1, g2])
    assert res.stats.to_sb == 1
    new = res.entries[2]
    assert poly_str(r, new.poly) == "x2^2+100*x1*x3"
    e_x2 = max(res.entries[:2], key=lambda e: e.lead.key)
    assert new.sig_comp == e_x2.sig_comp
    assert new.sig_mono.exps == (0, 1, 0)


def test_sb_matches_classic_on_two_gens():
    r, g1, g2 = _two_gens()
    res = sb_run(r, [g1, g2])
    classic, _ = buchberger_run(r, [g1, g2])
    assert [poly_str(r, g) for g in res.groebner_basis()] == \
        [poly_str(r, g) for g in classic]
    assert is_reduced_gb(r, res.groebner_basis())


def test_reduction_count_law_and_identities():
    for name in ("katsura4", "katsura5", "cyclic4", "cyclic5"):
        ring, polys = builtin_ideal(name)
        res = sb_run(ring, polys)
        s = res.stats
        assert s.need_reduction == s.to_sb + s.to_syzygy
        assert s.spairs == (s.nonregular + s.basedivisor + s.sig_early
                            + s.early_singular + s.queued)
        assert s.queued == (s.duplicate + s.sig_late + s.koszul + s.relprime
                            + s.singular_late + s.need_reduction)
        assert s.to_sb == s.sb_size - len(res.module_order.hd_monos)


def test_criterion_disabling_never_changes_entries():
    # base_divisors=1 isolates the high-ratio base divisor test
    cases = [dict(base_divisors=0), dict(base_divisors=1),
             dict(use_koszul=False), dict(use_signature=False),
             dict(use_singular=False), dict(early_singular=True)]
    for name in ("katsura5", "cyclic4", "cyclic5"):
        ring, polys = builtin_ideal(name)
        ref = sb_run(ring, polys)
        ref_sig = [(e.sig_mono.exps, e.sig_comp, poly_str(ring, e.poly))
                   for e in ref.entries]
        ref_syz = [(m.exps, c) for m, c in ref.syzygies]
        for kw in cases:
            res = sb_run(ring, polys, SBConfig(**kw))
            got = [(e.sig_mono.exps, e.sig_comp, poly_str(ring, e.poly))
                   for e in res.entries]
            assert got == ref_sig, (name, kw)
            assert [(m.exps, c) for m, c in res.syzygies] == ref_syz, \
                (name, kw)
            res.stats.check(kw.get("early_singular", False))
            if name == "cyclic5" and kw == dict(base_divisors=1):
                assert res.stats.basedivisor > 0


def test_audit_mode_runs():
    # audits: champion minimality scan, syzygy-set minimality, triangle
    # accounting, signature monotonicity
    for name in ("katsura4", "katsura5", "cyclic4"):
        ring, polys = builtin_ideal(name)
        res = sb_run(ring, polys, SBConfig(audit=True))
        assert res.stats.need_reduction > 0


def test_early_singular_reduces_queued():
    ring, polys = builtin_ideal("cyclic5")
    base = sb_run(ring, polys)
    filt = sb_run(ring, polys, SBConfig(early_singular=True))
    assert filt.stats.early_singular > 0
    assert filt.stats.queued < base.stats.queued
    assert [poly_str(ring, g) for g in filt.groebner_basis()] == \
        [poly_str(ring, g) for g in base.groebner_basis()]


def test_memory_fallback_drops_triangle():
    ring, polys = builtin_ideal("katsura5")
    ref = sb_run(ring, polys)
    res = sb_run(ring, polys, SBConfig(tri_bit_cap=64))
    assert [poly_str(ring, g) for g in res.groebner_basis()] == \
        [poly_str(ring, g) for g in ref.groebner_basis()]
    # once dropped, the base divisor criterion stops firing
    assert res.stats.basedivisor <= ref.stats.basedivisor


def test_potop_module_order():
    for name in ("katsura4", "cyclic4"):
        ring, polys = builtin_ideal(name)
        ref, _ = buchberger_run(ring, polys)
        res = sb_run(ring, polys, SBConfig(module_order="potop"))
        assert [poly_str(ring, g) for g in res.groebner_basis()] == \
            [poly_str(ring, g) for g in ref]
        res.stats.check()


def test_tiebreak_flip_still_correct():
    ring, polys = builtin_ideal("katsura5")
    ref, _ = buchberger_run(ring, polys)
    res = sb_run(ring, polys, SBConfig(tiebreak="high-gt"))
    assert [poly_str(ring, g) for g in res.groebner_basis()] == \
        [poly_str(ring, g) for g in ref]


def test_koszul_push_modes_agree_on_output():
    ring, polys = builtin_ideal("katsura5")
    a = sb_run(ring, polys, SBConfig(koszul_push="group"))
    b = sb_run(ring, polys, SBConfig(koszul_push="survivor"))
    assert [poly_str(ring, g) for g in a.groebner_basis()] == \
        [poly_str(ring, g) for g in b.groebner_basis()]


def test_config_validation():
    with pytest.raises(ValueError):
        SBConfig(koszul_push="everything")
    with pytest.raises(ValueError):
        SBConfig(base_divisors=3)
    with pytest.raises(ValueError):
        ModuleOrder("lex-ish", "low-gt", [])
    with pytest.raises(ValueError):
        ModuleOrder("schreyer", "sideways", [])
    with pytest.raises(ValueError, match="potop needs the variable count"):
        ModuleOrder("potop", "low-gt", [Ring(101, 2).one])


def test_syzygy_set_minimality():
    from gbengine.sigbasis import SyzygySet
    r = Ring(101, 2)
    s = SyzygySet(r, 2, "list")
    assert s.insert(r.mono((2, 0)), 0)
    assert not s.insert(r.mono((2, 1)), 0)     # dominated
    assert s.insert(r.mono((2, 1)), 1)         # other component is fine
    assert s.insert(r.mono((0, 1)), 0)
    assert s.insert(r.mono((1, 0)), 0)         # retires (2,0)
    s.audit_minimal()
    assert sorted((m.exps, c) for m, c in s.signatures()) == \
        sorted([((0, 1), 0), ((1, 0), 0), ((2, 1), 1)])


def test_pop_builds_a_signature_monomial_only_past_the_late_criterion(
        monkeypatch):
    # the late signature criterion needs only the signature's word and
    # key, so a pop it ends builds no Monomial from the signature's word
    from gbengine import sigbasis
    inside, made, pops = [], [], []
    real_of_word = Ring.mono_of_word

    def counting_of_word(self, word):
        if inside:
            made.append(word)
        return real_of_word(self, word)

    real_pop = sigbasis._SBEngine._pop

    def counting_pop(self):
        pops.append(None)
        inside.append(None)
        try:
            return real_pop(self)
        finally:
            inside.pop()

    monkeypatch.setattr(Ring, "mono_of_word", counting_of_word)
    monkeypatch.setattr(sigbasis._SBEngine, "_pop", counting_pop)
    ring, polys = builtin_ideal("hcyclic5")
    stats = sb_run(ring, polys).stats
    assert 0 < stats.sig_late < len(pops)
    assert len(made) == len(pops) - stats.sig_late


def test_pair_construction_builds_no_signature_monomial(monkeypatch):
    # the early singular criterion asks the signature lookups by the pair
    # signature's word, so constructing pairs builds no Monomial from it
    from gbengine import sigbasis
    ring, polys = builtin_ideal("katsura6")
    inside, made, elsewhere = [], [], []
    real_of_word = Ring.mono_of_word

    def counting_of_word(self, word):
        (made if inside else elsewhere).append(word)
        return real_of_word(self, word)

    real_make = sigbasis._SBEngine._make_new_spairs

    def counting_make(self, beta):
        inside.append(None)
        try:
            return real_make(self, beta)
        finally:
            inside.pop()

    monkeypatch.setattr(Ring, "mono_of_word", counting_of_word)
    monkeypatch.setattr(sigbasis._SBEngine, "_make_new_spairs",
                        counting_make)
    stats = sb_run(ring, polys, SBConfig(early_singular=True)).stats
    assert stats.early_singular > 0 and stats.queued > 0
    assert made == []
    assert elsewhere


def test_runs_leave_no_cyclic_garbage():
    # an engine's pair queue holds the engine's bound key method; the run
    # drops that cycle, so the engine's state is freed by reference
    # counting when the run returns, not by a later cyclic collection
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sb_run(*builtin_ideal("katsura4"))
        buchberger_run(*builtin_ideal("cyclic4"))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _sb_snapshot(ring, res):
    return ([(e.sig_mono.exps, e.sig_comp, poly_str(ring, e.poly))
             for e in res.entries],
            [(m.exps, c) for m, c in res.syzygies],
            [poly_str(ring, g) for g in res.groebner_basis()],
            res.stats.monomials, res.stats.rows())


@pytest.mark.parametrize("name", ["katsura6", "cyclic5", "hcyclic5"])
def test_least_ratio_reducer_changes_no_result(name):
    ring, polys = builtin_ideal(name)
    assert _sb_snapshot(ring, sb_run(ring, polys)) == \
        _sb_snapshot(ring, sb_run(ring, polys, SMALLEST_INDEX))


@pytest.mark.parametrize("bound", [10, -10])
def test_regular_step_picks_the_qualifying_reducer_of_least_ratio(bound):
    # three reducers x + c of one lead x, for f = x: the remainder
    # -c = 101 - c names the reducer picked.  Index 0's rank is the bound, so it never
    # qualifies; index 1 qualifies with a larger rank than index 2
    r = Ring(101, 2)
    x = r.mono((1, 0))
    basis = [poly_from_exps(r, [(1, (1, 0)), (c, (0, 0))]) for c in (1, 2, 3)]
    f = poly_from_exps(r, [(1, (1, 0))])

    def remainder(ranks, select=None):
        entries = [SigEntry(i, r.one, 0, g, rank)
                   for i, (g, rank) in enumerate(zip(basis, ranks))]
        rks = [e.ratio_rank << 32 | e.idx for e in entries]
        queue = ReducerQueue(r)
        queue.push_product(1, queue.row(x, f), f)
        regular = (entries, rks, bound + x.key, 1, select)
        return poly_str(r, divide_queue(r, queue, basis,
                                        basis_lookup(r, basis), regular,
                                        audit=True))

    assert remainder([bound, bound - 2, bound - 7]) == "98"
    assert remainder([bound, bound - 7, bound - 2]) == "99"
    # ties on the rank go to the smaller index
    assert remainder([bound - 7, bound - 2, bound - 7]) == "100"
    assert remainder([bound, bound + 1, bound + 5]) == "x1"
    # a select sees only the qualifying entries, in index order
    assert remainder([bound, bound - 2, bound - 7],
                     lambda valid: valid[0]) == "99"


def test_pick_audit_refuses_a_wrong_pick():
    # two qualifying reducers of one lead, index 1 of the lesser ratio
    r = Ring(101, 2)
    basis = [poly_from_exps(r, [(1, (1, 0)), (c, (0, 0))]) for c in (1, 2)]
    entries = [SigEntry(i, r.one, 0, g, rank)
               for i, (g, rank) in enumerate(zip(basis, (-3, -5)))]
    rks = [e.ratio_rank << 32 | e.idx for e in entries]
    _audit_pick(entries, rks, basis, [0, 1], 0, None, basis[1])
    for g, what in ((None, "a qualifying reducer left unpicked"),
                    (basis[0], "not the qualifying one of least ratio")):
        with pytest.raises(InvariantError, match=what):
            _audit_pick(entries, rks, basis, [0, 1], 0, None, g)
    with pytest.raises(InvariantError, match="reducer does not qualify"):
        _audit_pick(entries, rks, basis, [0, 1], -4,
                    SMALLEST_INDEX.reducer_select, basis[0])


def _count_pushes(monkeypatch, ring, polys, cfg=None):
    calls = []
    real = ReducerQueue.push_product

    def counting(self, *args, **kw):
        calls.append(None)
        return real(self, *args, **kw)

    monkeypatch.setattr(ReducerQueue, "push_product", counting)
    sb_run(ring, polys, cfg)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("name", ["katsura8", "hcyclic5"])
def test_least_ratio_reducer_makes_fewer_products(monkeypatch, name):
    # katsura8: 7,819 against 9,851 products; hcyclic5: 450 against 473
    ring, polys = builtin_ideal(name)
    assert _count_pushes(monkeypatch, ring, polys) < \
        _count_pushes(monkeypatch, ring, polys, SMALLEST_INDEX)


def _swapped_ranks(real):
    """_SBEngine.__init__ followed by swapping the packed ranks of the
    first two entries: a wrong pick only an audited run sees."""
    def init(self, *args, **kw):
        real(self, *args, **kw)
        rks = self.rks
        rks[0], rks[1] = rks[1], rks[0]
    return init


def test_audited_run_catches_swapped_packed_ranks(monkeypatch):
    monkeypatch.setattr(sigbasis._SBEngine, "__init__",
                        _swapped_ranks(sigbasis._SBEngine.__init__))
    with pytest.raises(InvariantError,
                       match="packed ratio rank is not its entry's"):
        sb_run(*builtin_ideal("katsura4"), SBConfig(audit=True))


def test_pick_audit_fires_under_optimize():
    out = run_optimized("\n".join([
        "from gbengine import *",
        "from gbengine import sigbasis",
        "from test_sigbasis import _swapped_ranks",
        "assert False  # stripped by -O",
        "E = sigbasis._SBEngine",
        "E.__init__ = _swapped_ranks(E.__init__)",
        "try:",
        "    sb_run(*builtin_ideal('katsura4'), SBConfig(audit=True))",
        "except InvariantError as exc:",
        "    print(exc)"]))
    assert out == "packed ratio rank is not its entry's\n"


def test_bit_cap_sweep_keeps_every_stats_row_and_syzygy():
    # most caps in the sweep fall inside a column with eliminations on both
    # sides, so the triangle is dropped in the middle of pair construction
    # and the base divisor criterion stops at that row; the digest pins
    # every stats row and syzygy of these runs
    h = hashlib.sha256()
    for name in ("katsura5", "hcyclic5", "cyclic5"):
        ring, polys = builtin_ideal(name)
        for early in (False, True):
            for cap in range(0, 400, 13):
                res = sb_run(ring, polys, SBConfig(tri_bit_cap=cap,
                                                   early_singular=early))
                h.update(repr((res.stats.rows(),
                               [(m.exps, c) for m, c in res.syzygies]))
                         .encode())
    assert h.hexdigest() == ("fdf4dfbfb12e2d2d6039b5c1529943950e67d5324491c0"
                             "03658093ffe819ce99")


def _colon_missing_its_first(real):
    """SyzygySet.colon with its first (least degree) word dropped: a wrong
    signature criterion that only an audited run sees."""
    def colon(self, word, comp):
        return real(self, word, comp)[1:]
    return colon


def test_audited_run_catches_a_colon_set_missing_a_word(monkeypatch):
    ring, polys = builtin_ideal("hcyclic5")
    monkeypatch.setattr(sigbasis.SyzygySet, "colon",
                        _colon_missing_its_first(sigbasis.SyzygySet.colon))
    with pytest.raises(InvariantError,
                       match="colon set answer is not the syzygy set's"):
        sb_run(ring, polys, SBConfig(audit=True))


def test_colon_audit_fires_under_optimize():
    out = run_optimized("\n".join([
        "from gbengine import *",
        "from gbengine import sigbasis",
        "from test_sigbasis import _colon_missing_its_first",
        "assert False  # stripped by -O",
        "S = sigbasis.SyzygySet",
        "S.colon = _colon_missing_its_first(S.colon)",
        "try:",
        "    sb_run(*builtin_ideal('hcyclic5'), SBConfig(audit=True))",
        "except InvariantError as exc:",
        "    print(exc)"]))
    assert out == "colon set answer is not the syzygy set's\n"


def test_pair_construction_asks_the_syzygy_set_only_where_gamma_wins(
        monkeypatch):
    # where the new element beta has the larger ratio rank, the signature
    # criterion reads beta's colon set; the syzygy set's lookups are asked
    # only for pairs whose signature is gamma's multiple
    ring, polys = builtin_ideal("hcyclic6")
    asked, allowed = [], []
    real_divides = sigbasis.SyzygySet.divides
    real_make = sigbasis._SBEngine._make_new_spairs

    def divides(self, word, comp):
        if allowed:
            asked.append((word, comp) in allowed[-1])
        return real_divides(self, word, comp)

    def make(self, beta):
        allowed.append({spair_word(ring, beta, gamma)
                        for gamma in self.entries[:beta.idx]
                        if gamma.ratio_rank > beta.ratio_rank})
        try:
            return real_make(self, beta)
        finally:
            allowed.pop()

    monkeypatch.setattr(sigbasis.SyzygySet, "divides", divides)
    monkeypatch.setattr(sigbasis._SBEngine, "_make_new_spairs", make)
    stats = sb_run(ring, polys).stats
    assert stats.sig_early > 0
    assert asked and all(asked)
