import random

import pytest

from gbengine import (ModuleOrder, Ring, SBConfig, buchberger_run,
                      builtin_ideal, koszul_signature, low_base_divisor_bound,
                      poly_from_exps, poly_str, sb_run, spair_signature)
from gbengine.sigbasis import SigEntry

from _util import is_reduced_gb, random_mono


def _two_gens():
    r = Ring(101, 3)
    g1 = poly_from_exps(r, [(1, (2, 0, 0)), (100, (0, 1, 0))])   # x^2 - y
    g2 = poly_from_exps(r, [(1, (1, 1, 0)), (100, (0, 0, 1))])   # xy - z
    return r, g1, g2


def _entry(morder, ring, idx, sig_exps, comp, poly):
    e = SigEntry(idx, ring.mono(sig_exps), comp, poly,
                 morder.ratio_rank(ring.mono(sig_exps), poly.lead_mono, comp))
    return e


def test_module_cmp_examples():
    r, g1, g2 = _two_gens()
    mo = ModuleOrder("schreyer", "low-gt", [g1.lead_mono, g2.lead_mono])
    y, x, one = r.mono((0, 1, 0)), r.mono((1, 0, 0)), r.one
    # weights tie at x^2 y; the lower component wins
    assert mo.module_cmp(y, 0, x, 1) == 1
    assert mo.module_cmp(one, 0, one, 0) == 0
    assert mo.module_cmp(x, 0, one, 0) == 1
    # the alternative tie-break flips the first comparison
    mo2 = ModuleOrder("schreyer", "high-gt", [g1.lead_mono, g2.lead_mono])
    assert mo2.module_cmp(y, 0, x, 1) == -1


def test_module_cmp_potop():
    r, g1, g2 = _two_gens()
    mo = ModuleOrder("potop", "low-gt", [g1.lead_mono, g2.lead_mono])
    big, small = r.mono((5, 5, 5)), r.one
    # higher component dominates regardless of the monomials
    assert mo.module_cmp(big, 0, small, 1) == -1
    assert mo.module_cmp(small, 1, big, 0) == 1
    assert mo.module_cmp(small, 1, big, 1) == -1


def test_spair_signature_example():
    r, g1, g2 = _two_gens()
    res = sb_run(r, [g1, g2])
    e_x2, e_xy = sorted(res.entries[:2], key=lambda e: -e.lead.key)
    sig = spair_signature(r, e_x2, e_xy)
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
        sig = spair_signature(r, a, b)
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
        ssig = spair_signature(r, a, b)
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
    # p = hd(alpha)*sig(beta)/sig(alpha) = (1,2); v1=max(p1,a1)=1, v2=inf
    assert low_base_divisor_bound(alpha, beta) == (1, None)


def test_low_base_divisor_bound_vacuous_when_ratio_divides():
    r = Ring(101, 2)
    mo = ModuleOrder("schreyer", "low-gt", [r.one])
    # ratio(alpha) | ratio(beta): v is all infinite
    alpha = _entry(mo, r, 0, (1, 1), 0, poly_from_exps(r, [(1, (1, 1))]))
    beta = _entry(mo, r, 1, (2, 2), 0, poly_from_exps(r, [(1, (1, 1))]))
    assert low_base_divisor_bound(alpha, beta) == (None, None)


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
