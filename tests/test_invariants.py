"""Result guards raise InvariantError, also under python -O."""

import pytest

from gbengine import (ClassicConfig, ClassicStats, InvariantError,
                      PairTriangle, Ring, SBConfig, SigStats, buchberger,
                      buchberger_run, builtin_ideal, division, sb_run,
                      sigbasis)
from gbengine.lookup import _WORD, KdLookup, _KdNode, make_lookup

from _util import run_optimized

BROKEN = {
    "sb construction accounting": "SigStats(spairs=5).check()",
    "sb early singular while disabled":
        "SigStats(spairs=1, early_singular=1).check()",
    "sb reduction-count law": "SigStats(need_reduction=1).check()",
    "classic pair accounting": "ClassicStats(spairs=5).check()",
    "triangle bytes": "t = PairTriangle(lambda i, j: 0); "
                      "t.queued_bytes = 1; t.check_accounting()",
    "triangle front": "t = PairTriangle(lambda i, j: 0); "
                      "t.front.push(0 << 32 | 1); t.check_accounting()",
}


@pytest.mark.parametrize("stmt", BROKEN.values(), ids=BROKEN.keys())
def test_broken_accounting_raises(stmt):
    with pytest.raises(InvariantError):
        exec(stmt)


def test_guards_fire_under_optimize():
    script = "\n".join(
        ["from gbengine import *",
         "assert False  # stripped by -O",
         "for stmt in %r:" % (list(BROKEN.values()),),
         "    try:",
         "        exec(stmt)",
         "    except InvariantError:",
         "        continue",
         "    raise SystemExit('no InvariantError: ' + stmt)",
         "print('ok')"])
    out = run_optimized(script, timeout=60)
    assert out.strip() == "ok"


def test_valid_stats_pass():
    SigStats(spairs=3, queued=3, need_reduction=2, to_sb=1,
             to_syzygy=1).check()
    SigStats(spairs=1, early_singular=1).check(early_singular_enabled=True)
    ClassicStats(spairs=2, relprime=1, reductions=1).check()


def _misrouting_settle(real):
    """_settle, then the lead lookup's leaves split past two records and
    its root's split power set to x^0: every query and insert then takes
    the right branch (a query the left one too), so the run's answers stay
    right, but the records left of the root are misrouted, which only an
    audit of the lookup sees."""
    def settle(self, info, rem):
        real(self, info, rem)
        lookup = self.lookup
        lookup.leaf_capacity = 2
        if isinstance(lookup.root, _KdNode):
            lookup.root.power = 0
    return settle


AUDITED_RUNS = {
    "sb": "sb_run(*builtin_ideal('katsura4'), SBConfig(audit=True))",
    "classic": "buchberger_run(*builtin_ideal('cyclic4'), "
               "ClassicConfig(audit=True))",
}


@pytest.mark.parametrize("engine,run", [
    (sigbasis._SBEngine, AUDITED_RUNS["sb"]),
    (buchberger._ClassicEngine, AUDITED_RUNS["classic"])],
    ids=AUDITED_RUNS.keys())
def test_audited_run_audits_its_lookup(monkeypatch, engine, run):
    monkeypatch.setattr(engine, "_settle", _misrouting_settle(engine._settle))
    with pytest.raises(InvariantError, match="left routing"):
        eval(run)


def test_lookup_audit_fires_under_optimize():
    script = "\n".join(
        ["from gbengine import *",
         "from gbengine import buchberger, sigbasis",
         "from test_invariants import _misrouting_settle",
         "assert False  # stripped by -O",
         "for cls in (sigbasis._SBEngine, buchberger._ClassicEngine):",
         "    cls._settle = _misrouting_settle(cls._settle)",
         "for run in %r:" % (list(AUDITED_RUNS.values()),),
         "    try:",
         "        eval(run)",
         "    except InvariantError as exc:",
         "        print(exc)"])
    out = run_optimized(script)
    assert out.split("\n") == ["left routing", "left routing", ""]


def _six_record_lookup():
    """A divkdtree lookup of six monomials, split into leaves of two."""
    ring = Ring(101, 3)
    lookup = make_lookup("divkdtree", ring, leaf_capacity=2)
    for pid, exps in enumerate([(1, 0, 0), (0, 2, 0), (0, 0, 3),
                                (1, 1, 0), (0, 1, 1), (2, 0, 1)]):
        lookup.insert(ring.mono(exps), pid)
    assert isinstance(lookup.root, _KdNode)
    lookup.audit()
    return lookup


def _lookup_with_a_wrong_word():
    """_six_record_lookup, one of whose records carries the word of x1
    times its monomial: queries then miss that divisor, which only an
    audit of the lookup sees."""
    lookup = _six_record_lookup()
    lookup.by_id[4][_WORD] += 1
    return lookup


def test_lookup_audit_checks_record_words():
    lookup = _lookup_with_a_wrong_word()
    assert lookup.find_all_divisors(lookup.ring.mono((0, 1, 1)).word) == []
    with pytest.raises(InvariantError, match="record word"):
        lookup.audit()


def test_record_word_audit_fires_under_optimize():
    script = "\n".join(
        ["from gbengine import InvariantError",
         "from test_invariants import _lookup_with_a_wrong_word",
         "assert False  # stripped by -O",
         "try:",
         "    _lookup_with_a_wrong_word().audit()",
         "except InvariantError as exc:",
         "    print(exc)"])
    out = run_optimized(script, timeout=60)
    assert out == "record word\n"


def _leaf_of(lookup, rec):
    """The leaf rec's word routes to."""
    leaf = lookup.root
    while isinstance(leaf, _KdNode):
        leaf = leaf.right if rec[_WORD] & leaf.field >= leaf.power \
            else leaf.left
    return leaf


# fault: what a query of x1*x2 then answers
LEAF_FAULTS = {"stale": [4], "lost": [], "doubled": [4, 4], "copied": [4]}


def _lookup_with_a_leaf_fault(fault):
    """_six_record_lookup whose leaf of record 4 holds it again once
    retired ("stale"), lost it ("lost"), holds it twice ("doubled") or
    holds a copy in its place ("copied").  Every record is still routed
    right, so only the audit's count of the leaves sees it."""
    lookup = _six_record_lookup()
    rec = lookup.by_id[4]
    leaf = _leaf_of(lookup, rec)
    if fault == "stale":
        lookup.retire(4)
        leaf.append(rec)
    elif fault == "lost":
        leaf.remove(rec)
    elif fault == "doubled":
        leaf.append(rec)
    else:
        leaf[leaf.index(rec)] = list(rec)
    return lookup


@pytest.mark.parametrize("fault,found", LEAF_FAULTS.items(),
                         ids=LEAF_FAULTS.keys())
def test_lookup_audit_checks_leaf_records(fault, found):
    lookup = _lookup_with_a_leaf_fault(fault)
    assert lookup.find_all_divisors(lookup.ring.mono((0, 1, 1)).word) == found
    with pytest.raises(InvariantError, match="leaf records"):
        lookup.audit()


def _misrouted_lookup():
    """_six_record_lookup with its root's split power set to x^0, and the
    payload id of a record left of the root, which a walk by its word now
    routes right."""
    lookup = _six_record_lookup()
    root = lookup.root
    pid = next(pid for pid, rec in lookup.by_id.items()
               if rec[_WORD] & root.field < root.power)
    root.power = 0
    return lookup, pid


def test_retire_refuses_a_misrouted_record():
    lookup, pid = _misrouted_lookup()
    q = lookup.ring.mono((2, 2, 3))
    one = lookup.find_divisor(q.word)
    every = lookup.find_all_divisors(q.word)
    by_id, churn = dict(lookup.by_id), lookup.churn
    one_cache, all_cache, log = (lookup._one_cache, lookup._all_cache,
                                 lookup._log)
    with pytest.raises(InvariantError, match="retired record not in its leaf"):
        lookup.retire(pid)
    # raised before anything changed
    assert lookup.by_id == by_id and lookup.churn == churn
    assert lookup._one_cache is one_cache and lookup._all_cache is all_cache
    assert lookup._log is log and len(log) == 6
    assert lookup.find_divisor(q.word) == one
    assert lookup.find_all_divisors(q.word) is every


def test_leaf_checks_fire_under_optimize():
    script = "\n".join(
        ["from gbengine import InvariantError",
         "from test_invariants import (_lookup_with_a_leaf_fault,",
         "                             _misrouted_lookup)",
         "assert False  # stripped by -O",
         "lookup, pid = _misrouted_lookup()",
         "checks = [_lookup_with_a_leaf_fault(fault).audit",
         "          for fault in %r]" % (list(LEAF_FAULTS),),
         "checks.append(lambda: lookup.retire(pid))",
         "for check in checks:",
         "    try:",
         "        check()",
         "    except InvariantError as exc:",
         "        print(exc)"])
    out = run_optimized(script, timeout=60)
    assert out.split("\n") == ["leaf records"] * len(LEAF_FAULTS) + [
        "retired record not in its leaf", ""]


class _TopOnlyLookup:
    """A lookup that finds no divisor once one query found none."""

    def __init__(self, real):
        self.real = real
        self.tail = False

    def find_all_divisors(self, word):
        if self.tail:
            return []
        found = self.real.find_all_divisors(word)
        self.tail = not found
        return found


def _top_only_division(real):
    """divide_queue reducing only up to the first irreducible term, as
    classic Buchberger's top reduction once did: the tails of new elements
    stay reducible."""
    def divide_queue(ring, queue, basis, lookup, *args, **kw):
        return real(ring, queue, basis, _TopOnlyLookup(lookup), *args, **kw)
    return divide_queue


def test_audited_classic_run_requires_full_reduction(monkeypatch):
    eval(AUDITED_RUNS["classic"])
    monkeypatch.setattr(division, "divide_queue",
                        _top_only_division(division.divide_queue))
    with pytest.raises(InvariantError, match="remainder fully reduced"):
        eval(AUDITED_RUNS["classic"])


def test_full_reduction_audit_fires_under_optimize():
    script = "\n".join(
        ["from gbengine import *",
         "from gbengine import division",
         "from test_invariants import _top_only_division",
         "assert False  # stripped by -O",
         "division.divide_queue = _top_only_division(division.divide_queue)",
         "try:",
         "    " + AUDITED_RUNS["classic"],
         "except InvariantError as exc:",
         "    print(exc)"])
    out = run_optimized(script)
    assert out == "remainder fully reduced\n"


def _blind_find_divisor(real):
    """find_divisor answering None to every query: a pair whose signature
    a known syzygy divides survives, which only an audited run sees."""
    def find_divisor(self, word):
        real(self, word)
        return None
    return find_divisor


def test_audited_sb_run_checks_find_divisor_answers(monkeypatch):
    # under the default lookup every syzygy query of this run takes the
    # word-only path: no masks, and a root that is still one leaf
    routed = []
    blind = _blind_find_divisor(KdLookup.find_divisor)

    def find_divisor(self, word):
        routed.append(self.use_masks or isinstance(self.root, _KdNode))
        return blind(self, word)

    monkeypatch.setattr(KdLookup, "find_divisor", find_divisor)
    with pytest.raises(InvariantError, match="find_divisor answer"):
        eval(AUDITED_RUNS["sb"])
    assert routed and not any(routed)


def test_find_divisor_audit_fires_under_optimize():
    script = "\n".join(
        ["from gbengine import *",
         "from gbengine.lookup import KdLookup",
         "from test_invariants import _blind_find_divisor",
         "assert False  # stripped by -O",
         "KdLookup.find_divisor = _blind_find_divisor(KdLookup.find_divisor)",
         "try:",
         "    " + AUDITED_RUNS["sb"],
         "except InvariantError as exc:",
         "    print(exc)"])
    out = run_optimized(script)
    assert out == "find_divisor answer\n"
