"""Result guards raise InvariantError, also under python -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbengine import (ClassicConfig, ClassicStats, InvariantError,
                      PairTriangle, Ring, SBConfig, SigStats, buchberger,
                      buchberger_run, builtin_ideal, division, sb_run,
                      sigbasis)
from gbengine.lookup import _WORD, _KdNode, make_lookup

SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = str(Path(__file__).resolve().parent)

BROKEN = {
    "sb construction accounting": "SigStats(spairs=5).check()",
    "sb early singular while disabled":
        "SigStats(spairs=1, early_singular=1).check()",
    "sb reduction-count law": "SigStats(need_reduction=1).check()",
    "classic pair accounting": "ClassicStats(spairs=5).check()",
    "triangle bytes": "t = PairTriangle(lambda i, j: 0); "
                      "t.queued_bytes = 1; t.check_accounting()",
    "triangle front": "t = PairTriangle(lambda i, j: 0); "
                      "t.front.push((0, 1)); t.check_accounting()",
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
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_valid_stats_pass():
    SigStats(spairs=3, queued=3, need_reduction=2, to_sb=1,
             to_syzygy=1).check()
    SigStats(spairs=1, early_singular=1).check(early_singular_enabled=True)
    ClassicStats(spairs=2, relprime=1, reductions=1).check()


def _misrouting_settle(real):
    """_settle, then the lead lookup's leaves split past two records and
    its root's split exponent set to 0: every query and insert then takes
    the right branch (a query the left one too), so the run's answers stay
    right, but the records left of the root are misrouted, which only an
    audit of the lookup sees."""
    def settle(self, info, rem):
        real(self, info, rem)
        lookup = self.lookup
        lookup.leaf_capacity = 2
        if isinstance(lookup.root, _KdNode):
            lookup.root.exp = 0
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS,
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["left routing", "left routing", ""]


def _lookup_with_a_wrong_word():
    """A divkdtree lookup of six monomials, one of whose records carries
    the word of x1 times its monomial: queries then miss that divisor,
    which only an audit of the lookup sees."""
    ring = Ring(101, 3)
    lookup = make_lookup("divkdtree", ring, leaf_capacity=2)
    for pid, exps in enumerate([(1, 0, 0), (0, 2, 0), (0, 0, 3),
                                (1, 1, 0), (0, 1, 1), (2, 0, 1)]):
        lookup.insert(ring.mono(exps), pid)
    lookup.audit()
    lookup.by_id[4][_WORD] += 1
    return lookup


def test_lookup_audit_checks_record_words():
    lookup = _lookup_with_a_wrong_word()
    assert lookup.find_all_divisors(lookup.ring.mono((0, 1, 1))) == []
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS,
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "record word\n"


def _top_only_division(real):
    """divide_queue reducing only the lead term, as classic Buchberger
    once did: the tails of new elements stay reducible."""
    def divide_queue(ring, queue, basis, lookup, top_only, **kw):
        return real(ring, queue, basis, lookup, True, **kw)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS,
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "remainder fully reduced\n"
