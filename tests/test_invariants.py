"""Result guards raise InvariantError, also under python -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbengine import ClassicStats, InvariantError, PairTriangle, SigStats

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
