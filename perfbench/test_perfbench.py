"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

They use small ideals, so they take seconds, not the benchmark's minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from probes import PROBES, PACKAGE, TraceError, Tracer
from refclock import CAL_REF_S, RefClock
from workloads import Workload

CONFIGS = [(), ("--algorithm", "classic"), ("--reducer", "heap", "--dedup"),
           ("--lookup", "list"),
           ("--algorithm", "classic", "--lookup", "list"),
           ("--spair-queue", "heap")]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    ideal = tmp_path_factory.mktemp("ideal") / "cyclic5.ideal"
    cli = run.set_up(Workload("t", "cyclic5", "sb", ((),), ""), 32003, ideal)
    return cli, ideal


def _bindings():
    """Every module-level name and class attribute of the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_traced_bytes_match_untraced(setup, tmp_path):
    cli, ideal = setup
    tracer = Tracer()
    for n, flags in enumerate(CONFIGS):
        plain = run.solve(cli, ideal, flags, tmp_path / ("plain%d" % n))
        with tracer:
            traced = tracer.solve(run.solve, cli, ideal, flags,
                                  tmp_path / ("traced%d" % n))
        assert traced == plain, flags
    # across these configs every probe fires, so none measures dead code
    assert sorted(p.target for p in PROBES
                  if not tracer.calls[p.target]) == []
    assert tracer.solves == len(CONFIGS)
    assert all(s is not None for s in tracer.spans)


def test_every_wrapped_name_is_restored(setup, tmp_path):
    cli, ideal = setup
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert not _same(before, _bindings())
            tracer.solve(run.solve, cli, ideal, (), tmp_path / "out")
            raise RuntimeError("leave the block by an exception")
    assert _same(before, _bindings())


def test_missing_name_stops_tracing(setup, monkeypatch):
    import gbengine.pairbits
    before = _bindings()
    monkeypatch.delattr(gbengine.pairbits.BitTriangle, "get")
    with pytest.raises(TraceError, match="BitTriangle.get"):
        Tracer().install()
    monkeypatch.undo()
    assert _same(before, _bindings())


def _copy_checkout(dst, with_src=True):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, dst / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(run.SRC, dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dst / here.name / "run.py"


def _bench(script, trace):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "sb-hcyclic6",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)


def test_traced_run_with_missing_name_exits_without_result(tmp_path):
    script = _copy_checkout(tmp_path)
    ring = tmp_path / "src" / PACKAGE / "ring.py"
    text = ring.read_text()
    assert "def mono_lcm(" in text
    ring.write_text(text.replace("def mono_lcm(", "def mono_lcm_renamed("))
    proc = _bench(script, 1)
    assert proc.returncode != 0
    assert "Ring.mono_lcm is missing" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_run_without_source_exits_without_result(tmp_path):
    proc = _bench(_copy_checkout(tmp_path, with_src=False), 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_bytes_count_as_failure(setup, tmp_path):
    cli, ideal = setup
    text = run.solve(cli, ideal, (), tmp_path / "out")
    result, rows = run.split_output(text)
    good = dict(sha256=run.digest(result), **run.counts_of(rows))
    assert run.check_outputs([((), text)], good) == []
    assert run.check_outputs([((), text)],
                             dict(good, sha256="0" * 64)) != []
    assert run.check_outputs([((), text)],
                             dict(good, reductions=good["reductions"] + 1))
    other = text.replace("\nalgorithm: ", "\nx1\nalgorithm: ", 1)
    assert run.check_outputs([((), text), (("--lookup", "list"), other)],
                             good) != []


def test_expected_table_covers_every_workload_and_prime():
    from workloads import PRIMES, WORKLOADS
    with open(run.EXPECTED) as fh:
        table = json.load(fh)
    assert sorted(table) == sorted(WORKLOADS)
    for name, entries in table.items():
        assert sorted(entries) == sorted(str(p) for p in PRIMES), name
        for entry in entries.values():
            assert entry["checked"], name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench(Path(run.__file__), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_refclock_takes_ticks_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock(period=0.01)
    with clock:
        m0 = clock.mark()
        _busy(0.2)
        m1 = clock.mark()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = clock.ticks[m0[2]:m1[2]]
    assert len(ticks) >= 3
    ref, ref_cpu, wall, cpu = clock.span(m0, m1)
    # the raw time is the elapsed time without the ticks inside it
    assert 0 < wall < m1[0] - m0[0]
    assert (m1[0] - m0[0]) - wall == pytest.approx(sum(w for w, _ in ticks))
    speeds = [CAL_REF_S / w for w, _ in clock.ticks[max(m0[2] - 1, 0):
                                                     m1[2] + 1]]
    assert min(speeds) * wall <= ref <= max(speeds) * wall


def test_unstarted_refclock_reads_raw_seconds():
    clock = RefClock()
    m0 = clock.mark()
    _busy(0.05)
    ref, ref_cpu, wall, cpu = clock.span(m0, clock.mark())
    assert (ref, ref_cpu) == (wall, cpu)
    assert wall >= 0.05 and not clock.ticks
