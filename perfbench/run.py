"""gbengine benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is always the gbengine source in
`src/` of the checkout that holds this file, never an installed copy.

Set-up imports gbengine, builds the workload's ideal for the prime the seed
picks and writes it with `print_ideal`; the program receives only that
file.  Every solve then goes in-process through
`gbengine.cli.run_cli(["run", FILE, "--stats", "--out", OUT, *flags])`, so
the bytes checked are the CLI's own result bytes.  A unit of work is one
solve, or one sweep over the configs of `sb-axes-katsura8`.  Units run
back to back, closed loop, until --seconds have passed (at least one).

A unit fails on an exception, a non-zero exit, or result bytes or counts
that differ from perfbench/expected.json; in a sweep, also when two configs
give different result bytes.  The result part is the output before the
`--stats` block; the block's divmask rows depend on the lookup, the rest
of its counts do not.

--trace 0 prints the end-to-end metrics.  Their times are in reference
seconds (see refclock.py): wall or CPU seconds scaled by the host speed
measured while they ran, so that a shared host's drift does not show as a
change of the program.  `solve_s` and `solve_cpu_s` are medians over the
units of the run, `setup_s` the median over every set-up of the run (seven
before the first unit, one before each unit, seven after the last).  Raw
seconds and the host speed are printed and kept in the report beside them.

--trace 1 alternates untraced and traced units (see probes.py) and prints
the per-layer metrics, the layer-share table and the trace overhead; it
stops with an error if a probed public name is missing.  Its times are raw
seconds: the reference clock is off, since a tick inside a probed call
would be charged to that layer.  The last stdout line is the result JSON;
a fuller report and the spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from probes import ROOT_SPAN, TraceError, Tracer
from refclock import RefClock
from workloads import WORKLOADS, prime_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

SETUP_REPS = 7


class SetupError(RuntimeError):
    pass


# -- the program under test --------------------------------------------

def load_gbengine():
    """Import gbengine afresh from this checkout's src/."""
    init = SRC / "gbengine" / "__init__.py"
    if not init.is_file():
        raise SetupError("no gbengine source at %s" % init.parent)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "gbengine" or m.startswith("gbengine.")]:
        del sys.modules[name]
    gb = importlib.import_module("gbengine")
    if Path(gb.__file__).resolve() != init.resolve():
        raise SetupError("imported gbengine from %s, not %s"
                         % (gb.__file__, init))
    return gb


def set_up(workload, p, ideal_path):
    """Import gbengine, generate the ideal and write it; returns the CLI."""
    gb = load_gbengine()
    ring, polys = gb.builtin_ideal(workload.ideal, p)
    ideal_path.write_text(gb.print_ideal(ring, polys))
    return importlib.import_module("gbengine.cli")


def solve(cli, ideal_path, flags, out_path):
    """One CLI solve; returns its output text or raises on a non-zero exit."""
    argv = ["run", str(ideal_path), "--stats", "--out", str(out_path)]
    argv += list(flags)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError("exit %d: %s" % (code, err.getvalue().strip()))
    return out_path.read_text()


def split_output(text):
    """(result part, stats rows) of a `run --stats` output."""
    cut = text.find("\nalgorithm: ")
    if cut < 0:
        raise ValueError("no --stats block in the output")
    rows = {}
    for line in text[cut + 1:].splitlines():
        name, _, value = line.partition(": ")
        rows[name] = value
    return text[:cut + 1], rows


def counts_of(rows):
    """#SB, #basis and the reduction count from the stats rows."""
    if rows["algorithm"] == "sb":
        return {"sb": int(rows["#SB"]), "basis": int(rows["#basis"]),
                "reductions": int(rows["#spairs which need reduction"])}
    return {"sb": None, "basis": int(rows["#basis"]),
            "reductions": int(rows["#reductions"])}


def digest(result):
    return hashlib.sha256(result.encode()).hexdigest()


def check_outputs(outputs, expected):
    """Problems with one unit's outputs (empty when all is well)."""
    if expected is None:
        return ["no expected entry for this workload and prime"]
    problems = []
    results = set()
    for flags, text in outputs:
        result, rows = split_output(text)
        results.add(result)
        if digest(result) != expected["sha256"]:
            problems.append("%s: result sha256 differs" % (" ".join(flags),))
        got = counts_of(rows)
        want = {k: expected[k] for k in got}
        if got != want:
            problems.append("%s: counts %s, expected %s"
                            % (" ".join(flags), got, want))
    if len(results) > 1:
        problems.append("configs disagree: %d distinct results"
                        % len(results))
    return problems


# -- measuring -----------------------------------------------------------

@dataclass
class Unit:
    """Outcome of one unit of work."""

    marks: tuple        # RefClock marks at its start and end
    outputs: list       # (flags, output text) per config
    problems: list
    ref: float = 0.0    # reference wall seconds, set by timed()
    ref_cpu: float = 0.0
    wall: float = 0.0   # raw seconds, calibration ticks taken out
    cpu: float = 0.0

    def timed(self, clock):
        self.ref, self.ref_cpu, self.wall, self.cpu = clock.span(*self.marks)
        return self


def run_unit(clock, cli, workload, ideal_path, expected, tracer=None):
    gc.collect()
    outputs = []
    problems = []
    m0 = clock.mark()
    try:
        for n, flags in enumerate(workload.configs):
            out_path = OUT / ("%s.%d.out" % (workload.name, n))
            if tracer is None:
                text = solve(cli, ideal_path, flags, out_path)
            else:
                text = tracer.solve(solve, cli, ideal_path, flags, out_path)
            outputs.append((flags, text))
    except Exception:
        problems.append(traceback.format_exc())
    m1 = clock.mark()
    if not problems:
        try:
            problems = check_outputs(outputs, expected)
        except (ValueError, KeyError) as exc:
            problems = ["unreadable output: %r" % (exc,)]
    for problem in problems:
        print("unit failed: %s" % problem, file=sys.stderr)
    return Unit((m0, m1), outputs, problems)


def quantile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(units, setup_s):
    return {
        "solve_s": (statistics.median([u.ref for u in units]), "s"),
        "solve_cpu_s": (statistics.median([u.ref_cpu for u in units]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, traced, untraced):
    """Per-layer metrics, per unit of work, from the traced units."""
    n = len(traced)
    calls, counts, busy = tr.calls, tr.counts, tr.busy_s

    def calls_of(*suffixes):
        return sum(v for k, v in calls.items() if k.endswith(suffixes))

    rows = {}
    for unit in traced:
        if unit.problems:
            continue
        for _, text in unit.outputs:
            for name, value in split_output(text)[1].items():
                if value.isdigit():
                    rows[name] = rows.get(name, 0) + int(value)
    queries = calls_of(".find_divisor", ".find_all_divisors")
    hits = counts["lookup.divmask_hits"]
    misses = counts["lookup.divmask_misses"]
    reduce_ms = [d * 1000.0 for d in tr.span_durations(
        "division.classic_reduce")]
    overhead = (statistics.median([u.wall for u in traced])
                / statistics.median([u.wall for u in untraced]) - 1.0)
    return {
        "termqueue.busy_s": (busy["termqueue"] / n, "s"),
        "termqueue.push_calls": (calls_of(".push_product") / n, "count"),
        "termqueue.terms_pushed": (counts["termqueue.terms_pushed"] / n,
                                   "count"),
        "termqueue.pop_calls": (calls_of(".pop_max") / n, "count"),
        "termqueue.fold_ratio": (_ratio(counts["termqueue.terms_popped"],
                                        counts["termqueue.terms_pushed"]),
                                 "1"),
        "lookup.query_s": (busy["lookup.query"] / n, "s"),
        "lookup.queries": (queries / n, "count"),
        "lookup.divisors_per_query": (_ratio(counts["lookup.divisors"],
                                             queries), "1"),
        "lookup.update_s": (busy["lookup.update"] / n, "s"),
        "lookup.inserts": (calls_of(".insert") / n, "count"),
        "lookup.retires": (calls_of(".retire") / n, "count"),
        "lookup.rebuilds": (calls_of(".rebuild") / n, "count"),
        "lookup.divmask_hit_rate": (_ratio(hits, hits + misses), "1"),
        "spairqueue.busy_s": (busy["spairqueue"] / n, "s"),
        "spairqueue.pairs_added": (counts["spairqueue.pairs_added"] / n,
                                   "count"),
        "spairqueue.pops": (counts["spairqueue.pops"] / n, "count"),
        "spairqueue.peak_queued_bytes": (
            counts["spairqueue.peak_queued_bytes"], "B"),
        "sigbasis.engine_s": (busy["sigbasis.engine"] / n, "s"),
        "sigbasis.self_s": (tr.self_s["sigbasis"] / n, "s"),
        "sigbasis.spairs": (rows.get("#spairs", 0) / n, "count"),
        "sigbasis.reduce_frac": (_ratio(
            rows.get("#spairs which need reduction", 0),
            rows.get("#spairs", 0)), "1"),
        "sigbasis.zero_frac": (_ratio(
            rows.get("reduce to new syzygy signatures", 0),
            rows.get("#spairs which need reduction", 0)), "1"),
        "buchberger.self_s": (tr.self_s["buchberger"] / n, "s"),
        "buchberger.reductions": (rows.get("#reductions", 0) / n, "count"),
        "buchberger.zero_frac": (_ratio(rows.get("0-reductions", 0),
                                        rows.get("#reductions", 0)), "1"),
        "buchberger.graph_hits": (rows.get("lcm graph hits", 0) / n,
                                  "count"),
        "ring.busy_s": (busy["ring"] / n, "s"),
        "ring.mono_mul_calls": (calls_of(".mono_mul") / n, "count"),
        "ring.mono_div_calls": (calls_of(".mono_div") / n, "count"),
        "ring.mono_lcm_calls": (calls_of(".mono_lcm") / n, "count"),
        "pairbits.gets": (calls_of("BitTriangle.get") / n, "count"),
        "pairbits.sets": (calls_of("BitTriangle.set") / n, "count"),
        "division.interreduce_s": (busy["division.interreduce"] / n, "s"),
        "division.reduced_basis_s": (busy["division.reduced_basis"] / n,
                                     "s"),
        "division.reduce_ms_p50": (quantile(reduce_ms, 50), "ms"),
        "division.reduce_ms_p99": (quantile(reduce_ms, 99), "ms"),
        "idealfile.parse_s": (busy["idealfile.parse"] / n, "s"),
        "trace_overhead_frac": (overhead, "1"),
    }


def layer_shares(tr, traced):
    """Self seconds per module per unit, and their share of solve time."""
    total = tr.busy_s[ROOT_SPAN]
    n = len(traced)
    return [{"module": "(unprobed)" if module == ROOT_SPAN else module,
             "self_s": s / n, "share": _ratio(s, total)}
            for module, s in sorted(tr.self_s.items(), key=lambda kv: -kv[1])]


def measure(clock, fresh_cli, workload, ideal_path, expected, seconds,
            trace):
    """Run units until `seconds` pass; returns (untraced, traced, tracer).

    Each untraced unit starts with one more set-up (see main)."""
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.resolve()    # fail before any work when a probe is missing
    deadline = time.perf_counter() + seconds
    while True:
        cli = fresh_cli()
        untraced.append(run_unit(clock, cli, workload, ideal_path,
                                 expected))
        if trace:
            with tracer:
                traced.append(run_unit(clock, cli, workload, ideal_path,
                                       expected, tracer))
            if [t for _, t in traced[-1].outputs] != \
                    [t for _, t in untraced[-1].outputs]:
                traced[-1].problems.append("traced bytes differ")
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


def stamp(args, p):
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"workload": args.workload, "seed": args.seed, "prime": p,
            "seconds": args.seconds, "trace": args.trace, "nproc": cpus,
            "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    p = prime_for(args.seed)
    info = stamp(args, p)

    OUT.mkdir(exist_ok=True)
    ideal_path = OUT / ("%s.ideal" % workload.name)
    clock = RefClock()
    setups = []         # (start mark, end mark) per set-up

    def fresh_cli():
        # set-up is timed at the start, before every untraced unit and at
        # the end, so that its median is not taken in one moment
        gc.collect()
        m0 = clock.mark()
        cli = set_up(workload, p, ideal_path)
        setups.append((m0, clock.mark()))
        return cli

    try:
        with contextlib.nullcontext() if args.trace else clock:
            for _ in range(SETUP_REPS):
                fresh_cli()
            with open(EXPECTED) as fh:
                expected = json.load(fh).get(workload.name, {}).get(str(p))
            untraced, traced, tracer = measure(
                clock, fresh_cli, workload, ideal_path, expected,
                args.seconds, args.trace)
            for _ in range(SETUP_REPS):
                fresh_cli()
    except (SetupError, ImportError, OSError) as exc:
        print("set-up failed: %s" % exc, file=sys.stderr)
        return 2
    except TraceError as exc:
        print("trace failed: %s" % exc, file=sys.stderr)
        return 3
    units = [u.timed(clock) for u in untraced + traced]
    setup_times = [clock.span(*s) for s in setups]
    if clock.ticks:
        info["host_speed"] = clock.speed()
    report = {"stamp": info, "ticks": len(clock.ticks),
              "setup_ref_s": [s[0] for s in setup_times],
              "setup_wall_s": [s[2] for s in setup_times],
              "unit_ref_s": [u.ref for u in untraced],
              "unit_ref_cpu_s": [u.ref_cpu for u in untraced],
              "unit_wall_s": [u.wall for u in untraced],
              "unit_cpu_s": [u.cpu for u in untraced]}
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        shares = layer_shares(tracer, traced)
        report["traced_unit_wall_s"] = [u.wall for u in traced]
        report["layer_shares"] = shares
        spans_path = OUT / ("spans-%s-seed%d.jsonl"
                            % (workload.name, args.seed))
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "solve"), s)))
                         + "\n")
        report["spans"] = str(spans_path.relative_to(ROOT))
        print("layer shares of traced solve time (self time per module):")
        for row in shares:
            print("  %-12s %9.4f s  %5.1f%%"
                  % (row["module"], row["self_s"], 100.0 * row["share"]))
    else:
        metrics = end_to_end(untraced,
                             statistics.median(s[0] for s in setup_times))
        print("units: %d; median %.4f reference s, %.4f raw wall s; "
              "host speed %.3f of reference"
              % (len(untraced), metrics["solve_s"][0],
                 statistics.median(u.wall for u in untraced), clock.speed()))
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    failed = sum(1 for u in units if u.problems)
    # failed_frac is reported here, not as a metric: it is 0 on a healthy
    # run, and `failed` / `attempted` in the result carry the same figure
    report["failed_frac"] = failed / len(units)
    result = {"correct": failed == 0, "attempted": len(units),
              "failed": failed, "metrics": report["metrics"]}
    report_path = OUT / ("report-%s-seed%d-trace%d.json"
                         % (workload.name, args.seed, args.trace))
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print("stamp: " + json.dumps(info))
    print("failed_frac: %g (%d of %d units)"
          % (report["failed_frac"], failed, len(units)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
