"""Run the benchmark on two source trees in alternating pairs and write
their comparison to BENCH_<n>.json.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE [--workload W ...]
                        [--pairs N] [--seconds S] [--first-seed N]
                        [--out FILE]

Each tree is a checkout (for instance a `git archive` of a commit) that
holds `perfbench/run.py` and the gbengine source it runs, `src/`.  For each
of N seeds (FIRST_SEED, FIRST_SEED + 1, ...) and each workload in turn, the
tool runs `python3 TREE/perfbench/run.py --workload W --seed SEED --seconds
S --trace 0` once on each tree, one process at a time, so each side runs
its own `src/` in a fresh interpreter.  The parent runs first for the
first seed, the change for the second, and so on alternately, so that a
drift of the host's speed falls on both sides alike.

The workloads (by default all of them), the end-to-end metrics and the
default --seconds come from the change tree's BENCHMARK.json.  The report
goes to FILE, by default BENCH_<n>.json in the change tree, n being one
more than the largest n already there.  Per workload it holds the seeds,
each side's failed units, whether every unit was correct, each run's exit
code and units run; per end-to-end metric, each side's median and
quartiles (statistics.quantiles, method 'inclusive'), parent_iqr (the
distance between the parent's quartiles), change_pct (change median over
parent median, minus 1, in percent), the number of seeds on which the
change read lower and higher, claim_rule_met, and every run's value.
claim_rule_met holds when the change read lower on at least nine tenths
of the seeds run, ties counting for neither, and its median is below the
parent's by more than parent_iqr: the rule a claimed gain must meet.  'runs'
keeps the result line of every run.  A run that exits non-zero or prints
no result line counts as incorrect, and its seed is left out of the
pairing of every metric.

Before the pairs, the tool counts each tree's work once: for each
solve in WORK_SOLVES, `python3 tools/opcount.py ARGS` of this checkout, run
in a fresh interpreter on the tree's `src/` (first on sys.path) in place
of the checkout's.  The counts do not move with the host's load, so they
show whether a time difference comes with a difference in work.  'work'
holds, per solve (keyed by ARGS), each side's count (null when the solve
failed) and change_pct; the summary printed at the end repeats them.

The report names each tree by its directory's name, never its path, so
that it records nothing of the host's directory layout, and by
src_sha256, a digest of its `src/*.py`.  It records src_committed:
whether that digest equals the one of the `src/` committed at HEAD of the
checkout that holds this tool (null when that is not a git work tree).
The tool warns on stderr when the change tree's does not, since the
report then measures source that no commit holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the checkout that holds this tool: its committed src/ is what a report
# should measure on the change side
CHECKOUT = Path(__file__).resolve().parent.parent
OPCOUNT = CHECKOUT / "tools" / "opcount.py"
# the tools/opcount.py arguments of each solve whose count a report records
WORK_SOLVES = (("hcyclic5",), ("katsura7",),
               ("cyclic5", "--algorithm", "classic"))
# tools/opcount.py (argv[1]) run on the src/ at argv[2], with the
# arguments that follow
_OPCOUNT_ON = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("opcount", sys.argv[1])
opcount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcount)
opcount.SRC = sys.argv[2]
sys.exit(opcount.main(sys.argv[3:]))
"""


def _digest(files):
    """sha256 over (path relative to src/, bytes) pairs, sorted by path."""
    h = hashlib.sha256()
    for rel, data in sorted(files):
        h.update(str(rel).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def tree_digest(tree):
    """sha256 over the relative paths and bytes of tree's src/*.py files."""
    src = tree / "src"
    return _digest((path.relative_to(src), path.read_bytes())
                   for path in src.rglob("*.py"))


def committed_digest(checkout):
    """tree_digest of the src/ committed at checkout's HEAD, or None when
    checkout is not a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, check=True).stdout
    try:
        names = git("ls-tree", "-r", "-z", "--name-only", "HEAD", "--",
                    "src").decode().split("\0")
        return _digest((Path(name).relative_to("src"),
                        git("show", "HEAD:./" + name))
                       for name in names if name.endswith(".py"))
    except (OSError, subprocess.CalledProcessError):
        return None


def tree_records(trees, committed):
    """Per side: the tree directory's name, its src_sha256 and whether that
    equals committed (None when committed is None)."""
    out = {}
    for side in SIDES:
        digest = tree_digest(trees[side])
        out[side] = {"name": trees[side].name, "src_sha256": digest,
                     "src_committed": None if committed is None
                     else digest == committed}
    return out


def opcounts(tree):
    """The bytecode count of each of WORK_SOLVES on tree's src/, None for
    a solve that fails."""
    out = []
    for args in WORK_SOLVES:
        proc = subprocess.run([sys.executable, "-c", _OPCOUNT_ON,
                               str(OPCOUNT), str(tree / "src"), *args],
                              capture_output=True, text=True)
        if proc.returncode:
            print("%s opcount %s: exit %d: %s"
                  % (tree, " ".join(args), proc.returncode,
                     proc.stderr.strip()[-400:]), file=sys.stderr)
        out.append(None if proc.returncode else int(proc.stdout.split()[0]))
    return out


def work_summary(counts):
    """Per solve of WORK_SOLVES: each side's count of counts[side] and the
    change's over the parent's, minus 1, in percent (null unless both
    counted)."""
    out = {}
    for k, args in enumerate(WORK_SOLVES):
        row = {side: counts[side][k] for side in SIDES}
        row["change_pct"] = (100.0 * (row["change"] / row["parent"] - 1.0)
                             if None not in row.values() else None)
        out[" ".join(args)] = row
    return out


def next_bench_path(tree):
    numbers = [int(m.group(1)) for p in tree.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return tree / ("BENCH_%d.json" % (max(numbers, default=0) + 1))


def run_once(tree, workload, seed, seconds):
    """One benchmark process; returns its exit code and result (or None)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        print("%s %s seed %d: exit %d: %s" % (tree, workload, seed,
                                              proc.returncode,
                                              proc.stderr.strip()[-400:]),
              file=sys.stderr)
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(runs, metric):
    """The summary of one end-to-end metric over the paired runs."""
    values = {side: [r["result"]["metrics"][metric]["value"]
                     for r in runs[side] if r["result"] is not None]
              for side in SIDES}
    pairs = [(p["result"], c["result"])
             for p, c in zip(runs["parent"], runs["change"])
             if p["result"] is not None and c["result"] is not None]
    lower = higher = 0
    for p, c in pairs:
        a = p["metrics"][metric]["value"]
        b = c["metrics"][metric]["value"]
        lower += b < a
        higher += b > a
    out = {}
    for side in SIDES:
        if values[side]:
            out[side + "_median"] = statistics.median(values[side])
            out[side + "_quartiles"] = quartiles(values[side])
    if values["parent"]:
        low, high = out["parent_quartiles"]
        out["parent_iqr"] = high - low
    if values["parent"] and values["change"] and out["parent_median"]:
        out["change_pct"] = 100.0 * (out["change_median"]
                                     / out["parent_median"] - 1.0)
    out["pairs_change_lower"] = lower
    out["pairs_change_higher"] = higher
    out["claim_rule_met"] = bool(
        values["parent"] and values["change"]
        and 10 * lower >= 9 * len(runs["parent"])
        and out["parent_median"] - out["change_median"] > out["parent_iqr"])
    out["parent_runs"] = values["parent"]
    out["change_runs"] = values["change"]
    return out


def summarize(runs, seeds, metrics):
    """Per-workload summary of runs[side] (one entry per seed)."""
    out = {"seeds": seeds, "pairs": len(seeds)}
    out["failed_units"] = {side: sum(r["result"]["failed"] for r in
                                     runs[side] if r["result"] is not None)
                           for side in SIDES}
    out["correct"] = {side: all(r["result"] is not None
                                and r["result"]["correct"]
                                for r in runs[side]) for side in SIDES}
    out["exits"] = {side: [r["exit"] for r in runs[side]] for side in SIDES}
    out["units_per_run"] = {side: [r["result"]["attempted"]
                                   if r["result"] is not None else None
                                   for r in runs[side]] for side in SIDES}
    for metric in metrics:
        out[metric] = compare(runs, metric)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ab.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="parent source tree")
    ap.add_argument("change", type=Path, help="change source tree")
    ap.add_argument("--workload", action="append", metavar="W",
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="report file")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    committed = committed_digest(CHECKOUT)
    records = tree_records(trees, committed)
    if records["change"]["src_committed"] is False:
        print("warning: the change tree's src/ is not the src/ committed "
              "at HEAD of %s" % CHECKOUT, file=sys.stderr)
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error("%s tree %s has no perfbench/run.py" % (side, tree))
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            ap.error("unknown workload %r (choose from %s)"
                     % (w, ", ".join(known)))
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    out_path = args.out or next_bench_path(trees["change"])
    work = work_summary({side: opcounts(tree)
                         for side, tree in trees.items()})

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    log = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                code, result = run_once(trees[side], w, seed, seconds)
                entry = {"workload": w, "seed": seed, "side": side,
                         "exit": code, "result": result}
                runs[w][side].append(entry)
                log.append(entry)
                print("%-17s seed %-5d %-6s exit %d %s"
                      % (w, seed, side, code,
                         "" if result is None else
                         "solve_s %.4f" % result["metrics"]["solve_s"]
                         ["value"]), flush=True)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    report = {
        "about": {
            "command": "perfbench/run.py --workload W --seed SEED "
                       "--seconds %g --trace 0" % seconds,
            "design": "one process per (tree, workload, seed); within a "
                      "seed the workloads run in turn; the parent runs "
                      "first on seeds %s, the change on the others"
                      % seeds[::2],
            "trees": records,
            "committed_src_sha256": committed,
            "seconds": seconds, "pairs": args.pairs, "seeds": seeds,
            "host": {"nproc": cpus, "python": platform.python_version(),
                     "machine": platform.machine()},
            "quartiles": "statistics.quantiles(method='inclusive')",
        },
        "summary": {w: summarize(runs[w], seeds, metrics)
                    for w in workloads},
        "work": work,
        "runs": log,
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for w, s in report["summary"].items():
        for metric in metrics:
            m = s[metric]
            if "change_pct" in m:
                print("%-17s %-12s %.4f -> %.4f (%+.1f%%), lower in %d of "
                      "%d, parent IQR %.4f, claim rule %s"
                      % (w, metric, m["parent_median"], m["change_median"],
                         m["change_pct"], m["pairs_change_lower"],
                         len(seeds), m["parent_iqr"],
                         "met" if m["claim_rule_met"] else "not met"))
    for solve, row in work.items():
        print("opcount %-35s %s -> %s (%s)"
              % (solve, row["parent"], row["change"],
                 "n/a" if row["change_pct"] is None
                 else "%+.2f%%" % row["change_pct"]))
    print("wrote %s" % out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
