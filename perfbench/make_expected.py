"""Rebuild perfbench/expected.json, the benchmark's expected-output table.

    python3 perfbench/make_expected.py [--workload NAME ...]

For every workload and every prime in workloads.PRIMES it solves the
workload's ideal with sb and with classic, both in the default config and
through the same CLI path the benchmark uses, and stores the sha256 of the
workload algorithm's result bytes with its #SB, #basis and reduction
count.  An entry is written only if these checks pass, and each entry
names the checks it passed:

  * sb and classic give the same reduced basis;
  * the counts are the same at every prime (the primes are large, so the
    work must not depend on which one the seed picks);
  * katsura9: the counts equal the ones published for p = 101
    (146 SB, 143 basis elements, 178 reductions), solved here at p = 101.

The sweep workload's entry is katsura8 sb in the default config: every
config of the sweep must reproduce it.  This takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import (EXPECTED, OUT, counts_of, digest, set_up, solve,
                 split_output)
from workloads import PRIMES, WORKLOADS

KATSURA9_AT_101 = {"sb": 146, "basis": 143, "reductions": 178}

CHECK_SAME_BASIS = "sb and classic give the same reduced basis"
CHECK_SAME_COUNTS = "counts equal at all %d primes" % len(PRIMES)
CHECK_KATSURA9 = ("counts equal katsura9 at p = 101: 146 SB, 143 basis, "
                  "178 reductions")


def run_both(workload, p):
    """(result, counts) of sb and of classic on the workload's ideal at p."""
    path = OUT / ("expected-%s.ideal" % workload.name)
    cli = set_up(workload, p, path)
    got = {}
    for algorithm in ("sb", "classic"):
        text = solve(cli, path, ("--algorithm", algorithm),
                     OUT / "expected.out")
        result, rows = split_output(text)
        got[algorithm] = (result, counts_of(rows))
    return got


def entry_for(workload, p):
    got = run_both(workload, p)
    basis = got["classic"][1]["basis"]
    sb_basis = got["sb"][0].splitlines()[:got["sb"][1]["basis"]]
    if got["sb"][1]["basis"] != basis or \
            sb_basis != got["classic"][0].splitlines():
        raise SystemExit("%s at p = %d: sb and classic bases differ"
                         % (workload.name, p))
    result, counts = got[workload.algorithm]
    print("%s p=%d %s" % (workload.name, p, counts), file=sys.stderr,
          flush=True)
    return dict(sha256=digest(result), checked=[CHECK_SAME_BASIS], **counts)


def table_for(workload):
    table = {str(p): entry_for(workload, p) for p in PRIMES}
    counts = {json.dumps({k: e[k] for k in ("sb", "basis", "reductions")})
              for e in table.values()}
    if len(counts) != 1:
        raise SystemExit("%s: counts differ between primes: %s"
                         % (workload.name, sorted(counts)))
    checks = [CHECK_SAME_COUNTS]
    if workload.ideal == "katsura9":
        path = OUT / "expected-katsura9-101.ideal"
        cli = set_up(workload, 101, path)
        _, rows = split_output(solve(cli, path, (), OUT / "expected.out"))
        if counts_of(rows) != KATSURA9_AT_101:
            raise SystemExit("katsura9 at p = 101: counts %s, published %s"
                             % (counts_of(rows), KATSURA9_AT_101))
        if json.loads(counts.pop()) != KATSURA9_AT_101:
            raise SystemExit("katsura9 counts differ from p = 101")
        checks.append(CHECK_KATSURA9)
    for entry in table.values():
        entry["checked"] += checks
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="rebuild only these entries (repeatable)")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        with open(EXPECTED) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name in args.workload or sorted(WORKLOADS):
        table[name] = table_for(WORKLOADS[name])
        with open(EXPECTED, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
