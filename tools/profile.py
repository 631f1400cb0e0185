"""Profile one CLI solve under cProfile and print its top functions by self
time: calls, self seconds, cumulative seconds and the cumulative share of
the profiled total.

    python3 tools/profile.py IDEAL [--algorithm sb|classic] [--top N]
                             [-- RUN_FLAG ...]

IDEAL is a builtin name (katsura9, cyclic6, hcyclic6, ...) or an ideal
file, as for `gbengine run`.  Each RUN_FLAG after `--` is passed on to
`gbengine run`, as in `profile.py katsura8 -- --reducer tourtree
--compressed`.  The solve is one in-process `run_cli(["run", IDEAL,
"--algorithm", ALGORITHM, RUN_FLAG, ...])`, its result bytes discarded.
The program profiled is the gbengine source in `src/` of the checkout
that holds this file.  cProfile slows the solve several times over, and
the slowdown is not even across functions, so quote shares of the
profiled total, not seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# run as a script, this file's directory comes first on sys.path, where
# its name would shadow the standard library's profile module, which
# cProfile and pstats import
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]

import cProfile  # noqa: E402
import pstats  # noqa: E402


def where(func):
    """file:line(name) for a pstats function key, the file by its base
    name; built-ins keep their own name."""
    filename, line, name = func
    if filename == "~":
        return name
    return "%s:%d(%s)" % (os.path.basename(filename), line, name)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="profile.py", usage="%(prog)s IDEAL [--algorithm sb|classic]"
        " [--top N] [-- RUN_FLAG ...]")
    ap.add_argument("ideal", help="builtin name or ideal file")
    ap.add_argument("--algorithm", choices=("sb", "classic"), default="sb")
    ap.add_argument("--top", type=int, default=25, metavar="N")
    argv = sys.argv[1:] if argv is None else list(argv)
    run_flags = []
    if "--" in argv:
        cut = argv.index("--")
        argv, run_flags = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from gbengine.cli import run_cli

    argv = ["run", args.ideal, "--algorithm", args.algorithm, *run_flags]
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = prof.runcall(run_cli, argv)
    if code:
        raise SystemExit("exit %d: %s\n%s" % (code, " ".join(argv),
                                               err.getvalue()))
    stats = pstats.Stats(prof)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2],
                  reverse=True)[:args.top]
    print("profiled %.3f s: gbengine %s" % (stats.total_tt, " ".join(argv)))
    print("%10s %9s %9s %6s  %s" % ("calls", "self_s", "cum_s", "cum_%",
                                    "function"))
    for func, (_, calls, self_s, cum_s, _) in rows:
        print("%10d %9.3f %9.3f %6.1f  %s" % (
            calls, self_s, cum_s, 100 * cum_s / stats.total_tt, where(func)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
