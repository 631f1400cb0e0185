"""Count the bytecode instructions one CLI solve executes.

    python3 tools/opcount.py IDEAL [--algorithm sb|classic]
                             [--by-function N] [-- RUN_FLAG ...]

IDEAL is a builtin name (katsura7, cyclic6, hcyclic5, ...) or an ideal
file, as for `gbengine run`.  Each RUN_FLAG after `--` is passed on to
`gbengine run`, as in `opcount.py katsura8 -- --reducer tourtree
--compressed`.  The solve is one in-process `run_cli(["run", IDEAL,
"--algorithm", ALGORITHM, RUN_FLAG, ...])`, its result bytes discarded,
run under `sys.settrace` with `f_trace_opcodes` set on every frame; each
executed instruction of a Python frame counts once.  The program counted
is the gbengine source in `src/` of the checkout that holds this file
(SRC; tools/ab.py points it at each compared tree's `src/`).  It prints
one line: the count, then the command.  With --by-function N it then
prints the N code objects that executed the most instructions, most
first, one line each: the count, its share of the total, then the
function as FILE:LINE QUALNAME.  This per-function split repeats
exactly, like the total.

The count depends on the Python version but not on the host's load, nor
on PYTHONHASHSEED, so two trees compare on one run each where wall time
cannot resolve their difference.  Tracing slows the solve ten- to
fifteenfold: a classic cyclic6 solve, about 53 million instructions,
takes 6.5 to 7 s counted against 0.5 s untraced (2-core x86_64 host,
Python 3.11.7).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def count_opcodes(fn, *args):
    """(fn(*args), a Counter of the bytecode instructions it executed by
    code object)."""
    # one tracer per code object, each counting into its own cell, keyed
    # by id: hashing a code object hashes its contents, too slow per call
    tracers, cells = {}, []

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        local = tracers.get(id(code))
        if local is None:
            cell = [code, 0]        # holding code keeps its id unique

            def local(frame, event, arg):
                if event == "opcode":
                    cell[1] += 1
                return local
            tracers[id(code)] = local
            cells.append(cell)
        return local

    # argparse compiles its patterns through re's cache: empty it, so that
    # what the caller parsed before does not change the count
    re.purge()
    sys.settrace(enter)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
    counts = Counter()
    for code, n in cells:
        counts[code] += n
    return out, counts


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="opcount.py", usage="%(prog)s IDEAL [--algorithm sb|classic]"
        " [--by-function N] [-- RUN_FLAG ...]")
    ap.add_argument("ideal", help="builtin name or ideal file")
    ap.add_argument("--algorithm", choices=("sb", "classic"), default="sb")
    ap.add_argument("--by-function", type=int, default=0, metavar="N",
                    help="also print the N code objects that executed the"
                    " most instructions")
    argv = sys.argv[1:] if argv is None else list(argv)
    run_flags = []
    if "--" in argv:
        cut = argv.index("--")
        argv, run_flags = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)
    if args.by_function < 0:
        ap.error("--by-function takes N >= 0")
    sys.path.insert(0, str(SRC))
    from gbengine.cli import run_cli

    argv = ["run", args.ideal, "--algorithm", args.algorithm, *run_flags]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code, counts = count_opcodes(run_cli, argv)
    if code:
        raise SystemExit("exit %d: %s\n%s" % (code, " ".join(argv),
                                               err.getvalue()))
    total = sum(counts.values())
    print("%d gbengine %s" % (total, " ".join(argv)))
    for co, n in counts.most_common(args.by_function):
        print("%12d %6.2f%% %s:%d %s" % (n, 100.0 * n / total,
                                         Path(co.co_filename).name,
                                         co.co_firstlineno, co.co_qualname))
    return 0


if __name__ == "__main__":
    sys.exit(main())
