"""Run the CLI over a fixed matrix of ideals, algorithms and data-structure
configs, then over a few ideal files in other term orders in the default
config, then a few runs at the largest characteristic, and print one line
per run: two sha256 digests of its stdout, then its argv (a file named by
its path in the checkout).  The first covers the result and every
`--stats` row but the five divmask rows, which count the lead lookup's
mask tests; the second covers those five rows.

    python3 tools/cli_matrix.py

The program run is the gbengine source in `src/` of the checkout that holds
this file.  Two checkouts agree on result bytes and counters exactly when
their outputs are equal, so a change meant to keep them diffs its output
against its parent's; where only the second digest of a line moves, only
the divmask rows of that run moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IDEALS = ("katsura6", "cyclic5", "hcyclic5")
# katsura4 under lex and cyclic5 under elim 2, for the orders the builtins
# (all grevlex) do not reach
ORDER_FILES = ("tests/data/katsura4-lex.ideal",
               "tests/data/cyclic5-elim2.ideal")
ALGORITHMS = ("sb", "classic")
# at the largest prime Ring accepts (below 2^31) a coefficient product comes
# near 2^62; the builtins run at 101 otherwise
LARGE_CHAR = "2147483647"
LARGE_CHAR_RUNS = (("katsura6", "sb", []), ("cyclic5", "classic", []),
                   ("katsura6", "sb", ["--reducer", "heap", "--plain"]))
DIVMASK_ROWS = ("# divmask hits", "# divmask misses", "# divisibilities",
                "hit rate", "effective hit rate")


def configs():
    """The default, each reducer alone and with each non-default flavour,
    then each lookup and each non-default S-pair queue: 20 flag lists.
    The default lookup is listed too, so that the four kinds stay in the
    matrix whichever of them is the default."""
    out = [[]]
    for reducer in ("heap", "geobucket", "tourtree"):
        for flavour in ([], ["--plain"], ["--dedup"], ["--compressed"]):
            out.append(["--reducer", reducer] + flavour)
    out += [["--lookup", kind]
            for kind in ("list", "divlist", "kdtree", "divkdtree")]
    out += [["--spair-queue", kind]
            for kind in ("triangle-heap", "heap", "tourtree")]
    return out


def digests(stdout):
    """sha256 of the result and the --stats rows but the divmask rows, and
    sha256 of the divmask rows."""
    parts = ([], [])
    for line in stdout.splitlines(keepends=True):
        parts[line.split(": ", 1)[0] in DIVMASK_ROWS].append(line)
    return [hashlib.sha256("".join(p).encode()).hexdigest() for p in parts]


def runs():
    """(input, algorithm, flags) of every run, in order."""
    for ideal in IDEALS:
        for algorithm in ALGORITHMS:
            for flags in configs():
                yield ideal, algorithm, flags
    for name in ORDER_FILES:
        for algorithm in ALGORITHMS:
            yield name, algorithm, []
    for ideal, algorithm, flags in LARGE_CHAR_RUNS:
        yield ideal, algorithm, ["--char", LARGE_CHAR] + flags


def main():
    sys.path.insert(0, str(SRC))
    from gbengine.cli import run_cli
    for name, algorithm, flags in runs():
        argv = ["run", name, "--algorithm", algorithm, "--stats"] + flags
        path = str(ROOT / name) if name in ORDER_FILES else name
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(["run", path] + argv[2:])
        if code:
            raise SystemExit("exit %d: %s" % (code, " ".join(argv)))
        print(*digests(out.getvalue()), " ".join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
