"""Run the CLI over a fixed matrix of ideals, algorithms and data-structure
configs, and print one line per run: two sha256 digests of its stdout,
then its argv.  The first covers the result and every `--stats` row but the
five divmask rows, which count the lead lookup's mask tests; the second
covers those five rows.

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

SRC = Path(__file__).resolve().parent.parent / "src"

IDEALS = ("katsura6", "cyclic5", "hcyclic5")
ALGORITHMS = ("sb", "classic")
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


def main():
    sys.path.insert(0, str(SRC))
    from gbengine.cli import run_cli
    for ideal in IDEALS:
        for algorithm in ALGORITHMS:
            for flags in configs():
                argv = ["run", ideal, "--algorithm", algorithm, "--stats"]
                argv += flags
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run_cli(argv)
                if code:
                    raise SystemExit("exit %d: %s" % (code, " ".join(argv)))
                print(*digests(out.getvalue()), " ".join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
