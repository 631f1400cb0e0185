import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATRIX = ROOT / "tools" / "cli_matrix.py"
# the matrix's output when the file was made; a change that keeps result
# bytes and counters keeps every line
GOLDEN = ROOT / "tests" / "data" / "cli_matrix.txt"


def test_cli_matrix_prints_two_digests_per_run():
    out = subprocess.run([sys.executable, str(MATRIX)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert len(out) == 127
    counted, divmask, argvs = zip(*(line.split(" ", 2) for line in out))
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in counted + divmask)
    assert len(set(argvs)) == 127
    assert all(a.startswith("run ") and " --stats" in a for a in argvs)
    golden = GOLDEN.read_text().splitlines()
    assert len(golden) == len(out)
    for got, want in zip(out, golden):
        assert got == want


def test_divmask_rows_have_their_own_digest():
    sys.path.insert(0, str(MATRIX.parent))
    try:
        from cli_matrix import DIVMASK_ROWS, digests
    finally:
        sys.path.remove(str(MATRIX.parent))
    stdout = "x1+x2\nalgorithm: classic\n#reductions: 8\n"
    stdout += "".join("%s: 1\n" % row for row in DIVMASK_ROWS)
    counted, divmask = digests(stdout)
    moved = digests(stdout.replace("hit rate: 1", "hit rate: 2"))
    assert moved[0] == counted and moved[1] != divmask
    moved = digests(stdout.replace("#reductions: 8", "#reductions: 9"))
    assert moved[0] != counted and moved[1] == divmask
    moved = digests(stdout.replace("x1+x2", "x1+2*x2"))
    assert moved[0] != counted and moved[1] == divmask
