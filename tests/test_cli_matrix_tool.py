import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATRIX = ROOT / "tools" / "cli_matrix.py"
# the matrix's output when the file was made; a change that keeps result
# bytes and counters keeps every line
GOLDEN = ROOT / "tests" / "data" / "cli_matrix.txt"


def test_cli_matrix_prints_one_digest_per_run():
    out = subprocess.run([sys.executable, str(MATRIX)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert len(out) == 114
    digests, argvs = zip(*(line.split(" ", 1) for line in out))
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(argvs)) == 114
    assert all(a.startswith("run ") and " --stats" in a for a in argvs)
    golden = GOLDEN.read_text().splitlines()
    assert len(golden) == len(out)
    for got, want in zip(out, golden):
        assert got == want
