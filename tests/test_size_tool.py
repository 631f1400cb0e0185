import subprocess
import sys
from pathlib import Path

SIZE = Path(__file__).resolve().parent.parent / "tools" / "size.py"


def test_size_totals_are_the_sum_of_the_rows():
    out = subprocess.run([sys.executable, str(SIZE)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["module", "wc", "-l", "code"]
    rows = [line.split() for line in out[1:-1]]
    total = out[-1].split()
    assert total[0] == "total" and "termqueue.py" in [r[0] for r in rows]
    for col in (1, 2):
        assert int(total[col]) == sum(int(r[col]) for r in rows)
    # code-only lines drop blank, comment and docstring lines
    assert all(0 < int(r[2]) < int(r[1]) for r in rows)
