import os
import subprocess
import sys
from pathlib import Path

OPCOUNT = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def _opcount(seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run([sys.executable, str(OPCOUNT), *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.splitlines()


def test_opcount_is_one_positive_count_whatever_the_hash_seed():
    first = _opcount(1, "katsura3")
    second = _opcount(2, "katsura3")
    assert len(first) == 1
    count, command = first[0].split(None, 1)
    assert int(count) > 0
    assert command == "gbengine run katsura3 --algorithm sb"
    assert second == first


def test_opcount_counts_a_classic_solve():
    out = _opcount(1, "katsura3", "--algorithm", "classic")
    count, command = out[0].split(None, 1)
    assert int(count) > 0 and command.endswith("--algorithm classic")


def test_opcount_passes_run_flags_after_a_double_dash():
    plain = _opcount(1, "katsura3")[0].split(None, 1)
    out = _opcount(1, "katsura3", "--", "--reducer", "tourtree",
                   "--compressed")
    count, command = out[0].split(None, 1)
    assert command == ("gbengine run katsura3 --algorithm sb "
                       "--reducer tourtree --compressed")
    assert int(count) != int(plain[0])


def test_opcount_refuses_a_bad_run_flag():
    done = subprocess.run([sys.executable, str(OPCOUNT), "katsura3", "--",
                           "--no-such-flag"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "exit 2: run katsura3 --algorithm sb --no-such-flag" in done.stderr


def test_opcount_by_function_splits_the_count_the_same_each_run():
    out = _opcount(1, "katsura3", "--by-function", "4")
    assert out[0] == _opcount(1, "katsura3")[0]
    total = int(out[0].split()[0])
    rows = [line.split() for line in out[1:]]
    assert len(rows) == 4
    counts = [int(row[0]) for row in rows]
    assert counts == sorted(counts, reverse=True)
    for (n, share, where, name), count in zip(rows, counts):
        assert share == "%.2f%%" % (100.0 * count / total)
        path, line = where.split(":")
        assert path.endswith(".py") and int(line) > 0 and name
    assert _opcount(2, "katsura3", "--by-function", "4") == out
    # every code object listed, the counts add up to the total
    everything = _opcount(1, "katsura3", "--by-function", "100000")
    assert sum(int(line.split()[0]) for line in everything[1:]) == total
    refused = subprocess.run([sys.executable, str(OPCOUNT), "katsura3",
                              "--by-function", "-1"], capture_output=True,
                             text=True, timeout=120)
    assert refused.returncode == 2 and refused.stdout == ""
    assert "--by-function takes N >= 0" in refused.stderr
