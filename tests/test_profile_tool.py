import subprocess
import sys
from pathlib import Path

PROFILE = Path(__file__).resolve().parent.parent / "tools" / "profile.py"


def _profile(*args):
    return subprocess.run([sys.executable, str(PROFILE), *args],
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.splitlines()


def test_profile_prints_the_top_rows_of_one_solve():
    out = _profile("katsura3", "--top", "7")
    assert out[0].startswith("profiled ")
    assert out[0].endswith(": gbengine run katsura3 --algorithm sb")
    assert out[1].split() == ["calls", "self_s", "cum_s", "cum_%",
                              "function"]
    rows = [line.split(None, 4) for line in out[2:]]
    assert len(rows) == 7
    selfs = [float(r[1]) for r in rows]
    assert selfs == sorted(selfs, reverse=True)
    assert all(int(r[0]) > 0 and float(r[2]) >= float(r[1]) for r in rows)


def test_profile_classic_solve_reaches_the_reduction_loop():
    out = _profile("katsura3", "--algorithm", "classic", "--top", "1000")
    assert out[0].endswith("--algorithm classic")
    assert any(line.endswith("(divide_queue)") for line in out[2:])


def test_profile_passes_run_flags_after_a_double_dash():
    # the default reducer, a geobucket, merges its buckets; a tournament
    # tree has no merge
    merges = [line for line in _profile("katsura3", "--top", "1000")[2:]
              if line.endswith("(_merge)")]
    out = _profile("katsura3", "--top", "1000", "--", "--reducer",
                   "tourtree", "--compressed")
    assert out[0].endswith(": gbengine run katsura3 --algorithm sb "
                           "--reducer tourtree --compressed")
    assert merges and not any(line.endswith("(_merge)") for line in out[2:])
