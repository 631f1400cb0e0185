import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
METRICS = ("solve_s", "solve_cpu_s", "setup_s", "peak_rss_mb")


def test_ab_pairs_a_tree_with_itself(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(AB), str(ROOT), str(ROOT), "--workload",
         "sb-hcyclic6", "--pairs", "1", "--seconds", "1", "--first-seed",
         "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"about", "summary", "runs"}
    trees = report["about"]["trees"]
    assert trees["parent"] == trees["change"]
    assert list(report["summary"]) == ["sb-hcyclic6"]
    s = report["summary"]["sb-hcyclic6"]
    assert s["seeds"] == [7] and s["pairs"] == 1
    assert s["failed_units"] == {"parent": 0, "change": 0}
    assert s["correct"] == {"parent": True, "change": True}
    assert s["exits"] == {"parent": [0], "change": [0]}
    assert all(n >= 1 for side in s["units_per_run"].values() for n in side)
    for metric in METRICS:
        m = s[metric]
        assert set(m) == {"parent_median", "parent_quartiles",
                          "change_median", "change_quartiles", "change_pct",
                          "pairs_change_lower", "pairs_change_higher",
                          "parent_runs", "change_runs"}
        assert m["parent_runs"] == [m["parent_median"]]
        assert m["parent_quartiles"] == [m["parent_median"]] * 2
        assert m["pairs_change_lower"] + m["pairs_change_higher"] <= 1
    assert [(r["side"], r["seed"], r["exit"]) for r in report["runs"]] == \
        [("parent", 7, 0), ("change", 7, 0)]
    assert "wrote %s" % out in proc.stdout
