import json
import subprocess
import sys
from pathlib import Path

import pytest

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
                          "parent_iqr", "change_median", "change_quartiles",
                          "change_pct", "pairs_change_lower",
                          "pairs_change_higher", "claim_rule_met",
                          "parent_runs", "change_runs"}
        assert m["parent_runs"] == [m["parent_median"]]
        assert m["parent_quartiles"] == [m["parent_median"]] * 2
        assert m["parent_iqr"] == 0
        assert m["claim_rule_met"] == (m["pairs_change_lower"] == 1)
        assert m["pairs_change_lower"] + m["pairs_change_higher"] <= 1
    assert [(r["side"], r["seed"], r["exit"]) for r in report["runs"]] == \
        [("parent", 7, 0), ("change", 7, 0)]
    assert "wrote %s" % out in proc.stdout
    assert "parent IQR 0.0000, claim rule " in proc.stdout


def _compare(parent, change):
    # ab.compare over one run per value, paired in order
    sys.path.insert(0, str(AB.parent))
    try:
        from ab import compare
    finally:
        sys.path.remove(str(AB.parent))

    def runs(values):
        return [{"result": {"metrics": {"solve_s": {"value": v}}}}
                for v in values]
    return compare({"parent": runs(parent), "change": runs(change)},
                   "solve_s")


def test_claim_rule_wants_nine_tenths_and_a_gap_above_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    m = _compare(parent, [v - 0.1 for v in parent[:9]] + [1.05])
    assert m["parent_iqr"] == pytest.approx(1.0175 - 0.9825)
    assert m["pairs_change_lower"] == 9 and m["claim_rule_met"]
    # lower in 8 of 10
    m = _compare(parent, [v - 0.1 for v in parent[:8]] + [1.05, 1.05])
    assert m["pairs_change_lower"] == 8 and not m["claim_rule_met"]
    # lower in 10 of 10, but the medians 0.03 apart, inside the 0.035 IQR
    m = _compare(parent, [v - 0.03 for v in parent])
    assert m["pairs_change_lower"] == 10 and not m["claim_rule_met"]
    # a tie counts for neither side
    m = _compare(parent, [v - 0.1 for v in parent[:9]] + [parent[9]])
    assert m["pairs_change_higher"] == 0 and m["claim_rule_met"]
    m = _compare(parent, [v - 0.1 for v in parent[:8]] + parent[8:])
    assert m["pairs_change_lower"] == 8 and not m["claim_rule_met"]
