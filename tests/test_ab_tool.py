import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"
METRICS = ("solve_s", "solve_cpu_s", "setup_s", "peak_rss_mb")


@pytest.fixture(scope="module")
def self_run(tmp_path_factory):
    """(process, report file) of one pair of this checkout with itself,
    both trees given by absolute path."""
    out = tmp_path_factory.mktemp("ab") / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(AB), str(ROOT), str(ROOT), "--workload",
         "sb-hcyclic6", "--pairs", "1", "--seconds", "1", "--first-seed",
         "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    return proc, out


def test_ab_pairs_a_tree_with_itself(self_run):
    proc, out = self_run
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"about", "summary", "work", "runs"}
    trees = report["about"]["trees"]
    assert trees["parent"] == trees["change"]
    committed = report["about"]["committed_src_sha256"]
    # outside a git work tree there is no committed source to compare
    assert trees["change"]["src_committed"] == (
        None if committed is None
        else trees["change"]["src_sha256"] == committed)
    assert ("warning: the change tree's src/" in proc.stderr) == \
        (trees["change"]["src_committed"] is False)
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


def test_ab_report_holds_no_absolute_path(self_run):
    proc, out = self_run
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert ROOT.is_absolute() and str(ROOT) not in text
    trees = json.loads(text)["about"]["trees"]
    assert trees["parent"]["name"] == trees["change"]["name"] == ROOT.name


def test_ab_self_run_records_equal_work_counts(self_run):
    proc, out = self_run
    assert proc.returncode == 0, proc.stderr
    work = json.loads(out.read_text())["work"]
    assert list(work) == ["hcyclic5", "katsura7",
                          "cyclic5 --algorithm classic"]
    for solve, row in work.items():
        assert row["parent"] == row["change"] > 0
        assert row["change_pct"] == 0.0
        assert "opcount %-35s %d -> %d (+0.00%%)" % (
            solve, row["parent"], row["change"]) in proc.stdout


def test_ab_work_counts_read_an_extra_statement(self_run, tmp_path):
    # the counts are of each tree's own src/: one more statement in
    # Ring.key_of_word, which every solve calls, reads higher
    proc, out = self_run
    assert proc.returncode == 0, proc.stderr
    checkout = [row["change"]
                for row in json.loads(out.read_text())["work"].values()]
    tree = tmp_path / "edited"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ring = tree / "src" / "gbengine" / "ring.py"
    text = ring.read_text()
    doc = '"""Order key of a packed word whose guard bits are clear."""\n'
    assert text.count(doc) == 1
    ring.write_text(text.replace(doc, doc + "        _ = word\n"))
    edited = _ab().opcounts(tree)
    assert all(e > c for e, c in zip(edited, checkout)), (edited, checkout)


def _ab():
    sys.path.insert(0, str(AB.parent))
    try:
        import ab
    finally:
        sys.path.remove(str(AB.parent))
    return ab


def _compare(parent, change):
    # ab.compare over one run per value, paired in order
    def runs(values):
        return [{"result": {"metrics": {"solve_s": {"value": v}}}}
                for v in values]
    return _ab().compare({"parent": runs(parent), "change": runs(change)},
                         "solve_s")


def test_src_committed_tells_committed_source_from_an_edit(tmp_path):
    ab = _ab()
    checkout = tmp_path / "checkout"
    pkg = checkout / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (checkout / "src" / "b.py").write_text("y = 2\n")
    (checkout / "README").write_text("not source\n")
    git = ["git", "-C", str(checkout), "-c", "user.name=t",
           "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run(git + args, check=True, capture_output=True)
    committed = ab.committed_digest(checkout)
    assert committed == ab.tree_digest(checkout)

    def recorded():
        trees = {"parent": checkout, "change": checkout}
        return ab.tree_records(trees, committed)["change"]

    assert recorded() == {"name": "checkout", "src_sha256": committed,
                          "src_committed": True}
    (checkout / "README").write_text("edited, but not under src/\n")
    assert recorded()["src_committed"]
    (pkg / "a.py").write_text("x = 2\n")
    assert recorded()["src_committed"] is False
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "new.py").write_text("")          # untracked source counts too
    assert recorded()["src_committed"] is False
    # outside a git work tree nothing is recorded
    (tmp_path / "bare").mkdir()
    assert ab.committed_digest(tmp_path / "bare") is None
    assert ab.tree_records({"parent": checkout, "change": checkout},
                           None)["change"]["src_committed"] is None


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
