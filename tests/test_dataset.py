import csv
import dataclasses
import io
from datetime import datetime, timezone

import pytest

from fixpair.analyzer import analyze_source
from fixpair.dataset import (
    DatasetEntry,
    accumulate_issue_touches,
    build_entries,
    export_csv,
    format_metric,
    load_entries_csv,
)
from fixpair.diffs import parse_unified_diff
from fixpair.errors import AnalysisMissingError
from fixpair.ingest import CommitRecord, IssueRecord, ProjectSnapshot
from fixpair.linker import BugFixTimeline, HistoryIndex

UTC = timezone.utc

V1 = """package p;
class A {
    void m1() {
        one();
    }
    void m2() {
        two();
    }
}
"""

# m2 deleted, m3 added by the fix
V2 = """package p;
class A {
    void m1() {
        one();
    }
    void m3() {
        three();
    }
}
"""

DIFF_B = """--- a/src/p/A.java
+++ b/src/p/A.java
@@ -6,3 +6,3 @@
-    void m2() {
-        two();
+    void m3() {
+        three();
     }
"""


def ts(day):
    return datetime(2024, 1, day, 10, tzinfo=UTC)


def sha(letter):
    return letter * 40


def make_scenario():
    diffs = tuple(parse_unified_diff(DIFF_B))
    commits = [
        CommitRecord(sha("b"), (sha("a"),), "dev", ts(2), "Fix #1", diffs),
        CommitRecord(sha("a"), (), "dev", ts(1), "root", ()),
    ]
    issue = IssueRecord(
        id=1, state="closed", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}), fixing_commits=((sha("b"), ts(2)),),
    )
    snap = ProjectSnapshot(
        repo_id="demo/x", captured_at=ts(3), issues=(issue,),
        commits=tuple(commits), bug_labels=frozenset({"bug"}),
    )
    analyses = {
        sha("a"): {"src/p/A.java": analyze_source("src/p/A.java", V1)},
        sha("b"): {"src/p/A.java": analyze_source("src/p/A.java", V2)},
    }
    metrics = {
        h: {k: v for fa in files.values() for k, v in fa.vectors.items()}
        for h, files in analyses.items()
    }
    timeline = BugFixTimeline(
        issue_id=1, orange=sha("a"), green=(sha("b"),), blue=(sha("a"),),
    )
    return snap, analyses, metrics, timeline


def test_touches_closure_and_both_sides():
    snap, analyses, _, timeline = make_scenario()
    touches = accumulate_issue_touches(timeline, snap, analyses)
    assert touches["method"] == {"p.A.m2()void", "p.A.m3()void"}
    assert touches["class"] == {"p.A"}
    assert touches["file"] == {"src/p/A.java"}


def test_a_binary_file_after_the_java_file_leaves_its_touches():
    # git sorts by path, so the binary section follows the Java file's hunks
    diff = (
        "diff --git a/src/p/A.java b/src/p/A.java\nindex 1111111..2222222 100644\n"
        + DIFF_B
        + "diff --git a/src/p/logo.png b/src/p/logo.png\n"
        "index 3333333..4444444 100644\n"
        "Binary files a/src/p/logo.png and b/src/p/logo.png differ\n"
    )
    snap, analyses, _, timeline = make_scenario()
    fix = dataclasses.replace(snap.commits[0], file_diffs=tuple(parse_unified_diff(diff)))
    snap = dataclasses.replace(snap, commits=(fix,) + snap.commits[1:])
    touches = accumulate_issue_touches(timeline, snap, analyses)
    assert touches["method"] == {"p.A.m2()void", "p.A.m3()void"}
    assert touches["file"] == {"src/p/A.java"}


def test_deleted_method_yields_buggy_entry_and_drop_log():
    snap, analyses, metrics, timeline = make_scenario()
    touches = accumulate_issue_touches(timeline, snap, analyses)
    result = build_entries([(timeline, touches)], metrics, HistoryIndex(snap))
    method_entries = {
        (e.commit_hash, e.fqn): e for e in result.entries_by_level["method"]
    }
    assert (sha("a"), "p.A.m2()void") in method_entries
    assert (sha("b"), "p.A.m2()void") not in method_entries
    assert method_entries[(sha("a"), "p.A.m2()void")].bug_count == 1
    reasons = {(fqn, reason) for _, _, _, fqn, reason in result.drop_log}
    assert ("p.A.m2()void", "gone after the fix") in reasons


def test_created_method_yields_fixed_only_entry():
    snap, analyses, metrics, timeline = make_scenario()
    touches = accumulate_issue_touches(timeline, snap, analyses)
    result = build_entries([(timeline, touches)], metrics, HistoryIndex(snap))
    method_entries = {
        (e.commit_hash, e.fqn): e for e in result.entries_by_level["method"]
    }
    assert (sha("b"), "p.A.m3()void") in method_entries
    assert method_entries[(sha("b"), "p.A.m3()void")].bug_count == 0
    assert (sha("a"), "p.A.m3()void") not in method_entries


def contributing_issues(result, timelines):
    """The issues whose buggy or fixed state yields an entry."""
    commits = {e.commit_hash for rows in result.entries_by_level.values() for e in rows}
    return {t.issue_id for t in timelines if {t.orange, t.last_green} & commits}


def test_isolated_bug_pairs():
    snap, analyses, metrics, timeline = make_scenario()
    touches = accumulate_issue_touches(timeline, snap, analyses)
    result = build_entries([(timeline, touches)], metrics, HistoryIndex(snap))
    for level in ("class", "file"):
        entries = {e.commit_hash: e for e in result.entries_by_level[level]}
        assert entries[sha("a")].bug_count == 1
        assert entries[sha("b")].bug_count == 0
    assert contributing_issues(result, [timeline]) == {1}


def test_missing_analysis_is_hard_error():
    snap, analyses, metrics, timeline = make_scenario()
    del analyses[sha("a")]
    with pytest.raises(AnalysisMissingError) as err:
        accumulate_issue_touches(timeline, snap, analyses)
    assert sha("a") in str(err.value)


def test_comment_only_diff_can_be_suppressed():
    v1 = "package p;\nclass A {\n    void m() {\n        // note\n        run();\n    }\n}\n"
    v2 = v1.replace("// note", "// better note")
    diff = (
        "--- a/src/p/A.java\n+++ b/src/p/A.java\n@@ -4,1 +4,1 @@\n"
        "-        // note\n+        // better note\n"
    )
    commits = [
        CommitRecord(sha("b"), (sha("a"),), "dev", ts(2), "Fix #1",
                     tuple(parse_unified_diff(diff))),
        CommitRecord(sha("a"), (), "dev", ts(1), "root", ()),
    ]
    issue = IssueRecord(
        id=1, state="closed", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}), fixing_commits=((sha("b"), ts(2)),),
    )
    snap = ProjectSnapshot(
        repo_id="demo/x", captured_at=ts(3), issues=(issue,),
        commits=tuple(commits), bug_labels=frozenset({"bug"}),
    )
    analyses = {
        sha("a"): {"src/p/A.java": analyze_source("src/p/A.java", v1)},
        sha("b"): {"src/p/A.java": analyze_source("src/p/A.java", v2)},
    }
    timeline = BugFixTimeline(issue_id=1, orange=sha("a"), green=(sha("b"),))
    default = accumulate_issue_touches(timeline, snap, analyses)
    assert default["method"]  # mapped by default (pipeline behavior)
    suppressed = accumulate_issue_touches(
        timeline, snap, analyses, ignore_comment_only=True
    )
    assert not any(suppressed.values())


# --- CSV ----------------------------------------------------------------------

def test_export_header_only(tmp_path):
    path = tmp_path / "file.csv"
    export_csv([], "file", path)
    content = path.read_text()
    lines = content.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("hash,fqn,CLOC,LOC,LLOC,McCC,PDA,PUA")
    assert lines[0].endswith("bug_count")


def test_export_quotes_commas_rfc4180(tmp_path):
    entry = DatasetEntry(
        commit_hash=sha("a"),
        fqn="p.A.m(int,long)void",
        level="method",
        metrics={"LOC": 1.0},
        bug_count=2,
        parent_fqn="p.A",
    )
    path = tmp_path / "method.csv"
    export_csv([entry], "method", path, parent_column=True)
    raw = path.read_text()
    assert '"p.A.m(int,long)void"' in raw
    rows = list(csv.reader(io.StringIO(raw)))
    assert rows[1][1] == "p.A.m(int,long)void"
    assert rows[1][2] == "p.A"
    assert rows[1][-1] == "2"


def test_export_level_mismatch_rejected(tmp_path):
    entry = DatasetEntry(sha("a"), "X", "class", {}, 0)
    with pytest.raises(ValueError):
        export_csv([entry], "method", tmp_path / "m.csv")


def test_format_metric():
    assert format_metric(None) == ""
    assert format_metric(3.0) == "3"
    assert format_metric(0.5) == "0.5"
    assert format_metric(36.54170522339608) == "36.54170522339608"


def test_csv_roundtrip(tmp_path):
    entry = DatasetEntry(
        commit_hash=sha("a"),
        fqn="p.A.m()void",
        level="method",
        metrics={"LOC": 3.0, "LLOC": 2.0, "McCC": 1.5},
        bug_count=1,
        parent_fqn="p.A",
    )
    path = tmp_path / "method-p.csv"
    export_csv([entry], "method", path, parent_column=True)
    loaded = load_entries_csv(path, "method")
    assert len(loaded) == 1
    got = loaded[0]
    assert got.commit_hash == entry.commit_hash
    assert got.fqn == entry.fqn
    assert got.parent_fqn == "p.A"
    assert got.bug_count == 1
    assert got.metrics == {"LOC": 3.0, "LLOC": 2.0, "McCC": 1.5}


def test_hash_fqn_unique_and_level_closure(fixture_dataset):
    entries_by_level = fixture_dataset
    for level, entries in entries_by_level.items():
        keys = [(e.commit_hash, e.fqn) for e in entries]
        assert len(keys) == len(set(keys))
    class_fqns = {(e.commit_hash, e.fqn) for e in entries_by_level["class"]}
    file_fqns = {(e.commit_hash, e.fqn) for e in entries_by_level["file"]}
    for e in entries_by_level["method"]:
        assert (e.commit_hash, e.parent_fqn) in class_fqns
        assert any(h == e.commit_hash for h, _ in file_fqns)


def test_buggy_entries_have_positive_counts(fixture_dataset):
    # every orange-side entry carries >= 1; fixed side of isolated bugs is 0
    for entries in fixture_dataset.values():
        assert all(e.bug_count >= 0 for e in entries)
        assert any(e.bug_count >= 1 for e in entries)


@pytest.fixture(scope="session")
def fixture_dataset(fixture_snapshot, fixture_repo):
    from fixpair.analyzer import analyze_source, is_test_path
    from fixpair.gitio import GitRepo
    from fixpair.linker import build_timeline, select_analysis_commits

    snap = fixture_snapshot
    hist = HistoryIndex(snap)
    closed = [i for i in snap.issues if i.state == "closed"]
    timelines = [build_timeline(i, snap, hist) for i in closed]
    plan = select_analysis_commits(timelines, hist)
    modes = {e.commit_hash: e.full_analysis for e in plan.entries}
    for t in timelines:
        for g in t.green:
            parent = snap.commit(g).parents[0]
            modes.setdefault(parent, False)
    with GitRepo(fixture_repo["repo"]) as repo:
        analyses = {
            h: {
                path: analyze_source(
                    path, repo.read_object(sha).decode("utf-8", "replace")
                )
                for path, sha in repo.tree_blobs(h).items()
                if path.endswith(".java") and not is_test_path(path)
            }
            for h in modes
        }
    metrics = {
        h: {k: v for fa in files.values() for k, v in fa.vectors.items()}
        for h, files in analyses.items()
        if modes[h]
    }
    bugs = [
        (t, accumulate_issue_touches(t, snap, analyses)) for t in timelines if t.live
    ]
    result = build_entries(bugs, metrics, hist)
    assert contributing_issues(result, timelines) == {1, 2, 3}
    return result.entries_by_level
