import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpair.errors import FixpairError
from fixpair.ingest import CommitRecord, IssueRecord, ProjectSnapshot
from fixpair.linker import (
    HistoryIndex,
    build_timeline,
    extract_issue_refs,
    select_analysis_commits,
    write_plan,
)

UTC = timezone.utc


def ts(day, hour=10):
    return datetime(2024, 1, day, hour, tzinfo=UTC)


def sha(letter):
    return letter * 40


def commit(letter, parents=(), day=1, message="work"):
    return CommitRecord(
        hash=sha(letter),
        parents=tuple(sha(p) for p in parents),
        author_id="dev",
        timestamp=ts(day),
        message=message,
        file_diffs=(),
    )


def snapshot(commits, issues=()):
    return ProjectSnapshot(
        repo_id="demo/x",
        captured_at=ts(25),
        issues=tuple(issues),
        commits=tuple(commits),
        bug_labels=frozenset({"bug"}),
    )


# --- reference extraction ----------------------------------------------------

def test_simple_reference():
    assert extract_issue_refs("Fix NPE, closes #42") == {42}


def test_merge_message_multiple_and_duplicate():
    msg = "Merge pull request #10 from fork; fixes #10 and #11"
    assert extract_issue_refs(msg) == {10, 11}


def test_low_confidence_kept_but_flagged():
    assert extract_issue_refs("version#2 bump") == {2}
    # flagged: a keyword does not introduce a reference without a boundary
    assert extract_issue_refs("fixes issue#2", keywords_only=True) == set()
    assert extract_issue_refs("fixes issue #2", keywords_only=True) == {2}


def test_cross_repo_reference_ignored():
    assert extract_issue_refs("Port fix from octo/upstream#5") == set()


def test_keywords_only_mode():
    msg = "See #3. This fixes #4 but mentions #5"
    assert extract_issue_refs(msg) == {3, 4, 5}
    assert extract_issue_refs(msg, keywords_only=True) == {4}


def test_keyword_detection_variants():
    for msg in ("Fixes #8", "fixed: #8", "CLOSES #8", "resolve #8", "fix issue #8"):
        assert extract_issue_refs(msg, keywords_only=True) == {8}, msg


def test_zero_is_not_an_issue_id():
    assert extract_issue_refs("nothing here #0") == set()


# Hand-labeled corpus; expected sets derived by applying the documented rule
# by eye before freezing.
CORPUS = [
    ("Fix NPE, closes #42", {42}),
    ("fixes #1", {1}),
    ("Fixes #1.", {1}),
    ("fix #1, #2 and #3", {1, 2, 3}),
    ("Merge pull request #10 from fork", {10}),
    ("Merge pull request #10 from fork; fixes #10 and #11", {10, 11}),
    ("version#2 bump", {2}),
    ("release v1#3", {3}),
    ("see issue #77 for details", {77}),
    ("(#12)", {12}),
    ("[#13]", {13}),
    ("ref: #14;", {14}),
    ("#15 at message start", {15}),
    ("ends with #16", {16}),
    ("no reference at all", set()),
    ("hash # alone", set()),
    ("#", set()),
    ("# 17 spaced out", set()),
    ("##18 double hash", {18}),
    ("#19#20 chained", {19, 20}),
    ("C# programming", set()),
    ("issue#21 glued", {21}),
    ("owner/repo#22 foreign", set()),
    ("octo-org/some.repo#23 also foreign", set()),
    ("local #24 plus octo/repo#25", {24}),
    ("duplicate #26 #26 #26", {26}),
    ("newline\n#27", {27}),
    ("tab\t#28", {28}),
    ("quoted '#29'", {29}),
    ('"#30"', {30}),
    ("comma,#31", {31}),
    ("period.#32", {32}),
    ("#033 leading zeros", {33}),
    ("#0 zero only", set()),
    ("#34and text", {34}),
    ("fix#35 keyword glued", {35}),
    ("Revert \"fix #36\"", {36}),
    ("cherry-pick of #37 and #38", {37, 38}),
    ("todo#39 marker", {39}),
    ("#40", {40}),
    ("big number #123456", {123456}),
    ("mixed #41 then owner/x#42 then #43", {41, 43}),
    ("FIXES #44", {44}),
    ("hotfix: closes #45, resolves #46", {45, 46}),
    ("commit message; no id but a # and 47", set()),
    ("#48.", {48}),
    ("wrapped (#49).", {49}),
    ("semi;#50", {50}),
    ("Fix NPE (#51) introduced by #52", {51, 52}),
    ("plain 53 without hash", set()),
]


def test_reference_corpus():
    assert len(CORPUS) == 50
    for message, expected in CORPUS:
        assert extract_issue_refs(message) == expected, message


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_refs_always_positive_and_case_independent(message):
    ids = extract_issue_refs(message)
    assert all(isinstance(i, int) and i > 0 for i in ids)
    assert extract_issue_refs(message.upper()) == ids


# --- timeline construction ---------------------------------------------------

def linear_snapshot():
    commits = [
        commit("e", ("d",), day=5, message="tail"),
        commit("d", ("c",), day=4, message="Fix it all, closes #1"),
        commit("c", ("b",), day=3, message="unrelated"),
        commit("b", ("a",), day=2, message="Partial fix #1"),
        commit("a", day=1, message="root"),
    ]
    issue = IssueRecord(
        id=1,
        state="closed",
        created_at=ts(1, 12),
        closed_at=ts(4, 12),
        labels=frozenset({"bug"}),
        fixing_commits=((sha("d"), ts(4)),),
    )
    return snapshot(commits, [issue])


def test_single_fix_minimal_case():
    commits = [
        commit("c", ("b",), day=3, message="Fix #7"),
        commit("b", ("a",), day=2),
        commit("a", day=1),
    ]
    issue = IssueRecord(
        id=7, state="closed", created_at=ts(1, 12), closed_at=ts(3, 12),
        labels=frozenset({"bug"}), fixing_commits=((sha("c"), ts(3)),),
    )
    t = build_timeline(issue, snapshot(commits, [issue]))
    assert t.green == (sha("c"),)
    assert t.orange == sha("b")
    assert t.gray == ()
    assert t.blue == (sha("b"),)  # creation (day1 12:00) excludes the root commit
    assert not t.degraded


def test_multi_fix_with_gray_between():
    snap = linear_snapshot()
    t = build_timeline(snap.issues[0], snap)
    assert t.green == (sha("b"), sha("d"))
    assert t.orange == sha("a")
    assert t.gray == (sha("c"),)
    assert not t.degraded


def test_missing_fixing_commit_degrades_with_hash():
    commits = [commit("b", ("a",), day=2), commit("a", day=1)]
    issue = IssueRecord(
        id=2, state="closed", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}), fixing_commits=((sha("9"), ts(2)),),
    )
    snap = ProjectSnapshot(
        repo_id="demo/x", captured_at=ts(5), issues=(), commits=tuple(commits),
        bug_labels=frozenset({"bug"}),
    )
    t = build_timeline(issue, snap)
    assert t.degraded
    assert sha("9") in t.missing


def test_root_commit_fix_is_degraded():
    commits = [commit("b", ("a",), day=2), commit("a", day=1, message="fixes #3")]
    issue = IssueRecord(
        id=3, state="closed", created_at=ts(1, 1), closed_at=ts(2),
        labels=frozenset({"bug"}), fixing_commits=((sha("a"), ts(1)),),
    )
    t = build_timeline(issue, snapshot(commits, [issue]))
    assert t.degraded


def test_open_issue_violates_precondition():
    issue = IssueRecord(id=4, state="open", created_at=ts(1), labels=frozenset())
    with pytest.raises(FixpairError):
        build_timeline(issue, linear_snapshot())


def test_merge_commit_resolution():
    # chain a <- b <- m <- d ; topic commit x (parent a) merged by m
    commits = [
        commit("d", ("e",), day=5),  # e == m here; build explicitly below
    ]
    m = CommitRecord(
        hash=sha("e"), parents=(sha("b"), sha("c")), author_id="dev",
        timestamp=ts(4), message="Merge topic", file_diffs=(),
    )
    x = commit("c", ("a",), day=3, message="On topic branch, fixes #9")
    b = commit("b", ("a",), day=2)
    a = commit("a", day=1)
    snap = snapshot([commits[0], m, x, b, a])
    hist = HistoryIndex(snap)
    assert hist.resolve(sha("e")) == 2
    assert hist.resolve(sha("c")) == 2  # merged commit takes the merge position

    issue = IssueRecord(
        id=9, state="closed", created_at=ts(1, 12), closed_at=ts(4, 12),
        labels=frozenset({"bug"}), fixing_commits=((sha("c"), ts(3)),),
    )
    t = build_timeline(issue, snap, hist)
    assert t.green == (sha("c"),)
    assert t.orange == sha("b")  # chain parent of the merge position


def test_timeline_notes_tracker_commit_without_message_ref():
    commits = [
        commit("c", ("b",), day=3, message="quiet closing commit"),
        commit("b", ("a",), day=2),
        commit("a", day=1),
    ]
    issue = IssueRecord(
        id=6, state="closed", created_at=ts(1, 12), closed_at=ts(3, 12),
        labels=frozenset({"bug"}), fixing_commits=((sha("c"), ts(3)),),
    )
    t = build_timeline(issue, snapshot(commits, [issue]))
    assert t.green == (sha("c"),)  # tracker side still makes it green
    assert any("without message reference" in n for n in t.notes)


def test_fixture_ground_truth(fixture_snapshot, fixture_repo):
    h = fixture_repo["hashes"]
    hist = HistoryIndex(fixture_snapshot)
    closed = [i for i in fixture_snapshot.issues if i.state == "closed"]
    t1, t2, t3 = (build_timeline(i, fixture_snapshot, hist) for i in closed)
    assert (t1.orange, t1.green, t1.gray, t1.blue) == (
        h["C3"],
        (h["C4"], h["C10"]),
        (h["C5"], h["C6"], h["C7"], h["C8"], h["C9"]),
        (h["C3"],),
    )
    assert (t2.orange, t2.green, t2.gray, t2.blue) == (
        h["C5"], (h["C6"], h["C8"]), (h["C7"],), (h["C5"],),
    )
    assert (t3.orange, t3.green, t3.gray, t3.blue) == (
        h["C6"], (h["C7"],), (), (h["C6"],),
    )


# --- analysis plan -----------------------------------------------------------

def three_green_timeline_snapshot():
    commits = [
        commit("f", ("e",), day=6, message="tail"),
        commit("e", ("d",), day=5, message="third fix #1"),
        commit("d", ("c",), day=4, message="second fix #1"),
        commit("c", ("b",), day=3, message="first fix #1"),
        commit("b", ("a",), day=2),
        commit("a", day=1),
    ]
    issue = IssueRecord(
        id=1, state="closed", created_at=ts(1, 12), closed_at=ts(5, 12),
        labels=frozenset({"bug"}), fixing_commits=((sha("e"), ts(5)),),
    )
    return snapshot(commits, [issue])


def test_plan_full_vs_positions_flags():
    snap = three_green_timeline_snapshot()
    t = build_timeline(snap.issues[0], snap)
    plan = select_analysis_commits([t], HistoryIndex(snap))
    modes = {e.commit_hash: e.full_analysis for e in plan.entries}
    assert modes == {
        sha("b"): True,   # orange
        sha("c"): False,  # intermediate green
        sha("d"): False,  # intermediate green
        sha("e"): True,   # last green
    }


def test_plan_dedup_and_promotion():
    snap = linear_snapshot()
    t = build_timeline(snap.issues[0], snap)
    other = IssueRecord(
        id=2, state="closed", created_at=ts(1, 12), closed_at=ts(2, 12),
        labels=frozenset({"bug"}), fixing_commits=((sha("b"), ts(2)),),
    )
    t2 = build_timeline(other, snap)
    plan = select_analysis_commits([t, t2], HistoryIndex(snap))
    hashes = [e.commit_hash for e in plan.entries]
    assert len(hashes) == len(set(hashes))
    # b is t's intermediate green but t2's last green: promoted to full
    assert {e.commit_hash: e.full_analysis for e in plan.entries}[sha("b")]


def test_plan_empty():
    assert select_analysis_commits([], HistoryIndex(snapshot([]))).entries == ()


def test_plan_superset_and_order(fixture_snapshot):
    hist = HistoryIndex(fixture_snapshot)
    closed = [i for i in fixture_snapshot.issues if i.state == "closed"]
    timelines = [build_timeline(i, fixture_snapshot, hist) for i in closed]
    plan = select_analysis_commits(timelines, hist)
    hashes = {e.commit_hash for e in plan.entries}
    full = {e.commit_hash: e.full_analysis for e in plan.entries}
    for t in timelines:
        assert t.orange in hashes
        assert t.last_green in hashes
        assert full[t.orange]
        assert full[t.last_green]
        # orange precedes every green in history order
        for g in t.green:
            assert hist.resolve(t.orange) < hist.resolve(g)
    positions = [hist.resolve(e.commit_hash) for e in plan.entries]
    assert positions == sorted(positions)


def test_plan_file_roundtrip(tmp_path, fixture_snapshot):
    hist = HistoryIndex(fixture_snapshot)
    closed = [i for i in fixture_snapshot.issues if i.state == "closed"]
    plan = select_analysis_commits(
        [build_timeline(i, fixture_snapshot, hist) for i in closed], hist
    )
    path = tmp_path / "plan.txt"
    write_plan(plan, path)
    lines = path.read_text().strip().splitlines()
    assert all(line.endswith((" full", " pos")) for line in lines)
    assert [line.split(" ") for line in lines] == [
        [e.commit_hash, "full" if e.full_analysis else "pos"] for e in plan.entries
    ]


# --- scale -------------------------------------------------------------------

def test_linking_scales_with_history_and_issues():
    """20 000 commits and 2 000 issues, linked in both modes.

    Issue ``k + 1`` is mentioned at position ``10k + 2`` and fixed at
    ``10k + 5``.  Each message is read once per mode, so this takes about a
    second; rescanning every message for each issue took minutes.
    """
    n_commits, n_issues = 20_000, 2_000
    start = datetime(2020, 1, 1, tzinfo=UTC)
    when = [start + timedelta(minutes=i) for i in range(n_commits)]
    hashes = [f"{i:040x}" for i in range(n_commits)]
    messages = ["work"] * n_commits
    for k in range(n_issues):
        messages[10 * k + 2] = f"part of #{k + 1}"
        messages[10 * k + 5] = f"Fixes #{k + 1}, like octo/other#{k + 2}"
    commits = [
        CommitRecord(
            hash=hashes[i], parents=(hashes[i - 1],) if i else (),
            author_id="dev", timestamp=when[i], message=messages[i],
        )
        for i in reversed(range(n_commits))
    ]
    issues = [
        IssueRecord(
            id=k + 1, state="closed", created_at=when[10 * k],
            closed_at=when[10 * k + 5], labels=frozenset({"bug"}),
            fixing_commits=((hashes[10 * k + 5], when[10 * k + 5]),),
        )
        for k in range(n_issues)
    ]
    snap = snapshot(commits, issues)

    began = time.perf_counter()
    hist = HistoryIndex(snap)
    linked = [build_timeline(i, snap, hist) for i in issues]
    keyworded = [build_timeline(i, snap, hist, keywords_only=True) for i in issues]
    elapsed = time.perf_counter() - began

    for k, (t, kw) in enumerate(zip(linked, keyworded)):
        p = 10 * k
        assert t.green == (hashes[p + 2], hashes[p + 5])
        assert (t.orange, t.gray, t.blue) == (
            hashes[p + 1], (hashes[p + 3], hashes[p + 4]), (hashes[p], hashes[p + 1])
        )
        assert kw.green == (hashes[p + 5],)
        assert (kw.orange, kw.gray, kw.blue) == (hashes[p + 4], (), tuple(hashes[p:p + 5]))
        assert not t.degraded and not kw.degraded and not t.notes
    assert elapsed < 20, f"linking took {elapsed:.1f} s"
