import json
import os
import subprocess
import threading
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpair.diffs import apply_file_diff, parse_unified_diff, render_unified
from fixpair.errors import SnapshotFormatError, SnapshotInvariantError
from fixpair.ingest import (
    CommitRecord,
    IssueRecord,
    ProjectSnapshot,
    _first_parent_patches,
    filter_bug_issues,
    load_issue_specs,
    load_snapshot,
    save_snapshot,
    snapshot_from_local_repo,
    snapshot_to_json,
)
from fixpair.linker import HistoryIndex

UTC = timezone.utc


def ts(day, hour=10):
    return datetime(2024, 1, day, hour, tzinfo=UTC)


def make_commit(h, parents=(), day=1, message="msg"):
    return CommitRecord(
        hash=h * 40 if len(h) == 1 else h,
        parents=tuple(p * 40 if len(p) == 1 else p for p in parents),
        author_id="dev",
        timestamp=ts(day),
        message=message,
        file_diffs=(),
    )


def make_snapshot(issues=(), commits=None):
    if commits is None:
        commits = (make_commit("b", ("a",), day=2), make_commit("a", day=1))
    return ProjectSnapshot(
        repo_id="demo/x",
        captured_at=ts(20),
        issues=tuple(issues),
        commits=tuple(commits),
        bug_labels=frozenset({"bug"}),
    )


def closed_issue(issue_id=1, fix="b", labels=("bug",)):
    return IssueRecord(
        id=issue_id,
        state="closed",
        created_at=ts(1, 12),
        closed_at=ts(3),
        labels=frozenset(labels),
        fixing_commits=((fix * 40, ts(2)),),
    )


def test_roundtrip(tmp_path):
    snap = make_snapshot(issues=[closed_issue()])
    snap.validate()
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


MINI_PROJECT = os.path.join(os.path.dirname(__file__), "fixtures", "mini-project.snapshot")


def test_mini_project_golden_fixture():
    snap = load_snapshot(MINI_PROJECT)
    assert len(snap.issues) == 3
    assert len(snap.commits) == 12
    assert snap.repo_id == "mini/project"
    assert all(i.state == "closed" and i.fixing_commits for i in snap.issues)


def test_mini_project_fixture_saves_back_to_its_own_bytes(tmp_path):
    path = tmp_path / "snapshot.json"
    save_snapshot(load_snapshot(MINI_PROJECT), path)
    with open(MINI_PROJECT, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_fixture_roundtrip(fixture_snapshot, tmp_path):
    path = tmp_path / "fixture.json"
    save_snapshot(fixture_snapshot, path)
    assert load_snapshot(path) == fixture_snapshot


def test_empty_issue_list_is_fine(tmp_path):
    snap = make_snapshot()
    path = tmp_path / "s.json"
    save_snapshot(snap, path)
    assert load_snapshot(path).issues == ()


def test_unknown_fixing_commit_named_in_error():
    ghost = "f" * 40
    snap = make_snapshot(issues=[closed_issue(fix="f")])
    with pytest.raises(SnapshotInvariantError) as err:
        snap.validate()
    assert ghost in str(err.value)


def test_closed_issue_without_fixing_commits_rejected():
    bad = IssueRecord(
        id=9, state="closed", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}),
    )
    with pytest.raises(SnapshotInvariantError):
        make_snapshot(issues=[bad]).validate()


def test_closed_at_iff_closed():
    bad = IssueRecord(
        id=3, state="open", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}),
    )
    with pytest.raises(SnapshotInvariantError):
        make_snapshot(issues=[bad]).validate()


def test_parse_failure_has_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)

    doc = snapshot_to_json(make_snapshot())
    doc.pop("captured_at")
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(path)
    assert err.value.field == "captured_at"


@pytest.mark.parametrize("docs, where, field", [
    ([{"id": 1}], "issues[0]", "state"),
    (
        [{"id": 1, "state": "open", "created_at": "2024-01-01T00:00:00Z"},
         {"id": "2", "state": "open"}],
        "issues[1]", "id",
    ),
    # a string where a list belongs is not read as its letters
    (
        [{"id": 1, "state": "open", "created_at": "2024-01-01T00:00:00Z",
          "labels": "bug"}],
        "issues[0]", "labels",
    ),
    (
        [{"id": 1, "state": "closed", "created_at": "2024-01-01T00:00:00Z",
          "closed_at": "2024-01-02T00:00:00Z", "labels": ["bug"],
          "fixing_commits": "abc"}],
        "issues[0]", "fixing_commits",
    ),
    (
        [{"id": 1, "state": "open", "created_at": "2024-01-01T00:00:00Z",
          "labels": [["bug"]]}],
        "issues[0]", "labels",
    ),
    # a timestamp that does not parse names its entry and field
    ([{"id": 1, "state": "open", "created_at": "yesterday"}], "issues[0]", "created_at"),
    (
        [{"id": 1, "state": "open", "created_at": "2024-01-01T00:00:00Z"},
         {"id": 2, "state": "closed", "created_at": "2024-01-01T00:00:00Z",
          "closed_at": "tomorrow"}],
        "issues[1]", "closed_at",
    ),
])
def test_malformed_issue_specs_name_the_entry_and_field(tmp_path, docs, where, field):
    path = tmp_path / "issues.json"
    path.write_text(json.dumps(docs))
    with pytest.raises(SnapshotFormatError) as err:
        load_issue_specs(path)
    assert err.value.field == field
    assert where in str(err.value)


@pytest.mark.parametrize("doc", [{"id": 1}, [1]])
def test_issue_specs_must_be_a_list_of_objects(tmp_path, doc):
    path = tmp_path / "issues.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotFormatError):
        load_issue_specs(path)


@pytest.mark.parametrize("keys, value, where, field", [
    (("issues", 0), 7, "issues[0]", "issues"),
    (("commits", 0), "abc", "commits[0]", "commits"),
    (("issues", 0, "fixing_commits", 0), 5, "fixing_commits[0]", "fixing_commits"),
    (("issues", 0, "labels", 0), ["bug"], "issue #1", "labels"),
    (("bug_labels", 0), 1, "snapshot", "bug_labels"),
    (("commits", 0, "hash"), 12, "commits[0]", "hash"),
    (("commits", 0, "parents"), [None], "commit bbbbbbbbbbbb", "parents"),
    (("commits", 0, "file_diffs"), ["--- a/x"], "file_diffs[0]", "file_diffs"),
    ((), 3, "snapshot", None),
    (("issues", 0, "created_at"), "yesterday", "issue #1", "created_at"),
    (("issues", 0, "closed_at"), "yesterday", "issue #1", "closed_at"),
    (("issues", 0, "fixing_commits", 0, "date"), "soon", "fixing_commits[0]", "date"),
    (("commits", 0, "timestamp"), "noon", "commit bbbbbbbbbbbb", "timestamp"),
    (("captured_at",), "now", "snapshot", "captured_at"),
    # a hunk longer than its header: the parser's location stays in the message
    (
        ("commits", 0, "file_diffs"),
        [{"patch": "--- a/x\n+++ b/x\n@@ -1,1 +1,1 @@\n-a\n-b\n"}],
        "commit bbbbbbbbbbbb.file_diffs[0]: hunk body does not reconcile with "
        "its header (line 5, byte 35)",
        "file_diffs",
    ),
])
def test_malformed_snapshot_entries_name_the_entry_and_field(
    tmp_path, keys, value, where, field
):
    doc = snapshot_to_json(make_snapshot(issues=[closed_issue()]))
    if keys:
        *outer, last = keys
        entry = doc
        for key in outer:
            entry = entry[key]
        entry[last] = value
    else:
        doc = value
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotFormatError) as err:
        load_snapshot(path)
    assert err.value.field == field
    assert where in str(err.value)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(SnapshotFormatError):
        load_snapshot(tmp_path / "absent.json")


def test_head_is_first_commit():
    snap = make_snapshot()
    assert snap.head.hash == "b" * 40


def test_outside_parent_validates_and_ends_the_chain():
    # a shallow history: the oldest stored commit names a parent it lacks
    snap = make_snapshot(
        commits=(make_commit("d", ("c",), day=4), make_commit("c", ("9",), day=3))
    )
    assert snap.validate() is snap
    hist = HistoryIndex(snap)
    assert hist.chain == ["c" * 40, "d" * 40]
    assert hist.resolve("9" * 40) is None


# --- filter_bug_issues -------------------------------------------------------

def test_filter_label_mismatch_excluded():
    issue = closed_issue(labels=("enhancement",))
    assert filter_bug_issues([issue], {"bug"}) == []


def test_filter_keeps_labeled_closed_with_fix():
    issue = closed_issue()
    assert filter_bug_issues([issue], {"bug"}) == [issue]


def test_filter_keeps_open_issue_with_creation_only():
    issue = IssueRecord(
        id=4, state="open", created_at=ts(5), labels=frozenset({"defect"})
    )
    kept = filter_bug_issues([issue], {"bug", "defect"})
    assert kept == [issue]
    assert kept[0].closed_at is None
    assert kept[0].fixing_commits == ()


def test_filter_drops_closed_without_fix():
    issue = IssueRecord(
        id=5, state="closed", created_at=ts(1), closed_at=ts(2),
        labels=frozenset({"bug"}),
    )
    assert filter_bug_issues([issue], {"bug"}) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["bug", "defect", "enhancement", "question"]),
            st.booleans(),
            st.booleans(),
        ),
        max_size=12,
    ),
    st.sets(st.sampled_from(["bug", "defect"]), max_size=2),
)
def test_filter_idempotent_and_monotone(raw, labels):
    issues = []
    for i, (label, closed, has_fix) in enumerate(raw):
        issues.append(
            IssueRecord(
                id=i + 1,
                state="closed" if closed else "open",
                created_at=ts(1),
                closed_at=ts(2) if closed else None,
                labels=frozenset({label}),
                fixing_commits=((("a" * 40), ts(2)),) if closed and has_fix else (),
            )
        )
    once = filter_bug_issues(issues, labels)
    assert filter_bug_issues(once, labels) == once
    smaller = set(list(labels)[:1])
    assert len(filter_bug_issues(issues, smaller)) <= len(once)


# --- local repo ingestion ----------------------------------------------------

def test_snapshot_from_local_repo(fixture_snapshot, fixture_repo):
    snap = fixture_snapshot
    assert snap.repo_id == "demo/fixture"
    assert len(snap.commits) == 12
    assert [i.id for i in snap.issues] == [1, 2, 3, 4]
    assert snap.head.hash == fixture_repo["hashes"]["C12"]
    # issue 1's fixing commit resolves with the repo's commit date
    issue1 = snap.issues[0]
    assert issue1.fixing_commits[0][0] == fixture_repo["hashes"]["C10"]
    assert issue1.fixing_commits[0][1] == ts(10)
    snap.validate()


EMPTY_TREE = "4b825dc642cb6eb9a060e54bf8d69288fbee4904"


@pytest.fixture(scope="module")
def odd_repo(tmp_path_factory):
    """A root commit, an empty commit, a merge, a binary file and non-ASCII
    paths and messages."""
    from conftest import RepoBuilder, run_git

    b = RepoBuilder(str(tmp_path_factory.mktemp("odd") / "repo"))
    b.write("a.txt", "one\ntwo\n")
    b.write("src/Main.java", "class Main {}\n")
    b.commit("root", "root")
    b.commit("empty", "nothing changes, see #1")
    run_git(b.path, "checkout", "-q", "-b", "side")
    b.write("src/Ünïcödé.java", "class U {}\n")
    with open(os.path.join(b.path, "logo.bin"), "wb") as fh:
        fh.write(bytes(range(256)) * 4)
    b.commit("side", "Fix #1: naïve café ☕")
    run_git(b.path, "checkout", "-q", "master")
    b.write("a.txt", "one\n2\ntwo\n")
    b.commit("main", "main line")
    run_git(b.path, "merge", "-q", "--no-ff", "--no-commit", "side")
    b.commit("merge", "Merge branch 'side'")
    with open(os.path.join(b.path, "logo.bin"), "wb") as fh:
        fh.write(bytes(range(255, -1, -1)) * 4)
    os.remove(os.path.join(b.path, "a.txt"))
    b.commit("tail", "swap the logo, drop a.txt")
    return b.path, b.hashes


def _captured(repo):
    return snapshot_from_local_repo(repo, [], repo_id="demo/odd")


def test_captured_patches_match_git_diff(odd_repo):
    repo, hashes = odd_repo
    snap = _captured(repo)
    assert {c.hash for c in snap.commits} == set(hashes.values())
    # plain git settings for the oracle, whatever the user's config says
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    listed = [(c.hash, c.parents) for c in snap.commits]
    patches = {}
    for (sha, parents), patch in zip(listed, _first_parent_patches(repo, listed)):
        want = subprocess.run(
            ["git", "-C", repo, "diff", "--no-color", "--no-renames",
             parents[0] if parents else EMPTY_TREE, sha],
            stdout=subprocess.PIPE, check=True, env=env,
        ).stdout.decode("utf-8", "replace")
        assert patch == want, sha
        assert snap.commit(sha).file_diffs == tuple(parse_unified_diff(want)), sha
        patches[sha] = patch
    by_name = {name: snap.commit(sha) for name, sha in hashes.items()}
    assert by_name["root"].parents == ()
    assert patches[hashes["empty"]] == "" and by_name["empty"].file_diffs == ()
    assert len(by_name["merge"].parents) == 2
    assert "Binary files /dev/null and b/logo.bin differ" in patches[hashes["merge"]]
    assert "Binary files a/logo.bin and b/logo.bin differ" in patches[hashes["tail"]]
    assert '"b/src/\\303\\234n' in patches[hashes["side"]]
    assert by_name["side"].message == "Fix #1: naïve café ☕"


def test_capture_unquotes_non_ascii_paths(odd_repo, tmp_path):
    repo, hashes = odd_repo
    snap = _captured(repo)
    side = [d.new_path for d in snap.commit(hashes["side"]).file_diffs]
    assert "src/Ünïcödé.java" in side
    save_snapshot(snap, tmp_path / "snapshot.json")
    loaded = load_snapshot(tmp_path / "snapshot.json")
    assert loaded.commit(hashes["side"]) == snap.commit(hashes["side"])


def test_a_text_file_beside_a_binary_file_keeps_its_hunk(odd_repo, tmp_path):
    repo, hashes = odd_repo
    snap = _captured(repo)
    tail = snap.commit(hashes["tail"]).file_diffs
    assert [(d.old_path, d.is_delete, len(d.hunks)) for d in tail] == [("a.txt", True, 1)]
    assert tail[0].hunks[0].lines == ["-one", "-2", "-two"]
    save_snapshot(snap, tmp_path / "snapshot.json")
    assert load_snapshot(tmp_path / "snapshot.json") == snap


def _git_show(repo, rev, path):
    return subprocess.run(
        ["git", "-C", repo, "show", f"{rev}:{path}"], stdout=subprocess.PIPE, check=True,
    ).stdout.decode()


def test_missing_final_newlines_keep_their_markers(tmp_path):
    from conftest import RepoBuilder

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write("f.txt", "one\ntwo\nthree\n")
    b.write("g.txt", "alpha\nbeta\ngamma")
    b.commit("root", "root")
    b.write("f.txt", "one\ntwo\nthree")
    b.commit("drop", "drop the final newline")
    b.write("f.txt", "one\ntwo\nthree\n")
    b.commit("restore", "restore it")
    b.write("g.txt", "ALPHA\nbeta\ngamma")
    b.commit("early", "change an earlier line")
    b.write("g.txt", "ALPHA\nbeta\nGAMMA")
    b.commit("last", "change the last line")
    snap = snapshot_from_local_repo(b.path, [], repo_id="demo/eol")
    marker = "\\ No newline at end of file"
    tails = {
        "drop": ["-three", "+three", marker],
        "restore": ["-three", marker, "+three"],
        "early": [" beta", " gamma", marker],
        "last": ["-gamma", marker, "+GAMMA", marker],
    }
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    for name, sha in b.hashes.items():
        commit = snap.commit(sha)
        parent = commit.parents[0] if commit.parents else EMPTY_TREE
        for d in commit.file_diffs:
            printed = subprocess.run(
                ["git", "-C", b.path, "diff", "--no-color", parent, sha, "--", d.new_path],
                stdout=subprocess.PIPE, check=True, env=env,
            ).stdout.decode().split("\n")[:-1]
            body = printed[[l[:4] for l in printed].index("+++ ") + 1:]
            lines = [l for h in d.hunks for l in h.lines]
            assert lines == [l for l in body if not l.startswith("@@")], (name, d.new_path)
            old = "" if d.is_add else _git_show(b.path, parent, d.old_path)
            assert apply_file_diff(old, d) == _git_show(b.path, sha, d.new_path)
            assert parse_unified_diff(render_unified(d)) == [d]
            if name in tails:
                assert lines[-len(tails[name]):] == tails[name], name
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap


def test_paths_under_a_top_level_b_directory_survive_a_reload(tmp_path):
    from conftest import RepoBuilder

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write("b/X.java", "class X {\n  int f() { return 1; }\n}\n")
    b.commit("add", "add X")
    b.write("b/X.java", "class X {\n  int f() { return 2; }\n}\n")
    b.commit("fix", "Fix #1")
    snap = snapshot_from_local_repo(b.path, [], repo_id="demo/b")
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    diffs = loaded.commit(b.hashes["fix"]).file_diffs
    assert [(d.old_path, d.new_path) for d in diffs] == [("b/X.java", "b/X.java")]
    assert loaded == snap


def test_control_bytes_in_messages_and_names_survive_a_capture(tmp_path):
    from conftest import RepoBuilder, run_git

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write("X.java", "class X {}\n")
    b.commit("add", "add X")
    b.write("X.java", "class X { int f; }\n")
    b.commit("fix", "fix #1 with \x02 byte")
    env = dict(os.environ, GIT_AUTHOR_NAME="Dev\x01Two", GIT_COMMITTER_NAME="Dev")
    run_git(b.path, "commit", "-q", "--allow-empty", "-m", "note \x01 too", env=env)
    snap = snapshot_from_local_repo(b.path, [], repo_id="demo/bytes")
    assert [(c.author_id, c.message) for c in snap.commits] == [
        ("Dev\x01Two", "note \x01 too"),
        ("Dev One", "fix #1 with \x02 byte"),
        ("Dev One", "add X"),
    ]
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap


def test_capture_ignores_porcelain_diff_settings(odd_repo, tmp_path, monkeypatch):
    repo, _ = odd_repo
    before = snapshot_to_json(_captured(repo))
    cfg = tmp_path / "gitconfig"
    cfg.write_text("[diff]\n\tnoprefix = true\n\tcontext = 1\n")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(cfg))
    assert snapshot_to_json(_captured(repo)) == before


@pytest.mark.parametrize("which,commits", [("odd", 6), ("fixture", 12)])
def test_capture_starts_two_git_processes(
    which, commits, odd_repo, fixture_repo, started_processes
):
    repo = odd_repo[0] if which == "odd" else fixture_repo["repo"]
    assert len(_captured(repo).commits) == commits
    git = [p for p in started_processes if p.args[0] == "git"]
    assert len(git) <= 2
    assert all(p.poll() is not None for p in git)


def test_capture_starts_no_thread(odd_repo, monkeypatch):
    def refuse(thread):
        raise AssertionError("the capture started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert len(_captured(odd_repo[0]).commits) == 6


def test_capture_rejects_a_missing_or_misordered_commit(odd_repo):
    repo, hashes = odd_repo
    ghost = "0" * 40
    with pytest.raises(SnapshotFormatError, match="no header for commit " + ghost):
        list(_first_parent_patches(repo, [(hashes["root"], ()), (ghost, ())]))
    # git prints nothing for the unknown commit, so the next header is early
    with pytest.raises(SnapshotFormatError, match="where " + ghost + " was due"):
        list(_first_parent_patches(repo, [(ghost, ()), (hashes["root"], ())]))
    with pytest.raises(SnapshotFormatError, match="before any commit"):
        list(_first_parent_patches(repo, [(hashes["root"][:12], ())]))


def test_capture_reads_sha256_headers(tmp_path):
    from conftest import run_git

    repo = str(tmp_path / "repo")
    run_git(tmp_path, "init", "-q", "--object-format=sha256", repo)
    ident = ("-c", "user.name=Dev", "-c", "user.email=dev@example.com")
    run_git(repo, *ident, "commit", "-q", "--allow-empty", "-m", "root")
    (tmp_path / "repo" / "f.txt").write_text("x\n")
    run_git(repo, "add", "f.txt")
    run_git(repo, *ident, "commit", "-q", "-m", "add f")
    log = run_git(repo, "log", "--format=%H %P").splitlines()
    listed = [(sha, tuple(parents)) for sha, *parents in map(str.split, log)]
    assert all(len(sha) == 64 for sha, _ in listed)
    patches = list(_first_parent_patches(repo, listed))
    assert patches[0].startswith("diff --git a/f.txt b/f.txt\nnew file mode")
    assert patches[1] == ""
    # 64-hex commit and parent ids pass the snapshot's invariants
    fix = IssueRecord(
        id=1, state="closed", created_at=datetime(2000, 1, 1, tzinfo=UTC),
        closed_at=datetime(2000, 1, 2, tzinfo=UTC), labels=frozenset({"bug"}),
        fixing_commits=(listed[0][0],),
    )
    snap = snapshot_from_local_repo(repo, [fix])
    assert [(c.hash, c.parents) for c in snap.commits] == listed
    assert [h for h, _ in snap.issues[0].fixing_commits] == [listed[0][0]]
    assert [d.new_path for d in snap.commits[0].file_diffs] == ["f.txt"]
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap
