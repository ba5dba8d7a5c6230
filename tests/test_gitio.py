import io
import os
import subprocess
import tarfile

import pytest

from fixpair.analyzer import analyze_source
from fixpair.errors import CheckoutError, FixpairError
from fixpair.gitio import GitRepo


def archive_tree(repo, commit):
    """Independent oracle: git archive | tar extraction."""
    out = subprocess.run(
        ["git", "-C", repo, "archive", commit],
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    tree = {}
    with tarfile.open(fileobj=io.BytesIO(out)) as tf:
        for member in tf.getmembers():
            if member.isfile():
                tree[member.name] = tf.extractfile(member).read()
    return tree


def test_checkout_matches_archive_oracle(fixture_repo):
    with GitRepo(fixture_repo["repo"]) as repo:
        for name, commit in fixture_repo["hashes"].items():
            assert repo.checkout_tree(commit) == archive_tree(
                fixture_repo["repo"], commit
            ), name


def test_repeated_checkouts_identical(fixture_repo):
    with GitRepo(fixture_repo["repo"]) as repo:
        head = fixture_repo["hashes"]["C12"]
        first = repo.checkout_tree(head)
        for _ in range(10):
            assert repo.checkout_tree(head) == first


def test_unknown_hash_error(fixture_repo):
    with GitRepo(fixture_repo["repo"]) as repo:
        with pytest.raises(CheckoutError) as err:
            repo.checkout_tree("0" * 40)
    assert err.value.kind == "unknown"


def test_unreachable_commit_error(fixture_repo, tmp_path):
    # clone so the orphan does not pollute the shared fixture repo
    clone = tmp_path / "clone"
    subprocess.run(
        ["git", "clone", "-q", fixture_repo["repo"], str(clone)], check=True
    )
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME="x", GIT_AUTHOR_EMAIL="x@x", GIT_COMMITTER_NAME="x",
        GIT_COMMITTER_EMAIL="x@x",
        GIT_AUTHOR_DATE="2024-02-01T00:00:00 +0000",
        GIT_COMMITTER_DATE="2024-02-01T00:00:00 +0000",
    )
    subprocess.run(["git", "-C", clone, "checkout", "-q", "-b", "orphan"], check=True)
    (clone / "stray.txt").write_text("x\n")
    subprocess.run(["git", "-C", clone, "add", "stray.txt"], check=True, env=env)
    subprocess.run(
        ["git", "-C", clone, "commit", "-q", "-m", "stray"], check=True, env=env
    )
    orphan = subprocess.run(
        ["git", "-C", clone, "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode().strip()
    subprocess.run(["git", "-C", clone, "checkout", "-q", "master"], check=True)
    subprocess.run(["git", "-C", clone, "branch", "-q", "-D", "orphan"], check=True)
    with GitRepo(clone) as repo:
        with pytest.raises(CheckoutError) as err:
            repo.checkout_tree(orphan)
    assert err.value.kind == "unreachable"


def test_java_sources_decoded_and_sorted(fixture_repo):
    # the analyze stage's view of a commit: its .java blobs, decoded
    commit = fixture_repo["hashes"]["C1"]
    with GitRepo(fixture_repo["repo"]) as repo:
        sources = [
            (path, repo.read_object(sha).decode("utf-8", "replace"))
            for path, sha in sorted(repo.tree_blobs(commit).items())
            if path.endswith(".java")
        ]
    assert dict(sources) == {
        path: data.decode("utf-8", "replace")
        for path, data in archive_tree(fixture_repo["repo"], commit).items()
        if path.endswith(".java")
    }
    paths = [p for p, _ in sources]
    assert paths == sorted(paths)
    assert all(p.endswith(".java") for p in paths)
    assert any("Calc.java" in p for p in paths)
    assert all(isinstance(t, str) and "class" in t for _, t in sources)
    for path, text in sources:
        analysis = analyze_source(path, text)
        assert analysis.error is None, path
        assert any(kind == "class" for kind, _ in analysis.vectors), path


def test_not_a_repo(tmp_path):
    with pytest.raises(FixpairError):
        GitRepo(tmp_path)


def test_tree_blobs_match_ls_tree(fixture_repo):
    with GitRepo(fixture_repo["repo"]) as repo:
        for name, commit in fixture_repo["hashes"].items():
            listing = subprocess.run(
                ["git", "-C", fixture_repo["repo"], "ls-tree", "-r", commit],
                stdout=subprocess.PIPE, check=True,
            ).stdout.decode()
            want = {}
            for line in listing.splitlines():
                meta, path = line.split("\t", 1)
                _, otype, sha = meta.split()
                if otype == "blob":
                    want[path] = sha
            assert repo.tree_blobs(commit) == want, name


def test_at_most_three_git_processes_for_all_commits(fixture_repo, started_processes):
    with GitRepo(fixture_repo["repo"]) as repo:
        for commit in fixture_repo["hashes"].values():
            repo.checkout_tree(commit)
            for path, sha in repo.tree_blobs(commit).items():
                if path.endswith(".java"):
                    repo.read_object(sha)
        with pytest.raises(CheckoutError):
            repo.checkout_tree("0" * 40)
    git = [p for p in started_processes if p.args[0] == "git"]
    assert 1 <= len(git) <= 3


def test_close_leaves_no_live_git_process(fixture_repo, started_processes):
    repo = GitRepo(fixture_repo["repo"])
    repo.checkout_tree(fixture_repo["hashes"]["C1"])
    assert any(p.poll() is None for p in started_processes)  # the batch reader
    repo.close()
    assert all(p.poll() is not None for p in started_processes)
    repo.close()  # closing twice is harmless
