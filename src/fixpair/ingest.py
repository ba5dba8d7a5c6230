"""Project snapshots: a consistent local capture of issues, commits, diffs.

The hosting service changes continuously, so every pipeline run works from a
snapshot file instead of live data.  Format (UTF-8 JSON, version 1):

    {
      "version": 1,
      "repo": "owner/name",
      "captured_at": "2017-09-01T00:00:00Z",
      "bug_labels": ["bug"],
      "issues":  [ {id, state, created_at, closed_at, labels,
                    fixing_commits: [{hash, date}]} ],
      "commits": [ {hash, parents, author_id, timestamp, message,
                    file_diffs: [{patch}]} ]
    }

Commits are listed head-first: the first entry is the head of the default
branch.  Every ``patch`` is one file's unified diff against the commit's
first parent.

A snapshot of a local clone (:func:`snapshot_from_local_repo`) runs two git
processes whatever the length of the history: one ``git log`` for the
commits and one ``git diff-tree --stdin`` that diffs every commit against its
first parent.  ``diff-tree`` is plumbing, so the patches do not depend on
the user's porcelain ``diff.*`` settings.
"""

import json
import os
import re
import subprocess
import tempfile
import threading
from contextlib import closing
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .atomic import atomic_open
from .diffs import parse_unified_diff, render_unified
from .errors import SnapshotFormatError, SnapshotInvariantError

SNAPSHOT_VERSION = 1
_HASH_RE = re.compile(r"^(?:[0-9a-f]{40}|[0-9a-f]{64})$")


def parse_utc(value, *, path=None, field_name=None):
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError) as exc:
        raise SnapshotFormatError(
            f"bad timestamp {value!r}: {exc}", path=path, field=field_name
        ) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_utc(dt):
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass(frozen=True)
class IssueRecord:
    id: int
    state: str  # open | closed
    created_at: datetime
    closed_at: datetime = None
    labels: frozenset = frozenset()
    fixing_commits: tuple = ()  # ((hash, datetime), ...) nondecreasing by date

    def check(self):
        bad = []
        if self.id <= 0:
            bad.append(f"issue id {self.id} not positive")
        if self.state not in ("open", "closed"):
            bad.append(f"issue {self.id}: unknown state {self.state!r}")
        if (self.closed_at is not None) != (self.state == "closed"):
            bad.append(f"issue {self.id}: closed_at must be present iff closed")
        if self.fixing_commits and self.state != "closed":
            bad.append(f"issue {self.id}: open issues cannot have fixing commits")
        dates = [d for _, d in self.fixing_commits]
        if any(a > b for a, b in zip(dates, dates[1:])):
            bad.append(f"issue {self.id}: fixing commit dates not nondecreasing")
        return bad


@dataclass(frozen=True)
class CommitRecord:
    hash: str
    parents: tuple
    author_id: str
    timestamp: datetime
    message: str
    file_diffs: tuple = ()

    def check(self):
        bad = []
        if not _HASH_RE.match(self.hash):
            bad.append(f"commit hash {self.hash!r} is not 40- or 64-hex")
        for p in self.parents:
            if not _HASH_RE.match(p):
                bad.append(f"commit {self.hash}: bad parent hash {p!r}")
        return bad


@dataclass(frozen=True)
class ProjectSnapshot:
    repo_id: str
    captured_at: datetime
    issues: tuple
    commits: tuple
    bug_labels: frozenset

    def commit(self, hash_):
        return self._by_hash().get(hash_)

    def _by_hash(self):
        cache = getattr(self, "_hash_cache", None)
        if cache is None:
            cache = {c.hash: c for c in self.commits}
            object.__setattr__(self, "_hash_cache", cache)
        return cache

    @property
    def head(self):
        """Default-branch head: the first commit in the stored list."""
        return self.commits[0] if self.commits else None

    def validate(self):
        problems = []
        seen = set()
        for c in self.commits:
            problems.extend(c.check())
            if c.hash in seen:
                problems.append(f"duplicate commit hash {c.hash}")
            seen.add(c.hash)
        seen_ids = set()
        for issue in self.issues:
            problems.extend(issue.check())
            if issue.id in seen_ids:
                problems.append(f"duplicate issue id {issue.id}")
            seen_ids.add(issue.id)
            for h, _ in issue.fixing_commits:
                if h not in self._by_hash():
                    problems.append(
                        f"issue {issue.id}: fixing commit {h} not in snapshot"
                    )
            if issue.state == "closed" and not issue.fixing_commits:
                problems.append(
                    f"issue {issue.id}: closed issue without fixing commits "
                    "must not be stored"
                )
        if problems:
            raise SnapshotInvariantError(
                "snapshot invariant violations", offenders=problems
            )
        return self


def filter_bug_issues(issues, bug_labels) -> list:
    """Issues carrying a configured bug label; closed ones need a fixing commit.

    Open issues are kept as created-only records.  Idempotent; shrinking
    ``bug_labels`` never grows the result.
    """
    labels = {l.lower() for l in bug_labels}
    out = []
    for issue in issues:
        if not {l.lower() for l in issue.labels} & labels:
            continue
        if issue.state == "closed" and not issue.fixing_commits:
            continue
        out.append(issue)
    return out


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

def _issue_to_json(issue):
    doc = {
        "id": issue.id,
        "state": issue.state,
        "created_at": format_utc(issue.created_at),
        "labels": sorted(issue.labels),
        "fixing_commits": [
            {"hash": h, "date": format_utc(d)} for h, d in issue.fixing_commits
        ],
    }
    if issue.closed_at is not None:
        doc["closed_at"] = format_utc(issue.closed_at)
    return doc


def _commit_to_json(commit):
    return {
        "hash": commit.hash,
        "parents": list(commit.parents),
        "author_id": commit.author_id,
        "timestamp": format_utc(commit.timestamp),
        "message": commit.message,
        "file_diffs": [{"patch": render_unified(fd)} for fd in commit.file_diffs],
    }


def snapshot_to_json(snapshot) -> dict:
    return {
        "version": SNAPSHOT_VERSION,
        "repo": snapshot.repo_id,
        "captured_at": format_utc(snapshot.captured_at),
        "bug_labels": sorted(snapshot.bug_labels),
        "issues": [_issue_to_json(i) for i in snapshot.issues],
        "commits": [_commit_to_json(c) for c in snapshot.commits],
    }


def save_snapshot(snapshot, path) -> None:
    """Write atomically: a failed write never leaves a partial snapshot."""
    doc = snapshot_to_json(snapshot)
    with atomic_open(path) as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


def _require(doc, key, kind, path, where):
    if key not in doc:
        raise SnapshotFormatError(f"missing key in {where}", path=path, field=key)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SnapshotFormatError(
            f"{where}.{key} has type {type(value).__name__}", path=path, field=key
        )
    return value


def _issue_from_json(doc, path):
    where = f"issue #{doc.get('id', '?')}"
    fixing = []
    for fc in _require(doc, "fixing_commits", list, path, where):
        fixing.append(
            (
                _require(fc, "hash", str, path, where),
                parse_utc(_require(fc, "date", str, path, where), path=path),
            )
        )
    closed_at = doc.get("closed_at")
    return IssueRecord(
        id=_require(doc, "id", int, path, where),
        state=_require(doc, "state", str, path, where),
        created_at=parse_utc(_require(doc, "created_at", str, path, where), path=path),
        closed_at=parse_utc(closed_at, path=path) if closed_at is not None else None,
        labels=frozenset(_require(doc, "labels", list, path, where)),
        fixing_commits=tuple(fixing),
    )


def _commit_from_json(doc, path):
    where = f"commit {doc.get('hash', '?')[:12]}"
    file_diffs = []
    for fd in _require(doc, "file_diffs", list, path, where):
        patch = _require(fd, "patch", str, path, where)
        parsed = parse_unified_diff(patch)
        if len(parsed) != 1:
            raise SnapshotFormatError(
                f"{where}: each file_diffs entry must hold exactly one file's "
                f"patch, found {len(parsed)}",
                path=path,
                field="file_diffs",
            )
        file_diffs.append(parsed[0])
    return CommitRecord(
        hash=_require(doc, "hash", str, path, where),
        parents=tuple(_require(doc, "parents", list, path, where)),
        author_id=_require(doc, "author_id", str, path, where),
        timestamp=parse_utc(_require(doc, "timestamp", str, path, where), path=path),
        message=_require(doc, "message", str, path, where),
        file_diffs=tuple(file_diffs),
    )


def load_snapshot(path) -> ProjectSnapshot:
    """Load and fully validate a snapshot file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SnapshotFormatError("snapshot file not found", path=str(path))
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"not valid JSON: {exc}", path=str(path))
    version = _require(doc, "version", int, str(path), "snapshot")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version}", path=str(path), field="version"
        )
    snapshot = ProjectSnapshot(
        repo_id=_require(doc, "repo", str, str(path), "snapshot"),
        captured_at=parse_utc(
            _require(doc, "captured_at", str, str(path), "snapshot"), path=str(path)
        ),
        issues=tuple(
            _issue_from_json(i, str(path))
            for i in _require(doc, "issues", list, str(path), "snapshot")
        ),
        commits=tuple(
            _commit_from_json(c, str(path))
            for c in _require(doc, "commits", list, str(path), "snapshot")
        ),
        bug_labels=frozenset(
            _require(doc, "bug_labels", list, str(path), "snapshot")
        ),
    )
    return snapshot.validate()


# ---------------------------------------------------------------------------
# snapshot from a local clone (offline ingestion used by fixtures and CI)
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(rb"(?:[0-9a-f]{40}|[0-9a-f]{64})\n")  # a bare commit id


def _git(repo, *args):
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if proc.returncode != 0:
        raise SnapshotFormatError(
            f"git {' '.join(args)} failed: {proc.stderr.decode('utf-8', 'replace')}"
        )
    return proc.stdout.decode("utf-8", "replace")


def _first_parent_patches(repo, commits):
    """Yield the patch text of each ``(sha, parents)`` in ``commits``, in order.

    One ``git diff-tree --stdin`` process diffs every commit against its first
    parent (a root against the empty tree).  ``--always`` prints a header for
    every commit, even one with an empty diff, so the headers must come back
    in input order.  Stdin is written from a thread and stdout is read as a
    stream, so neither pipe can block the other and the whole output is never
    held at once.
    """
    args = ["diff-tree", "--stdin", "--root", "--always", "-p", "--no-color",
            "--no-renames"]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            ["git", "-C", str(repo), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
        )

        def feed():
            try:
                with proc.stdin:
                    for sha, parents in commits:
                        line = f"{sha} {parents[0]}\n" if parents else f"{sha}\n"
                        proc.stdin.write(line.encode("ascii"))
            except BrokenPipeError:
                pass  # git exited early; its status and stderr say why

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            due = (sha for sha, _ in commits)
            sha, lines = None, []
            for line in proc.stdout:
                if _HEADER_RE.fullmatch(line):
                    if sha is not None:
                        yield b"".join(lines).decode("utf-8", "replace")
                    sha, lines = line[:-1].decode("ascii"), []
                    want = next(due, None)
                    if sha != want:
                        raise SnapshotFormatError(
                            f"git diff-tree printed commit {sha} where {want} "
                            "was due"
                        )
                elif sha is None:
                    raise SnapshotFormatError(
                        f"git diff-tree printed {line[:80]!r} before any commit"
                    )
                else:
                    lines.append(line)
            if proc.wait() != 0:
                err.seek(0)
                raise SnapshotFormatError(
                    f"git {' '.join(args)} failed: "
                    f"{err.read().decode('utf-8', 'replace')}"
                )
            missing = next(due, None)
            if missing is not None:
                raise SnapshotFormatError(
                    f"git diff-tree printed no header for commit {missing}"
                )
            if sha is not None:
                yield b"".join(lines).decode("utf-8", "replace")
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            writer.join()


def snapshot_from_local_repo(
    repo_path,
    issues,
    bug_labels=frozenset({"bug"}),
    repo_id=None,
    captured_at=None,
) -> ProjectSnapshot:
    """Build a snapshot from a local clone plus an externally supplied issue list.

    ``issues`` may carry fixing commits as bare hashes; their dates are
    resolved from the repository.  Issues are run through
    :func:`filter_bug_issues` so the result satisfies all snapshot invariants.
    """
    log = _git(
        repo_path, "log", "--date-order", "--format=%H%x01%P%x01%an%x01%cI%x01%B%x02"
    )
    logged = []
    for chunk in log.split("\x02"):
        chunk = chunk.lstrip("\n")
        if not chunk.strip():
            continue
        sha, parents, author, date, message = chunk.split("\x01", 4)
        logged.append((sha, tuple(parents.split()), author, date, message))
    commits = []
    by_hash = {}
    with closing(_first_parent_patches(repo_path, [c[:2] for c in logged])) as patches:
        for (sha, parents, author, date, message), patch_text in zip(logged, patches):
            record = CommitRecord(
                hash=sha,
                parents=parents,
                author_id=author,
                timestamp=parse_utc(date),
                message=message.rstrip("\n"),
                file_diffs=tuple(parse_unified_diff(patch_text)),
            )
            commits.append(record)
            by_hash[sha] = record

    resolved_issues = []
    for issue in issues:
        fixing = []
        for entry in issue.fixing_commits:
            h = entry[0] if isinstance(entry, tuple) else entry
            rec = by_hash.get(h)
            if rec is None:
                continue  # no longer reachable through git: dropped
            fixing.append((h, rec.timestamp))
        fixing.sort(key=lambda p: (p[1], p[0]))
        resolved_issues.append(replace(issue, fixing_commits=tuple(fixing)))
    resolved_issues = filter_bug_issues(resolved_issues, bug_labels)

    if captured_at is None:
        captured_at = max(
            (c.timestamp for c in commits),
            default=datetime(1970, 1, 1, tzinfo=timezone.utc),
        )
    snapshot = ProjectSnapshot(
        repo_id=repo_id or os.path.basename(os.path.abspath(repo_path)),
        captured_at=captured_at,
        issues=tuple(sorted(resolved_issues, key=lambda i: i.id)),
        commits=tuple(commits),
        bug_labels=frozenset(bug_labels),
    )
    return snapshot.validate()


def _strings(doc, key, path, where):
    """An optional list of strings: absent is empty."""
    values = _require(doc, key, list, path, where) if key in doc else []
    if not all(isinstance(v, str) for v in values):
        raise SnapshotFormatError(
            f"{where}.{key} must hold only strings", path=path, field=key
        )
    return values


def load_issue_specs(path) -> list:
    """Read the sidecar issues JSON used by offline ingestion."""
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    if not isinstance(docs, list):
        raise SnapshotFormatError("issues file must hold a list of issues", path=path)
    issues = []
    for n, doc in enumerate(docs):
        where = f"issues[{n}]"
        if not isinstance(doc, dict):
            raise SnapshotFormatError(f"{where} is not an object", path=path)
        closed_at = doc.get("closed_at")
        issues.append(
            IssueRecord(
                id=_require(doc, "id", int, path, where),
                state=_require(doc, "state", str, path, where),
                created_at=parse_utc(
                    _require(doc, "created_at", str, path, where), path=path
                ),
                closed_at=parse_utc(closed_at, path=path) if closed_at else None,
                labels=frozenset(_strings(doc, "labels", path, where)),
                fixing_commits=tuple(_strings(doc, "fixing_commits", path, where)),
            )
        )
    return issues
