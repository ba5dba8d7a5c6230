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
first parent: its ``---``/``+++`` header pair, then its hunks.  A hunk header
has explicit counts (``@@ -a,b +c,d @@``) and no section text; the body lines
are kept as written.  The marker ``\\ No newline at end of file`` follows the
last line of a side that has no final newline, and an empty body line is an
empty context line (``" "``).

Every snapshot's history is captured from a local clone
(:func:`snapshot_from_local_repo`); its issues come from an issues file
(:func:`load_issue_specs`) or from GitHub (:mod:`fixpair.github`).  The
capture runs two git processes whatever the length of the history: one
``git log`` for the commits and one ``git diff-tree --stdin`` that diffs
every commit against its first parent, reading the commit list from a
temporary file.  ``diff-tree`` is plumbing, so the patches do not depend on
the user's porcelain ``diff.*`` settings.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import tempfile
from contextlib import closing
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property

from .atomic import atomic_open
from .diffs import parse_unified_diff, render_unified
from .errors import DiffParseError, SnapshotFormatError, SnapshotInvariantError
from .gitio import git

SNAPSHOT_VERSION = 1
_HASH_RE = re.compile(r"^(?:[0-9a-f]{40}|[0-9a-f]{64})$")


def parse_utc(value):
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError) as exc:
        raise SnapshotFormatError(f"bad timestamp {value!r}: {exc}") from None
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


class _Commits:
    """Lookup of a ``commits`` tuple listed head first."""

    def commit(self, hash_):
        return self._by_hash.get(hash_)

    @cached_property
    def _by_hash(self):
        return {c.hash: c for c in self.commits}

    @property
    def head(self):
        """Default-branch head: the first commit in the stored list."""
        return self.commits[0] if self.commits else None


@dataclass(frozen=True)
class CommitNode:
    """A commit's place in history, without its message and patches."""

    hash: str
    parents: tuple
    timestamp: datetime


@dataclass(frozen=True)
class CommitGraph(_Commits):
    """The commits of a snapshot file as :class:`CommitNode` records, head
    first (:func:`read_commit_graph`)."""

    commits: tuple


@dataclass(frozen=True)
class ProjectSnapshot(_Commits):
    repo_id: str
    captured_at: datetime
    issues: tuple
    commits: tuple
    bug_labels: frozenset

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
                if h not in self._by_hash:
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


def is_bug(issue, bug_labels) -> bool:
    """Whether ``issue`` carries one of ``bug_labels``, case ignored."""
    return not {l.lower() for l in issue.labels}.isdisjoint(
        l.lower() for l in bug_labels
    )


def filter_bug_issues(issues, bug_labels) -> list:
    """Issues carrying a configured bug label; closed ones need a fixing commit.

    Open issues are kept as created-only records.  Idempotent; shrinking
    ``bug_labels`` never grows the result.
    """
    return [
        issue for issue in issues
        if is_bug(issue, bug_labels)
        and (issue.state != "closed" or issue.fixing_commits)
    ]


def read_input(path, parse=json.loads, error=SnapshotFormatError):
    """``parse`` of the text of a file the user supplied.

    A file that cannot be read, is not UTF-8 or whose text ``parse`` rejects
    with a ``ValueError`` or ``csv.Error`` is an ``error`` naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            return parse(fh.read().decode("utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 (byte {exc.start})") from None
    except (ValueError, csv.Error) as exc:
        raise error(f"{path}: {exc}") from None


def csv_records(text):
    """The header of a CSV text and its records, each with the line it ends on."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    return reader.fieldnames, [(reader.line_num, rec) for rec in reader]


def finite(s):
    """The number a CSV cell holds; ``nan`` or an infinity is a ``ValueError``."""
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def read_csv(path, convert):
    """``convert`` of each record of a CSV file whose first row names the
    columns, read through :func:`read_input`: a missing column, or a
    ``TypeError`` or ``ValueError`` from ``convert``, is a
    ``SnapshotFormatError`` naming the file and the record's line."""

    def parse(text):
        converted = []
        for line_num, rec in csv_records(text)[1]:
            try:
                converted.append(convert(rec))
            except KeyError as exc:
                raise ValueError(f"line {line_num}: no column {exc}") from None
            except (TypeError, ValueError) as exc:  # a short row reads as None
                raise ValueError(f"line {line_num}: {exc}") from None
        return converted

    return read_input(path, parse)


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


def _object(doc, path, where, field=None):
    if not isinstance(doc, dict):
        raise SnapshotFormatError(f"{where} is not an object", path=path, field=field)
    return doc


def _timestamp(doc, key, path, where):
    """The UTC datetime of the string ``doc[key]``; a bad one names both."""
    value = _require(doc, key, str, path, where)
    try:
        return parse_utc(value)
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"{where}: {exc}", path=path, field=key) from None


def _issue_from_json(doc, path, where, spec=False):
    """The IssueRecord of the issue object ``doc``.  An issues file (``spec``)
    may leave out the labels and the fixing commits, given as bare hashes; a
    snapshot dates these and names the issue by its id."""
    _object(doc, path, where, "issues")
    closed = doc.get("closed_at") is not None
    if spec:
        fixing = _strings(doc, "fixing_commits", path, where, optional=True)
    else:
        where = f"issue #{doc.get('id', '?')}"
        fixing = []
        for n, fc in enumerate(_require(doc, "fixing_commits", list, path, where)):
            entry = f"{where}.fixing_commits[{n}]"
            _object(fc, path, entry, "fixing_commits")
            fixing.append((
                _require(fc, "hash", str, path, entry),
                _timestamp(fc, "date", path, entry),
            ))
    return IssueRecord(
        id=_require(doc, "id", int, path, where),
        state=_require(doc, "state", str, path, where),
        created_at=_timestamp(doc, "created_at", path, where),
        closed_at=_timestamp(doc, "closed_at", path, where) if closed else None,
        labels=frozenset(_strings(doc, "labels", path, where, optional=spec)),
        fixing_commits=tuple(fixing),
    )


def _node_from_json(doc, path, where):
    """The CommitNode of the commit object ``doc``; its patches are not read."""
    _object(doc, path, where, "commits")
    hash_ = _require(doc, "hash", str, path, where)
    where = f"commit {hash_[:12]}"
    return CommitNode(
        hash=hash_,
        parents=tuple(_strings(doc, "parents", path, where)),
        timestamp=_timestamp(doc, "timestamp", path, where),
    )


def _commit_from_json(doc, path, where):
    node = _node_from_json(doc, path, where)
    where = f"commit {node.hash[:12]}"
    file_diffs = []
    for n, fd in enumerate(_require(doc, "file_diffs", list, path, where)):
        entry = f"{where}.file_diffs[{n}]"
        _object(fd, path, entry, "file_diffs")
        patch = _require(fd, "patch", str, path, where)
        try:
            parsed = parse_unified_diff(patch)
        except DiffParseError as exc:
            raise SnapshotFormatError(
                f"{entry}: {exc}", path=path, field="file_diffs"
            ) from None
        if len(parsed) != 1:
            raise SnapshotFormatError(
                f"{where}: each file_diffs entry must hold exactly one file's "
                f"patch, found {len(parsed)}",
                path=path,
                field="file_diffs",
            )
        file_diffs.append(parsed[0])
    return CommitRecord(
        hash=node.hash,
        parents=node.parents,
        author_id=_require(doc, "author_id", str, path, where),
        timestamp=node.timestamp,
        message=_require(doc, "message", str, path, where),
        file_diffs=tuple(file_diffs),
    )


def _snapshot_doc(path):
    """The top-level object of a snapshot file of the supported version."""
    doc = read_input(path)
    version = _require(_object(doc, path, "snapshot"), "version", int, path, "snapshot")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version}", path=path, field="version"
        )
    return doc


def read_commit_graph(path) -> CommitGraph:
    """The commit graph of a snapshot file: every commit's hash, parents and
    timestamp.  No patch is parsed and no invariant checked, so the graph is
    only as sound as a file :func:`load_snapshot` has accepted."""
    path = str(path)
    commits = _require(_snapshot_doc(path), "commits", list, path, "snapshot")
    return CommitGraph(
        commits=tuple(
            _node_from_json(c, path, f"commits[{n}]") for n, c in enumerate(commits)
        )
    )


def load_snapshot(path) -> ProjectSnapshot:
    """Load and fully validate a snapshot file."""
    path = str(path)
    doc = _snapshot_doc(path)
    snapshot = ProjectSnapshot(
        repo_id=_require(doc, "repo", str, path, "snapshot"),
        captured_at=_timestamp(doc, "captured_at", path, "snapshot"),
        issues=tuple(
            _issue_from_json(i, path, f"issues[{n}]")
            for n, i in enumerate(_require(doc, "issues", list, path, "snapshot"))
        ),
        commits=tuple(
            _commit_from_json(c, path, f"commits[{n}]")
            for n, c in enumerate(_require(doc, "commits", list, path, "snapshot"))
        ),
        bug_labels=frozenset(_strings(doc, "bug_labels", path, "snapshot")),
    )
    return snapshot.validate()


# ---------------------------------------------------------------------------
# snapshot from a local clone
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(rb"(?:[0-9a-f]{40}|[0-9a-f]{64})\n")  # a bare commit id


def _first_parent_patches(repo, commits):
    """Yield the patch text of each ``(sha, parents)`` in ``commits``, in order.

    One ``git diff-tree --stdin`` process diffs every commit against its first
    parent (a root against the empty tree).  ``--always`` prints a header for
    every commit, even one with an empty diff, so the headers must come back
    in input order.  Git reads the commit list from a temporary file and its
    stdout is read as a stream, so no pipe can block and the whole output is
    never held at once.
    """
    args = ["diff-tree", "--stdin", "--root", "--always", "-p", "--no-color",
            "--no-renames"]
    with tempfile.TemporaryFile() as listed, tempfile.TemporaryFile() as err:
        for sha, parents in commits:
            line = f"{sha} {parents[0]}\n" if parents else f"{sha}\n"
            listed.write(line.encode("ascii"))
        listed.seek(0)
        proc = subprocess.Popen(
            ["git", "-C", str(repo), *args],
            stdin=listed,
            stdout=subprocess.PIPE,
            stderr=err,
        )
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


def snapshot_from_local_repo(
    repo_path,
    issues,
    bug_labels=frozenset({"bug"}),
    repo_id=None,
) -> ProjectSnapshot:
    """The validated snapshot of a local clone's history and ``issues``, read
    from an issues file or from GitHub.

    Each issue's fixing commits are hashes; one takes the date of the
    captured commit with that hash, and one that was not captured is dropped.
    Only bug issues are kept (:func:`filter_bug_issues`), sorted by id.  The
    snapshot is stamped with its newest commit's time, so two captures of the
    same state are equal.
    """
    # NUL ends every field and every commit: git refuses it in a message
    fields = git(
        repo_path, "log", "-z", "--date-order",
        "--format=%H%x00%P%x00%an%x00%cI%x00%B",
    ).stdout.decode("utf-8", "replace").split("\x00")
    logged = [
        (sha, tuple(parents.split()), author, date, message)
        for sha, parents, author, date, message in zip(*[iter(fields)] * 5)
    ]
    with closing(_first_parent_patches(repo_path, [c[:2] for c in logged])) as patches:
        commits = tuple(
            CommitRecord(
                hash=sha,
                parents=parents,
                author_id=author,
                timestamp=parse_utc(date),
                message=message.rstrip("\n"),
                file_diffs=tuple(parse_unified_diff(patch_text)),
            )
            for (sha, parents, author, date, message), patch_text in zip(logged, patches)
        )
    dates = {c.hash: c.timestamp for c in commits}
    resolved = []
    for issue in issues:
        fixing = [(h, dates[h]) for h in issue.fixing_commits if h in dates]
        fixing.sort(key=lambda p: (p[1], p[0]))
        resolved.append(replace(issue, fixing_commits=tuple(fixing)))
    return ProjectSnapshot(
        repo_id=repo_id or os.path.basename(os.path.abspath(repo_path)),
        captured_at=max(
            dates.values(), default=datetime(1970, 1, 1, tzinfo=timezone.utc)
        ),
        issues=tuple(
            sorted(filter_bug_issues(resolved, bug_labels), key=lambda i: i.id)
        ),
        commits=commits,
        bug_labels=frozenset(bug_labels),
    ).validate()


def _strings(doc, key, path, where, optional=False):
    """A list of strings; an optional key that is absent is empty."""
    if optional and key not in doc:
        return []
    values = _require(doc, key, list, path, where)
    if not all(isinstance(v, str) for v in values):
        raise SnapshotFormatError(
            f"{where}.{key} must hold only strings", path=path, field=key
        )
    return values


def load_issue_specs(path) -> list:
    """Read an issues JSON file, the offline source of a snapshot's issues."""
    docs = read_input(path)
    if not isinstance(docs, list):
        raise SnapshotFormatError("issues file must hold a list of issues", path=path)
    return [
        _issue_from_json(doc, path, f"issues[{n}]", spec=True)
        for n, doc in enumerate(docs)
    ]
