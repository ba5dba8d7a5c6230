"""GitHub REST v3 client that captures a project snapshot.

Network use is confined to this module.  ``fetch_remote`` honors the
per-hour request quota by sleeping until the advertised reset time
(bounded), and never leaves a partial snapshot file on disk (the write is
atomic).  Any other HTTP error status, a URL that cannot
be requested, a failed connection (refused, unresolved, timed out), a body
that is not JSON, JSON of the wrong shape, a value of the wrong type (an
issue number, a label name, a commit hash or message, a closing commit id), a
bad timestamp or a patch that does not parse raises a ``FixpairError`` naming
the URL: a data error, exit 3 on the command line.
"""

import http.client
import json
import os
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from urllib.error import HTTPError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from .errors import AuthenticationError, FixpairError, RateLimitExhausted
from .ingest import (
    CommitRecord,
    IssueRecord,
    ProjectSnapshot,
    assemble_snapshot,
    parse_utc,
    save_snapshot,
)
from .diffs import header_path, parse_unified_diff

TOKEN_ENV_VAR = "FIXPAIR_GITHUB_TOKEN"
DEFAULT_API_BASE = "https://api.github.com"
_PER_PAGE = 100
_MAX_RATE_LIMIT_WAITS = 3
_TIMEOUT_S = 60.0


class _Client:
    def __init__(self, api_base, token, sleeper=time.sleep):
        self.api_base = api_base.rstrip("/")
        self.sleeper = sleeper
        self.headers = {"Accept": "application/vnd.github.v3+json"}
        if token:
            self.headers["Authorization"] = f"token {token}"

    def _get(self, url):
        """``(status, headers, body)`` of one GET.  An error status is
        returned; a URL that cannot be requested or a failed connection
        raises."""
        try:
            request = Request(url, headers=self.headers)
            with urlopen(request, timeout=_TIMEOUT_S) as resp:
                return resp.status, resp.headers, resp.read()
        except HTTPError as exc:
            with exc:
                return exc.code, exc.headers, b""
        except (ValueError, OSError, http.client.HTTPException) as exc:
            reason = getattr(exc, "reason", exc)
            raise FixpairError(f"GET {url} failed: {reason}") from None

    def get_json(self, path, read, params=None):
        """``read`` of the JSON answer to a GET of ``path``.  An answer that
        ``read`` cannot take apart (a missing key, a list where an object
        belongs, a bad timestamp, ...) is a ``FixpairError`` naming the URL."""
        url = f"{self.api_base}{path}"
        if params:
            url = f"{url}?{urlencode(params)}"
        waits = 0
        while True:
            status, headers, body = self._get(url)
            if status == 401:
                raise AuthenticationError(f"token rejected for {url}")
            if status in (403, 429) and headers.get("X-RateLimit-Remaining") == "0":
                if waits >= _MAX_RATE_LIMIT_WAITS:
                    raise RateLimitExhausted(
                        f"rate limit not lifted after {waits} waits for {url}"
                    )
                reset = headers.get("X-RateLimit-Reset", "0")
                if not reset.isdecimal():
                    raise FixpairError(
                        f"GET {url} answered X-RateLimit-Reset {reset!r}")
                delay = max(1.0, int(reset) - time.time())
                self.sleeper(min(delay, 3600.0))
                waits += 1
                continue
            if not 200 <= status < 300:
                raise FixpairError(f"GET {url} answered HTTP {status}")
            try:
                doc = json.loads(body)
            except ValueError:
                raise FixpairError(
                    f"GET {url} answered a body that is not JSON") from None
            try:
                return read(doc)
            except (KeyError, TypeError, AttributeError, FixpairError) as exc:
                raise FixpairError(
                    f"GET {url} answered JSON of the wrong shape: "
                    f"{type(exc).__name__}: {exc}") from None

    def paginate(self, path, read, params=None):
        """``read`` of each item of the list on every page of ``path``."""

        def read_page(doc):
            if not isinstance(doc, list):
                raise TypeError(f"{type(doc).__name__} where a list belongs")
            return [read(item) for item in doc]

        page = 1
        while True:
            chunk = self.get_json(
                path, read_page, {**(params or {}), "per_page": _PER_PAGE, "page": page}
            )
            if not chunk:
                return
            yield from chunk
            if len(chunk) < _PER_PAGE:
                return
            page += 1


def _typed(value, kind):
    """``value`` if it is a JSON value of type ``kind``, else a ``TypeError``
    (so a ``true`` is not taken for an ``int``)."""
    if type(value) is not kind:
        raise TypeError(
            f"{type(value).__name__} {value!r} where {kind.__name__} belongs")
    return value


def _commit_record(sha, detail):
    """The commit ``sha`` of a commit's detail answer."""
    file_diffs = []
    for f in detail.get("files", []):
        patch = f.get("patch")
        status = f.get("status")
        old_path = f.get("previous_filename") or f["filename"]
        new_path = f["filename"]
        if status == "added":
            old_path = "/dev/null"
        if status == "removed":
            new_path, old_path = "/dev/null", f["filename"]
        if patch:
            text = (f"--- {header_path(old_path, 'a/')}\n"
                    f"+++ {header_path(new_path, 'b/')}\n{patch}\n")
            file_diffs.extend(parse_unified_diff(text))
    author = detail.get("author") or {}
    commit_info = detail["commit"]
    return CommitRecord(
        hash=sha,
        parents=tuple(_typed(p["sha"], str) for p in detail.get("parents", [])),
        author_id=str(author.get("login") or commit_info["author"].get("name", "")),
        timestamp=parse_utc(commit_info["committer"]["date"]),
        message=_typed(commit_info.get("message", ""), str),
        file_diffs=tuple(file_diffs),
    )


def _fetch_commits(client, repo_id):
    path = f"/repos/{repo_id}/commits"
    return [
        client.get_json(f"{path}/{sha}", partial(_commit_record, sha))
        for sha in client.paginate(path, lambda item: _typed(item["sha"], str))
    ]


def _issue_record(item):
    """The issue of an issues-list item, without its fixing commits; None for
    a pull request, which the issues endpoint interleaves."""
    if "pull_request" in item:
        return None
    closed = item["state"] != "open"
    return IssueRecord(
        id=_typed(item["number"], int),
        state="closed" if closed else "open",
        created_at=parse_utc(item["created_at"]),
        closed_at=parse_utc(item["closed_at"]) if closed else None,
        labels=frozenset(_typed(l["name"], str) for l in item.get("labels", [])),
    )


def _closing_commit(event):
    """The commit id of a "closed" issue event, else None."""
    commit = event.get("commit_id") if event.get("event") == "closed" else None
    return commit if commit is None else _typed(commit, str)


def _fetch_issues(client, repo_id):
    """Issues with the bare hashes of the commits that closed them."""
    issues = []
    listed = client.paginate(f"/repos/{repo_id}/issues", _issue_record, {"state": "all"})
    for issue in filter(None, listed):
        if issue.state == "closed":
            events = f"/repos/{repo_id}/issues/{issue.id}/events"
            closing = client.paginate(events, _closing_commit)
            issue = replace(issue, fixing_commits=tuple(filter(None, closing)))
        issues.append(issue)
    return issues


def fetch_remote(
    repo_id,
    credentials=None,
    out=None,
    *,
    bug_labels=frozenset({"bug"}),
    api_base=DEFAULT_API_BASE,
    sleeper=time.sleep,
) -> ProjectSnapshot:
    """Capture ``repo_id`` as a validated snapshot, optionally saved to ``out``.

    ``credentials`` falls back to the FIXPAIR_GITHUB_TOKEN environment
    variable.  Authentication failures and exhausted rate limits raise before
    anything is written.
    """
    token = credentials or os.environ.get(TOKEN_ENV_VAR)
    client = _Client(api_base, token, sleeper=sleeper)
    commits = _fetch_commits(client, repo_id)
    snapshot = assemble_snapshot(
        repo_id,
        datetime.now(timezone.utc),
        commits,
        _fetch_issues(client, repo_id),
        bug_labels,
    )
    if out is not None:
        save_snapshot(snapshot, out)
    return snapshot
