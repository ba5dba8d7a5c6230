"""GitHub REST v3 client that reads a project's issues and the commits that
closed them.

Network use is confined to this module, and it reads no commit: the history
of a snapshot always comes from a local clone
(:func:`fixpair.ingest.snapshot_from_local_repo`).  ``fetch_issues`` honors
the per-hour request quota by sleeping until the advertised reset time
(bounded).  Any other HTTP error status, a URL that cannot be requested, a
failed connection (refused, unresolved, timed out), a body that is not JSON,
JSON of the wrong shape, a value of the wrong type (an issue number, a label
name, a closing commit id) or a bad timestamp raises a ``FixpairError``
naming the URL: a data error, exit 3 on the command line.
"""

import http.client
import json
import os
import time
from dataclasses import replace
from urllib.error import HTTPError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from .errors import AuthenticationError, FixpairError, RateLimitExhausted
from .ingest import IssueRecord, parse_utc

TOKEN_ENV_VAR = "FIXPAIR_GITHUB_TOKEN"
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


def fetch_issues(repo_id, credentials=None, *, api_base, sleeper=time.sleep) -> list:
    """The issues of ``repo_id``, pull requests left out, each closed one
    with the bare hashes of the commits that closed it.

    ``credentials`` falls back to the FIXPAIR_GITHUB_TOKEN environment
    variable.  The list is what :func:`fixpair.ingest.snapshot_from_local_repo`
    takes from an issues file.
    """
    token = credentials or os.environ.get(TOKEN_ENV_VAR)
    client = _Client(api_base, token, sleeper=sleeper)
    issues = []
    listed = client.paginate(f"/repos/{repo_id}/issues", _issue_record, {"state": "all"})
    for issue in filter(None, listed):
        if issue.state == "closed":
            events = f"/repos/{repo_id}/issues/{issue.id}/events"
            closing = client.paginate(events, _closing_commit)
            issue = replace(issue, fixing_commits=tuple(filter(None, closing)))
        issues.append(issue)
    return issues
