"""The hosting-service client is exercised against a local fake of the REST
API; no network involved."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from fixpair.errors import AuthenticationError, RateLimitExhausted
from fixpair.github import fetch_remote

SHA_NEW = "b" * 40
SHA_OLD = "a" * 40

PATCH = "@@ -1,1 +1,1 @@\n-int x = 1;\n+int x = 2;\n"

ROUTES = {
    "/repos/demo/proj/commits": [
        {"sha": SHA_NEW},
        {"sha": SHA_OLD},
    ],
    f"/repos/demo/proj/commits/{SHA_NEW}": {
        "sha": SHA_NEW,
        "parents": [{"sha": SHA_OLD}],
        "author": {"login": "alice"},
        "commit": {
            "author": {"name": "Alice"},
            "committer": {"date": "2024-01-02T10:00:00Z"},
            "message": "Fix overflow, closes #7",
        },
        "files": [
            {"filename": "src/A.java", "status": "modified", "patch": PATCH}
        ],
    },
    f"/repos/demo/proj/commits/{SHA_OLD}": {
        "sha": SHA_OLD,
        "parents": [],
        "author": {"login": "alice"},
        "commit": {
            "author": {"name": "Alice"},
            "committer": {"date": "2024-01-01T10:00:00Z"},
            "message": "Initial",
        },
        "files": [
            {
                "filename": "src/A.java",
                "status": "added",
                "patch": "@@ -0,0 +1,1 @@\n+int x = 1;\n",
            }
        ],
    },
    "/repos/demo/proj/issues": [
        {
            "number": 7,
            "state": "closed",
            "labels": [{"name": "bug"}],
            "created_at": "2024-01-01T12:00:00Z",
            "closed_at": "2024-01-02T12:00:00Z",
        },
        {
            "number": 8,
            "state": "open",
            "labels": [{"name": "bug"}],
            "created_at": "2024-01-01T13:00:00Z",
        },
        {
            "number": 9,
            "state": "closed",
            "labels": [{"name": "enhancement"}],
            "created_at": "2024-01-01T14:00:00Z",
            "closed_at": "2024-01-03T12:00:00Z",
        },
        {
            "number": 10,
            "state": "closed",
            "labels": [{"name": "bug"}],
            "created_at": "2024-01-01T15:00:00Z",
            "closed_at": "2024-01-02T15:00:00Z",
            "pull_request": {"url": "ignored"},
        },
    ],
    "/repos/demo/proj/issues/7/events": [
        {"event": "labeled"},
        {"event": "closed", "commit_id": SHA_NEW},
    ],
    "/repos/demo/proj/issues/9/events": [
        {"event": "closed", "commit_id": SHA_NEW},
    ],
}


class _Handler(BaseHTTPRequestHandler):
    server_version = "FakeHub/1"
    behavior = {"mode": "ok", "rate_hits": 0}

    def log_message(self, *args):
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        mode = self.behavior["mode"]
        if mode == "unauthorized":
            self.send_response(401)
            self.end_headers()
            self.wfile.write(b"{}")
            return
        if mode == "rate-limit-once" and self.behavior["rate_hits"] == 0:
            self.behavior["rate_hits"] += 1
            self.send_response(403)
            self.send_header("X-RateLimit-Remaining", "0")
            self.send_header("X-RateLimit-Reset", "0")
            self.end_headers()
            self.wfile.write(b"{}")
            return
        if mode == "rate-limit-forever":
            self.send_response(403)
            self.send_header("X-RateLimit-Remaining", "0")
            self.send_header("X-RateLimit-Reset", "0")
            self.end_headers()
            self.wfile.write(b"{}")
            return
        body = ROUTES.get(parsed.path)
        if body is None:
            body = [] if parsed.path.endswith("/events") else {}
        if isinstance(body, list):
            page = int(query.get("page", ["1"])[0])
            body = body if page == 1 else []
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def fake_api():
    _Handler.behavior = {"mode": "ok", "rate_hits": 0}
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _Handler.behavior
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_fetch_builds_validated_snapshot(fake_api, tmp_path):
    base, _ = fake_api
    out = tmp_path / "snap.json"
    snap = fetch_remote("demo/proj", "tok", out, api_base=base)
    assert out.exists()
    assert [i.id for i in snap.issues] == [7, 8]  # 9 filtered by label, 10 is a PR
    issue7 = snap.issues[0]
    assert issue7.fixing_commits == ((SHA_NEW, snap.commit(SHA_NEW).timestamp),)
    assert snap.commit(SHA_NEW).file_diffs[0].new_path == "src/A.java"
    assert snap.commit(SHA_OLD).file_diffs[0].is_add
    # output passes load validation by construction
    from fixpair.ingest import load_snapshot

    assert load_snapshot(out) == snap


def test_fetch_keeps_a_top_level_a_directory(fake_api, tmp_path, monkeypatch):
    base, _ = fake_api
    detail = dict(ROUTES[f"/repos/demo/proj/commits/{SHA_NEW}"])
    detail["files"] = [{"filename": "a/B.java", "status": "modified", "patch": PATCH}]
    monkeypatch.setitem(ROUTES, f"/repos/demo/proj/commits/{SHA_NEW}", detail)
    out = tmp_path / "snap.json"
    snap = fetch_remote("demo/proj", "tok", out, api_base=base)
    assert [(d.old_path, d.new_path) for d in snap.commit(SHA_NEW).file_diffs] == [
        ("a/B.java", "a/B.java")
    ]
    from fixpair.ingest import load_snapshot

    assert load_snapshot(out) == snap


def test_fetch_drops_closing_commits_that_were_not_captured(
    fake_api, tmp_path, monkeypatch
):
    base, _ = fake_api
    ghost = "c" * 40  # closed the issues, but is not in the commit list
    issues = ROUTES["/repos/demo/proj/issues"] + [
        {
            "number": n,
            "state": "closed",
            "labels": [{"name": "bug"}],
            "created_at": "2024-01-01T16:00:00Z",
            "closed_at": "2024-01-03T16:00:00Z",
        }
        for n in (11, 12)
    ]
    monkeypatch.setitem(ROUTES, "/repos/demo/proj/issues", issues)
    monkeypatch.setitem(
        ROUTES, "/repos/demo/proj/issues/11/events",
        [{"event": "closed", "commit_id": ghost}],
    )
    monkeypatch.setitem(
        ROUTES, "/repos/demo/proj/issues/12/events",
        [{"event": "closed", "commit_id": c} for c in (SHA_NEW, ghost, SHA_OLD)],
    )
    snap = fetch_remote("demo/proj", "tok", tmp_path / "s.json", api_base=base)
    assert [i.id for i in snap.issues] == [7, 8, 12]  # 11 was fixed by no commit
    assert snap.issues[2].fixing_commits == tuple(
        (h, snap.commit(h).timestamp) for h in (SHA_OLD, SHA_NEW)  # by date
    )


def test_auth_failure_writes_nothing(fake_api, tmp_path):
    base, behavior = fake_api
    behavior["mode"] = "unauthorized"
    out = tmp_path / "snap.json"
    with pytest.raises(AuthenticationError):
        fetch_remote("demo/proj", "bad", out, api_base=base)
    assert not out.exists()


def test_rate_limit_pause_then_success(fake_api, tmp_path):
    base, behavior = fake_api
    behavior["mode"] = "rate-limit-once"
    sleeps = []
    snap = fetch_remote(
        "demo/proj", "tok", tmp_path / "s.json", api_base=base,
        sleeper=sleeps.append,
    )
    assert sleeps, "client must pause on the advertised rate limit"
    assert snap.commits


def test_rate_limit_exhaustion(fake_api, tmp_path):
    base, behavior = fake_api
    behavior["mode"] = "rate-limit-forever"
    out = tmp_path / "s.json"
    with pytest.raises(RateLimitExhausted):
        fetch_remote("demo/proj", "tok", out, api_base=base, sleeper=lambda s: None)
    assert not out.exists()
