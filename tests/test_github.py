"""``fetch --repo`` reads the issues from a local fake of the GitHub REST API
(no network involved) and the history from a local clone."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from fixpair.cli import main
from fixpair.github import fetch_issues
from fixpair.ingest import load_issue_specs, load_snapshot

ISSUES = "/repos/demo/proj/issues"


class _Handler(BaseHTTPRequestHandler):
    server_version = "FakeHub/1"
    behavior = {"mode": "ok", "rate_hits": 0, "requests": 0}
    routes = {}

    def log_message(self, *args):
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        mode = self.behavior["mode"]
        self.behavior["requests"] += 1
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
        body = self.routes.get(parsed.path)
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


def github_routes(specs):
    """The answers GitHub gives for the issues of an issues file: the issues
    list, with a pull request interleaved, and each closed issue's events,
    one "closed" event per fixing commit among events of other kinds."""
    listed = [
        {
            "number": spec["id"],
            "state": spec["state"],
            "labels": [{"name": label} for label in spec.get("labels", [])],
            "created_at": spec["created_at"],
            **({"closed_at": spec["closed_at"]} if "closed_at" in spec else {}),
        }
        for spec in specs
    ]
    listed.insert(1, {
        "number": 99, "state": "closed", "labels": [{"name": "bug"}],
        "created_at": "2024-01-01T15:00:00Z", "closed_at": "2024-01-02T15:00:00Z",
        "pull_request": {"url": "ignored"},
    })
    routes = {ISSUES: listed}
    for spec in specs:
        if spec["state"] == "closed":
            routes[f"{ISSUES}/{spec['id']}/events"] = [
                {"event": "labeled"},
                *({"event": "closed", "commit_id": h} for h in spec["fixing_commits"]),
                {"event": "reopened"},
            ]
    return routes


@pytest.fixture
def fake_api(fixture_repo):
    """``(base URL, behavior, routes)`` of a fake API that serves the fixture's
    issues; a test may change the behavior and the routes."""
    with open(fixture_repo["issues"], encoding="utf-8") as fh:
        routes = github_routes(json.load(fh))
    _Handler.behavior = {"mode": "ok", "rate_hits": 0, "requests": 0}
    _Handler.routes = routes
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _Handler.behavior, routes
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    """The pauses the client asks for, none of which is slept."""
    asked = []
    monkeypatch.setitem(fetch_issues.__kwdefaults__, "sleeper", asked.append)
    return asked


def _fetch_repo(base, repo, out, *extra):
    return main(["fetch", "--repo", "demo/proj", "--from-local", repo,
                 "--api-base", base, "--token", "tok", "--out", str(out), *extra])


def test_fetch_repo_gives_the_bytes_of_fetch_with_an_issues_file(
    fake_api, fixture_repo, tmp_path, capsys
):
    base, _, _ = fake_api
    remote, local = tmp_path / "remote.json", tmp_path / "local.json"
    assert _fetch_repo(base, fixture_repo["repo"], remote) == 0
    printed = capsys.readouterr().out
    assert main(["fetch", "--from-local", fixture_repo["repo"],
                 "--issues", fixture_repo["issues"], "--repo-id", "demo/proj",
                 "--out", str(local)]) == 0
    assert remote.read_bytes() == local.read_bytes()
    assert printed.replace(str(remote), str(local)) == capsys.readouterr().out
    snap = load_snapshot(remote)
    assert snap.repo_id == "demo/proj"
    assert [i.id for i in snap.issues] == [1, 2, 3, 4]  # 5 is no bug, 99 a PR
    assert snap.captured_at == max(c.timestamp for c in snap.commits)


def test_fetch_builds_validated_snapshot(fake_api, fixture_repo, tmp_path):
    base, _, _ = fake_api
    # the issues GitHub gives are those of the issues file, the PR left out
    assert fetch_issues("demo/proj", "tok", api_base=base) == load_issue_specs(
        fixture_repo["issues"]
    )
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, fixture_repo["repo"], out) == 0
    snap = load_snapshot(out)
    fix = fixture_repo["hashes"]["C10"]
    assert snap.issues[0].id == 1
    assert snap.issues[0].fixing_commits == ((fix, snap.commit(fix).timestamp),)
    assert snap.issues[-1].id == 4 and snap.issues[-1].fixing_commits == ()


def test_fetch_drops_closing_commits_that_were_not_captured(
    fake_api, fixture_repo, tmp_path
):
    base, _, routes = fake_api
    hashes = fixture_repo["hashes"]
    ghost = "c" * 40  # closed the issues, but is not in the clone
    routes[ISSUES] = routes[ISSUES] + [
        {
            "number": n,
            "state": "closed",
            "labels": [{"name": "bug"}],
            "created_at": "2024-01-01T16:00:00Z",
            "closed_at": "2024-01-13T16:00:00Z",
        }
        for n in (11, 12)
    ]
    routes[f"{ISSUES}/11/events"] = [{"event": "closed", "commit_id": ghost}]
    routes[f"{ISSUES}/12/events"] = [
        {"event": "closed", "commit_id": c} for c in (hashes["C10"], ghost, hashes["C4"])
    ]
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, fixture_repo["repo"], out) == 0
    snap = load_snapshot(out)
    assert [i.id for i in snap.issues] == [1, 2, 3, 4, 12]  # 11 was fixed by no commit
    assert snap.issues[-1].fixing_commits == tuple(
        (h, snap.commit(h).timestamp) for h in (hashes["C4"], hashes["C10"])  # by date
    )


def test_fetch_repo_takes_a_rename_as_a_delete_and_an_add(fake_api, tmp_path):
    from conftest import RepoBuilder

    base, _, routes = fake_api
    b = RepoBuilder(str(tmp_path / "clone"))
    b.write("src/A.java", "class A {\n  int f() { return 1; }\n}\n")
    b.commit("add", "add A")
    (tmp_path / "clone" / "src" / "A.java").rename(tmp_path / "clone" / "src" / "B.java")
    b.commit("move", "Fix #1: move A")
    routes[ISSUES] = [{
        "number": 1, "state": "closed", "labels": [{"name": "bug"}],
        "created_at": "2024-01-01T12:00:00Z", "closed_at": "2024-01-02T12:00:00Z",
    }]
    routes[f"{ISSUES}/1/events"] = [{"event": "closed", "commit_id": b.hashes["move"]}]
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, b.path, out) == 0
    snap = load_snapshot(out)
    assert [(d.old_path, d.new_path) for d in snap.commit(b.hashes["move"]).file_diffs] == [
        ("src/A.java", "/dev/null"), ("/dev/null", "src/B.java")
    ]
    assert snap.issues[0].fixing_commits == (
        (b.hashes["move"], snap.commit(b.hashes["move"]).timestamp),
    )


@pytest.mark.parametrize("extra, message", [
    ((), "fetch --repo needs --from-local CLONE"),
    (("--from-local", "REPO", "--issues", "ISSUES"),
     "--repo and --issues exclude each other"),
], ids=["no-clone", "issues-file"])
def test_fetch_repo_needs_a_clone_and_no_issues_file(
    fake_api, fixture_repo, tmp_path, capsys, extra, message
):
    base, behavior, _ = fake_api
    out = tmp_path / "snap.json"
    given = {"REPO": fixture_repo["repo"], "ISSUES": fixture_repo["issues"]}
    rc = main(["fetch", "--repo", "demo/proj", "--api-base", base,
               "--out", str(out), *(given.get(a, a) for a in extra)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert behavior["requests"] == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, message", [
    ((), "fetch needs --from-local CLONE, with --repo owner/name or --issues"),
    (("--from-local", "REPO"), "--from-local needs --issues"),
], ids=["no-source", "no-issues"])
def test_fetch_without_repo_needs_a_clone_and_an_issues_file(
    fixture_repo, tmp_path, capsys, extra, message
):
    out = tmp_path / "snap.json"
    given = {"REPO": fixture_repo["repo"]}
    rc = main(["fetch", "--out", str(out), *(given.get(a, a) for a in extra)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_auth_failure_writes_nothing(fake_api, fixture_repo, tmp_path, capsys):
    base, behavior, _ = fake_api
    behavior["mode"] = "unauthorized"
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, fixture_repo["repo"], out) == 3
    assert f"token rejected for {base}{ISSUES}" in capsys.readouterr().err
    assert not out.exists()


def test_rate_limit_pause_then_success(fake_api, fixture_repo, tmp_path, sleeps):
    base, behavior, _ = fake_api
    behavior["mode"] = "rate-limit-once"
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, fixture_repo["repo"], out) == 0
    assert sleeps == [1.0], "client must pause on the advertised rate limit"
    assert [i.id for i in load_snapshot(out).issues] == [1, 2, 3, 4]


def test_rate_limit_exhaustion(fake_api, fixture_repo, tmp_path, capsys, sleeps):
    base, behavior, _ = fake_api
    behavior["mode"] = "rate-limit-forever"
    out = tmp_path / "snap.json"
    assert _fetch_repo(base, fixture_repo["repo"], out) == 3
    assert "rate limit not lifted after 3 waits" in capsys.readouterr().err
    assert sleeps == [1.0] * 3
    assert not out.exists()
