"""A remote fetch that fails is a data error naming the URL: exit 3, no
traceback and no snapshot file.  The API is a local fake; no network."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from fixpair.cli import main


class _Answer(BaseHTTPRequestHandler):
    """Gives every GET the class's ``status`` and ``extra_headers``, and the
    body ``routes`` holds for its path, else ``body``."""

    def log_message(self, *args):
        pass

    def do_GET(self):
        body = self.routes.get(self.path.split("?")[0], self.body)
        self.send_response(self.status)
        for name, value in self.extra_headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def answering():
    """``serve(status, body, headers, routes)`` starts a server that gives
    every GET that one answer, with the body ``routes`` holds for the path
    if there is one, and returns its base URL."""
    servers = []

    def serve(status, body=b"{}", headers=None, routes=None):
        handler = type("Handler", (_Answer,), {
            "status": status, "body": body, "extra_headers": headers or {},
            "routes": routes or {},
        })
        server = HTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}"

    yield serve
    for server in servers:
        server.shutdown()
        server.server_close()


def _fetch(base, out, capsys):
    rc = main(["fetch", "--repo", "demo/proj", "--out", str(out),
               "--token", "tok", "--api-base", base])
    return rc, capsys.readouterr().err


def _assert_data_error(rc, err, url, out):
    assert rc == 3
    assert err.startswith("data error: ")
    assert url in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("status, headers", [
    (404, {}),
    (500, {}),
    (403, {"X-RateLimit-Remaining": "12"}),  # forbidden, not rate-limited
])
def test_error_status_is_a_data_error(answering, tmp_path, capsys, status, headers):
    base = answering(status, b'{"message": "no"}', headers)
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}/repos/demo/proj/commits", out)
    assert f"HTTP {status}" in err


def test_rate_limit_with_a_bad_reset_time_is_a_data_error(answering, tmp_path, capsys):
    base = answering(403, b"{}", {"X-RateLimit-Remaining": "0",
                                  "X-RateLimit-Reset": "soon"})
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}/repos/demo/proj/commits", out)
    assert "'soon'" in err


def test_refused_connection_is_a_data_error(tmp_path, capsys):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    base = f"http://127.0.0.1:{port}"
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}/repos/demo/proj/commits", out)


def test_body_that_is_not_json_is_a_data_error(answering, tmp_path, capsys):
    base = answering(200, b"<html>maintenance</html>")
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}/repos/demo/proj/commits", out)
    assert "JSON" in err


COMMITS = "/repos/demo/proj/commits"
ISSUES = "/repos/demo/proj/issues"
SHA = "a" * 40
DETAIL = f"{COMMITS}/{SHA}"
EVENTS = f"{ISSUES}/8/events"
ONE_COMMIT = json.dumps([{"sha": SHA}]).encode()


def _issues(number=8, label="bug", created_at="2024-01-01T12:00:00Z", **closed):
    state = "closed" if closed else "open"
    return json.dumps([{
        "number": number, "state": state, "labels": [{"name": label}],
        "created_at": created_at, **closed,
    }]).encode()


def _closed_by(commit_id):
    return json.dumps([{"event": "closed", "commit_id": commit_id}]).encode()


def _commit(parent=SHA, message="m", date="2024-01-01T10:00:00Z", files=()):
    return json.dumps({
        "sha": SHA, "parents": [{"sha": parent}], "files": list(files),
        "commit": {"author": {"name": "A"}, "message": message,
                   "committer": {"date": date}},
    }).encode()


@pytest.mark.parametrize("routes, path, detail", [
    ({COMMITS: b'[{"nosha": 1}]'}, COMMITS, "KeyError: 'sha'"),
    ({COMMITS: json.dumps({"sha": SHA}).encode()}, COMMITS,
     "dict where a list belongs"),
    ({COMMITS: b'[{"sha": 7}]'}, COMMITS, "int 7 where str belongs"),
    ({COMMITS: b"[]", ISSUES: _issues(number="8")}, ISSUES,
     "str '8' where int belongs"),
    ({COMMITS: b"[]", ISSUES: _issues(number=True)}, ISSUES,
     "bool True where int belongs"),
    ({COMMITS: b"[]", ISSUES: _issues(label=3)}, ISSUES,
     "int 3 where str belongs"),
    ({COMMITS: ONE_COMMIT, DETAIL: _commit(parent=7)}, DETAIL,
     "int 7 where str belongs"),
    ({COMMITS: ONE_COMMIT, DETAIL: _commit(message=5)}, DETAIL,
     "int 5 where str belongs"),
    ({COMMITS: b"[]", ISSUES: _issues(created_at=5)}, ISSUES, "bad timestamp 5"),
    ({COMMITS: b"[]", ISSUES: _issues(closed_at="yesterday")}, ISSUES,
     "bad timestamp 'yesterday'"),
    ({COMMITS: ONE_COMMIT, DETAIL: _commit(date=7)}, DETAIL, "bad timestamp 7"),
    ({COMMITS: ONE_COMMIT, DETAIL: _commit(files=[{
        "filename": "f.txt", "status": "modified", "patch": "@@ -1,3 +1,1 @@\n-x"}])},
     DETAIL, "unexpected end of diff inside hunk"),
    ({COMMITS: b"[]", ISSUES: _issues(closed_at="2024-01-02T12:00:00Z"),
      EVENTS: _closed_by(["x"])}, EVENTS, "list ['x'] where str belongs"),
    ({COMMITS: b"[]", ISSUES: _issues(closed_at="2024-01-02T12:00:00Z"),
      EVENTS: _closed_by(7)}, EVENTS, "int 7 where str belongs"),
], ids=["no-sha", "object-for-list", "int-sha", "str-number", "bool-number",
        "int-label", "int-parent", "int-message", "int-created-at",
        "word-closed-at", "int-commit-date", "cut-patch", "list-closing-commit",
        "int-closing-commit"])
def test_answer_of_the_wrong_shape_is_a_data_error(
    answering, tmp_path, capsys, routes, path, detail
):
    base = answering(200, b"[]", routes=routes)
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}{path}", out)
    assert detail in err


def test_api_base_without_a_scheme_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "snap.json"
    rc, err = _fetch("api.example", out, capsys)
    _assert_data_error(rc, err, "api.example/repos/demo/proj/commits", out)
