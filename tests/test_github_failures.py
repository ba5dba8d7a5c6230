"""A fetch whose issues cannot be read from GitHub is a data error naming the
URL: exit 3, no traceback and no snapshot file.  The API is a local fake; no
network."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from fixpair.cli import main

from conftest import RepoBuilder


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
        # a short poll: shutdown() waits for serve_forever's next poll
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}"

    yield serve
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="module")
def clone(tmp_path_factory):
    """A one-commit clone whose history ``fetch --repo`` captures."""
    b = RepoBuilder(str(tmp_path_factory.mktemp("clone") / "repo"))
    b.write("X.java", "class X {}\n")
    b.commit("C1", "Initial import")
    return b.path


@pytest.fixture
def fetch(clone, capsys):
    """``fetch(base, out)``: the exit code and stderr of ``fetch --repo``."""

    def run(base, out):
        rc = main(["fetch", "--repo", "demo/proj", "--from-local", clone,
                   "--out", str(out), "--token", "tok", "--api-base", base])
        return rc, capsys.readouterr().err

    return run


def _assert_data_error(rc, err, url, out):
    assert rc == 3
    assert err.startswith("data error: ")
    assert url in err
    assert "Traceback" not in err
    assert not out.exists()


ISSUES = "/repos/demo/proj/issues"
EVENTS = f"{ISSUES}/8/events"


@pytest.mark.parametrize("status, headers", [
    (404, {}),
    (500, {}),
    (403, {"X-RateLimit-Remaining": "12"}),  # forbidden, not rate-limited
])
def test_error_status_is_a_data_error(answering, fetch, tmp_path, status, headers):
    base = answering(status, b'{"message": "no"}', headers)
    out = tmp_path / "snap.json"
    rc, err = fetch(base, out)
    _assert_data_error(rc, err, f"{base}{ISSUES}", out)
    assert f"HTTP {status}" in err


def test_rate_limit_with_a_bad_reset_time_is_a_data_error(answering, fetch, tmp_path):
    base = answering(403, b"{}", {"X-RateLimit-Remaining": "0",
                                  "X-RateLimit-Reset": "soon"})
    out = tmp_path / "snap.json"
    rc, err = fetch(base, out)
    _assert_data_error(rc, err, f"{base}{ISSUES}", out)
    assert "'soon'" in err


def test_refused_connection_is_a_data_error(fetch, tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    base = f"http://127.0.0.1:{port}"
    out = tmp_path / "snap.json"
    rc, err = fetch(base, out)
    _assert_data_error(rc, err, f"{base}{ISSUES}", out)


def test_body_that_is_not_json_is_a_data_error(answering, fetch, tmp_path):
    base = answering(200, b"<html>maintenance</html>")
    out = tmp_path / "snap.json"
    rc, err = fetch(base, out)
    _assert_data_error(rc, err, f"{base}{ISSUES}", out)
    assert "JSON" in err


def _issues(number=8, label="bug", created_at="2024-01-01T12:00:00Z", **closed):
    state = "closed" if closed else "open"
    return json.dumps([{
        "number": number, "state": state, "labels": [{"name": label}],
        "created_at": created_at, **closed,
    }]).encode()


def _closed_by(commit_id):
    return json.dumps([{"event": "closed", "commit_id": commit_id}]).encode()


@pytest.mark.parametrize("routes, path, detail", [
    ({ISSUES: _issues(number="8")}, ISSUES, "str '8' where int belongs"),
    ({ISSUES: _issues(number=True)}, ISSUES, "bool True where int belongs"),
    ({ISSUES: _issues(label=3)}, ISSUES, "int 3 where str belongs"),
    ({ISSUES: _issues(created_at=5)}, ISSUES, "bad timestamp 5"),
    ({ISSUES: _issues(closed_at="yesterday")}, ISSUES, "bad timestamp 'yesterday'"),
    ({ISSUES: _issues(closed_at="2024-01-02T12:00:00Z"), EVENTS: _closed_by(["x"])},
     EVENTS, "list ['x'] where str belongs"),
    ({ISSUES: _issues(closed_at="2024-01-02T12:00:00Z"), EVENTS: _closed_by(7)},
     EVENTS, "int 7 where str belongs"),
], ids=["str-number", "bool-number", "int-label", "int-created-at",
        "word-closed-at", "list-closing-commit", "int-closing-commit"])
def test_answer_of_the_wrong_shape_is_a_data_error(
    answering, fetch, tmp_path, routes, path, detail
):
    base = answering(200, b"[]", routes=routes)
    out = tmp_path / "snap.json"
    rc, err = fetch(base, out)
    _assert_data_error(rc, err, f"{base}{path}", out)
    assert detail in err


def test_api_base_without_a_scheme_is_a_data_error(fetch, tmp_path):
    out = tmp_path / "snap.json"
    rc, err = fetch("api.example", out)
    _assert_data_error(rc, err, f"api.example{ISSUES}", out)
