"""A remote fetch that fails is a data error naming the URL: exit 3, no
traceback and no snapshot file.  The API is a local fake; no network."""

import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from fixpair.cli import main


class _Answer(BaseHTTPRequestHandler):
    """Gives every GET the class's ``status``, ``extra_headers`` and ``body``."""

    def log_message(self, *args):
        pass

    def do_GET(self):
        self.send_response(self.status)
        for name, value in self.extra_headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)


@pytest.fixture
def answering():
    """``serve(status, body, headers)`` starts a server that gives every GET
    that one answer, and returns its base URL."""
    servers = []

    def serve(status, body=b"{}", headers=None):
        handler = type("Handler", (_Answer,), {
            "status": status, "body": body, "extra_headers": headers or {},
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


@pytest.mark.parametrize("body, detail", [
    (b'[{"nosha": 1}]', "KeyError: 'sha'"),
    (b'{"sha": "' + b"a" * 40 + b'"}', "dict where a list belongs"),
])
def test_answer_of_the_wrong_shape_is_a_data_error(
    answering, tmp_path, capsys, body, detail
):
    base = answering(200, body)
    out = tmp_path / "snap.json"
    rc, err = _fetch(base, out, capsys)
    _assert_data_error(rc, err, f"{base}/repos/demo/proj/commits", out)
    assert detail in err


def test_api_base_without_a_scheme_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "snap.json"
    rc, err = _fetch("api.example", out, capsys)
    _assert_data_error(rc, err, "api.example/repos/demo/proj/commits", out)
