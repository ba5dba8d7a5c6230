"""What the package imports: mining loads no learner, and every module's
imports are the standard library or a declared dependency."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _modules_after(code, *args):
    """The ``sys.modules`` keys of a fresh interpreter that ran ``code``."""
    child = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, SRC, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_fetch_from_local_loads_no_learner(fixture_repo, tmp_path):
    out = tmp_path / "snap.json"
    loaded = _modules_after(
        "from fixpair.cli import main\n"
        "assert main(['fetch', '--from-local', sys.argv[2], '--issues', sys.argv[3],\n"
        "             '--out', sys.argv[4]]) == 0",
        fixture_repo["repo"], fixture_repo["issues"], str(out),
    )
    assert out.exists()
    assert "fixpair.ingest" in loaded
    for name in ("numpy", "requests", "fixpair.learn", "fixpair.stats"):
        assert name not in loaded


def test_github_client_loads_no_requests():
    loaded = _modules_after("import fixpair.github")
    assert "fixpair.github" in loaded
    assert "requests" not in loaded


def _imported_packages(path):
    """Top-level names of the absolute imports anywhere in one module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_a_declared_dependency():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    allowed = set(sys.stdlib_module_names) | declared | {project["name"]}
    package = os.path.join(SRC, "fixpair")
    undeclared = {}
    for folder, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                for top in set(_imported_packages(path)) - allowed:
                    undeclared.setdefault(top, []).append(os.path.relpath(path, SRC))
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"
