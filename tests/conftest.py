"""Shared fixtures: a deterministic 12-commit git repository with three
bug-fix stories (single fix, multi-fix with an unrelated commit between the
fixes, and two overlapping bugs on the same file)."""

import json
import os
import subprocess

import pytest

CALC_V1 = """package com.example;

/** Small arithmetic helpers. */
public class Calc {

    /** Adds two operands. */
    public int add(int a, int b) {
        return a + b;
    }

    public int div(int a, int b) {
        return a / b;
    }
}
"""

UTIL_V1 = """package com.example;

public class Util {

    public String normalize(String s) {
        return s.toLowerCase();
    }

    public int helper(int x) {
        if (x > 10) {
            return x - 1;
        }
        return x;
    }
}
"""

UTIL_TEST_V1 = """package com.example;

public class UtilTest {
    public void checkNormalize() {
        Util u = new Util();
        u.normalize("A");
    }
}
"""

README_V1 = "# demo\n\nSample project.\n"


def run_git(repo, *args, env=None):
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git {' '.join(args)}: {proc.stderr.decode('utf-8', 'replace')}"
        )
    return proc.stdout.decode()


class RepoBuilder:
    def __init__(self, path):
        self.path = path
        self.counter = 0
        self.hashes = {}
        os.makedirs(path, exist_ok=True)
        run_git(path, "init", "-q", "-b", "master")
        run_git(path, "config", "user.name", "Dev One")
        run_git(path, "config", "user.email", "dev@example.com")
        run_git(path, "config", "commit.gpgsign", "false")

    def write(self, rel, content):
        full = os.path.join(self.path, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(content)

    def commit(self, name, message):
        self.counter += 1
        stamp = f"2024-01-{self.counter:02d}T10:00:00 +0000"
        env = dict(
            os.environ,
            GIT_AUTHOR_NAME="Dev One",
            GIT_AUTHOR_EMAIL="dev@example.com",
            GIT_COMMITTER_NAME="Dev One",
            GIT_COMMITTER_EMAIL="dev@example.com",
            GIT_AUTHOR_DATE=stamp,
            GIT_COMMITTER_DATE=stamp,
        )
        run_git(self.path, "add", "-A", env=env)
        run_git(self.path, "commit", "-q", "-m", message, "--allow-empty", env=env)
        self.hashes[name] = run_git(self.path, "rev-parse", "HEAD").strip()
        return self.hashes[name]


def build_fixture_repo(base):
    """12 linear commits, 3 bug stories; returns (repo path, hashes dict)."""
    b = RepoBuilder(os.path.join(base, "fixture-repo"))

    b.write("src/main/java/com/example/Calc.java", CALC_V1)
    b.write("src/main/java/com/example/Util.java", UTIL_V1)
    b.write("src/test/java/com/example/UtilTest.java", UTIL_TEST_V1)
    b.write("README.md", README_V1)
    b.commit("C1", "Initial import")

    b.write(
        "src/main/java/com/example/Util.java",
        UTIL_V1.replace("x > 10", "x > 100"),
    )
    b.commit("C2", "Extend helper range")

    b.write("README.md", README_V1 + "\nUsage notes.\n")
    b.commit("C3", "Update docs")

    calc_v2 = CALC_V1.replace(
        """    public int div(int a, int b) {
        return a / b;
    }""",
        """    public int div(int a, int b) {
        if (b == 0) {
            return 0;
        }
        return a / b;
    }""",
    )
    b.write("src/main/java/com/example/Calc.java", calc_v2)
    b.commit("C4", "Guard division by zero, refs #1")

    b.write("README.md", README_V1.replace("Sample project.", "Demo project.") + "\nUsage notes.\n")
    b.commit("C5", "Reword intro")

    util_v3 = UTIL_V1.replace("x > 10", "x > 100").replace(
        """    public String normalize(String s) {
        return s.toLowerCase();
    }""",
        """    public String normalize(String s) {
        if (s == null) {
            return "";
        }
        return s.toLowerCase();
    }""",
    )
    b.write("src/main/java/com/example/Util.java", util_v3)
    b.commit("C6", "Handle null input #2")

    util_v4 = util_v3.replace(
        "return s.toLowerCase();", "return s.trim().toLowerCase();"
    )
    b.write("src/main/java/com/example/Util.java", util_v4)
    b.commit("C7", "Trim whitespace properly, fixes #3")

    util_v5 = util_v4.replace(
        """    public int helper(int x) {
        if (x > 100) {
            return x - 1;
        }
        return x;
    }""",
        """    public int helper(int x) {
        if (x > 2147483000) {
            return 2147483000;
        }
        if (x > 100) {
            return x - 1;
        }
        return x;
    }""",
    )
    b.write("src/main/java/com/example/Util.java", util_v5)
    b.write(
        "src/test/java/com/example/UtilTest.java",
        UTIL_TEST_V1.replace('u.normalize("A");', 'u.normalize("A");\n        u.helper(3);'),
    )
    b.commit("C8", "Guard overflow in helper, #2 final fix")

    calc_v3 = calc_v2.replace("public class Calc {\n", "public class Calc {\n\n")
    b.write("src/main/java/com/example/Calc.java", calc_v3)
    b.commit("C9", "Normalize whitespace in Calc")

    calc_v4 = calc_v3.replace("return a + b;", "return b + a;")
    b.write("src/main/java/com/example/Calc.java", calc_v4)
    b.commit("C10", "Finish rounding cleanup, closes #1")

    b.write("README.md", README_V1.replace("Sample project.", "Demo project!") + "\nUsage notes.\n")
    b.commit("C11", "Fix readme typo")

    calc_v5 = calc_v4.replace("return b + a;", "return a + b;")
    b.write("src/main/java/com/example/Calc.java", calc_v5)
    b.commit("C12", "Inline rounding constant")

    return b.path, b.hashes


def fixture_issue_specs(hashes):
    return [
        {
            "id": 1,
            "state": "closed",
            "created_at": "2024-01-02T12:00:00Z",
            "closed_at": "2024-01-10T12:00:00Z",
            "labels": ["bug"],
            "fixing_commits": [hashes["C10"]],
        },
        {
            "id": 2,
            "state": "closed",
            "created_at": "2024-01-04T12:00:00Z",
            "closed_at": "2024-01-08T12:00:00Z",
            "labels": ["bug", "crash"],
            "fixing_commits": [hashes["C8"]],
        },
        {
            "id": 3,
            "state": "closed",
            "created_at": "2024-01-05T12:00:00Z",
            "closed_at": "2024-01-07T12:00:00Z",
            "labels": ["bug"],
            "fixing_commits": [hashes["C7"]],
        },
        {
            "id": 4,
            "state": "open",
            "created_at": "2024-01-06T12:00:00Z",
            "labels": ["bug"],
        },
        {
            "id": 5,
            "state": "closed",
            "created_at": "2024-01-09T12:00:00Z",
            "closed_at": "2024-01-10T12:00:00Z",
            "labels": ["enhancement"],
            "fixing_commits": [hashes["C10"]],
        },
    ]


MOVER_A_V1 = """package p;

public class A {

    public int a(int x) {
        return x + 1;
    }
}

class B {

    int b(int y) {
        return y * 2;
    }

    int c() {
        return 3;
    }
}
"""

MOVER_UTIL_V1 = """package p;

public class Util {

    public static int clamp(int v) {
        return v;
    }
}
"""


def build_moved_class_repo(base):
    """8 linear commits in which class ``p.B`` moves from A.java into its own
    file between the first and the last fix of issue #1, while most file
    versions repeat across commits; returns (repo path, hashes, issues)."""
    b = RepoBuilder(os.path.join(base, "moved-class-repo"))
    a_path = "src/main/java/p/A.java"
    b.write(a_path, MOVER_A_V1)
    b.write("src/main/java/p/Util.java", MOVER_UTIL_V1)
    b.write("src/test/java/p/ATest.java", "package p;\n\nclass ATest {\n}\n")
    b.write("README.md", README_V1)
    b.commit("C1", "Initial import")

    a_v2 = MOVER_A_V1.replace("return x + 1;", "return x + 2;")
    b.write(a_path, a_v2)
    b.commit("C2", "Tune a")

    a_v3 = a_v2.replace(
        "        return y * 2;",
        "        if (y < 0) {\n            return 0;\n        }\n        return y * 2;",
    )
    b.write(a_path, a_v3)
    b.commit("C3", "Guard b against negatives, refs #1")

    split = a_v3.index("class B {")
    b.write(a_path, a_v3[:split].rstrip("\n") + "\n")
    b.write("src/main/java/p/B.java", "package p;\n\npublic " + a_v3[split:])
    b.commit("C4", "Move B into its own file")

    b.write("README.md", README_V1 + "\nMoved B.\n")
    b.commit("C5", "Document the move")

    b_v2 = ("package p;\n\npublic " + a_v3[split:]).replace("y < 0", "y <= 0")
    b.write("src/main/java/p/B.java", b_v2)
    b.commit("C6", "Finish b bounds, fixes #1")

    b.write(
        "src/main/java/p/Util.java",
        MOVER_UTIL_V1.replace("return v;", "return v < 0 ? 0 : v;"),
    )
    b.commit("C7", "Clamp negatives in Util, closes #2")

    b.write("README.md", README_V1 + "\nMoved B.\nClamped.\n")
    b.commit("C8", "Tail docs")

    h = b.hashes
    issues = [
        {
            "id": 1, "state": "closed", "created_at": "2024-01-01T12:00:00Z",
            "closed_at": "2024-01-06T12:00:00Z", "labels": ["bug"],
            "fixing_commits": [h["C3"], h["C6"]],
        },
        {
            "id": 2, "state": "closed", "created_at": "2024-01-05T12:00:00Z",
            "closed_at": "2024-01-07T12:00:00Z", "labels": ["bug"],
            "fixing_commits": [h["C7"]],
        },
    ]
    return b.path, h, issues


@pytest.fixture
def started_processes(monkeypatch):
    """Every ``subprocess.Popen`` started while the test runs."""
    started = []
    real_popen = subprocess.Popen

    class RecordingPopen(real_popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


@pytest.fixture(scope="session")
def moved_class_repo(tmp_path_factory):
    base = tmp_path_factory.mktemp("moved")
    repo, hashes, issues = build_moved_class_repo(str(base))
    issues_path = os.path.join(str(base), "issues.json")
    with open(issues_path, "w", encoding="utf-8") as fh:
        json.dump(issues, fh, indent=1)
    return {"repo": repo, "hashes": hashes, "issues": issues_path}


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory):
    base = tmp_path_factory.mktemp("fixture")
    repo, hashes = build_fixture_repo(str(base))
    issues_path = os.path.join(str(base), "issues.json")
    with open(issues_path, "w", encoding="utf-8") as fh:
        json.dump(fixture_issue_specs(hashes), fh, indent=1)
    return {"repo": repo, "hashes": hashes, "issues": issues_path}


@pytest.fixture(scope="session")
def fixture_snapshot(fixture_repo):
    from fixpair.ingest import load_issue_specs, snapshot_from_local_repo

    return snapshot_from_local_repo(
        fixture_repo["repo"],
        load_issue_specs(fixture_repo["issues"]),
        bug_labels=frozenset({"bug"}),
        repo_id="demo/fixture",
    )
