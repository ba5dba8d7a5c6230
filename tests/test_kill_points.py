"""A run killed at a write resumes to the tree of a run that was never killed.

fixpair writes every file through ``atomic.atomic_open``, which moves a
finished temp file over its target with ``os.replace``.  So a kill just
before or just after a rename reaches every state a killed run can leave on
disk (the crash-point method of Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014).  Each kill runs in a child forked after the
package is imported, one child at a time: the child runs the fixture's
``fixpair run`` with ``os.replace`` patched to end the process at its n-th
call, and then the test resumes the command on the same ``--out``.
"""

import contextlib
import io
import itertools
import os
import shutil
import signal
from pathlib import Path

import pytest

from fixpair.cli import main

KILLED = 75  # the exit status of a child killed at its kill point


def _quiet_main(args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def _killed_run(args, kill_at, after_rename):
    """The exit status of ``fixpair`` on ``args`` in a forked child that ends
    at its ``kill_at``-th rename, just before it or, with ``after_rename``,
    just after it."""
    pid = os.fork()
    if pid == 0:  # the child never returns to the test
        status = 70
        try:
            signal.alarm(60)  # a child that hangs ends, so the wait below does
            rename, calls = os.replace, itertools.count(1)

            def replace(src, dst):
                n = next(calls)
                if n == kill_at and not after_rename:
                    os._exit(KILLED)
                rename(src, dst)
                if n == kill_at:
                    os._exit(KILLED)

            os.replace = replace
            status = _quiet_main(args)
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _tree(out):
    """Every file under ``out`` but the manifest, which records the statuses
    of the last run, by path relative to ``out``."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in Path(out).rglob("*")
        if path.is_file() and path != Path(out, "manifest.json")
    }


def _kill_points(renamed):
    """The 1-based rename numbers worth a kill, from the targets of a clean
    run's renames in order: every state file and manifest write, and the
    first and last artifact each stage writes before its state file."""
    points, artifacts = [], []
    for n, target in enumerate(renamed, start=1):
        if target.startswith(".stages/") or target == "manifest.json":
            points += [artifacts[0], artifacts[-1], n] if artifacts else [n]
            artifacts = []
        else:
            artifacts.append(n)
    assert not artifacts, "every artifact is written before its stage's state"
    return sorted(set(points))


def test_a_kill_at_any_write_resumes_to_a_clean_runs_tree(fixture_repo, tmp_path):
    # the method and projected levels share one cross-validation
    args = ["run", "--repo", fixture_repo["repo"], "--issues", fixture_repo["issues"],
            "--level", "method", "--level", "projected", "--seed", "7"]
    clean = str(tmp_path / "clean")
    renamed = []
    rename = os.replace

    def record(src, dst):
        renamed.append(os.path.relpath(dst, clean).replace(os.sep, "/"))
        rename(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", record)
        assert _quiet_main([*args, "--out", clean]) == 0
    expected = _tree(clean)
    points = _kill_points(renamed)
    wrong = []
    for n, after_rename in itertools.product(points, (False, True)):
        out = str(tmp_path / "out")
        shutil.rmtree(out, ignore_errors=True)
        killed = _killed_run([*args, "--out", out], n, after_rename)
        resumed = _quiet_main([*args, "--out", out])
        if (killed, resumed) != (KILLED, 0) or _tree(out) != expected:
            wrong.append((renamed[n - 1], "after" if after_rename else "before"))
    assert wrong == []
