import os
import subprocess
import sys

import pytest

from fixpair.atomic import atomic_open

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_clean_exit_replaces_the_file(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with atomic_open(path) as fh:
        fh.write("one\n")
    with atomic_open(path) as fh:
        fh.write("two\n")
    assert path.read_text() == "two\n"
    assert os.listdir(path.parent) == ["out.txt"]


def test_raising_writer_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,file\r\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, newline="") as fh:
            fh.write("new,file\n" * 1000)
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"old,file\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_killed_writer_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    child = (
        "import os, signal, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fixpair.atomic import atomic_open\n"
        "with atomic_open(sys.argv[2]) as fh:\n"
        "    fh.write('new\\n' * 100000)\n"
        "    fh.flush()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child, SRC, str(path)])
    assert proc.returncode == -9
    assert path.read_text() == "old\n"
    # the killed writer's temp file does not block the next write
    with atomic_open(path) as fh:
        fh.write("next\n")
    assert path.read_text() == "next\n"


def test_left_over_temp_file_of_this_process_is_skipped(tmp_path):
    stale = tmp_path / f".out.txt.{os.getpid()}.0.tmp"
    stale.write_text("stale")
    with atomic_open(tmp_path / "out.txt") as fh:
        fh.write("new\n")
    assert (tmp_path / "out.txt").read_text() == "new\n"
    assert stale.read_text() == "stale"
    assert sorted(os.listdir(tmp_path)) == [stale.name, "out.txt"]


@pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
def test_mode_is_that_of_a_plain_open(tmp_path, mask):
    old = os.umask(mask)
    try:
        with atomic_open(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "atomic.txt").st_mode & 0o777
    assert mode == 0o666 & ~mask == os.stat(tmp_path / "plain.txt").st_mode & 0o777
