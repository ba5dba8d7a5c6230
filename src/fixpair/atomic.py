"""Whole-file writes: a reader of an artifact finds the old file or the new
one, never a torn one, whenever the writing process stops."""

import contextlib
import itertools
import os
import re

# ".<name>.<pid>.<n>.tmp", the temp file of one write
_TEMP_NAME = re.compile(r"\..+\.\d+\.\d+\.tmp")


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for UTF-8 text writing through a temp file beside it.

    The parent directories are created.  A clean exit moves the temp file
    over ``path``; an exception deletes it and propagates.  The file gets
    the mode a plain ``open(path, "w")`` would give it.
    """
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    for n in itertools.count():
        # a killed writer may have left a temp file of the same process id
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def remove_temp_files(directory):
    """Delete the temp files that writers killed in ``directory`` left."""
    for entry in os.scandir(directory):
        if _TEMP_NAME.fullmatch(entry.name) and entry.is_file():
            os.remove(entry.path)
