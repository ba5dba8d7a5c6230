"""Run one command; print its wall time, CPU time, peak RSS and exit code.

    python perfbench/spawn.py -- <argv...>

The last line of standard output is ``{"wall": s, "cpu": s, "rss_mb": MB,
"code": n}``; the command's own standard output is discarded.  CPU time and
peak RSS include the command's children (the git processes fixpair starts).
A small process of its own starts the command because Linux carries the
forking process's peak RSS into the child at exec: forked from run.py,
which holds parsed outputs and scipy, the command would report run.py's
memory instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main(argv):
    argv = argv[1:] if argv[:1] == ["--"] else argv
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
