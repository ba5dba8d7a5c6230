"""Time a fully cached fixpair command in-process, several times.

Run as ``python perfbench/rerun.py --src SRC --reps N -- <fixpair argv>``.
fixpair is imported before the clock starts, so the times are those of the
cached stage chain (reading the snapshot, the link and analysis files and
the manifest), not of interpreter start-up.  The last line of standard
output is ``{"times": [...], "codes": [...]}``.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import warnings


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, args.src)
    warnings.simplefilter("ignore")
    from fixpair import cli, pipeline  # noqa: F401  (imported before timing)

    times, codes = [], []
    for _ in range(args.reps):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(command))
        times.append(time.perf_counter() - start)
    print(json.dumps({"times": times, "codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
