"""fixpair benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload wide|long|learn --seed N \\
        --seconds S --trace 0|1

Run it from the root of a fixpair checkout; fixpair is run from ``src/``
and nothing is installed.  Set-up generates the workload's git repository
and issues file from the seed and captures the snapshot with ``fixpair
fetch --from-local`` (``learn`` also mines its dataset with ``fixpair
filter``); it is repeated and its median reported as ``setup_s``.  Then
whole rounds, up to the round boundary nearest to ``--seconds``, run the
workload's command in a fresh process on a fresh ``--out``, check its
outputs against the generator's ground truth, and time the fully cached
rerun in-process.  Each round gives one value of each metric (for
``rerun_s`` the median of its reruns); the run reports their mean.

With ``--trace 1`` each round runs the command untraced once more and then
replays the workload in-process under the tracer (perfbench/tracer.py),
which writes ``perfbench/results/trace-<workload>-<seed>.json`` (Chrome
trace events; Perfetto opens it) and ``layers-<workload>-<seed>.json``; the
per-layer metrics replace the end-to-end ones in the result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

SETUPS = 2  # set-ups per run; setup_s is their median
RERUN_REPS = 12  # in-process cached reruns per round
LEARN_ARGS = ["--filter", "full"] + [a for lvl in checks.EVAL_LEVELS
                                      for a in ("--level", lvl)]


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
        self.results = os.path.join(HERE, "results")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verdicts = {}  # output tree digest -> (problems, cell problems)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(self.results, exist_ok=True)
        self.env = gen.git_env(self.work)
        self.env["PYTHONPATH"] = self.src

    # -- operations ------------------------------------------------------------

    def op(self, problems, what):
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            for p in problems[:5]:
                print(f"FAILED {what}: {p}", file=sys.stderr)

    def helper(self, script, *argv):
        """Run one of the benchmark's own scripts; returns (exit code, last
        stdout line, stderr tail)."""
        log = os.path.join(self.work, "stderr.log")
        with open(log, "wb") as err:
            proc = subprocess.run([sys.executable, os.path.join(HERE, script), *argv],
                                  env=self.env, stdout=subprocess.PIPE, stderr=err,
                                  cwd=self.root)
        with open(log, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-600:].strip()
        lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
        return proc.returncode, lines[-1] if lines else "", tail

    def fixpair(self, *argv):
        """One fixpair command in a fresh process: its wall, CPU and peak
        RSS (see spawn.py) and its failures."""
        code, last, tail = self.helper("spawn.py", "--", sys.executable, "-m",
                                       "fixpair.cli", *argv)
        res = json.loads(last) if code == 0 else {"code": code}
        problems = [] if res["code"] == 0 else [f"exit {res['code']}: {tail[-300:]}"]
        return res, problems

    # -- set-up ----------------------------------------------------------------

    def setup(self, index):
        """One set-up; returns its directory, the generated history and its
        time.  The ground truth is computed outside the clock, by ``run``."""
        dest = os.path.join(self.work, f"setup{index}")
        start = time.perf_counter()
        hist = gen.generate(self.workload, self.seed, dest)
        snap = os.path.join(dest, "snapshot.json")
        steps = [("fetch", "--from-local", os.path.join(dest, "repo.git"),
                  "--issues", os.path.join(dest, "issues.json"), "--out", snap)]
        if self.workload == "learn":
            steps.append(("filter", *self.paths(dest, os.path.join(dest, "mined"))))
        for argv in steps:
            self.op(self.fixpair(*argv)[1], f"fixpair {argv[0]}")
        return dest, hist, time.perf_counter() - start

    @staticmethod
    def paths(dest, out):
        return ["--out", out, "--snapshot", os.path.join(dest, "snapshot.json"),
                "--repo", os.path.join(dest, "repo.git")]

    def command(self, dest, out):
        if self.workload == "learn":
            return ["run", *self.paths(dest, out), *LEARN_ARGS]
        return ["filter", *self.paths(dest, out)]

    def fresh_out(self, dest):
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        if self.workload == "learn":
            shutil.copytree(os.path.join(dest, "mined"), out)
        return out

    # -- checks ----------------------------------------------------------------

    def check(self, out, truth, what):
        """Check one finished tree; learn cells are operations of their own.

        A tree byte-identical to one checked before gets that tree's
        verdicts (fixpair's outputs are deterministic), so the full checks
        run once per distinct output.
        """
        digest = tuple(sorted(checks.tree_digest(out).items()))
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(out, truth)
        problems, cells = self.verdicts[digest]
        for (level, algo), bad in sorted(cells.items()):
            self.op(bad, f"{what} cell {level}/{algo}")
        return problems

    def _check(self, out, truth):
        problems, cells = [], {}
        for fn in (checks.check_plan, checks.check_rows, checks.check_metrics):
            problems += fn(out, truth)
        problems += checks.check_filters(out)
        if self.workload == "learn":
            cells = checks.check_cells(out, "full", checks.EVAL_LEVELS,
                                       checks.ALGORITHMS)
            problems += checks.check_signal(out, "full", checks.EVAL_LEVELS)
            problems += checks.check_stats(out)
        return problems, cells

    # -- rounds ----------------------------------------------------------------

    def timed_round(self, dest, truth, samples):
        out = self.fresh_out(dest)
        res, problems = self.fixpair(*self.command(dest, out))
        if not problems:
            problems = self.check(out, truth, "round")
        elif self.workload == "learn":  # keep whole rounds of operations
            for _ in range(len(checks.EVAL_LEVELS) * len(checks.ALGORITHMS)):
                self.op(["command failed"], "round cell")
        self.op(problems, f"fixpair {self.workload} command")
        if "wall" not in res:
            return out
        samples["run_s"].append(res["wall"])
        samples["cpu_s"].append(res["cpu"])
        samples["peak_rss_mb"].append(res["rss_mb"])
        samples["out_mb"].append(checks.dir_bytes(out) / 1e6)
        return out

    def rerun(self, dest, out, samples):
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)["stages"]
        digest = checks.tree_digest(out)
        code, last, _ = self.helper("rerun.py", "--src", self.src, "--reps",
                                    str(RERUN_REPS), "--", *self.command(dest, out))
        doc = json.loads(last) if code == 0 else {"times": [], "codes": [code] * RERUN_REPS}
        tree = checks.check_rerun(out, digest, manifest)
        for code in doc["codes"]:
            self.op(tree if code == 0 else [f"exit {code}"] + tree, "cached rerun")
        if doc["times"]:
            samples["rerun_s"].append(statistics.median(doc["times"]))

    def traced_round(self, dest, truth, layers):
        trace_file = os.path.join(self.results, f"trace-{self.workload}-{self.seed}.json")
        layers_file = os.path.join(self.results, f"layers-{self.workload}-{self.seed}.json")
        shutil.rmtree(os.path.join(dest, "traced-out"), ignore_errors=True)
        code, last, tail = self.helper("tracer.py", "--src", self.src, "--work", dest,
                                       "--workload", self.workload, "--trace-file",
                                       trace_file, "--layers-file", layers_file)
        if code != 0:
            self.op([f"tracer exit {code}: {tail[-300:]}"], "traced run")
            return
        doc = json.loads(last)
        self.op(self.check(doc["out"], truth, "traced"), "traced run")
        for key, value in doc["metrics"].items():
            layers.setdefault(key, []).append(value)

    def run(self, seconds, trace):
        setups = [self.setup(i) for i in range(1 if trace else SETUPS)]
        dest, hist, _ = setups[-1]
        truth = hist.truth()
        if any([c.sha for c in h.commits] != truth.commits for _, h, _ in setups):
            self.op(["one seed gave different commit hashes"], "set-up")
        for d, _, _ in setups[:-1]:
            shutil.rmtree(d)
        samples = {k: [] for k in units("end_to_end")}
        samples["setup_s"] = [s for _, _, s in setups]
        layers = {}
        start = time.perf_counter()
        rounds = 0
        while True:
            out = self.timed_round(dest, truth, samples)
            if trace:
                self.traced_round(dest, truth, layers)
            else:
                self.rerun(dest, out, samples)
            rounds += 1
            elapsed = time.perf_counter() - start
            # end at the round boundary nearest to ``seconds``
            if elapsed + elapsed / rounds / 2 >= seconds:
                break
        if trace:
            metrics = {k: statistics.median(v) for k, v in layers.items()}
            metrics["trace.overhead"] = (
                metrics["trace.wall_s"] / statistics.mean(samples["run_s"]) - 1.0)
        else:
            # Every round does the same work, but the host switches between a
            # fast and a slow state (about a third apart) for seconds at a
            # time.  Over a handful of rounds the median jumps from one state
            # to the other; the mean moves with the share of time in each.
            metrics = {k: statistics.mean(v) for k, v in samples.items()}
            metrics["setup_s"] = statistics.median(samples["setup_s"])
        return metrics, samples, truth.facts

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def units(kind):
    """Metric name -> unit for one kind of BENCHMARK.json's metrics."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fixpair", "cli.py")):
        print("run from the root of a fixpair checkout: src/fixpair is missing",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        metrics, samples, facts = bench.run(args.seconds, args.trace)
    finally:
        bench.close()
    wanted = units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(bench.results, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "samples": samples, "input": facts,
                   "problems": bench.problems}, fh, indent=1)
    for k, m in result["metrics"].items():
        print(f"{k:28} {m['value']:>14.6g} {m['unit']}")
    print(f"operations attempted {bench.attempted}, failed {bench.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
