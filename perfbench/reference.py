"""Reference figures: run every workload on several seeds, report spreads.

    python3 perfbench/reference.py --seeds 1-10 --label A
    python3 perfbench/reference.py --compare A B
    python3 perfbench/reference.py --markdown A B

The first form runs ``perfbench/run.py`` once per workload and seed (from
the checkout root, untraced), writes ``perfbench/results/reference-A.json``
and prints, per workload and end-to-end metric, the median of the runs and
their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
second form compares two such sets: the drift of each median from set A to
set B as a share of A's median, beside the metric's bound.  The third
prints the README's tables (input make-up, reference figures of both sets,
and the environment: python, numpy and git versions, kernel backend, nproc)
as markdown.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(seeds, workloads, seconds):
    runs = {}
    for wl in workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            with open(os.path.join(HERE, "results", f"run-{wl}-{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                facts = json.load(fh)["input"]
            runs.setdefault(wl, []).append({"seed": seed, "input": facts, **result})
            values = " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{wl} seed {seed}: correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']} {values}",
                  flush=True)
    return runs


def summarize(runs):
    bounds = {m["name"]: m["bound"] for m in _bench()["end_to_end"]}
    table = {}
    for wl, rs in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rs]
            table.setdefault(wl, {})[name] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "bound": bound,
            }
        table[wl]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in rs})
    return table


def environment():
    import numpy

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fixpair.learn.kernels import KERNEL_BACKEND

    git = subprocess.run(["git", "--version"], stdout=subprocess.PIPE,
                         check=True).stdout.decode().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "git": git, "kernel_backend": KERNEL_BACKEND, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _load(results, label):
    with open(os.path.join(results, f"reference-{label}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def markdown(a, b):
    """README tables: input make-up over the seeds, figures of two sets."""
    lines = ["| input | " + " | ".join(a["runs"]) + " |",
             "|---|" + "---|" * len(a["runs"])]
    keys = list(next(iter(a["runs"].values()))[0]["input"])
    for key in keys:
        cells = []
        for wl, rs in a["runs"].items():
            vals = [r["input"][key] for r in rs]
            if isinstance(vals[0], dict):
                parts = []
                for lvl in vals[0]:
                    lo, hi = min(v[lvl] for v in vals), max(v[lvl] for v in vals)
                    parts.append(f"{lvl} {lo}" + (f"–{hi}" if hi != lo else ""))
                cells.append(", ".join(parts))
            else:
                lo, hi = min(vals), max(vals)
                cells.append(f"{lo}" + (f"–{hi}" if hi != lo else ""))
        lines.append(f"| {key} | " + " | ".join(cells) + " |")
    lines += ["", "| workload | metric | set A median | A spread | set B median "
              "| B spread | drift B/A | bound |", "|---|---|---|---|---|---|---|---|"]
    metrics = {m["name"]: m for m in _bench()["end_to_end"]}
    for wl, rows in a["summary"].items():
        for name, row in rows.items():
            if name == "failed_share":
                continue
            other = b["summary"][wl][name]
            unit = metrics[name]["unit"]
            lines.append(
                f"| {wl} | {name} | {row['median']:.4g} {unit} | "
                f"{row['spread']:.1%} | {other['median']:.4g} {unit} | "
                f"{other['spread']:.1%} | {other['median'] / row['median'] - 1:+.1%} "
                f"| {metrics[name]['bound']:.0%} |")
    shares = {wl: (a["summary"][wl]["failed_share"], b["summary"][wl]["failed_share"])
              for wl in a["summary"]}
    lines += ["", "Failed share per workload (set A, set B): " + "; ".join(
        f"{wl} {sa} {sb}" for wl, (sa, sb) in shares.items()), "",
        "Environment: " + ", ".join(f"{k} {v}" for k, v in a["environment"].items())]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="A")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--markdown", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    results = os.path.join(HERE, "results")
    if args.markdown:
        print(markdown(*(_load(results, label) for label in args.markdown)))
        return 0
    if args.compare:
        a, b = (_load(results, label)["summary"] for label in args.compare)
        bounds = {m["name"]: m["bound"] for m in _bench()["end_to_end"]}
        worst = 0.0
        for wl in a:
            for name, row in a[wl].items():
                if name == "failed_share":
                    same = row == b[wl][name]
                    print(f"{wl:6} failed share {row} vs {b[wl][name]}: "
                          f"{'same' if same else 'DIFFERENT'}")
                    continue
                drift = b[wl][name]["median"] / row["median"] - 1.0
                worst = max(worst, drift / bounds[name])
                print(f"{wl:6} {name:12} A {row['median']:10.4f}  B "
                      f"{b[wl][name]['median']:10.4f}  drift {drift:+7.2%}  "
                      f"spread A {row['spread']:6.2%} B {b[wl][name]['spread']:6.2%}"
                      f"  bound {bounds[name]:.0%}")
        print(f"largest drift as a share of its bound: {worst:.2f}")
        return 0
    bench = _bench()
    workloads = [w["name"] for w in bench["workloads"]]
    runs = run_set(_seeds(args.seeds), workloads, bench["run_seconds"])
    summary = summarize(runs)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"reference-{args.label}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": environment(), "runs": runs, "summary": summary},
                  fh, indent=1)
    for wl, rows in summary.items():
        for name, row in rows.items():
            if name == "failed_share":
                continue
            flag = "" if row["spread"] < row["bound"] / 3 else "  <- above bound/3"
            print(f"{wl:6} {name:12} median {row['median']:10.4f}  spread "
                  f"{row['spread']:6.2%}  bound {row['bound']:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
