"""Traced, in-process replay of one workload: per-layer times and counts.

Run as ``python perfbench/tracer.py --src SRC --work DIR --workload NAME
--trace-file PATH --layers-file PATH``.  It wraps the public calls of every
fixpair module from outside (the source is not edited) and replays the
workload in phases: the set-up capture (``setup.capture``), the mining for
``learn`` (``setup.mine``) and the timed command (``command``), all with
``jobs=1``, keeping every span in memory and the counts per phase.  At the
end it writes the spans as Chrome trace-event JSON (Perfetto opens it) and
a per-layer JSON with each phase's layer totals and self times and counts.
The per-layer metrics, the last line of standard output, are those of the
``command`` phase, besides ``ingest.capture_s`` (the set-up capture) and
the sizes of the snapshot and of the analysis files.  Nothing is written
under the pipeline's ``--out`` besides what fixpair itself writes there.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings

from checks import ALGORITHMS, EVAL_LEVELS, LEVELS, STRATEGIES, dir_bytes

STAGES = ("snapshot", "link", "analyze", "build", "filter", "evaluate", "stats")


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters per
    phase (a top-level span opened by :meth:`phase`)."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, args]
        self.stack = []
        self.phases = {}  # phase -> (counts, distinct path+content pairs)
        self.counts, self.distinct = {}, set()  # of the open phase
        self.level = None  # evaluation level of the enclosing evaluate_level
        self.stage_open = False

    def open(self, name, args=None):
        self.spans.append([name, time.perf_counter_ns(), None,
                           self.stack[-1] if self.stack else -1, args])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, after=None, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args, kwargs)}"
            self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name):
        self.counts, self.distinct = self.phases.setdefault(name, ({}, set()))
        self.open(name)
        try:
            yield
        finally:
            self.close()
            self.counts, self.distinct = {}, set()

    # -- stage spans run from one _Stages.run call to the next ---------------

    def close_stage(self):
        if self.stage_open:
            self.close()
            self.stage_open = False

    def wrap_stage_run(self, fn):
        @functools.wraps(fn)
        def traced(stages, name, *args, **kwargs):
            self.close_stage()
            self.open(f"stage.{name}")
            self.stage_open = True
            cached = fn(stages, name, *args, **kwargs)
            self.spans[self.stack[-1]][4] = {"cached": bool(cached)}
            return cached

        return traced

    def wrap_run_pipeline(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open("pipeline.run")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_stage()
                self.close()

        return traced

    # -- reports ---------------------------------------------------------------

    def durations(self):
        """Per span: (name, seconds, self seconds, outermost, phase), where
        self time excludes the children's time, ``outermost`` is false for a
        span inside another span of its own layer (its time is already in
        that span's total) and ``phase`` names the top-level span it is in."""
        child = [0] * len(self.spans)
        layer_parent = [-1] * len(self.spans)  # nearest ancestor of the same layer
        phase = [None] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            phase[i] = name if parent < 0 else phase[parent]
            layer = name.split(".")[0]
            up = parent
            while up >= 0 and self.spans[up][0].split(".")[0] != layer:
                up = self.spans[up][3]
            layer_parent[i] = up
        return [(s[0], (s[2] - s[1]) / 1e9, (s[2] - s[1] - c) / 1e9, lp < 0, ph)
                for s, c, lp, ph in zip(self.spans, child, layer_parent, phase)]

    def chrome_trace(self):
        t0 = self.spans[0][1] if self.spans else 0
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
            "pid": 1, "tid": 1, "args": args or {},
        } for name, start, end, _, args in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _replace(old, new):
    """Point every fixpair module attribute bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "fixpair" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def instrument(tr):
    """Wrap the public calls of every layer; returns nothing, patches modules."""
    from fixpair import (analyzer, cli, dataset, diffs, filters, gitio, ingest,
                         linker, metrics, pipeline, stats)
    from fixpair.java import structure, tokenizer
    from fixpair.learn import evaluate, kernels, models

    del cli  # imported so its bindings are patched too

    def fn(module, attr, name, after=None, label=None):
        old = getattr(module, attr)
        _replace(old, tr.wrap(old, name, after, label))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tr.wrap(getattr(cls, attr), name, after))

    fn(ingest, "snapshot_from_local_repo", "ingest.capture")
    fn(ingest, "load_snapshot", "ingest.load",
       lambda r, a, k: tr.add("ingest.loads"))
    fn(diffs, "parse_unified_diff", "diffs.parse",
       lambda r, a, k: tr.add("diffs.files", len(r)))
    method(linker.HistoryIndex, "__init__", "linker.index")
    fn(linker, "build_timeline", "linker.timeline",
       lambda r, a, k: tr.add("linker.timelines"))

    def plan_size(plan, a, k):
        tr.counts["linker.plan_commits"] = max(
            tr.counts.get("linker.plan_commits", 0), len(plan.entries))

    fn(linker, "select_analysis_commits", "linker.plan", plan_size)

    def blobs(tree, a, k):
        tr.add("gitio.trees")
        tr.add("gitio.blob_bytes", sum(len(v) for v in tree.values()))

    method(gitio.GitRepo, "checkout_tree", "gitio.tree", blobs)
    popen_init = subprocess.Popen.__init__

    @functools.wraps(popen_init)
    def counting_init(self, args, *rest, **kwargs):
        if isinstance(args, (list, tuple)) and args and args[0] == "git":
            tr.add("gitio.processes")
        popen_init(self, args, *rest, **kwargs)

    subprocess.Popen.__init__ = counting_init

    def tokens(stream, a, k):
        tr.add("tokenizer.calls")
        tr.add("tokenizer.tokens", len(stream.tokens))

    fn(tokenizer, "tokenize", "tokenizer", tokens)
    fn(structure, "parse_elements", "structure",
       lambda r, a, k: tr.add("structure.elements", len(r)))
    method(metrics.TokenContext, "__init__", "metrics.context")
    fn(metrics, "method_metrics", "metrics.method")
    fn(metrics, "class_metrics", "metrics.class")
    fn(metrics, "file_metrics", "metrics.file")

    def analysed(result, a, k):
        path = a[0] if a else k["path"]
        text = a[1] if len(a) > 1 else k["text"]
        tr.add("analyzer.files")
        tr.distinct.add((path, hashlib.sha1(text.encode()).digest()))
        tr.counts["analyzer.distinct"] = len(tr.distinct)

    fn(analyzer, "analyze_source", "analyzer", analysed)
    fn(pipeline, "analysis_to_json", "pipeline.encode")
    fn(pipeline, "analysis_from_json", "pipeline.decode")
    pipeline._Stages.run = tr.wrap_stage_run(pipeline._Stages.run)
    _replace(pipeline.run_pipeline, tr.wrap_run_pipeline(pipeline.run_pipeline))

    fn(dataset, "accumulate_issue_touches", "dataset.touch")

    def entries(result, a, k):
        for level, rows in result.entries_by_level.items():
            tr.counts[f"dataset.entries.{level}"] = len(rows)

    fn(dataset, "build_entries", "dataset.build", entries)
    fn(dataset, "export_dataset", "dataset.export")
    fn(dataset, "load_entries_csv", "dataset.load")

    def kept(result, a, k):
        strategy = a[1] if len(a) > 1 else k["strategy"]
        tr.add(f"filters.kept.{strategy}", len(result))

    fn(filters, "filter_entries", "filters", kept)

    fn(kernels, "best_split", "kernels.split",
       lambda r, a, k: tr.add("kernels.splits"))
    for algo in ALGORITHMS:
        models.TRAINERS[algo] = tr.wrap(models.TRAINERS[algo], f"models.train.{algo}")
    for cls in (models.ConstantModel, models.OneRModel, models.NaiveBayesModel,
                models.LogisticModel, models.TreeModel, models.ForestModel):
        method(cls, "predict", "models.predict")

    def enter_level(fn_level):
        @functools.wraps(fn_level)
        def traced(dataset_dir, level, *args, **kwargs):
            tr.level = level
            tr.open("evaluate.level", {"level": level})
            try:
                return fn_level(dataset_dir, level, *args, **kwargs)
            finally:
                tr.close()
                tr.level = None

        return traced

    _replace(pipeline.evaluate_level, enter_level(pipeline.evaluate_level))
    def folds(result, a, k):
        tr.add("evaluate.folds", len(result.fold_matrices))

    for attr in ("cross_validate", "cross_validate_projected"):
        fn(evaluate, attr, "evaluate.cv", folds, lambda a, k: tr.level)

    fn(stats, "friedman", "stats.friedman")
    fn(stats, "nemenyi", "stats.nemenyi")
    isf = stats.studentized_range_isf
    misses = [isf.cache_info().misses]

    def qcrit(result, a, k):
        now = isf.cache_info().misses
        tr.add("stats.qcrit_computed", now - misses[0])
        misses[0] = now

    fn(stats, "studentized_range_isf", "stats.qcrit", qcrit)


def layer_report(tr, sizes):
    """Per-layer JSON: per phase, totals and self times per span name and
    per layer, and the counts; plus the metrics named in BENCHMARK.json,
    which are those of the ``command`` phase (``ingest.capture_s`` is the
    set-up capture's, and ``sizes`` gives the snapshot and analysis bytes)."""
    phases = {name: {"spans": {}, "layers": {}, "counts": dict(counts)}
              for name, (counts, _) in tr.phases.items()}
    for name, total, own, outermost, phase in tr.durations():
        by_name, by_layer = phases[phase]["spans"], phases[phase]["layers"]
        for key, table in ((name, by_name), (name.split(".")[0], by_layer)):
            row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += total if outermost or table is by_name else 0.0
            row["self_s"] += own

    def t(name, phase="command"):
        return phases[phase]["spans"].get(name, {}).get("total_s", 0.0)

    c = phases["command"]["counts"]
    m = {
        "ingest.capture_s": t("ingest.capture", "setup.capture"),
        "ingest.load_s": t("ingest.load"),
        "ingest.loads": c.get("ingest.loads", 0),
        "ingest.snapshot_mb": sizes["snapshot"] / 1e6,
        "diffs.parse_s": t("diffs.parse"),
        "diffs.files": c.get("diffs.files", 0),
        "linker.index_s": t("linker.index"),
        "linker.timeline_s": t("linker.timeline"),
        "linker.timelines": c.get("linker.timelines", 0),
        "linker.plan_commits": c.get("linker.plan_commits", 0),
        "gitio.tree_s": t("gitio.tree"),
        "gitio.trees": c.get("gitio.trees", 0),
        "gitio.blob_mb": c.get("gitio.blob_bytes", 0) / 1e6,
        "gitio.processes": c.get("gitio.processes", 0),
        "tokenizer.s": t("tokenizer"),
        "tokenizer.calls": c.get("tokenizer.calls", 0),
        "tokenizer.tokens": c.get("tokenizer.tokens", 0),
        "structure.s": t("structure"),
        "structure.elements": c.get("structure.elements", 0),
        "metrics.context_s": t("metrics.context"),
        "metrics.method_s": t("metrics.method"),
        "metrics.class_s": t("metrics.class"),
        "metrics.file_s": t("metrics.file"),
        "analyzer.s": t("analyzer"),
        "analyzer.files": c.get("analyzer.files", 0),
        "analyzer.distinct": c.get("analyzer.distinct", 0),
        "analyzer.unique_ratio": (c["analyzer.distinct"] / c["analyzer.files"]
                                  if c.get("analyzer.files") else 0.0),
        "pipeline.encode_s": t("pipeline.encode"),
        "pipeline.decode_s": t("pipeline.decode"),
        "pipeline.analysis_mb": sizes["analysis"] / 1e6,
    }
    command = next(i for i, span in enumerate(tr.spans) if span[0] == "command")
    cached = sum((end - start) / 1e9 for name, start, end, _, args in tr.spans[command:]
                 if name.startswith("stage.") and args and args.get("cached"))
    for stage in STAGES:
        m[f"stage.{stage}_s"] = t(f"stage.{stage}")
    m["stage.cached_s"] = cached
    m.update({
        "dataset.touch_s": t("dataset.touch"),
        "dataset.build_s": t("dataset.build"),
        "dataset.export_s": t("dataset.export"),
        "dataset.load_s": t("dataset.load"),
    })
    for level in LEVELS:
        m[f"dataset.entries.{level}"] = c.get(f"dataset.entries.{level}", 0)
    m["filters.s"] = t("filters")
    for strategy in STRATEGIES:
        m[f"filters.kept.{strategy}"] = c.get(f"filters.kept.{strategy}", 0)
    m["kernels.split_s"] = t("kernels.split")
    m["kernels.splits"] = c.get("kernels.splits", 0)
    for algo in ALGORITHMS:
        m[f"models.train_s.{algo}"] = t(f"models.train.{algo}")
    m["models.predict_s"] = t("models.predict")
    for level in EVAL_LEVELS:
        m[f"evaluate.cv_s.{level}"] = t(f"evaluate.cv.{level}")
    m["evaluate.folds"] = c.get("evaluate.folds", 0)
    m["stats.friedman_s"] = t("stats.friedman")
    m["stats.nemenyi_s"] = t("stats.nemenyi")
    m["stats.qcrit_s"] = t("stats.qcrit")
    m["stats.qcrit_computed"] = c.get("stats.qcrit_computed", 0)
    m["trace.wall_s"] = t("command")
    return {"phases": phases, "metrics": m}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="fixpair's src directory")
    ap.add_argument("--work", required=True, help="directory holding repo.git and issues.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--layers-file", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    warnings.simplefilter("ignore")
    tr = Tracer()
    instrument(tr)
    from fixpair import cli
    from fixpair.pipeline import PipelineConfig, run_pipeline
    repo = os.path.join(args.work, "repo.git")
    snap = os.path.join(args.work, "traced-snapshot.json")
    out = os.path.join(args.work, "traced-out")
    with tr.phase("setup.capture"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["fetch", "--from-local", repo, "--issues",
                         os.path.join(args.work, "issues.json"), "--out", snap])
    if code != 0:
        raise SystemExit(f"traced fetch exited {code}")
    config = dict(out=out, snapshot=snap, repo=repo, jobs=1)
    if args.workload == "learn":
        with tr.phase("setup.mine"):
            run_pipeline(PipelineConfig(**config), stop_after="filter")
        with tr.phase("command"):
            run_pipeline(PipelineConfig(**config, eval_filters=("full",),
                                        levels=EVAL_LEVELS))
    else:
        with tr.phase("command"):
            run_pipeline(PipelineConfig(**config), stop_after="filter")
    report = layer_report(tr, {"snapshot": os.path.getsize(snap),
                               "analysis": dir_bytes(os.path.join(out, "analysis"))})
    with open(args.trace_file, "w", encoding="utf-8") as fh:
        json.dump(tr.chrome_trace(), fh)
    with open(args.layers_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"out": out, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
