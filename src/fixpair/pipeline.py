"""Pipeline orchestration: fetch -> link -> analyze -> build -> filter ->
evaluate -> stats, with cached, resumable stage outputs.

Every stage writes its artifacts under the output directory, each whole
through :func:`atomic_open`, plus a state file with a fingerprint of its
inputs and the files it wrote; a rerun with unchanged inputs reports the
stage as cached.  Given fixed seeds the whole artifact tree is byte-identical
across runs (no timestamps or absolute paths are ever written).
"""

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass

from . import dataset as ds
from .analyzer import (
    ANALYZER_VERSION,
    DEFAULT_TEST_GLOBS,
    FileAnalysis,
    analyze_source,
    is_test_path,
)
from .atomic import atomic_open, remove_temp_files
from .errors import ConfigError, FixpairError, StageError
from .filters import STRATEGIES, filter_entries
from .gitio import GitRepo
from .ingest import load_issue_specs, load_snapshot, save_snapshot, snapshot_from_local_repo
from .java.structure import SourceElement
from .learn import cross_validate, instances_from_entries
from .learn.evaluate import prf, project_folds
from .learn.models import ALGORITHMS
from .linker import (
    BugFixTimeline,
    HistoryIndex,
    build_timeline,
    read_plan,
    select_analysis_commits,
    write_plan,
)
from .metrics import MetricsVector
from .stats import PairedSampleMatrix, format_significance_table, friedman, nemenyi

EVAL_LEVELS = ("file", "class", "method", "projected")
DEFAULT_SEED = 42


@dataclass
class PipelineConfig:
    out: str
    repo: str = None
    snapshot: str = None
    issues: str = None
    repo_id: str = None
    bug_labels: tuple = ("bug",)
    levels: tuple = EVAL_LEVELS
    algorithms: tuple = ALGORITHMS
    eval_filters: tuple = ("subtract",)
    seed: int = DEFAULT_SEED
    repeats: int = 1
    folds: int = 10
    jobs: int = 1
    test_globs: tuple = DEFAULT_TEST_GLOBS
    keywords_only: bool = False
    ignore_comment_only: bool = False

    def __post_init__(self):
        # flags and JSON give lists; one spelling keeps the fingerprints equal
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type is tuple and not isinstance(value, tuple):
                if not isinstance(value, list):
                    raise ConfigError(f"{f.name} must be a list, got {value!r}")
                setattr(self, f.name, tuple(value))
        if not self.levels:
            raise ConfigError("at least one level must be selected")
        for what, values, legal in (
            ("levels", self.levels, EVAL_LEVELS),
            ("algorithms", self.algorithms, ALGORITHMS),
            ("filter strategies", self.eval_filters, ("full", *STRATEGIES)),
        ):
            unknown = set(values) - set(legal)
            if unknown:
                raise ConfigError(
                    f"unknown {what}: {sorted(unknown)}; choose from {list(legal)}"
                )
        for name, least in (("repeats", 1), ("folds", 2)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")

    @classmethod
    def file_settings(cls, path):
        """The settings a JSON config file names; an unknown key is an error."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return doc

    def validate(self):
        """Check what running needs beyond legal settings: a writable output
        directory and a snapshot or a repository plus an issues file."""
        try:
            os.makedirs(self.out, exist_ok=True)
            probe = os.path.join(self.out, ".write-probe")
            with open(probe, "w") as fh:
                fh.write("")
            os.unlink(probe)
        except OSError as exc:
            raise ConfigError(f"output dir not writable: {exc}")
        if self.snapshot is None and not (self.repo and self.issues):
            raise ConfigError(
                "either a snapshot path or a repo plus issues file is required"
            )
        return self


# ---------------------------------------------------------------------------
# record (de)serialization
# ---------------------------------------------------------------------------

# the SourceElement fields an analysis stores; the rest are parser internals
_ELEMENT_KEYS = (
    "kind", "fqn", "path", "start_line", "end_line", "parent_fqn", "name",
    "modifiers", "param_types", "return_type", "degraded",
)
_TIMELINE_KEYS = tuple(f.name for f in dataclasses.fields(BugFixTimeline))


def _to_doc(record, keys):
    """The ``keys`` fields of a dataclass record as a JSON object; tuples
    become lists."""
    doc = {}
    for k in keys:
        v = getattr(record, k)
        doc[k] = list(v) if isinstance(v, tuple) else v
    return doc


def _from_doc(cls, doc):
    """The ``cls`` record a :func:`_to_doc` object holds; lists become
    tuples again."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def analysis_to_json(fa):
    """One file version's analysis as a JSON document."""
    return {
        "analyzer_version": ANALYZER_VERSION,
        "path": fa.path,
        "error": fa.error,
        "code_lines": sorted(fa.code_lines),
        "elements": [_to_doc(e, _ELEMENT_KEYS) for e in fa.elements],
        "vectors": {
            f"{kind}|{fqn}": {"level": v.level, "values": v.values}
            for (kind, fqn), v in sorted(fa.vectors.items())
        },
    }


def analysis_from_json(doc):
    elements = [_from_doc(SourceElement, e) for e in doc["elements"]]
    by_fqn = {(e.kind, e.fqn): e for e in elements}
    vectors = {}
    for key, vdoc in doc["vectors"].items():
        kind, fqn = key.split("|", 1)
        vectors[(kind, fqn)] = MetricsVector(
            level=vdoc["level"],
            values=dict(vdoc["values"]),
            element=by_fqn.get((kind, fqn)),
        )
    return FileAnalysis(
        path=doc["path"],
        elements=elements,
        vectors=vectors,
        code_lines=frozenset(doc["code_lines"]),
        error=doc["error"],
    )


def analysis_key(path, blob_sha):
    """Name of the analysis of one file version: the file's path and the
    sha of its content both shape the result (element FQNs carry the path)."""
    return hashlib.sha1(f"{blob_sha}\x00{path}".encode("utf-8")).hexdigest()


def _analyze_file(source):
    path, text = source
    return analysis_to_json(analyze_source(path, text))


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------

def _digest_file(path):
    if not os.path.exists(path):
        # the owning stage will raise a proper error when it tries to read it
        return f"missing:{os.path.basename(path)}"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_refs(repo):
    """HEAD and every ref of a local repository, so a new commit (or a moved
    branch) changes the snapshot fingerprint."""
    proc = subprocess.run(
        ["git", "-C", str(repo), "show-ref", "--head"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, doc):
    """Write ``doc`` whole to ``path``; returns ``path``."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return path


class _Stages:
    def __init__(self, out):
        self.out = out
        self.state_dir = os.path.join(out, ".stages")
        self.manifest = {}

    def rel(self, *parts):
        return os.path.join(self.out, *parts)

    def run(self, name, fingerprint, producer):
        """Run ``producer`` unless the stored fingerprint matches and every
        artifact the state records still exists.

        The producer returns the paths it wrote; the state records them
        relative to the output directory.  A fresh run deletes what the
        previous state recorded that this run did not write, and the temp
        files killed writers left where this run wrote.
        """
        state_path = os.path.join(self.state_dir, f"{name}.json")
        state = _read_json(state_path) if os.path.exists(state_path) else {}
        recorded = state.get("artifacts", [])
        cached = (
            state.get("fingerprint") == fingerprint
            and "artifacts" in state  # older states recorded no artifacts
            and all(os.path.exists(self.rel(a)) for a in recorded)
        )
        if not cached:
            # until the producer returns, the state has no fingerprint, so a
            # run that fails part-way never looks cached
            if state:
                _write_json(state_path, {"artifacts": recorded})
            try:
                written = producer()
            except Exception as exc:
                raise StageError(name, exc) from exc
            artifacts = sorted({os.path.relpath(p, self.out) for p in written})
            for stale in set(recorded) - set(artifacts):
                if os.path.exists(self.rel(stale)):
                    os.remove(self.rel(stale))
            for directory in {os.path.dirname(self.rel(a)) for a in artifacts}:
                remove_temp_files(directory)
            _write_json(state_path, {"fingerprint": fingerprint, "artifacts": artifacts})
            recorded = artifacts
        self.manifest[name] = {
            "status": "cached" if cached else "fresh",
            "artifacts": recorded,
        }
        return cached


def _fingerprint(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: PipelineConfig, stop_after=None) -> dict:
    """Execute the stage chain (optionally only up to ``stop_after``);
    returns the artifact manifest."""
    config.validate()
    stages = _Stages(config.out)
    for name in _stage_chain(config, stages):
        if name == stop_after:
            break
    manifest = {"stages": stages.manifest}
    _write_json(stages.rel("manifest.json"), manifest)
    return manifest


def _stage_chain(config, stages):
    """Run the stages in order, yielding each one's name once it has run."""
    # -- snapshot ----------------------------------------------------------
    snap_art = os.path.join("snapshot", "snapshot.json")
    snapshot = None

    def produce_snapshot():
        nonlocal snapshot
        if config.snapshot:
            snapshot = load_snapshot(config.snapshot)
        else:
            issues = load_issue_specs(config.issues)
            snapshot = snapshot_from_local_repo(
                config.repo,
                issues,
                bug_labels=frozenset(config.bug_labels),
                repo_id=config.repo_id,
            )
        save_snapshot(snapshot, stages.rel(snap_art))
        return [stages.rel(snap_art)]

    if config.snapshot:
        snap_fp = _fingerprint("snapshot", _digest_file(config.snapshot))
    else:
        snap_fp = _fingerprint(
            "local",
            _digest_file(config.issues),
            config.bug_labels,
            config.repo_id,
            _digest_refs(config.repo),
        )
    stages.run("snapshot", snap_fp, produce_snapshot)
    yield "snapshot"
    if snapshot is None:  # cached: the producer did not load it
        snapshot = load_snapshot(stages.rel(snap_art))
    history = HistoryIndex(snapshot)

    # -- link ---------------------------------------------------------------
    link_fp = _fingerprint(
        "link", _digest_file(stages.rel(snap_art)), config.keywords_only
    )

    def produce_link():
        timelines = [
            build_timeline(i, snapshot, history, config.keywords_only)
            for i in snapshot.issues
            if i.state == "closed" and i.fixing_commits
        ]
        plan = select_analysis_commits(timelines, history)
        write_plan(plan, stages.rel("plan.txt"))
        return [
            stages.rel("plan.txt"),
            _write_json(
                stages.rel("link", "timelines.json"),
                {"timelines": [_to_doc(t, _TIMELINE_KEYS) for t in timelines]},
            ),
        ]

    stages.run("link", link_fp, produce_link)
    yield "link"
    timelines = [
        _from_doc(BugFixTimeline, d)
        for d in _read_json(stages.rel("link", "timelines.json"))["timelines"]
    ]

    # -- analyze ------------------------------------------------------------
    # One analysis/<key>.json per distinct (path, blob) version, plus an
    # index commit -> {path: key}; a commit's mode only decides below
    # whether its vectors feed metrics_by_commit.
    needed = _analysis_needs(snapshot, timelines, stages.rel("plan.txt"))
    index_art = os.path.join("analysis", "index.json")
    analyze_fp = _fingerprint(
        "analyze-by-blob",
        ANALYZER_VERSION,
        sorted(needed.items()),
        config.test_globs,
        _digest_file(stages.rel(snap_art)),
    )

    def produce_analyze():
        if config.repo is None:
            raise ConfigError("analysis requires a local repository checkout")
        index, versions = {}, {}
        with GitRepo(config.repo) as repo:
            for h in sorted(needed):
                files = index[h] = {}
                for path, sha in sorted(repo.tree_blobs(h).items()):
                    if path.endswith(".java") and not is_test_path(
                        path, config.test_globs
                    ):
                        files[path] = key = analysis_key(path, sha)
                        versions[key] = (path, sha)
            keys = sorted(versions)
            sources = (
                (path, repo.read_object(sha).decode("utf-8", "replace"))
                for path, sha in map(versions.get, keys)
            )

            def write_all(docs):
                return [
                    _write_json(stages.rel("analysis", f"{key}.json"), doc)
                    for key, doc in zip(keys, docs)
                ]

            if config.jobs > 1:
                # the pool shuts down inside the reader's block: forked
                # workers hold copies of its pipes, so they must exit before
                # closing the reader's input can end it
                with concurrent.futures.ProcessPoolExecutor(config.jobs) as pool:
                    written = write_all(pool.map(_analyze_file, sources))
            else:
                written = write_all(map(_analyze_file, sources))
        return written + [_write_json(stages.rel(index_art), index)]

    stages.run("analyze", analyze_fp, produce_analyze)
    yield "analyze"

    # -- build --------------------------------------------------------------
    build_fp = _fingerprint(
        "build", analyze_fp, config.ignore_comment_only
    )

    def produce_build():
        decoded = {}  # key -> FileAnalysis, shared by every commit holding it

        def load(key):
            if key not in decoded:
                decoded[key] = analysis_from_json(
                    _read_json(stages.rel("analysis", f"{key}.json"))
                )
            return decoded[key]

        analyses = {
            h: {path: load(key) for path, key in files.items()}
            for h, files in _read_json(stages.rel(index_art)).items()
        }
        metrics_by_commit = {
            h: {k: v for fa in analyses[h].values() for k, v in fa.vectors.items()}
            for h, mode in needed.items()
            if mode == "full"
        }
        live = [t for t in timelines if not t.degraded and t.orange]
        touch_sets = [
            ds.accumulate_issue_touches(
                t, snapshot, analyses, config.ignore_comment_only
            )
            for t in live
        ]
        result = ds.build_entries(touch_sets, live, metrics_by_commit, history)
        written = ds.export_dataset(
            result.entries_by_level, stages.rel("dataset", "full")
        )
        drop_log = stages.rel("build", "drop_log.txt")
        with atomic_open(drop_log) as fh:
            for issue_id, commit, level, fqn, reason in result.drop_log:
                fh.write(f"{issue_id}\t{commit}\t{level}\t{fqn}\t{reason}\n")
        return [*written.values(), drop_log]

    stages.run("build", build_fp, produce_build)
    yield "build"

    # -- filter -------------------------------------------------------------
    filter_fp = _fingerprint("filter-with-parents", build_fp, config.seed)

    def produce_filter():
        entries_by_level = {
            level: ds.load_entries_csv(
                stages.rel("dataset", "full", _entries_csv(level)), level
            )
            for level in ds.LEVELS
        }
        written = []
        for strat in STRATEGIES:
            if strat == "none":  # evaluated on dataset/full
                continue
            filtered = {
                level: filter_entries(entries, strat, rng_seed=config.seed)
                for level, entries in entries_by_level.items()
            }
            written += ds.export_dataset(filtered, stages.rel("dataset", strat)).values()
        return written

    stages.run("filter", filter_fp, produce_filter)
    yield "filter"

    # -- evaluate -----------------------------------------------------------
    eval_fp = _fingerprint(
        "evaluate",
        filter_fp,
        config.levels,
        config.algorithms,
        config.eval_filters,
        config.seed,
        config.repeats,
        config.folds,
    )

    def produce_evaluate():
        rows, fold_rows = [], []
        for strat, level, result_set in evaluate_filters(config):
            if isinstance(result_set, FixpairError):
                rows.append((strat, level, "-", "", "", "", f"skipped: {result_set}"))
                continue
            for algo, res in result_set.items():
                rows.append(
                    (
                        strat,
                        level,
                        algo,
                        f"{res.precision:.4f}",
                        f"{res.recall:.4f}",
                        f"{res.f_measure:.4f}",
                        "",
                    )
                )
                for fi, m in enumerate(res.fold_matrices):
                    p = prf(m)
                    fold_rows.append(
                        (
                            strat, level, algo, fi,
                            m.tp, m.fp, m.tn, m.fn,
                            f"{p.f_measure:.6f}",
                        )
                    )
        return _write_results(stages.rel("eval"), rows, fold_rows)

    stages.run("evaluate", eval_fp, produce_evaluate)
    yield "evaluate"

    # -- stats --------------------------------------------------------------
    stats_fp = _fingerprint("stats", eval_fp)

    def produce_stats():
        return emit_stats_tables(stages.rel("eval", "folds.csv"), stages.rel("stats"))

    stages.run("stats", stats_fp, produce_stats)
    yield "stats"


def _analysis_needs(snapshot, timelines, plan_path) -> dict:
    """Commit -> mode map: the link stage's plan commits plus green parents
    (positions)."""
    plan = read_plan(plan_path)
    needed = {e.commit_hash: ("full" if e.full_analysis else "pos") for e in plan.entries}
    for t in timelines:
        if t.degraded or t.orange is None:
            continue
        for green_hash in t.green:
            commit = snapshot.commit(green_hash)
            if commit is None or not commit.parents:
                continue
            parent = commit.parents[0]
            if snapshot.commit(parent) is not None:
                needed.setdefault(parent, "pos")
    return needed


def dataset_dir(out, strategy):
    """The exported dataset a filter strategy is evaluated on; ``none`` and
    ``full`` both mean the unfiltered one."""
    name = "full" if strategy in ("none", "full") else strategy
    return os.path.join(out, "dataset", name)


def _entries_csv(level):
    """The exported file that holds every column of a level's entries."""
    return "method-p.csv" if level == "method" else f"{level}.csv"


def evaluate_level(dataset_dir, level, algorithms, seed, repeats, k=10):
    """Cross-validate every algorithm on one exported dataset level."""
    entries = ds.load_entries_csv(os.path.join(dataset_dir, _entries_csv(level)), level)
    instances = instances_from_entries(entries, level)
    return {
        algo: cross_validate(algo, instances, k=k, repeats=repeats, seed=seed)
        for algo in algorithms
    }


def evaluate_filters(config):
    """Yield ``(filter, level, results)`` for each of the config's filters
    and levels, in order.

    ``results`` maps algorithm -> EvalResult, or is the ``FixpairError``
    that stopped the level.  Each dataset file is cross-validated once:
    ``projected`` is the class projection of the ``method`` folds, so a
    failed method CV stops both levels, a failed projection only its own.
    """
    for strat in config.eval_filters:
        path = dataset_dir(config.out, strat)
        by_source = {}
        for level in config.levels:
            source = "method" if level == "projected" else level
            if source not in by_source:
                try:
                    by_source[source] = evaluate_level(
                        path, source, config.algorithms,
                        seed=config.seed, repeats=config.repeats, k=config.folds,
                    )
                except FixpairError as exc:
                    by_source[source] = exc
            results = by_source[source]
            if level == "projected" and not isinstance(results, FixpairError):
                try:
                    results = {algo: project_folds(r) for algo, r in results.items()}
                except FixpairError as exc:
                    results = exc
            yield strat, level, results


def _write_results(eval_dir, rows, fold_rows):
    """Write results.csv, folds.csv and results.txt; returns their paths."""
    paths = [
        os.path.join(eval_dir, name)
        for name in ("results.csv", "folds.csv", "results.txt")
    ]
    with atomic_open(paths[0], newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["filter", "level", "algorithm", "precision", "recall", "f_measure", "note"])
        w.writerows(rows)
    with atomic_open(paths[1], newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["filter", "level", "algorithm", "fold", "tp", "fp", "tn", "fn", "f_measure"])
        w.writerows(fold_rows)
    widths = (10, 10, 15, 10, 10, 10)
    lines = [
        "".join(
            str(v).ljust(w)
            for v, w in zip(("filter", "level", "algorithm", "prec", "recall", "F"), widths)
        )
    ]
    for row in rows:
        lines.append(
            "".join(str(v).ljust(w) for v, w in zip(row[:6], widths))
            + (row[6] or "")
        )
    with atomic_open(paths[2]) as fh:
        fh.write("\n".join(lines) + "\n")
    return paths


def emit_stats_tables(folds_csv, stats_dir):
    """Friedman + Nemenyi tables over the per-fold F values.

    Treatments are algorithms (per level and filter); paired samples are the
    folds, which share indices across algorithms by construction.  Returns
    the paths written: ``summary.txt`` and one Nemenyi table per group.
    """
    per_group = {}
    with open(folds_csv, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["filter"], rec["level"])
            per_group.setdefault(key, {}).setdefault(rec["algorithm"], []).append(
                float(rec["f_measure"])
            )
    summary, written = [], []
    for (strat, level), by_algo in sorted(per_group.items()):
        algos = sorted(by_algo)
        if len(algos) < 2:
            continue
        n_folds = min(len(v) for v in by_algo.values())
        if n_folds < 2:
            continue
        rows = [[by_algo[a][i] for a in algos] for i in range(n_folds)]
        matrix = PairedSampleMatrix.from_rows(rows, col_labels=algos)
        fr = friedman(matrix)
        summary.append(
            f"[{strat}/{level}] friedman chi2={fr.statistic:.4f} p={fr.p_value:.4g}"
            + (" (degenerate)" if fr.degenerate else "")
        )
        nem = nemenyi(matrix)
        table = format_significance_table(nem)
        written.append(os.path.join(stats_dir, f"nemenyi_{strat}_{level}.txt"))
        with atomic_open(written[-1]) as fh:
            fh.write(table + "\n")
    written.append(os.path.join(stats_dir, "summary.txt"))
    with atomic_open(written[-1]) as fh:
        fh.write("\n".join(summary) + ("\n" if summary else ""))
    return written
