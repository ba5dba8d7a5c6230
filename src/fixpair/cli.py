"""Command-line interface.

Subcommands mirror the stage chain: fetch, link, analyze, build, filter,
evaluate, stats, run.  Exit codes: 0 ok, 2 configuration problem, 3 data
problem, 4 stage failure.
"""

import argparse
import dataclasses
import functools
import os
import sys
import warnings

from .errors import ConfigError, FixpairError, SnapshotFormatError, StageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STAGE = 4


def _add_pipeline_args(p):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--out", help="output directory")
    p.add_argument("--snapshot", help="path to an existing snapshot file")
    p.add_argument("--repo", help="local git clone used for checkouts")
    p.add_argument("--issues", help="issues JSON for offline snapshot building")
    p.add_argument("--repo-id", dest="repo_id", help="repository id for the snapshot")
    p.add_argument(
        "--bug-label",
        dest="bug_labels",
        action="append",
        help="issue label marking bugs (repeatable; default: bug)",
    )
    p.add_argument("--seed", type=int, help="master seed (default 42)")
    p.add_argument("--repeats", type=int, help="under-sampling repeats per fold")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
    p.add_argument(
        "--jobs",
        type=int,
        help="worker processes analysing distinct file versions; "
        "git is read in the main process",
    )
    p.add_argument(
        "--filter",
        dest="eval_filters",
        action="append",
        help="filter strategy evaluated by the harness (repeatable)",
    )
    p.add_argument(
        "--level",
        dest="levels",
        action="append",
        help="evaluation level (repeatable)",
    )
    p.add_argument(
        "--algo",
        dest="algorithms",
        action="append",
        help="learning algorithm (repeatable)",
    )
    p.add_argument(
        "--test-glob",
        dest="test_globs",
        action="append",
        help="path glob excluded as test code (default **/test/**)",
    )
    p.add_argument("--keywords-only", action="store_true", default=None)
    p.add_argument("--ignore-comment-only", action="store_true", default=None)


def _config_from_args(args, defaults):
    """The settings in ``defaults``, overridden by the ``--config`` file's
    keys, overridden by the flags given."""
    from .pipeline import PipelineConfig

    settings = dict(defaults)
    if args.config:
        settings.update(PipelineConfig.file_settings(args.config))
    for f in dataclasses.fields(PipelineConfig):
        if getattr(args, f.name, None) is not None:
            settings[f.name] = getattr(args, f.name)
    if "out" not in settings:
        raise ConfigError("--out (or a config file with 'out') is required")
    return PipelineConfig(**settings)


def _cmd_stage(args, stage):
    from .pipeline import run_pipeline

    config = _config_from_args(args, {})
    manifest = run_pipeline(config, stop_after=stage)
    for name, info in manifest["stages"].items():
        print(f"{name}: {info['status']} ({len(info['artifacts'])} artifacts)")
    return EXIT_OK


def _cmd_fetch(args):
    if not args.from_local:
        raise ConfigError(
            "fetch --repo needs --from-local CLONE: the history comes from a "
            "local clone of the repository" if args.repo else
            "fetch needs --from-local CLONE, with --repo owner/name or --issues"
        )
    if args.repo and args.issues:
        raise ConfigError("--repo and --issues exclude each other")
    if not (args.repo or args.issues):
        raise ConfigError("--from-local needs --issues")
    from .ingest import load_issue_specs, save_snapshot, snapshot_from_local_repo

    bug_labels = frozenset(args.bug_labels or ["bug"])
    if args.repo:
        from .github import fetch_issues

        issues = fetch_issues(
            args.repo, args.token, bug_labels=bug_labels, api_base=args.api_base
        )
    else:
        issues = load_issue_specs(args.issues)
    snapshot = snapshot_from_local_repo(
        args.from_local,
        issues,
        bug_labels=bug_labels,
        repo_id=args.repo_id or args.repo,
    )
    save_snapshot(snapshot, args.out)
    print(
        f"snapshot: {len(snapshot.issues)} issues, "
        f"{len(snapshot.commits)} commits -> {args.out}"
    )
    return EXIT_OK


def _cmd_evaluate(args):
    if args.external_predictions:
        from .learn.evaluate import evaluate_external, load_predictions_csv

        config = _config_from_args(args, {"out": None, "levels": ("method",)})
        rows = load_predictions_csv(args.external_predictions)
        projected = "projected" in config.levels
        res = evaluate_external(rows, projected=projected)
        print(
            f"external {'projected' if projected else 'instances'}: "
            f"precision={res.precision:.4f} "
            f"recall={res.recall:.4f} f={res.f_measure:.4f}"
        )
        return EXIT_OK

    from .pipeline import dataset_dir, evaluate_filters

    # only the method level unless --level or the config file names levels
    config = _config_from_args(args, {"levels": ("method",)})
    for strat in config.eval_filters:
        path = dataset_dir(config.out, strat)
        if not os.path.isdir(path):
            raise SnapshotFormatError(f"dataset directory missing: {path}")
    print(f"{'filter':10}{'level':10}{'algorithm':16}{'prec':>8}{'recall':>8}{'F':>8}")
    for strat, level, results in evaluate_filters(config):
        if isinstance(results, FixpairError):
            raise results
        for algo, res in results.items():
            print(
                f"{strat:10}{level:10}{algo:16}{res.precision:8.4f}"
                f"{res.recall:8.4f}{res.f_measure:8.4f}"
            )
    return EXIT_OK


def _cmd_stats(args):
    from .stats import format_significance_table, friedman, nemenyi

    if args.matrix and args.out:
        raise ConfigError("--matrix and --out exclude each other")
    if args.alpha is not None:
        if args.out:
            raise ConfigError("--alpha applies to --matrix; the --out tables use 0.05")
        if not 0 < args.alpha < 1:
            raise ConfigError(f"--alpha must be in (0, 1), got {args.alpha}")
    if args.matrix:
        matrix = _read_matrix(args.matrix)
        fr = friedman(matrix)
        print(f"friedman chi2={fr.statistic:.6f} p={fr.p_value:.6g}")
        alpha = 0.05 if args.alpha is None else args.alpha
        print(format_significance_table(nemenyi(matrix, alpha=alpha)))
        return EXIT_OK
    if not args.out:
        raise ConfigError("stats needs --matrix or --out")
    from .pipeline import emit_stats_tables

    folds = os.path.join(args.out, "eval", "folds.csv")
    if not os.path.exists(folds):
        raise SnapshotFormatError(f"no evaluation fold data at {folds}")
    emit_stats_tables(folds, os.path.join(args.out, "stats"))
    with open(os.path.join(args.out, "stats", "summary.txt"), encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


def _read_matrix(path):
    """The matrix of a CSV file whose first column labels the rows; its first
    row names the treatments unless that row is numeric."""
    import csv
    from io import StringIO

    from .ingest import finite, read_input
    from .stats import PairedSampleMatrix

    records = read_input(path, lambda t: list(csv.reader(StringIO(t, newline=""))))
    try:
        header = records[0] if records else []
        if len(header) < 2:
            raise FixpairError("row 1: needs a row label and a treatment column")
        labels = None if _is_float(header[1]) else header[1:]
        first = 2 if labels else 1
        rows = []
        for row, rec in enumerate(records[first - 1:], start=first):
            try:
                rows.append([finite(v) for v in rec[1:]])
            except ValueError as exc:
                raise FixpairError(f"row {row}: {exc}") from None
        return PairedSampleMatrix.from_rows(rows, col_labels=labels)
    except FixpairError as exc:
        raise SnapshotFormatError(str(exc), path=path) from None


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


@functools.cache
def build_parser():
    """The command-line parser, built once: ``parse_args`` keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="fixpair",
        description=(
            "Mine before-fix/after-fix bug datasets from git history and "
            "evaluate them with the built-in learning harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    about = ("capture a snapshot: a local clone's history plus the issues "
             "read from GitHub (--repo) or from a file (--issues)")
    p = sub.add_parser("fetch", help=about, description=about)
    p.add_argument("--from-local", help="local git clone whose history is captured")
    p.add_argument("--repo", help="owner/name on GitHub whose issues are read")
    p.add_argument("--issues", help="issues JSON file, read instead of --repo")
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.add_argument(
        "--repo-id", dest="repo_id",
        help="repository id for the snapshot (default: --repo, else the "
        "clone's directory name)",
    )
    p.add_argument("--bug-label", dest="bug_labels", action="append")
    p.add_argument("--token", help="API token (or set FIXPAIR_GITHUB_TOKEN)")
    p.add_argument("--api-base", default="https://api.github.com")
    p.set_defaults(func=_cmd_fetch)

    for stage in ("link", "analyze", "build", "filter"):
        p = sub.add_parser(stage, help=f"run the pipeline through the {stage} stage")
        _add_pipeline_args(p)
        p.set_defaults(func=lambda a, s=stage: _cmd_stage(a, s))

    p = sub.add_parser("evaluate", help="cross-validate learners on a dataset")
    _add_pipeline_args(p)
    p.add_argument(
        "--external-predictions",
        help="CSV of fqn,parent_fqn,predicted,actual rows to score instead",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="significance tables (Friedman + Nemenyi)")
    p.add_argument("--out", help="pipeline output dir with eval results")
    p.add_argument("--matrix", help="CSV matrix: first column labels, one treatment per column")
    p.add_argument("--alpha", type=float, help="Nemenyi level for --matrix (default 0.05)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("run", help="run the full pipeline")
    _add_pipeline_args(p)
    p.set_defaults(func=lambda a: _cmd_stage(a, None))

    return parser


def _show_warning(message, *location):
    """Show a warning as one plain line, without its category and source
    location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except FixpairError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
