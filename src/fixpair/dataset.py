"""Combine timelines, touched elements, and metrics into dataset entries.

Every bug yields, for each source element its fixes touched, one entry with
the metrics right before the first fix (at the orange commit) and one with
the metrics at the last fixing commit.  Bug cardinality of an entry counts
every issue whose buggy interval covers that commit and whose fixes touched
that element, so a "fixed" entry can still carry a positive count from an
overlapping other bug.
"""

import csv
import os
from dataclasses import dataclass

from .atomic import atomic_open
from .diffs import changed_lines, elements_touched
from .errors import AnalysisMissingError
from .ingest import finite, read_csv
from .linker import buggy_interval_positions
from .metrics import COLUMNS_BY_LEVEL

LEVELS = ("file", "class", "method")


@dataclass(frozen=True)
class DatasetEntry:
    """One element at one commit; ``metrics`` maps metric column -> value."""

    commit_hash: str
    fqn: str
    level: str
    metrics: dict
    bug_count: int
    parent_fqn: str = None


def _elements_for(analyses, commit_hash, path):
    per_commit = analyses.get(commit_hash)
    if per_commit is None:
        raise AnalysisMissingError(commit_hash)
    fa = per_commit.get(path)
    return fa.elements if fa is not None else []


def _code_lines_for(analyses, commit_hash, path):
    fa = analyses.get(commit_hash, {}).get(path)
    return fa.code_lines if fa is not None else frozenset()


def _comment_only(diff, analyses, parent_hash, commit_hash):
    """True when no modified line on either side carries code tokens."""
    old = changed_lines(diff, "old")
    new = changed_lines(diff, "new")
    old_code = _code_lines_for(analyses, parent_hash, diff.old_path)
    new_code = _code_lines_for(analyses, commit_hash, diff.new_path)
    return bool(old or new) and old.isdisjoint(old_code) and new.isdisjoint(new_code)


def accumulate_issue_touches(
    timeline, snapshot, analyses, ignore_comment_only=False
) -> dict:
    """Union of elements touched by any of the timeline's fixing commits, as
    {level -> set of FQNs} for every level.

    ``analyses`` maps commit hash -> {path -> FileAnalysis} and must cover
    every green commit and its first parent.  The result is closed upward:
    a touched method implies its class and file.
    """
    touches = {level: set() for level in LEVELS}
    for green_hash in timeline.green:
        commit = snapshot.commit(green_hash)
        if commit is None:
            raise AnalysisMissingError(green_hash, "commit not in snapshot")
        parent_hash = commit.parents[0] if commit.parents else None
        for diff in commit.file_diffs:
            if ignore_comment_only and parent_hash is not None:
                if _comment_only(diff, analyses, parent_hash, green_hash):
                    continue
            if not diff.is_add and parent_hash is not None:
                old_elems = _elements_for(analyses, parent_hash, diff.old_path)
                _add_touched(touches, changed_lines(diff, "old"), old_elems)
            if not diff.is_delete:
                new_elems = _elements_for(analyses, green_hash, diff.new_path)
                _add_touched(touches, changed_lines(diff, "new"), new_elems)
    return touches


def _add_touched(touches, lines, file_elements):
    first = {e.fqn: e for e in reversed(file_elements)}  # first element per FQN
    for fqn in elements_touched(lines, file_elements):
        _add_with_closure(touches, first[fqn])


def _add_with_closure(touches, elem):
    touches[elem.kind].add(elem.fqn)
    if elem.kind == "method":
        if elem.parent_fqn:
            touches["class"].add(elem.parent_fqn)
        touches["file"].add(elem.path)
    elif elem.kind == "class":
        touches["file"].add(elem.path)


@dataclass
class BuildResult:
    entries_by_level: dict
    drop_log: list


def build_entries(bugs, metrics_by_commit, history) -> BuildResult:
    """Before-fix and after-fix entries for every touched element.

    ``bugs`` holds a ``(timeline, touches)`` pair for every live timeline,
    with ``touches`` from :func:`accumulate_issue_touches`.
    ``metrics_by_commit`` maps commit hash -> {(level, fqn) -> MetricsVector}
    and must hold full metrics for the orange and last-green commit of each.
    """
    intervals_by_element = {}  # (level, fqn) -> buggy intervals of its issues
    for t, touches in bugs:
        interval = buggy_interval_positions(t, history)
        for level, fqns in touches.items():
            for fqn in fqns:
                intervals_by_element.setdefault((level, fqn), []).append(interval)

    def bug_count(commit_hash, level, fqn):
        pos = history.resolve(commit_hash)
        return sum(pos in iv for iv in intervals_by_element.get((level, fqn), ()))

    drop_log = []
    wanted = {}  # (commit, level, fqn) -> None, dedup across issues
    for t, touches in bugs:
        states = (
            (t.orange, "created by the fix"),
            (t.last_green, "gone after the fix"),
        )
        for level in LEVELS:
            for fqn in sorted(touches[level]):
                for commit, reason in states:
                    if commit not in metrics_by_commit:
                        raise AnalysisMissingError(
                            commit, f"needed by issue {t.issue_id}"
                        )
                    if (level, fqn) in metrics_by_commit[commit]:
                        wanted[(commit, level, fqn)] = None
                    else:
                        drop_log.append((t.issue_id, commit, level, fqn, reason))

    entries_by_level = {l: [] for l in LEVELS}
    for commit_hash, level, fqn in wanted:
        vec = metrics_by_commit[commit_hash][(level, fqn)]
        entries_by_level[level].append(
            DatasetEntry(
                commit_hash=commit_hash,
                fqn=fqn,
                level=level,
                metrics=vec.values,
                bug_count=bug_count(commit_hash, level, fqn),
                parent_fqn=vec.element.parent_fqn if vec.element else None,
            )
        )
    for level in LEVELS:
        entries_by_level[level].sort(
            key=lambda e: (history.resolve(e.commit_hash), e.fqn)
        )
    return BuildResult(entries_by_level=entries_by_level, drop_log=drop_log)


def format_metric(value) -> str:
    if value is None:
        return ""
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def export_csv(entries, level, path, parent_column=False) -> None:
    """Write one level's entries as an RFC-4180 CSV with fixed column order."""
    columns = COLUMNS_BY_LEVEL[level]
    header = ["hash", "fqn"]
    if parent_column:
        header.append("parent_fqn")
    header.extend(columns)
    header.append("bug_count")
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for e in entries:
            if e.level != level:
                raise ValueError(
                    f"entry {e.fqn} has level {e.level}, expected {level}"
                )
            row = [e.commit_hash, e.fqn]
            if parent_column:
                row.append(e.parent_fqn or "")
            row.extend(format_metric(e.metrics.get(c)) for c in columns)
            row.append(str(e.bug_count))
            writer.writerow(row)


def load_entries_csv(path, level) -> list:
    """Read an exported CSV back into dataset entries (inverse of export).

    A file that cannot be read or a cell that is not a finite number is a
    ``SnapshotFormatError`` naming the file (and the line).
    """
    columns = COLUMNS_BY_LEVEL[level]
    return read_csv(
        path,
        lambda rec: DatasetEntry(
            commit_hash=rec["hash"],
            fqn=rec["fqn"],
            level=level,
            metrics={c: finite(rec[c]) for c in columns if rec.get(c, "") != ""},
            bug_count=int(rec["bug_count"]),
            parent_fqn=rec.get("parent_fqn") or None,
        ),
    )


def export_dataset(entries_by_level, directory) -> dict:
    """Write file.csv, class.csv, method.csv, method-p.csv under ``directory``."""
    paths = {}
    for level in LEVELS:
        path = os.path.join(directory, f"{level}.csv")
        export_csv(entries_by_level.get(level, []), level, path)
        paths[f"{level}.csv"] = path
    mp = os.path.join(directory, "method-p.csv")
    export_csv(entries_by_level.get("method", []), "method", mp, parent_column=True)
    paths["method-p.csv"] = mp
    return paths
