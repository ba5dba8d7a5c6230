"""Link bug reports to commits and classify commit roles.

Roles around one bug report:

* green: commits referencing the report (message ``#id`` token or the
  tracker's recorded closing commit), ordered by history.
* orange: the walked-chain parent of the first green commit, i.e. the last
  state in which the bug is known present and unfixed.
* gray: walked-chain commits strictly between the first and last green that
  do not reference the report.
* blue: walked-chain commits from the report's creation up to and including
  the orange commit; the bug is considered present in all of them.

History is the first-parent chain of the default branch; commits that are
not on that chain resolve to the position of the merge that first made them
reachable.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .atomic import atomic_open
from .errors import FixpairError

ISSUE_KEYWORDS = (
    "fix", "fixes", "fixed", "close", "closes", "closed",
    "resolve", "resolves", "resolved",
)

_REF_RE = re.compile(r"#(\d+)")
_FOREIGN_RE = re.compile(r"[A-Za-z0-9_.\-]+/[A-Za-z0-9_.\-]+#\d+")
_KEYWORD_RE = re.compile(
    r"(?i)\b(?:%s)\s*:?\s*(?:issue\s*)?$" % "|".join(ISSUE_KEYWORDS)
)


def extract_issue_refs(message: str, keywords_only: bool = False) -> set:
    """Distinct issue ids referenced from a commit message.

    Cross-repository ``owner/repo#id`` references are skipped.  Every other
    ``#id`` counts, unless ``keywords_only`` keeps only the ones a
    fix/close/resolve keyword introduces, with a word boundary before the
    ``#``.
    """
    foreign_spans = [(m.start(), m.end()) for m in _FOREIGN_RE.finditer(message)]
    ids = set()
    for m in _REF_RE.finditer(message):
        number = int(m.group(1))
        hash_pos = m.start()
        if number <= 0 or any(a <= hash_pos < b for a, b in foreign_spans):
            continue
        if keywords_only:
            before = message[:hash_pos]
            prev = before[-1:]
            if prev.isalnum() or prev == "_" or not _KEYWORD_RE.search(before):
                continue
        ids.add(number)
    return ids


class HistoryIndex:
    """First-parent chain positions plus merge-resolution for side commits.

    It also answers which commits reference an issue: the message of every
    commit is scanned once per ``keywords_only`` mode, on first use.
    """

    def __init__(self, snapshot):
        self.snapshot = snapshot
        chain = []
        timestamps = []
        cursor = snapshot.head
        seen = set()
        while cursor is not None and cursor.hash not in seen:
            chain.append(cursor.hash)
            timestamps.append(cursor.timestamp)
            seen.add(cursor.hash)
            cursor = (
                snapshot.commit(cursor.parents[0]) if cursor.parents else None
            )
        chain.reverse()  # position 0 = root, last = head
        timestamps.reverse()
        self.chain = chain
        self.timestamps = timestamps
        # latest[p]: the latest timestamp at positions 0..p, nondecreasing
        self.latest = list(accumulate(timestamps, max))
        self.resolved = {h: i for i, h in enumerate(chain)}
        self._referencing = {}  # keywords_only -> {issue id: [commit hash]}
        # ascending walk assigns each off-chain commit the earliest chain
        # position from which it is reachable: its merge commit's position
        visited = set(chain)
        for idx, h in enumerate(chain):
            stack = [p for p in snapshot.commit(h).parents]
            while stack:
                ph = stack.pop()
                if ph in visited:
                    continue
                commit = snapshot.commit(ph)
                if commit is None:
                    continue
                visited.add(ph)
                self.resolved[ph] = idx
                stack.extend(commit.parents)

    def referencing(self, issue_id, keywords_only=False):
        """Hashes of the snapshot's commits whose messages reference the issue."""
        refs = self._referencing.get(keywords_only)
        if refs is None:
            refs = {}
            for c in self.snapshot.commits:
                for ref in extract_issue_refs(c.message, keywords_only=keywords_only):
                    refs.setdefault(ref, []).append(c.hash)
            self._referencing[keywords_only] = refs
        return refs.get(issue_id, ())

    def resolve(self, commit_hash):
        return self.resolved.get(commit_hash)

    def at(self, position):
        return self.chain[position]

    def order_key(self, commit_hash):
        commit = self.snapshot.commit(commit_hash)
        return (
            self.resolved.get(commit_hash, -1),
            commit.timestamp if commit else None,
            commit_hash,
        )


@dataclass(frozen=True)
class BugFixTimeline:
    issue_id: int
    orange: str = None
    green: tuple = ()
    gray: tuple = ()
    blue: tuple = ()
    degraded: bool = False
    missing: tuple = ()  # fixing commits that are gone from the snapshot
    notes: tuple = ()

    @property
    def last_green(self):
        return self.green[-1] if self.green else None

    @property
    def live(self):
        """Whether the bug feeds the dataset: it has an orange state (and so
        a green commit) and no fixing commit is missing."""
        return not self.degraded and self.orange is not None


def build_timeline(issue, snapshot, history=None, keywords_only=False) -> BugFixTimeline:
    """Classify commits around one closed issue per the role definitions."""
    if issue.state != "closed" or not issue.fixing_commits:
        raise FixpairError(
            f"issue {issue.id} is not a stored closed bug with fixing commits"
        )
    history = history or HistoryIndex(snapshot)
    notes = []

    tracker_greens = {h for h, _ in issue.fixing_commits}
    message_greens = set(history.referencing(issue.id, keywords_only))
    silent = sorted(tracker_greens - message_greens)
    if silent:
        notes.append(
            "tracker closing commit(s) without message reference: "
            + ", ".join(silent)
        )

    greens = tracker_greens | message_greens
    missing = sorted(
        h for h in greens if snapshot.commit(h) is None or history.resolve(h) is None
    )
    greens = [h for h in greens if h not in missing]
    degraded = bool(missing)
    if not greens:
        return BugFixTimeline(
            issue_id=issue.id,
            degraded=True,
            missing=tuple(missing),
            notes=tuple(notes) + ("no resolvable fixing commit",),
        )

    greens.sort(key=history.order_key)
    p_first = history.resolve(greens[0])
    p_last = history.resolve(greens[-1])
    if p_first == 0:
        return BugFixTimeline(
            issue_id=issue.id,
            green=tuple(greens),
            degraded=True,
            missing=tuple(missing),
            notes=tuple(notes) + ("first fix is the root commit: no orange state",),
        )

    orange = history.at(p_first - 1)
    green_positions = {history.resolve(h) for h in greens}
    gray = [
        history.at(p)
        for p in range(p_first + 1, p_last)
        if p not in green_positions
    ]
    # every commit before the first position whose latest timestamp reaches
    # the creation is older than the issue
    first_blue = bisect_left(history.latest, issue.created_at, 0, p_first)
    blue = [
        history.at(p)
        for p in range(first_blue, p_first)
        if history.timestamps[p] >= issue.created_at
    ]
    return BugFixTimeline(
        issue_id=issue.id,
        orange=orange,
        green=tuple(greens),
        gray=tuple(gray),
        blue=tuple(blue),
        degraded=degraded,
        missing=tuple(missing),
        notes=tuple(notes),
    )


def buggy_interval_positions(timeline, history):
    """Chain positions where the bug is present (orange back through blue,
    forward through everything before the last fix); ``timeline`` is live."""
    start = history.resolve(timeline.orange)
    if timeline.blue:
        start = min(start, min(history.resolve(h) for h in timeline.blue))
    end = history.resolve(timeline.last_green)  # exclusive
    return range(start, end)


@dataclass(frozen=True)
class PlanEntry:
    commit_hash: str
    full_analysis: bool


@dataclass(frozen=True)
class AnalysisPlan:
    entries: tuple = ()


def select_analysis_commits(timelines, history) -> AnalysisPlan:
    """Deduplicated, history-ordered commits that require analysis.

    Orange and last-green commits need full analysis (metrics); intermediate
    greens only need element positions, so they carry ``full_analysis=False``
    unless another timeline promotes them.
    """
    full = {}
    for t in timelines:
        if not t.live:
            continue
        wants = {t.orange: True, t.last_green: True}
        for h in t.green[:-1]:
            wants.setdefault(h, False)
        for h, is_full in wants.items():
            full[h] = full.get(h, False) or is_full
    ordered = sorted(full, key=history.order_key)
    return AnalysisPlan(
        entries=tuple(PlanEntry(h, full[h]) for h in ordered)
    )


def write_plan(plan, path):
    with atomic_open(path) as fh:
        for e in plan.entries:
            fh.write(f"{e.commit_hash} {'full' if e.full_analysis else 'pos'}\n")

