"""Deterministic benchmark inputs: a git history, an issues file, and the
ground truth fixpair's outputs are checked against.

``generate(workload, seed, dest)`` writes ``dest/repo.git`` (a bare
repository made by one ``git fast-import``) and ``dest/issues.json`` (the
tracker export ``fixpair fetch --from-local`` reads), and returns the
history, whose ``truth()`` is a :class:`Truth`.  The truth comes from the generator's own model of the Java
sources it writes and of the role definitions in fixpair's README, never
from fixpair itself:

* orange is the first-parent predecessor of the first fix; it and the last
  fix are analysed in full, earlier fixes for positions only;
* a fix touches exactly the methods whose statements it edits, plus their
  class and file (every edited line is unique in its file, so git's diff
  marks exactly those lines);
* a bug is present on first-parent positions ``[start, last fix)``, where
  ``start`` is the first position at or after the report's creation,
  capped at orange; an entry's bug count is the number of bugs present at
  its commit that touched its element.

The shape of each workload (files, commits, bugs, fixes per bug, rows per
level) does not depend on the seed; the seed picks names, statements, which
methods each bug touches and where in the history fixes fall.
"""

import copy
import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass, field

from checks import LEVELS

BASE_TS = 1_600_000_000  # first commit; first-parent commits are an hour apart
HOUR = 3600


@dataclass(frozen=True)
class Shape:
    files: int  # main source files, one public class each
    methods: tuple  # (min, max) methods per class
    stmts: tuple  # (min, max) statements between declaration and return
    commits: int  # first-parent commits after the initial import
    bugs: int  # closed bug reports
    fixes: tuple  # fixes per bug, cycled over the bugs
    touches: tuple  # methods one fix edits, cycled over the fixes
    lead: tuple  # (min, max) commits between a report and its first fix
    spread: tuple  # (min, max) fix slots between two fixes of one bug
    edits: tuple  # (min, max) files a non-fix commit edits
    burst: int  # fixes land in runs of this many consecutive commits
    merges: int = 0  # two-commit side branches merged into the chain
    move: bool = False  # move a class into a file of its own mid-history
    planted: bool = False  # bugs add decision-heavy statements fixes remove
    duplicates: int = 0  # extra reports closed by the same fixes as a bug
    open_issues: int = 0  # open bug reports (kept, never linked)
    other_issues: int = 0  # closed reports without the bug label (dropped)


SHAPES = {
    # Many files per commit, each commit edits one or two of them: most
    # file versions repeat across plan commits.
    "wide": Shape(
        files=30, methods=(2, 4), stmts=(2, 6), commits=150, bugs=24,
        fixes=(1, 1, 2, 1), touches=(1, 1, 2), lead=(3, 20), spread=(1, 4),
        edits=(1, 2), burst=3, move=True, open_issues=4, other_issues=4,
    ),
    # A long first-parent history over a few small files: per-commit and
    # per-issue costs dominate.
    "long": Shape(
        files=4, methods=(2, 4), stmts=(2, 4), commits=2000, bugs=64,
        fixes=(1, 2, 1, 1), touches=(1, 2), lead=(5, 80), spread=(1, 6),
        edits=(1, 1), burst=5, merges=12, duplicates=136, open_issues=10,
        other_issues=10,
    ),
    # Fixes delete the branch-heavy statements that introduced their bug:
    # the buggy state carries a signal the learners can find.
    "learn": Shape(
        files=10, methods=(4, 4), stmts=(2, 7), commits=160, bugs=40,
        fixes=(1,), touches=(1,), lead=(2, 12), spread=(1, 1),
        edits=(1, 2), burst=4, planted=True, open_issues=3,
    ),
}

NOUNS = ("Order", "Cart", "Ledger", "Parser", "Router", "Cache", "Token",
         "Report", "Session", "Buffer", "Index", "Queue", "Schema", "Vault")
VERBS = ("load", "scan", "merge", "split", "apply", "count", "check", "build",
         "emit", "pack", "fold", "trim")


# ---------------------------------------------------------------------------
# source model
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    text: str
    decisions: int  # McCC contribution
    nos: int  # statements the line holds (an if with its body is two)
    kind: int = -1  # template, see _Writer.make; -1 for declaration/return
    variant: int = 0  # 0 or 1: the template's operator choice
    bug: int = -1  # planted by this bug, removed by its fix


@dataclass
class Method:
    name: str
    params: tuple
    var: str
    stmts: list  # declaration, middle statements, return
    risky: int = 0  # statements a planted bug adds to it


@dataclass
class Klass:
    name: str
    methods: list
    public: bool = True


@dataclass
class JFile:
    path: str
    package: str
    classes: list
    _cache: tuple = field(default=None, repr=False, compare=False)

    def edited(self):
        twin = copy.deepcopy(self)
        twin._cache = None
        return twin

    def rendered(self):
        """``(text, elements)``; elements maps (level, fqn) -> facts."""
        if self._cache is None:
            self._cache = _render(self)
        return self._cache


def _render(f):
    lines = [f"package {f.package};", ""]
    elements = {}
    file_decisions = 0
    for ci, k in enumerate(f.classes):
        if ci:
            lines.append("")
        cfqn = f"{f.package}.{k.name}"
        cstart = len(lines) + 1
        lines.append(f"{'public ' if k.public else ''}class {k.name} {{")
        wmc = nos_total = 0
        for mi, m in enumerate(k.methods):
            if mi:
                lines.append("")
            mstart = len(lines) + 1
            params = ", ".join(f"{t} p{i}" for i, t in enumerate(m.params))
            lines.append(f"    public int {m.name}({params}) {{")
            lines.extend("        " + s.text for s in m.stmts)
            lines.append("    }")
            decisions = sum(s.decisions for s in m.stmts)
            nos = sum(s.nos for s in m.stmts)
            file_decisions += decisions
            wmc += 1 + decisions
            nos_total += nos
            mfqn = f"{cfqn}.{m.name}({','.join(m.params)})int"
            elements[("method", mfqn)] = {
                "parent": cfqn,
                "LOC": len(lines) - mstart + 1,
                "McCC": 1 + decisions,
                "NOS": nos,
                "NUMPAR": len(m.params),
            }
        lines.append("}")
        elements[("class", cfqn)] = {
            "LOC": len(lines) - cstart + 1,
            "NM": len(k.methods),
            "WMC": wmc,
            "NOS": nos_total,
        }
    elements[("file", f.path)] = {"LOC": len(lines), "McCC": 1 + file_decisions}
    return "\n".join(lines) + "\n", elements


class _Writer:
    """Statement factory.

    A global counter keeps every line unique.  Methods per class, statements
    per method and statement kinds are drawn from fixed multisets that the
    seed only shuffles, and later edits keep each statement's token count,
    so the amount of source to analyse does not depend on the seed.  For a
    planted shape the seed does not even shuffle: every seed writes the
    same classes up to names, so the learners see the same metric rows
    (in another order) and their work does not depend on the seed either.
    """

    KINDS = (0, 2, 5, 1, 0, 4, 2, 0, 5, 1, 3)
    RISKY = 3  # the planted kind: two decisions on one line

    PARAMS = (("int",), ("int", "int"), ("int", "long"))

    def __init__(self, rng, shape):
        self.rng = rng
        self.uid = 100
        self.fixed = shape.planted
        self.methods = 0
        kinds = [k for k in self.KINDS if not (shape.planted and k == self.RISKY)]
        # method bodies: one statement-kind pattern per size, kinds rotated
        patterns = [tuple(kinds[(3 * i + j) % len(kinds)] for j in range(size))
                    for i, size in enumerate(range(shape.stmts[0], shape.stmts[1] + 1))]
        self.cycles = {
            "body": patterns,
            "methods": list(range(shape.methods[0], shape.methods[1] + 1)),
        }
        self.pools = {k: [] for k in self.cycles}

    def fresh(self):
        # even, so the odd constant ``u + 7`` of a risky statement never
        # equals another constant and the Halstead counts stay fixed
        self.uid += 2
        return self.uid

    def draw(self, what):
        pool = self.pools[what]
        if not pool:
            pool.extend(self.cycles[what])
            if not self.fixed:
                self.rng.shuffle(pool)
        return pool.pop()

    @staticmethod
    def make(kind, variant, v, u):
        a, b = ("+", "-") if variant == 0 else ("-", "+")
        if kind == 0:
            return Stmt(f"{v} = {v} {a} {u};", 0, 1, kind, variant)
        if kind == 1:
            return Stmt(f"{v} = {v} * 3 {a} {u};", 0, 1, kind, variant)
        if kind == 2:
            loop = ("if", "while")[variant]
            return Stmt(f"{loop} ({v} > {u}) {v} = {v} - 1;", 1, 2, kind, variant)
        if kind == 3:
            op = ("&&", "||")[variant]
            return Stmt(f"if ({v} > {u} {op} {v} < {u + 7}) {v} = {u};", 2, 2,
                        kind, variant)
        if kind == 4:
            return Stmt(f"for (int i{u} = 0; i{u} < 4; i{u}++) {v} {a}= i{u};",
                        1, 2, kind, variant)
        cmp = (">", "<")[variant]
        return Stmt(f"{v} = {v} {cmp} {u} ? {v} - 1 : {v} + 1;", 1, 1, kind, variant)

    def redo(self, s, v, flip=False):
        """The same template with a fresh constant; ``flip`` swaps its
        operator, which changes the Halstead counts but not its size."""
        return self.make(s.kind, 1 - s.variant if flip else s.variant, v, self.fresh())

    def risky(self, v, bug):
        s = self.make(self.RISKY, 0, v, self.fresh())
        s.bug = bug
        return s

    def method(self):
        u = self.fresh()
        self.methods += 1
        params = (self.PARAMS[self.methods % len(self.PARAMS)] if self.fixed
                  else self.rng.choice(self.PARAMS))
        v = f"a{u}"
        body = [Stmt(f"int {v} = p0 + {u};", 0, 1)]
        body += [self.make(k, 0, v, self.fresh()) for k in self.draw("body")]
        body.append(Stmt(f"return {v};", 0, 1))
        return Method(f"{self.rng.choice(VERBS)}{u}", params, v, body,
                      2 + self.methods % 3)

    def klass(self, public=True):
        u = self.fresh()
        methods = [self.method() for _ in range(self.draw("methods"))]
        return Klass(f"{self.rng.choice(NOUNS)}{u}", methods, public)


# ---------------------------------------------------------------------------
# history layout
# ---------------------------------------------------------------------------

@dataclass
class Commit:
    mark: int
    message: str
    ts: int
    state: dict  # path -> JFile or raw text
    parent: int = None  # mark
    merge: int = None  # mark of a merged side head
    chain: int = None  # first-parent position, None for side commits
    branch: str = "master"
    sha: str = None


@dataclass
class Bug:
    id: int
    fixes: list = field(default_factory=list)  # chain positions
    created: int = 0
    targets: list = field(default_factory=list)  # (path, class, method) per fix


def _fix_order(rng, shape):
    """Owner bug of each fix slot, in history order."""
    slots = {}
    free = 0
    for b in range(shape.bugs):
        while free in slots:
            free += 1
        at = free
        for j in range(shape.fixes[b % len(shape.fixes)]):
            if j:
                at += rng.randint(*shape.spread) + 1
            while at in slots:
                at += 1
            slots[at] = b
    return [slots[k] for k in sorted(slots)]


def _positions(rng, count, burst, lo, hi):
    """Sorted chain positions in [lo, hi] for ``count`` fixes.

    Fixes land in runs of ``burst`` consecutive commits with at least one
    other commit between runs, so the plan holds exactly one orange per run
    plus every fix commit, whatever the seed.
    """
    sizes = [burst] * (count // burst) + ([count % burst] if count % burst else [])
    room = hi - lo + 1 - sum(sizes) - (len(sizes) - 1)
    offsets = sorted(rng.choices(range(room + 1), k=len(sizes)))
    out = []
    for i, (off, size) in enumerate(zip(offsets, sizes)):
        start = lo + off + sum(sizes[:i]) + i
        out.extend(range(start, start + size))
    return out


@dataclass
class Truth:
    commits: list  # shas in creation order
    plan: list  # (sha, "full"|"pos") in history order
    rows: dict  # level -> {(sha, fqn): bug_count}
    metrics: dict  # level -> {(sha, fqn): {metric: value}}
    parents: dict  # (sha, method fqn) -> class fqn
    facts: dict  # make-up of the input, for the README and the report


class _History:
    def __init__(self, workload, seed):
        self.shape = SHAPES[workload]
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.w = _Writer(self.rng, self.shape)
        self.commits = []
        self.chain = []  # Commit per first-parent position

    # -- edits ---------------------------------------------------------------

    def _java_paths(self, state):
        return sorted(p for p, f in state.items() if isinstance(f, JFile)
                      and not p.startswith("side/"))

    def _edit_method(self, state, path, ci, mi, flip=False):
        """Rewrite one statement of a method in place (same template and
        size; ``flip`` also swaps its operator)."""
        f = state[path].edited()
        m = f.classes[ci].methods[mi]
        free = [i for i in range(1, len(m.stmts) - 1) if m.stmts[i].bug < 0]
        i = self.rng.choice(free)
        m.stmts[i] = self.w.redo(m.stmts[i], m.var, flip)
        state[path] = f
        return f

    def _random_edit(self, state, count):
        for path in self.rng.sample(self._java_paths(state), count):
            f = state[path]
            ci = self.rng.randrange(len(f.classes))
            self._edit_method(state, path, ci,
                              self.rng.randrange(len(f.classes[ci].methods)))

    def _locate(self, state, cname, mname):
        for path in self._java_paths(state):
            for ci, k in enumerate(state[path].classes):
                if k.name == cname:
                    for mi, m in enumerate(k.methods):
                        if m.name == mname:
                            return path, ci, mi
        raise KeyError((cname, mname))

    def _touch(self, state, target, bug):
        """Fix edit of one method; returns the (level, fqn) it touches."""
        path, ci, mi = self._locate(state, *target)
        if self.shape.planted:
            f = state[path].edited()
            m = f.classes[ci].methods[mi]
            m.stmts = [s for s in m.stmts if s.bug != bug]
            state[path] = f
        else:
            f = self._edit_method(state, path, ci, mi, flip=True)
        k = f.classes[ci]
        m = k.methods[mi]
        cfqn = f"{f.package}.{k.name}"
        return {
            ("file", path),
            ("class", cfqn),
            ("method", f"{cfqn}.{m.name}({','.join(m.params)})int"),
        }

    # -- building ------------------------------------------------------------

    def _commit(self, message, state, parent, chain=True, merge=None,
                branch="master", ts=None):
        mark = len(self.commits) + 1
        if ts is None:
            ts = BASE_TS + len(self.chain) * HOUR
        c = Commit(mark, message, ts, dict(state), parent, merge,
                   len(self.chain) if chain else None, branch)
        self.commits.append(c)
        if chain:
            self.chain.append(c)
        return c

    def build(self):
        shape, rng, w = self.shape, self.rng, self.w
        state = {}
        for i in range(shape.files):
            pkg = f"org.bench.m{i % 6}"
            k = w.klass()
            classes = [k]
            if shape.move and i == 0:
                classes.append(w.klass(public=False))
                mover_class = (classes[1].name, [m.name for m in classes[1].methods])
            path = f"src/main/java/org/bench/m{i % 6}/{k.name}.java"
            state[path] = JFile(path, pkg, classes)
        for i in range(shape.merges and 2):
            k = w.klass()
            path = f"side/org/bench/side/{k.name}.java"
            state[path] = JFile(path, "org.bench.side", [k])
        test_path = "src/test/java/org/bench/SuiteTest.java"
        state[test_path] = "package org.bench;\n\npublic class SuiteTest {\n}\n"
        state["README.md"] = f"# bench-{self.workload}\n"
        head = self._commit("Initial import", state, None)

        owners = _fix_order(rng, shape)
        first = shape.lead[1] + 2 if shape.planted else 3
        fix_pos = _positions(rng, len(owners), shape.burst, first, shape.commits)
        fix_at = dict(zip(fix_pos, owners))
        bugs = [Bug(b + 1) for b in range(shape.bugs)]
        for p, b in fix_at.items():
            bugs[b].fixes.append(p)

        others = [p for p in range(2, shape.commits + 1) if p not in fix_at]
        merge_at = set(rng.sample(others[2:], shape.merges)) if shape.merges else set()
        move_at = None
        if shape.move:
            gaps = [(b, p) for b in bugs if len(b.fixes) > 1
                    and b.fixes[0] > shape.commits // 3
                    for p in range(b.fixes[0] + 1, b.fixes[1]) if p not in fix_at]
            mover, move_at = gaps[0]
        # report creation: `lead` commits before the first fix, half an hour
        # before that commit, so the blue run starts exactly there
        for b in bugs:
            lead = rng.randint(*shape.lead)
            b.created = BASE_TS + max(0, b.fixes[0] - lead) * HOUR - HOUR // 2

        # fix targets: one class per bug, methods cycled through its list;
        # planted bugs take every method once, the classes in turn, so bugs
        # open at the same time never share a class and the dataset is the
        # same mix of method bodies whatever the seed
        cls_index = [(f.classes[ci].name, [m.name for m in f.classes[ci].methods])
                     for p in self._java_paths(state)
                     for f in (state[p],) for ci in range(len(f.classes))]
        fix_no = 0
        rng.shuffle(cls_index)
        width = max(len(m) for _, m in cls_index)
        in_turn = [(c, [m[r]]) for r in range(width) for c, m in cls_index if r < len(m)]
        for k, b in enumerate(sorted(bugs, key=lambda b: b.fixes[0])):
            if shape.planted:
                cname, mnames = in_turn[k % len(in_turn)]
            else:
                cname, mnames = rng.choice(cls_index)
            if shape.move and b is mover:
                cname, mnames = mover_class
            start = rng.randrange(len(mnames))
            for j in range(len(b.fixes)):
                n = shape.touches[fix_no % len(shape.touches)]
                fix_no += 1
                b.targets.append([
                    (cname, mnames[(start + j + t) % len(mnames)])
                    for t in range(min(n, len(mnames)))
                ])

        dups = {}  # primary bug id -> its duplicate reports
        for i in range(shape.duplicates):
            primary = bugs[i * len(bugs) // shape.duplicates]
            twin = Bug(len(bugs) + i + 1, primary.fixes, targets=primary.targets)
            lead = rng.randint(*shape.lead)
            twin.created = BASE_TS + max(0, twin.fixes[0] - lead) * HOUR - HOUR // 2
            dups.setdefault(primary.id, []).append(twin)

        # a planted bug lands after the previous bug of its class is fixed
        # where there is room, so no row carries another bug's statements
        planted_at = {}
        if shape.planted:
            fixed_in = {}  # class name -> last fix position so far
            for b in sorted(bugs, key=lambda b: b.fixes[0]):
                cname = b.targets[0][0][0]
                free = [p for p in range(max(1, b.fixes[0] - shape.lead[1]), b.fixes[0])
                        if p not in fix_at]
                after = [p for p in free if p > fixed_in.get(cname, 0)]
                planted_at.setdefault(rng.choice(after or free), []).append(b)
                fixed_in[cname] = b.fixes[-1]

        side_head = None
        touches = {}  # chain position -> set of (level, fqn)
        for pos in range(1, shape.commits + 1):
            if pos in fix_at:
                b = bugs[fix_at[pos]]
                j = b.fixes.index(pos)
                touched = set()
                for target in b.targets[j]:
                    touched |= self._touch(state, target, b.id)
                touches[pos] = touched
                if j == 0 and rng.random() < 0.5:
                    state[test_path] = state[test_path].replace(
                        "}\n", f"    // covers #{b.id} case {w.fresh()}\n}}\n", 1)
                note = "" if j == 0 else " (follow-up)"
                refs = ", ".join(f"#{x.id}" for x in [b] + dups.get(b.id, []))
                head = self._commit(f"Fix {refs}: guard {rng.choice(VERBS)} path{note}",
                                    state, head.mark)
                continue
            if pos in merge_at:
                fork = self.chain[max(1, pos - 4)]
                side_state = dict(fork.state)
                side_paths = sorted(p for p in state if p.startswith("side/"))
                sp = rng.choice(side_paths)
                side_state[sp] = state[sp]  # side files change only here
                tip = fork.mark
                for j in range(2):
                    f = side_state[sp]
                    ci = 0
                    mi = rng.randrange(len(f.classes[0].methods))
                    self._edit_method(side_state, sp, ci, mi)
                    ts = BASE_TS + (pos - 1) * HOUR + (j + 1) * 600
                    c = self._commit(f"Rework {f.classes[0].name} on a side branch",
                                     side_state, tip, chain=False,
                                     branch="side", ts=ts)
                    tip = c.mark
                state[sp] = side_state[sp]
                side_head = tip
                head = self._commit(f"Merge branch 'side-{pos}'", state, head.mark,
                                    merge=side_head)
                continue
            if pos == move_at:
                src = self._locate(state, mover_class[0], mover_class[1][0])[0]
                f = state[src].edited()
                moved = f.classes.pop(1)
                moved.public = True
                state[src] = f
                dst = f"{os.path.dirname(src)}/{moved.name}.java"
                state[dst] = JFile(dst, f.package, [moved])
                head = self._commit(f"Move {moved.name} into its own file",
                                    state, head.mark)
                continue
            for b in planted_at.get(pos, ()):
                for target in b.targets[0]:
                    path, ci, mi = self._locate(state, *target)
                    f = state[path].edited()
                    m = f.classes[ci].methods[mi]
                    for _ in range(m.risky):
                        m.stmts.insert(rng.randint(1, len(m.stmts) - 1),
                                       w.risky(m.var, b.id))
                    state[path] = f
            self._random_edit(state, rng.randint(*shape.edits))
            if rng.random() < 0.1:
                state["README.md"] += f"- note {w.fresh()}\n"
            head = self._commit(f"Update {rng.choice(NOUNS).lower()} handling",
                                state, head.mark)
        self.bugs = bugs
        self.dups = [d for ds in dups.values() for d in ds]
        self.touches = touches
        self.move_at = move_at
        self.merge_at = merge_at

    # -- output --------------------------------------------------------------

    def fast_import_stream(self):
        out = []
        for c in self.commits:
            parent = self.commits[c.parent - 1] if c.parent else None
            author = f"Dev {c.ts % 5} <dev{c.ts % 5}@bench.example>"
            msg = c.message.encode() + b"\n"
            out.append(f"commit refs/heads/{c.branch}\nmark :{c.mark}\n".encode())
            out.append(f"author {author} {c.ts} +0000\n".encode())
            out.append(f"committer {author} {c.ts} +0000\n".encode())
            out.append(b"data %d\n" % len(msg) + msg)
            if parent is not None:
                out.append(f"from :{parent.mark}\n".encode())
            if c.merge:
                out.append(f"merge :{c.merge}\n".encode())
            before = parent.state if parent is not None else {}
            for path in sorted(set(before) | set(c.state)):
                new = c.state.get(path)
                if new is None:
                    out.append(f"D {path}\n".encode())
                elif before.get(path) is not new:
                    text = new.rendered()[0] if isinstance(new, JFile) else new
                    data = text.encode()
                    out.append(f"M 100644 inline {path}\ndata {len(data)}\n".encode())
                    out.append(data + b"\n")
        return b"".join(out)

    def issues(self):
        docs = []
        for b in self.bugs + self.dups:
            last = self.chain[b.fixes[-1]]
            docs.append({
                "id": b.id,
                "state": "closed",
                "created_at": _iso(b.created),
                "closed_at": _iso(last.ts + HOUR // 2),
                "labels": ["bug"],
                "fixing_commits": [self.chain[p].sha for p in b.fixes],
            })
        next_id = len(self.bugs) + len(self.dups) + 1
        for i in range(self.shape.open_issues):
            docs.append({"id": next_id, "state": "open",
                         "created_at": _iso(BASE_TS + (i + 1) * 7 * HOUR),
                         "closed_at": None, "labels": ["bug"],
                         "fixing_commits": []})
            next_id += 1
        for i in range(self.shape.other_issues):
            p = 1 + i * (self.shape.commits // max(1, self.shape.other_issues))
            docs.append({"id": next_id, "state": "closed",
                         "created_at": _iso(BASE_TS + p * HOUR - HOUR // 2),
                         "closed_at": _iso(BASE_TS + (p + 1) * HOUR),
                         "labels": ["enhancement"],
                         "fixing_commits": [self.chain[p].sha]})
            next_id += 1
        return docs

    def truth(self):
        n = len(self.chain)
        ts = [c.ts for c in self.chain]
        plan = {}
        live = []
        for b in self.bugs + self.dups:
            orange, last = b.fixes[0] - 1, b.fixes[-1]
            for p in b.fixes[:-1]:
                plan.setdefault(p, "pos")
            plan[orange] = plan[last] = "full"
            start = next(p for p in range(n) if ts[p] >= b.created)
            touched = set().union(*(self.touches[p] for p in b.fixes))
            live.append((min(start, orange), orange, last, touched))

        def elements(pos):
            out = {}
            for f in self.chain[pos].state.values():
                if isinstance(f, JFile) and "/test/" not in f.path:
                    out.update(f.rendered()[1])
            return out

        rows = {lvl: {} for lvl in LEVELS}
        metrics = {lvl: {} for lvl in LEVELS}
        parents = {}
        for _, orange, last, touched in live:
            for pos in (orange, last):
                present = elements(pos)
                sha = self.chain[pos].sha
                for key in touched:
                    if key not in present:
                        continue
                    level, fqn = key
                    count = sum(1 for s, _, l, t in live
                                if s <= pos < l and key in t)
                    rows[level][(sha, fqn)] = count
                    facts = dict(present[key])
                    if level == "method":
                        parents[(sha, fqn)] = facts.pop("parent")
                    metrics[level][(sha, fqn)] = facts
        plan_rows = [(self.chain[p].sha, plan[p]) for p in sorted(plan)]
        facts = {
            "java_files": sum(1 for f in self.chain[-1].state.values()
                              if isinstance(f, JFile)),
            "classes": sum(len(f.classes) for f in self.chain[-1].state.values()
                           if isinstance(f, JFile)),
            "first_parent_commits": n,
            "side_commits": len(self.commits) - n,
            "merges": len(self.merge_at),
            "moved_classes": 1 if self.move_at else 0,
            "bugs": len(self.bugs),
            "fix_commits": sum(len(b.fixes) for b in self.bugs),
            "multi_fix_bugs": sum(1 for b in self.bugs if len(b.fixes) > 1),
            "duplicate_reports": len(self.dups),
            "issues": (len(self.bugs) + len(self.dups) + self.shape.open_issues
                       + self.shape.other_issues),
            "plan_commits": len(plan_rows),
            "analysed_commits": len(set(plan) | {p - 1 for b in self.bugs
                                                 for p in b.fixes}),
            "rows": {lvl: len(rows[lvl]) for lvl in LEVELS},
            "buggy_rows": {lvl: sum(1 for v in rows[lvl].values() if v > 0)
                           for lvl in LEVELS},
            "overlapping_rows": {lvl: sum(1 for v in rows[lvl].values() if v > 1)
                                 for lvl in LEVELS},
        }
        return Truth([c.sha for c in self.commits], plan_rows, rows, metrics,
                     parents, facts)


def _iso(ts):
    import datetime

    return datetime.datetime.fromtimestamp(ts, datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def git_env(work):
    """Environment that keeps git away from user and system settings."""
    cfg = os.path.join(work, "gitconfig")
    if not os.path.exists(cfg):
        with open(cfg, "w", encoding="utf-8"):
            pass
    env = dict(os.environ)
    env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=cfg, LC_ALL="C",
               TZ="UTC")
    return env


def generate(workload, seed, dest):
    """Write ``dest/repo.git`` and ``dest/issues.json``; return the history,
    whose ``truth()`` is the ground truth of the outputs."""
    hist = _History(workload, seed)
    hist.build()
    repo = os.path.join(dest, "repo.git")
    shutil.rmtree(repo, ignore_errors=True)
    os.makedirs(dest, exist_ok=True)
    env = git_env(dest)
    subprocess.run(["git", "init", "-q", "--bare", "-b", "master", repo],
                   check=True, env=env)
    marks = os.path.join(dest, "marks")
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet",
                    f"--export-marks={marks}"],
                   input=hist.fast_import_stream(), check=True, env=env)
    with open(marks, encoding="utf-8") as fh:
        by_mark = {int(m[1:]): sha for m, sha in (line.split() for line in fh)}
    for c in hist.commits:
        c.sha = by_mark[c.mark]
    subprocess.run(["git", "-C", repo, "update-ref", "-d", "refs/heads/side"],
                   check=False, env=env, stderr=subprocess.DEVNULL)
    with open(os.path.join(dest, "issues.json"), "w", encoding="utf-8") as fh:
        json.dump(hist.issues(), fh, indent=1)
    return hist
