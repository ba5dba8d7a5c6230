"""Unified diff parsing and mapping of changed lines onto source elements."""

import re
from dataclasses import dataclass, field

from .errors import DiffParseError

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


@dataclass
class Hunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: list = field(default_factory=list)  # (tag, text); tag in {context, add, del}


@dataclass
class FileDiff:
    old_path: str
    new_path: str
    hunks: list = field(default_factory=list)
    old_no_newline: bool = False  # old side lacks a trailing newline
    new_no_newline: bool = False

    @property
    def is_add(self):
        return self.old_path == "/dev/null"

    @property
    def is_delete(self):
        return self.new_path == "/dev/null"

    @property
    def path(self):
        return self.old_path if self.new_path == "/dev/null" else self.new_path


@dataclass(frozen=True)
class LineRangeSet:
    """Disjoint, sorted, inclusive 1-based line intervals."""

    ranges: tuple = ()

    @classmethod
    def from_lines(cls, lines):
        nums = sorted(set(lines))
        ranges = []
        for n in nums:
            if ranges and n == ranges[-1][1] + 1:
                ranges[-1][1] = n
            else:
                ranges.append([n, n])
        return cls(tuple((a, b) for a, b in ranges))

    def __bool__(self):
        return bool(self.ranges)

    def __contains__(self, line):
        return any(a <= line <= b for a, b in self.ranges)

    def intersects(self, start, end):
        return any(a <= end and start <= b for a, b in self.ranges)

    def lines(self):
        for a, b in self.ranges:
            yield from range(a, b + 1)


# git's C-style path quoting: octal bytes and single-character escapes
_C_ESCAPE_RE = re.compile(rb"\\([0-3][0-7]{2}|.)", re.DOTALL)
_C_ESCAPES = dict(zip(b"abtnvfr", b"\a\b\t\n\v\f\r"))
# what the path parser would cut or unquote: a tab, a newline, trailing
# whitespace, or quotes around the whole path
_NEEDS_QUOTE = re.compile(r'[\t\n]|\s\Z|\A".*"\Z', re.DOTALL)


def _unescape(m):
    e = m.group(1)
    return bytes([int(e, 8) if len(e) == 3 else _C_ESCAPES.get(e[0], e[0])])


def _parse_path_line(line):
    body = line[4:]
    # strip the optional timestamp after a tab
    body = body.split("\t", 1)[0].rstrip()
    if len(body) > 1 and body[0] == body[-1] == '"':
        raw = _C_ESCAPE_RE.sub(_unescape, body[1:-1].encode("utf-8"))
        body = raw.decode("utf-8", "replace")
    return body[2:] if body.startswith(("a/", "b/")) else body


def header_path(path, prefix):
    """``path`` as written after ``---`` (``prefix`` ``"a/"``) or ``+++``
    (``"b/"``), so that :func:`parse_unified_diff` reads ``path`` back.

    Only a path that itself starts with ``a/`` or ``b/`` gets the prefix,
    and only a path the parser would cut or unquote is C-quoted, as git
    quotes it; every other path is written as it is.
    """
    if path.startswith(("a/", "b/")):
        path = prefix + path
    if not _NEEDS_QUOTE.search(path):
        return path
    escaped = path.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + escaped.replace("\t", "\\t").replace("\n", "\\n") + '"'


def parse_unified_diff(text: str) -> list:
    """Parse unified diff text (plain or git-flavored) into FileDiffs."""
    diffs = []
    lines = text.split("\n")
    i = 0
    n = len(lines)
    current = None

    def err(msg, idx):
        # the failing line starts after the UTF-8 bytes of the lines before it
        offset = sum(len(before.encode("utf-8")) + 1 for before in lines[:idx])
        raise DiffParseError(msg, line_no=idx + 1, offset=offset)

    while i < n:
        line = lines[i]
        if line.startswith("--- ") and i + 1 < n and lines[i + 1].startswith("+++ "):
            old_path = _parse_path_line(line)
            new_path = _parse_path_line(lines[i + 1])
            current = FileDiff(old_path=old_path, new_path=new_path)
            diffs.append(current)
            i += 2
            continue
        if line.startswith("@@"):
            if current is None:
                err("hunk header before any file header", i)
            m = _HUNK_RE.match(line)
            if m is None:
                err(f"malformed hunk header: {line!r}", i)
            old_start = int(m.group(1))
            old_len = int(m.group(2)) if m.group(2) is not None else 1
            new_start = int(m.group(3))
            new_len = int(m.group(4)) if m.group(4) is not None else 1
            hunk = Hunk(old_start, old_len, new_start, new_len)
            current.hunks.append(hunk)
            i += 1
            need_old, need_new = old_len, new_len
            while need_old > 0 or need_new > 0:
                if i >= n:
                    err("unexpected end of diff inside hunk", i - 1)
                body = lines[i]
                if body.startswith("\\"):
                    _mark_no_newline(current, hunk)
                    i += 1
                    continue
                if body.startswith("+"):
                    hunk.lines.append(("add", body[1:]))
                    need_new -= 1
                elif body.startswith("-"):
                    hunk.lines.append(("del", body[1:]))
                    need_old -= 1
                elif body.startswith(" ") or body == "":
                    hunk.lines.append(("context", body[1:]))
                    need_old -= 1
                    need_new -= 1
                else:
                    err(f"unexpected line inside hunk: {body!r}", i)
                if need_old < 0 or need_new < 0:
                    err("hunk body does not reconcile with its header", i)
                i += 1
            # trailing no-newline marker after the last hunk line
            if i < n and lines[i].startswith("\\"):
                _mark_no_newline(current, hunk)
                i += 1
            continue
        # anything else is preamble (diff --git, index, mode and
        # "Binary files ... differ" lines, ...)
        i += 1

    return diffs


def _mark_no_newline(diff, hunk):
    if not hunk.lines:
        return
    tag = hunk.lines[-1][0]
    if tag in ("context", "del"):
        diff.old_no_newline = True
    if tag in ("context", "add"):
        diff.new_no_newline = True


def modified_ranges(diff: FileDiff, side: str) -> LineRangeSet:
    """Changed line numbers on one side; context lines never count."""
    if side not in ("old", "new"):
        raise ValueError(f"side must be 'old' or 'new', got {side!r}")
    touched = []
    for hunk in diff.hunks:
        old_line = hunk.old_start
        new_line = hunk.new_start
        for tag, _ in hunk.lines:
            if tag == "context":
                old_line += 1
                new_line += 1
            elif tag == "del":
                if side == "old":
                    touched.append(old_line)
                old_line += 1
            elif tag == "add":
                if side == "new":
                    touched.append(new_line)
                new_line += 1
    return LineRangeSet.from_lines(touched)


def elements_touched(ranges: LineRangeSet, elements) -> set:
    """FQNs of all elements whose range intersects any modified range."""
    return {
        e.fqn for e in elements if ranges.intersects(e.start_line, e.end_line)
    }


_NO_NEWLINE = "\\ No newline at end of file"


def render_unified(diff: FileDiff) -> str:
    """Serialize a FileDiff back to unified diff text.

    ``parse_unified_diff(render_unified(d)) == [d]`` for every diff produced
    by the parser.
    """
    out = [
        f"--- {header_path(diff.old_path, 'a/')}",
        f"+++ {header_path(diff.new_path, 'b/')}",
    ]
    flat = [
        (hi, li, tag, text)
        for hi, h in enumerate(diff.hunks)
        for li, (tag, text) in enumerate(h.lines)
    ]
    last_old = max(
        (k for k, (_, _, tag, _) in enumerate(flat) if tag in ("context", "del")),
        default=None,
    )
    last_new = max(
        (k for k, (_, _, tag, _) in enumerate(flat) if tag in ("context", "add")),
        default=None,
    )
    k = 0
    for h in diff.hunks:
        out.append(f"@@ -{h.old_start},{h.old_len} +{h.new_start},{h.new_len} @@")
        for tag, text in h.lines:
            prefix = {"context": " ", "add": "+", "del": "-"}[tag]
            out.append(prefix + text)
            if diff.old_no_newline and k == last_old:
                out.append(_NO_NEWLINE)
            elif diff.new_no_newline and k == last_new:
                out.append(_NO_NEWLINE)
            k += 1
    return "\n".join(out) + "\n"


def _split_keep(text):
    """Split into content lines plus a had-trailing-newline flag."""
    if text == "":
        return [], False
    parts = text.split("\n")
    if parts[-1] == "":
        return parts[:-1], True
    return parts, False


def apply_file_diff(old_text: str, diff: FileDiff) -> str:
    """Replay a parsed diff against the old file text.

    Raises :class:`DiffParseError` when context or deleted lines disagree
    with the old text, so silent corruption is impossible.
    """
    old_lines, old_trailing = _split_keep(old_text)
    new_lines = []
    cursor = 0  # 0-based index into old_lines
    for hunk in diff.hunks:
        hunk_old_start = hunk.old_start - 1 if hunk.old_len > 0 else hunk.old_start
        if hunk_old_start < cursor:
            raise DiffParseError("overlapping hunks")
        new_lines.extend(old_lines[cursor:hunk_old_start])
        cursor = hunk_old_start
        for tag, content in hunk.lines:
            if tag in ("context", "del"):
                if cursor >= len(old_lines) or old_lines[cursor] != content:
                    got = old_lines[cursor] if cursor < len(old_lines) else "<eof>"
                    raise DiffParseError(
                        f"hunk does not apply at old line {cursor + 1}: "
                        f"expected {content!r}, found {got!r}"
                    )
                if tag == "context":
                    new_lines.append(content)
                cursor += 1
            else:  # add
                new_lines.append(content)
    new_lines.extend(old_lines[cursor:])

    if diff.new_path == "/dev/null" or not new_lines:
        return ""
    body = "\n".join(new_lines)
    if diff.new_no_newline:
        return body
    # A hunk that shows the tail of the file would carry a no-newline marker
    # if the new file lacked one; its absence means a trailing newline.
    # Hunks that never reach the tail leave the old file's habit in place.
    touches_tail = not old_lines or any(
        (h.old_start - 1 if h.old_len > 0 else h.old_start) + h.old_len
        >= len(old_lines)
        for h in diff.hunks
    )
    if diff.hunks and touches_tail:
        return body + "\n"
    return body + ("\n" if old_trailing else "")
