"""Unified diff parsing and mapping of changed lines onto source elements."""

import re
from dataclasses import dataclass, field

from .errors import DiffParseError

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"


@dataclass
class Hunk:
    """One hunk; :func:`render_unified` writes its header with explicit counts
    and no section text.

    ``lines`` holds the body lines as written: ``" "``, ``"-"`` or ``"+"``
    and the text.  An empty body line is an empty context line, ``" "``.  The
    marker ``\\ No newline at end of file`` follows the last line of a side
    that has no final newline, once, in that canonical text.
    """

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: list = field(default_factory=list)


@dataclass
class FileDiff:
    old_path: str
    new_path: str
    hunks: list = field(default_factory=list)

    @property
    def is_add(self):
        return self.old_path == "/dev/null"

    @property
    def is_delete(self):
        return self.new_path == "/dev/null"


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
            # the body, then a no-newline marker after its last line
            while i < n and (need_old > 0 or need_new > 0 or lines[i][:1] == "\\"):
                body = lines[i] or " "
                kind = body[0]
                if kind == "\\":  # the marker: once, and only after a line
                    if hunk.lines and hunk.lines[-1] != _NO_NEWLINE:
                        hunk.lines.append(_NO_NEWLINE)
                    i += 1
                    continue
                if kind == "+":
                    need_new -= 1
                elif kind == "-":
                    need_old -= 1
                elif kind == " ":
                    need_old -= 1
                    need_new -= 1
                else:
                    err(f"unexpected line inside hunk: {body!r}", i)
                if need_old < 0 or need_new < 0:
                    err("hunk body does not reconcile with its header", i)
                hunk.lines.append(body)
                i += 1
            if need_old > 0 or need_new > 0:
                err("unexpected end of diff inside hunk", i - 1)
            continue
        # anything else is preamble (diff --git, index, mode and
        # "Binary files ... differ" lines, ...)
        i += 1

    return diffs


def changed_lines(diff: FileDiff, side: str) -> frozenset:
    """Numbers of the lines ``diff`` removed from the old file (``side="old"``)
    or added to the new one (``"new"``); context lines never count."""
    if side not in ("old", "new"):
        raise ValueError(f"side must be 'old' or 'new', got {side!r}")
    mark = "-" if side == "old" else "+"
    changed = set()
    for hunk in diff.hunks:
        line_no = hunk.old_start if side == "old" else hunk.new_start
        for line in hunk.lines:
            if line[0] == mark:
                changed.add(line_no)
            if line[0] in (" ", mark):
                line_no += 1
    return frozenset(changed)


def elements_touched(lines, elements) -> set:
    """FQNs of the elements whose lines include any of the set ``lines``."""
    return {
        e.fqn for e in elements
        if not lines.isdisjoint(range(e.start_line, e.end_line + 1))
    }


def render_unified(diff: FileDiff) -> str:
    """Serialize a FileDiff back to unified diff text.

    ``parse_unified_diff(render_unified(d)) == [d]`` for every diff produced
    by the parser.
    """
    out = [
        f"--- {header_path(diff.old_path, 'a/')}",
        f"+++ {header_path(diff.new_path, 'b/')}",
    ]
    for h in diff.hunks:
        out.append(f"@@ -{h.old_start},{h.old_len} +{h.new_start},{h.new_len} @@")
        out.extend(h.lines)
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
    new_no_newline = False
    cursor = 0  # 0-based index into old_lines
    for hunk in diff.hunks:
        hunk_old_start = hunk.old_start - 1 if hunk.old_len > 0 else hunk.old_start
        if hunk_old_start < cursor:
            raise DiffParseError("overlapping hunks")
        new_lines.extend(old_lines[cursor:hunk_old_start])
        cursor = hunk_old_start
        for k, line in enumerate(hunk.lines):
            kind, content = line[0], line[1:]
            if kind == "\\":  # the side of the line before it lacks a final newline
                new_no_newline |= hunk.lines[k - 1][0] != "-"
            elif kind == "+":
                new_lines.append(content)
            else:
                if cursor >= len(old_lines) or old_lines[cursor] != content:
                    got = old_lines[cursor] if cursor < len(old_lines) else "<eof>"
                    raise DiffParseError(
                        f"hunk does not apply at old line {cursor + 1}: "
                        f"expected {content!r}, found {got!r}"
                    )
                if kind == " ":
                    new_lines.append(content)
                cursor += 1
    new_lines.extend(old_lines[cursor:])

    if diff.new_path == "/dev/null" or not new_lines:
        return ""
    body = "\n".join(new_lines)
    if new_no_newline:
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
