import random
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpair.diffs import (
    DiffParseError,
    FileDiff,
    Hunk,
    LineRangeSet,
    apply_file_diff,
    elements_touched,
    modified_ranges,
    parse_unified_diff,
    render_unified,
)
from fixpair.java.structure import SourceElement

EXAMPLE = """--- /path/to/original\t2002-02-21
+++ /path/to/new\t2002-02-21
@@ -1,4 +1,4 @@
+Added line
-Deleted line
 This part of the
 document has stayed the
 same
"""


def test_example_diff_shape():
    diffs = parse_unified_diff(EXAMPLE)
    assert len(diffs) == 1
    d = diffs[0]
    assert d.old_path == "/path/to/original"
    assert d.new_path == "/path/to/new"
    assert len(d.hunks) == 1
    kinds = [line[0] for line in d.hunks[0].lines]
    assert kinds.count("+") == 1
    assert kinds.count("-") == 1
    assert kinds.count(" ") == 3


def test_example_diff_modified_lines():
    d = parse_unified_diff(EXAMPLE)[0]
    assert list(modified_ranges(d, "old").lines()) == [1]
    assert list(modified_ranges(d, "new").lines()) == [1]


def test_example_diff_replay():
    d = parse_unified_diff(EXAMPLE)[0]
    old = "Deleted line\nThis part of the\ndocument has stayed the\nsame\n"
    new = apply_file_diff(old, d)
    assert new == "Added line\nThis part of the\ndocument has stayed the\nsame\n"


def test_empty_input():
    assert parse_unified_diff("") == []


def test_malformed_hunk_header():
    bad = "--- a\n+++ b\n@@ bogus @@\n"
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff(bad)
    assert err.value.line_no == 3


def test_parse_error_offset_counts_utf8_bytes():
    text = (
        "--- a/\u00dc.java\n"
        "+++ b/\u00dc.java\n"
        "@@ -1 +1 @@\n"
        "-// \u00e4\n"
        "+// \u00f6\n"
        "@@ bogus @@\n"
    )
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff(text)
    before = "".join(text.splitlines(keepends=True)[:5]).encode("utf-8")
    assert err.value.line_no == 6
    assert err.value.offset == len(before) == 54  # 50 characters
    assert str(err.value).endswith("(line 6, byte 54)")
    with pytest.raises(DiffParseError) as err:
        parse_unified_diff("@@ -1 +1 @@\n")
    assert (err.value.line_no, err.value.offset) == (1, 0)


def test_unreconciled_hunk_counts():
    bad = "--- a\n+++ b\n@@ -1,3 +1,1 @@\n-x\n+y\n"
    with pytest.raises(DiffParseError):
        parse_unified_diff(bad)


def test_two_file_diff():
    text = (
        "diff --git a/one.txt b/one.txt\n"
        "index 000..111 100644\n"
        "--- a/one.txt\n"
        "+++ b/one.txt\n"
        "@@ -1,1 +1,1 @@\n"
        "-a\n"
        "+b\n"
        "diff --git a/two.txt b/two.txt\n"
        "--- a/two.txt\n"
        "+++ b/two.txt\n"
        "@@ -1,1 +1,2 @@\n"
        " x\n"
        "+y\n"
    )
    diffs = parse_unified_diff(text)
    assert [d.new_path for d in diffs] == ["one.txt", "two.txt"]


def test_pure_addition_ranges():
    text = "--- a\n+++ b\n@@ -9,0 +10,3 @@\n+l1\n+l2\n+l3\n"
    d = parse_unified_diff(text)[0]
    assert list(modified_ranges(d, "old").lines()) == []
    assert list(modified_ranges(d, "new").lines()) == [10, 11, 12]


def test_context_only_hunk_has_empty_ranges():
    text = "--- a\n+++ b\n@@ -1,2 +1,2 @@\n x\n y\n"
    d = parse_unified_diff(text)[0]
    assert not modified_ranges(d, "old")
    assert not modified_ranges(d, "new")


def test_no_newline_markers_roundtrip():
    text = "--- a\n+++ b\n@@ -1,1 +1,1 @@\n-old\n+new\n\\ No newline at end of file\n"
    d = parse_unified_diff(text)[0]
    assert d.hunks[0].lines == ["-old", "+new", "\\ No newline at end of file"]
    assert apply_file_diff("old\n", d) == "new"
    assert parse_unified_diff(render_unified(d)) == [d]


def test_render_parse_roundtrip():
    d = parse_unified_diff(EXAMPLE)[0]
    assert parse_unified_diff(render_unified(d)) == [d]


def test_quoted_paths_are_unquoted():
    text = ('--- "a/src/\\303\\234n.java"\n+++ "b/a/x\\ty\\\\z\\"q"\n'
            "@@ -1,1 +1,1 @@\n-old\n+new\n")
    d = parse_unified_diff(text)[0]
    assert (d.old_path, d.new_path) == ("src/\u00dcn.java", 'a/x\ty\\z"q')


@pytest.mark.parametrize("path", [
    "X.java", "a/X.java", "b/X.java", "src/\u00dcn\u00efc.java", "dir/a b.java",
    "a/tab\there.java", "back\\slash.java", '"quoted"', "trailing ", "b/new\nline",
])
def test_every_path_survives_render_and_parse(path):
    hunk = Hunk(1, 1, 1, 1, ["-x", "+y"])
    d = FileDiff(old_path=path, new_path=path, hunks=[hunk])
    text = render_unified(d)
    assert parse_unified_diff(text) == [d]
    if path in ("X.java", "back\\slash.java", "dir/a b.java"):
        assert text.startswith(f"--- {path}\n+++ {path}\n")  # written as it is


# --- replay soundness against real git diffs --------------------------------

def _git_diff_texts(repo, h1, h2):
    out = subprocess.run(
        ["git", "-C", repo, "diff", "--no-color", "--no-renames", h1, h2],
        stdout=subprocess.PIPE,
        check=True,
    )
    return out.stdout.decode()


def _show(repo, rev, path):
    proc = subprocess.run(
        ["git", "-C", repo, "show", f"{rev}:{path}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return proc.stdout.decode() if proc.returncode == 0 else ""


def test_replay_soundness_on_fixture_repo(fixture_repo):
    repo = fixture_repo["repo"]
    hashes = fixture_repo["hashes"]
    names = sorted(hashes, key=lambda n: int(n[1:]))
    pairs = list(zip(names, names[1:]))
    assert len(pairs) == 11
    checked = 0
    for a, b in pairs:
        text = _git_diff_texts(repo, hashes[a], hashes[b])
        for d in parse_unified_diff(text):
            old = "" if d.is_add else _show(repo, hashes[a], d.old_path)
            new = "" if d.is_delete else _show(repo, hashes[b], d.new_path)
            assert apply_file_diff(old, d) == new, (a, b, d.new_path)
            checked += 1
    assert checked >= 10


# --- elements_touched vs brute force ----------------------------------------

def _random_layout(rng):
    """Synthetic element layout: file + classes + methods with sane nesting."""
    elements = []
    file_end = rng.randrange(40, 200)
    elements.append(
        SourceElement("file", "F.java", "F.java", 1, file_end)
    )
    line = 2
    ci = 0
    while line < file_end - 6 and ci < 4:
        c_end = min(file_end - 1, line + rng.randrange(6, 40))
        cf = f"C{ci}"
        elements.append(SourceElement("class", cf, "F.java", line, c_end))
        m_line = line + 1
        mi = 0
        while m_line < c_end - 2 and mi < 5:
            m_end = min(c_end - 1, m_line + rng.randrange(1, 8))
            elements.append(
                SourceElement(
                    "method", f"{cf}.m{mi}()", "F.java", m_line, m_end, parent_fqn=cf
                )
            )
            m_line = m_end + rng.randrange(1, 4)
            mi += 1
        line = c_end + rng.randrange(1, 5)
        ci += 1
    return elements


def brute_force_touched(lines, elements):
    hit = set()
    for e in elements:
        for l in lines:
            if e.start_line <= l <= e.end_line:
                hit.add(e.fqn)
                break
    return hit


def test_elements_touched_matches_brute_force():
    rng = random.Random(20240101)
    for _ in range(200):
        elements = _random_layout(rng)
        max_line = max(e.end_line for e in elements)
        lines = sorted(
            rng.sample(range(1, max_line + 5), rng.randrange(1, 12))
        )
        ranges = LineRangeSet.from_lines(lines)
        assert elements_touched(ranges, elements) == brute_force_touched(
            lines, elements
        )


def test_touched_monotone_in_ranges():
    rng = random.Random(7)
    elements = _random_layout(rng)
    small = LineRangeSet.from_lines([5, 6])
    big = LineRangeSet.from_lines([5, 6, 30, 31])
    assert elements_touched(small, elements) <= elements_touched(big, elements)


def test_range_in_gap_touches_class_and_file_only():
    elements = [
        SourceElement("file", "F.java", "F.java", 1, 30),
        SourceElement("class", "C", "F.java", 2, 29),
        SourceElement("method", "C.a()", "F.java", 3, 8, parent_fqn="C"),
        SourceElement("method", "C.b()", "F.java", 12, 20, parent_fqn="C"),
    ]
    touched = elements_touched(LineRangeSet.from_lines([10]), elements)
    assert touched == {"F.java", "C"}


def test_range_spanning_two_methods():
    elements = [
        SourceElement("file", "F.java", "F.java", 1, 30),
        SourceElement("class", "C", "F.java", 2, 29),
        SourceElement("method", "C.a()", "F.java", 3, 8, parent_fqn="C"),
        SourceElement("method", "C.b()", "F.java", 9, 20, parent_fqn="C"),
    ]
    touched = elements_touched(LineRangeSet.from_lines([8, 9]), elements)
    assert {"C.a()", "C.b()"} <= touched


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=60), max_size=20))
def test_line_range_set_properties(lines):
    rs = LineRangeSet.from_lines(lines)
    # disjoint, sorted, nonempty intervals
    for (a1, b1), (a2, b2) in zip(rs.ranges, rs.ranges[1:]):
        assert b1 + 1 < a2
        assert a1 <= b1 and a2 <= b2
    assert set(rs.lines()) == set(lines)
