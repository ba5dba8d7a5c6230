import re

from hypothesis import given, settings
from hypothesis import strategies as st

from fixpair.java.tokenizer import tokenize


def kinds_and_lexemes(stream):
    return [(t.kind, t.lexeme) for t in stream.tokens if t.kind != "whitespace"]


def test_simple_statement_tokens():
    ts = tokenize("int a = 1; // x")
    assert kinds_and_lexemes(ts) == [
        ("keyword", "int"),
        ("identifier", "a"),
        ("operator", "="),
        ("literal", "1"),
        ("operator", ";"),
        ("comment", "// x"),
    ]


def test_comment_does_not_start_inside_string():
    ts = tokenize('/* a */ "b//c"')
    toks = kinds_and_lexemes(ts)
    assert toks == [("comment", "/* a */"), ("literal", '"b//c"')]


def test_every_character_covered_roundtrip():
    src = 'class A { /* hi */ String s = "x\\"y"; char c = \'\\n\'; }\n'
    ts = tokenize(src)
    assert ts.text == src
    assert not ts.diagnostics


def test_block_comment_spans_lines():
    ts = tokenize("/* a\n b\n c */ int x;")
    comment = ts.tokens[0]
    assert comment.kind == "comment"
    assert comment.line == 1
    assert comment.end_line == 3


def test_doc_comment_flag():
    ts = tokenize("/** doc */ /* plain */")
    doc, _, plain = ts.tokens
    assert doc.is_doc_comment
    assert not plain.is_doc_comment


def test_unterminated_constructs_flagged():
    ts = tokenize('String s = "abc')
    assert any("unterminated" in d for d in ts.diagnostics)
    ts = tokenize("/* never closed")
    assert any("unterminated" in d for d in ts.diagnostics)
    assert ts.text == "/* never closed"


def test_numeric_literals():
    ts = tokenize("x = 0xFE+2; y = 1e+5f; z = 0b1010; w = 1_000L; v = .5;")
    literals = [l for k, l in kinds_and_lexemes(ts) if k == "literal"]
    assert literals == ["0xFE", "2", "1e+5f", "0b1010", "1_000L", ".5"]


def test_multichar_operators_single_tokens():
    ts = tokenize("a >>= b; c >>> d; e != f; g && h || i; j -> k; l::m")
    ops = [l for k, l in kinds_and_lexemes(ts) if k == "operator"]
    for needed in (">>=", ">>>", "!=", "&&", "||", "->", "::"):
        assert needed in ops


def test_true_false_null_are_literals():
    ts = tokenize("if (true) x = null; else y = false;")
    lex_by_kind = {}
    for k, l in kinds_and_lexemes(ts):
        lex_by_kind.setdefault(k, []).append(l)
    for word in ("true", "false", "null"):
        assert word in lex_by_kind["literal"]
    assert "if" in lex_by_kind["keyword"]


# --- reference lexer oracle -------------------------------------------------

_ORACLE_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
    | (?P<number>\.\d[\w.]*|\d[\w.]*(?:[+-](?<=[eE][+-])[\w.]*)*)
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<space>\s+)
    | (?P<punct>>>>=|<<=|>>=|>>>|\.\.\.|->|::|==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|.)
    """,
    re.VERBOSE | re.DOTALL,
)


def oracle_token_count(src):
    """Brute-force scanner: count non-whitespace tokens independently."""
    count = 0
    for m in _ORACLE_RE.finditer(src):
        if m.lastgroup != "space":
            count += 1
    return count


def test_token_count_matches_oracle_on_large_file():
    lines = []
    for i in range(250):
        lines.append(f"    int v{i} = {i} * 2; // line {i}")
        lines.append(f'    String s{i} = "text {i}"; /* block {i} */')
        lines.append(f"    if (v{i} >= {i} && v{i} <= {i + 1}) {{ v{i}++; }}")
        lines.append("")
    src = "class Big {\n void m() {\n" + "\n".join(lines) + "\n }\n}\n"
    assert src.count("\n") >= 1000
    ts = tokenize(src)
    mine = sum(1 for t in ts.tokens if t.kind != "whitespace")
    assert mine == oracle_token_count(src)


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from(
            list("abc19 \n\t+-*/=<>!&|(){};,.\"'_$#@²½三é\u0301\x1c\u00a0")
        ),
        max_size=80,
    )
)
def test_total_coverage_property(src):
    ts = tokenize(src)
    assert ts.text == src
    lines = [t.line for t in ts.tokens]
    assert lines == sorted(lines)


@settings(max_examples=500, deadline=None)
@given(st.characters().filter(lambda c: c not in "\"'"))
def test_character_classes_follow_the_str_predicates(c):
    (only,) = tokenize(c).tokens
    assert (only.kind == "whitespace") == c.isspace()
    assert (only.kind == "literal") == c.isdigit()
    assert (only.kind in ("identifier", "keyword")) == (c.isalpha() or c in "_$")
    assert only.kind in ("whitespace", "literal", "identifier", "keyword", "brace", "operator")
    # what continues a word, and what continues a number
    assert (len(tokenize("a" + c).tokens) == 1) == (c.isalnum() or c in "_$")
    assert (len(tokenize("1" + c).tokens) == 1) == (c.isalnum() or c in "._")


def test_token_stream_code_tokens():
    ts = tokenize("int a; // c")
    view = ts.code_view
    assert all(t.is_code for t in view.tokens)
    assert len(view.tokens) == 3
    assert [ts.tokens[i] for i in view.index] == view.tokens
    assert ts.code_view is view  # built once per stream
