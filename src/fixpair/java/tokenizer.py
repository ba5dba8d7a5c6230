"""Total lexer for Java source text.

Every byte of the input belongs to exactly one token, including whitespace
runs, so line-based metrics can be derived from the stream alone.  The lexer
is one table of patterns (``_TOKEN``) and never fails: an unterminated string
or char literal ends before its newline, an unterminated block comment at end
of input, and each is recorded as a diagnostic.
"""

import re
from dataclasses import dataclass, field
from functools import cached_property

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# true/false/null are literals in the language grammar, not keywords.
WORD_LITERALS = frozenset({"true", "false", "null"})

_WORD_KINDS = {
    **dict.fromkeys(KEYWORDS, "keyword"),
    **dict.fromkeys(WORD_LITERALS, "literal"),
}

# Multi-character operators, longest first for greedy matching.
_MULTI_OPS = sorted(
    [
        ">>>=", "<<=", ">>=", ">>>", "...", "->", "::", "==", "!=", "<=", ">=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
        "<<", ">>",
    ],
    key=len,
    reverse=True,
)

# The rest of a number after its first character: letters, digits, "_" and
# "." (\w is exactly str.isalnum() or "_"), and a sign right after an exponent.
_NUMBER_TAIL = re.compile(r"(?:[\w.]|(?<=[eE])[+-])*")

# One alternative per token kind, tried in order.  Strings, chars and block
# comments that never close have their own group, which leaves a diagnostic.
_TOKEN = re.compile(
    r"""
      (?P<whitespace>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*.*)
    | (?P<literal>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'
        | 0[xX](?:[\w.]|(?<=[pP])[+-])* | \.?\d""" + _NUMBER_TAIL.pattern + r""")
    | (?P<open_string>"(?:\\.?|[^"\\\n])*)
    | (?P<open_char>'(?:\\.?|[^'\\\n])*)
    | (?P<word>[\w$]+)
    | (?P<brace>[{}])
    | (?P<operator>""" + "|".join(map(re.escape, _MULTI_OPS)) + r"""|.)
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "open_comment": "block comment",
    "open_string": "string literal",
    "open_char": "char literal",
}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | literal | operator | brace | comment | whitespace
    lexeme: str
    line: int  # 1-based line of the first character

    @property
    def end_line(self):
        return self.line + self.lexeme.count("\n")

    @property
    def is_code(self):
        return self.kind not in ("comment", "whitespace")

    @property
    def is_doc_comment(self):
        return self.kind == "comment" and self.lexeme.startswith("/**")


@dataclass
class CodeView:
    """The code tokens of one stream and the matching of their brackets.

    ``match`` maps the code index of every ``(`` and ``{`` to the code index
    where its group ends.  Unbalanced input degrades instead of failing: an
    opener popped by a closer of the other kind ends at the code token just
    before that closer, an opener never closed ends at the last code token,
    and a closer with no opener of its kind on the stack pops nothing.  Each
    of these sets ``degraded``.
    """

    tokens: list  # code tokens, comments and whitespace dropped
    index: list  # full-stream index of each code token
    match: dict
    degraded: bool

    @classmethod
    def of(cls, stream_tokens):
        index = [i for i, t in enumerate(stream_tokens) if t.is_code]
        tokens = [stream_tokens[i] for i in index]
        match = {}
        stack = []
        degraded = False
        for i, t in enumerate(tokens):
            lex = t.lexeme
            if lex in "({":
                stack.append((lex, i))
            elif lex in ")}":
                want = "(" if lex == ")" else "{"
                if not any(kind == want for kind, _ in reversed(stack)):
                    degraded = True  # a stray closer closes nothing
                    continue
                # pop through mismatched openers so one stray bracket cannot
                # derail the rest of the file
                while stack[-1][0] != want:
                    match[stack.pop()[1]] = i - 1
                    degraded = True
                match[stack.pop()[1]] = i
        while stack:
            match[stack.pop()[1]] = len(tokens) - 1
            degraded = True
        return cls(tokens, index, match, degraded)


@dataclass
class TokenStream:
    tokens: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @cached_property
    def code_view(self):
        """The :class:`CodeView` of this stream, built on first use."""
        return CodeView.of(self.tokens)

    @property
    def text(self):
        return "".join(t.lexeme for t in self.tokens)


def tokenize(source: str) -> TokenStream:
    """Lex ``source`` into a :class:`TokenStream` covering every character."""
    tokens = []
    diagnostics = []
    pos = 0
    line = 1
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        kind, end = m.lastgroup, m.end()
        first = source[pos]
        if kind == "word" or first == "." and end == pos + 1:
            # the pattern's \d is str.isdecimal(), narrower than the
            # str.isdigit() that starts a number ("²"), and its \w is wider
            # than the str.isalpha() that starts a word ("½" is an operator)
            if first.isdigit() or first == "." and source[end:end + 1].isdigit():
                kind, end = "literal", _NUMBER_TAIL.match(source, pos + 1).end()
            elif first.isalpha() or first in "_$":
                kind = _WORD_KINDS.get(m.group(), "identifier")
            else:
                kind, end = "operator", pos + 1
        elif kind in _UNTERMINATED:
            diagnostics.append(f"line {line}: unterminated {_UNTERMINATED[kind]}")
            kind = "comment" if kind == "open_comment" else "literal"
        lexeme = source[pos:end]
        tokens.append(Token(kind, lexeme, line))
        line += lexeme.count("\n")
        pos = end
    return TokenStream(tokens=tokens, diagnostics=diagnostics)
