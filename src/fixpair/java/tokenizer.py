"""Total lexer for Java source text.

Every byte of the input belongs to exactly one token, including whitespace
runs, so line-based metrics can be derived from the stream alone.  The lexer
never fails: unterminated strings, chars, and block comments are closed at
end of input and recorded as diagnostics.
"""

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

_SINGLE_OPS = set("+-*/%=<>!&|^~?:;,.()[]@")


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


def _is_ident_start(ch):
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch):
    return ch.isalnum() or ch in "_$"


def tokenize(source: str) -> TokenStream:
    """Lex ``source`` into a :class:`TokenStream` covering every character."""
    tokens = []
    diagnostics = []
    i = 0
    line = 1
    n = len(source)

    def emit(kind, start, end):
        nonlocal line
        lexeme = source[start:end]
        tokens.append(Token(kind, lexeme, line))
        line += lexeme.count("\n")

    while i < n:
        ch = source[i]

        if ch.isspace():
            j = i + 1
            while j < n and source[j].isspace():
                j += 1
            emit("whitespace", i, j)
            i = j
            continue

        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            j = n if j == -1 else j  # newline stays in the following whitespace token
            emit("comment", i, j)
            i = j
            continue

        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j == -1:
                diagnostics.append(f"line {line}: unterminated block comment")
                j = n
            else:
                j += 2
            emit("comment", i, j)
            i = j
            continue

        if ch in "\"'":
            quote = ch
            j = i + 1
            closed = False
            while j < n:
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == quote:
                    j += 1
                    closed = True
                    break
                if source[j] == "\n":
                    break  # string literals do not span lines
                j += 1
            if not closed:
                kind = "string" if quote == '"' else "char"
                diagnostics.append(f"line {line}: unterminated {kind} literal")
            emit("literal", i, j)
            i = j
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            is_hex = ch == "0" and i + 1 < n and source[i + 1] in "xX"
            exp_chars = "pP" if is_hex else "eE"
            j = i + 1
            while j < n:
                c = source[j]
                if c.isalnum() or c in "._":
                    j += 1
                elif c in "+-" and source[j - 1] in exp_chars:
                    j += 1
                else:
                    break
            emit("literal", i, j)
            i = j
            continue

        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            word = source[i:j]
            if word in KEYWORDS:
                kind = "keyword"
            elif word in WORD_LITERALS:
                kind = "literal"
            else:
                kind = "identifier"
            emit(kind, i, j)
            i = j
            continue

        if ch in "{}":
            emit("brace", i, i + 1)
            i += 1
            continue

        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                emit("operator", i, i + len(op))
                i += len(op)
                matched = True
                break
        if matched:
            continue

        # Single-char operator; anything unrecognized also lands here so the
        # stream always covers the full input.
        emit("operator", i, i + 1)
        i += 1

    return TokenStream(tokens=tokens, diagnostics=diagnostics)
