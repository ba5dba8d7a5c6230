"""Static source-code metrics over tokenized Java elements.

METRICS.md in the repository root is the normative statement of every
counting rule implemented here; tests target those rules.  Metric ids match
the CSV column headers exactly.
"""

import math
from dataclasses import dataclass, field

from .java.structure import SourceElement

# Column order is fixed and shared with the CSV exporters.
METHOD_COLUMNS = (
    "CLOC", "LOC", "LLOC", "NL", "NLE", "NII", "NOI", "CD", "DLOC", "TCD",
    "TCLOC", "NOS", "TLOC", "TLLOC", "TNOS", "McCC", "HCPL", "HDIF", "HEFF",
    "HNDB", "HPL", "HPV", "HTRP", "HVOL", "MIMS", "MI", "MISEI", "MISM",
    "NUMPAR",
)

CLASS_COLUMNS = (
    "CLOC", "LOC", "LLOC", "NL", "NLE", "NII", "NOI", "CD", "DLOC", "TCD",
    "TCLOC", "NOS", "TLOC", "TLLOC", "TNOS", "PDA", "PUA", "LCOM5", "WMC",
    "CBO", "CBOI", "RFC", "AD", "DIT", "NOA", "NOC", "NOD", "NOP", "NA",
    "NG", "NLA", "NLG", "NLM", "NLPA", "NLPM", "NLS", "NM", "NPA", "NPM",
    "NS", "TNA", "TNG", "TNLA", "TNLG", "TNLM", "TNLPA", "TNLPM", "TNLS",
    "TNM", "TNPA", "TNPM", "TNS",
)

FILE_COLUMNS = ("CLOC", "LOC", "LLOC", "McCC", "PDA", "PUA")

COLUMNS_BY_LEVEL = {
    "method": METHOD_COLUMNS,
    "class": CLASS_COLUMNS,
    "file": FILE_COLUMNS,
}

# Cross-file coupling/inheritance/cohesion metrics stay empty by design.
EMPTY_METHOD_COLUMNS = frozenset({"NII", "NOI"})
EMPTY_CLASS_COLUMNS = frozenset(
    {"NII", "NOI", "LCOM5", "CBO", "CBOI", "RFC", "DIT", "NOA", "NOC", "NOD", "NOP"}
)

DECISION_KEYWORDS = frozenset({"if", "for", "while", "do", "case", "catch"})
DECISION_OPERATORS = frozenset({"&&", "||"})

STATEMENT_KEYWORDS = frozenset(
    {"return", "throw", "break", "continue", "assert"}
)


@dataclass
class MetricsVector:
    level: str
    values: dict = field(default_factory=dict)
    element: SourceElement = None


# ---------------------------------------------------------------------------
# shared per-file token context
# ---------------------------------------------------------------------------

class TokenContext:
    """Line sets and doc comments of one file; code tokens and bracket
    matching come from the stream's code view, shared with the parser."""

    def __init__(self, stream):
        self.stream = stream
        self.view = stream.code_view
        self.code_lines = set()
        self.comment_lines = set()
        for t in stream.tokens:
            if t.kind == "comment":
                self.comment_lines.update(range(t.line, t.end_line + 1))
            elif t.kind != "whitespace":
                self.code_lines.update(range(t.line, t.end_line + 1))

    def doc_comment(self, elem):
        """The javadoc token attached to the declaration, or None."""
        i = elem.decl_index - 1
        toks = self.stream.tokens
        while i >= 0 and toks[i].kind == "whitespace":
            i -= 1
        if i >= 0 and toks[i].is_doc_comment:
            return toks[i]
        return None


def _line_counts(ctx, lines):
    """(physical, logical, comment) line counts of a set of lines."""
    return (
        float(len(lines)),
        float(len(lines & ctx.code_lines)),
        float(len(lines & ctx.comment_lines)),
    )


def _line_metrics(ctx, elem, holes=()):
    """LOC/LLOC/CLOC over the element's own lines (its range minus the
    ``holes`` line ranges), their T forms over the full range, DLOC, CD and
    TCD."""
    doc = ctx.doc_comment(elem)
    dloc = float(doc.end_line - doc.line + 1) if doc is not None else 0.0
    full = set(range(elem.start_line, elem.end_line + 1))
    own = full.difference(*(range(s, e + 1) for s, e in holes))
    loc, lloc, cloc = _line_counts(ctx, own)
    tloc, tlloc, tcloc = _line_counts(ctx, full)
    return {
        "LOC": loc, "LLOC": lloc, "CLOC": cloc,
        "TLOC": tloc, "TLLOC": tlloc, "TCLOC": tcloc + dloc,
        "DLOC": dloc, "CD": _density(cloc, lloc), "TCD": _density(tcloc + dloc, tlloc),
    }


def _density(comment, logical):
    total = comment + logical
    return comment / total if total > 0 else 0.0


def _body_range(elem):
    """Code-view index window strictly inside the element body braces."""
    if elem.body_open < 0:
        return 0, 0
    return elem.body_open + 1, elem.body_close


def _is_wildcard(code, ci):
    """Generic wildcard '?' as opposed to a ternary operator."""
    prev_lex = code[ci - 1].lexeme if ci > 0 else ""
    next_lex = code[ci + 1].lexeme if ci + 1 < len(code) else ""
    if prev_lex in ("<", ","):
        return True
    return next_lex in ("extends", "super", ",", ">", ">>", ">>>")


def _decision_points(code, start, end):
    count = 0
    for ci in range(start, end):
        t = code[ci]
        if t.kind == "keyword" and t.lexeme in DECISION_KEYWORDS:
            count += 1
        elif t.kind == "operator" and t.lexeme in DECISION_OPERATORS:
            count += 1
        elif t.lexeme == "?" and not _is_wildcard(code, ci):
            count += 1
    return count


# ---------------------------------------------------------------------------
# statement scanner: NOS / NL / NLE
# ---------------------------------------------------------------------------

class _StatementScan:
    """NOS and the deepest NL and NLE of the statements in the code-view
    window ``[start, end)``."""

    def __init__(self, view, start, end):
        self.code = view.tokens
        self.match = view.match
        self.end = end
        self.count = self.max_nl = self.max_nle = 0
        self._block(start, end, 0, 0)

    def _at(self, i, end):
        """The lexeme at ``i`` if it lies before ``end``, else None."""
        return self.code[i].lexeme if i < end else None

    def _paren(self, i, end):
        """``i``, or the index just past the paren group that opens there."""
        return self.match[i] + 1 if self._at(i, end) == "(" else i

    def _nest(self, i, end, nl, nle):
        """Count the construct whose keyword is at ``i``, one level below
        ``nl``/``nle``; the index past the keyword and its paren group."""
        self.count += 1
        self.max_nl = max(self.max_nl, nl + 1)
        self.max_nle = max(self.max_nle, nle + 1)
        return self._paren(i + 1, end)

    def _body(self, i, end, nl, nle):
        """Scan the statement at ``i`` one level below ``nl``/``nle`` if it
        lies before ``end``; the index past it."""
        return self._statement(i, end, nl + 1, nle + 1) if i < end else i

    def _block(self, i, end, nl, nle):
        while i < end:
            i = self._statement(i, end, nl, nle)

    def _braced_block(self, i, end, nl, nle):
        """i at '{': scan the block's statements, clipped to ``end``;
        return the index just past the block."""
        close = self.match[i]
        self._block(i + 1, min(close, end), nl, nle)
        return min(close + 1, end)

    def _skip_to_semicolon(self, i):
        while i < self.end:
            lex = self.code[i].lexeme
            if lex in "({":
                i = self.match[i] + 1
            elif lex == ";":
                return i + 1
            elif lex == "}":
                return i  # malformed: statement runs into the closing brace
            else:
                i += 1
        return self.end

    def _statement(self, i, end, nl, nle):
        """Scan the statement at ``i``; the index just past it."""
        lex, kind = self.code[i].lexeme, self.code[i].kind
        if lex == ";":
            self.count += 1
            return i + 1
        if lex == "{":
            return self._braced_block(i, end, nl, nle)
        if lex == "}":
            return i + 1  # stray closer, tolerated

        if kind == "keyword":
            if lex == "if":
                while True:
                    i = self._body(self._nest(i, end, nl, nle), end, nl, nle)
                    if self._at(i, end) != "else":
                        return i
                    if self._at(i + 1, end) != "if":
                        return self._body(i + 1, end, nl, nle)
                    i += 1
                    nl += 1  # else-if: deepens NL but not NLE
            if lex in ("for", "while", "synchronized"):
                return self._body(self._nest(i, end, nl, nle), end, nl, nle)
            if lex == "switch":
                i = self._nest(i, end, nl, nle)
                if self._at(i, end) == "{":
                    return self._braced_block(i, end, nl + 1, nle + 1)
                return i
            if lex == "do":
                # no paren group follows ``do``: a window cut just after the
                # keyword keeps _nest from looking for one.  The body is read
                # even where it lies at the window's end.
                self._nest(i, i + 1, nl, nle)
                i = self._statement(i + 1, end, nl + 1, nle + 1)
                if self._at(i, end) == "while":
                    i = self._paren(i + 1, end)
                    if self._at(i, end) == ";":
                        i += 1
                return i
            if lex == "try":
                i = self._nest(i, end, nl, nle)  # past a resource group
                while True:
                    if self._at(i, end) == "{":
                        i = self._braced_block(i, end, nl + 1, nle + 1)
                    if self._at(i, end) not in ("catch", "finally"):
                        return i
                    i = self._paren(i + 1, end)
            if lex in ("case", "default"):
                while i < end and self.code[i].lexeme != ":":
                    i = self.match[i] + 1 if self.code[i].lexeme in "({" else i + 1
                return i + 1
            if lex == "else":
                return i + 1  # orphaned else, tolerated
            if lex in ("class", "interface", "enum"):
                # local class declaration: one statement, body opaque
                self.count += 1
                while i < end and self.code[i].lexeme != "{":
                    i += 1
                return min(self.match[i] + 1, end) if i < end else end
            if lex in STATEMENT_KEYWORDS:
                self.count += 1
                return self._skip_to_semicolon(i + 1)

        # labeled statement: Name ':' Statement
        if kind == "identifier" and self._at(i + 1, end) == ":":
            return self._statement(i + 2, end, nl, nle) if i + 2 < end else end

        # expression or local declaration
        self.count += 1
        return self._skip_to_semicolon(i)


# ---------------------------------------------------------------------------
# Halstead and maintainability
# ---------------------------------------------------------------------------

def _log2_or_zero(x):
    return math.log2(x) if x > 0 else 0.0


def _ln_or_zero(x):
    return math.log(x) if x > 0 else 0.0


def _halstead(code, start, end):
    operators = {}
    operands = {}
    for ci in range(start, end):
        t = code[ci]
        if t.kind in ("identifier", "literal"):
            operands[t.lexeme] = operands.get(t.lexeme, 0) + 1
        else:  # keyword, operator, brace
            operators[t.lexeme] = operators.get(t.lexeme, 0) + 1
    eta1, eta2 = len(operators), len(operands)
    n1, n2 = sum(operators.values()), sum(operands.values())
    hpl = float(n1 + n2)
    hpv = float(eta1 + eta2)
    hvol = hpl * _log2_or_zero(hpv)
    hcpl = eta1 * _log2_or_zero(eta1) + eta2 * _log2_or_zero(eta2)
    hdif = (eta1 / 2.0) * (n2 / eta2) if eta2 > 0 else 0.0
    heff = hdif * hvol
    return {
        "HPL": hpl,
        "HPV": hpv,
        "HVOL": hvol,
        "HCPL": hcpl,
        "HDIF": hdif,
        "HEFF": heff,
        "HNDB": hvol / 3000.0,
        "HTRP": heff / 18.0,
    }


def _maintainability(hvol, mccc, lloc, cd):
    mi = 171.0 - 5.2 * _ln_or_zero(hvol) - 0.23 * mccc - 16.2 * _ln_or_zero(lloc)
    comment_term = 50.0 * math.sin(math.sqrt(2.4 * cd))
    misei = (
        171.0
        - 5.2 * _log2_or_zero(hvol)
        - 0.23 * mccc
        - 16.2 * _log2_or_zero(lloc)
        + comment_term
    )
    mims = max(0.0, mi * 100.0 / 171.0)
    mism = mi + comment_term
    return {"MI": mi, "MISEI": misei, "MIMS": mims, "MISM": mism}


# ---------------------------------------------------------------------------
# per-level entry points
# ---------------------------------------------------------------------------

def _vector(level, values, elem):
    """The level's metric vector, ``values`` in the level's column order."""
    ordered = {k: values[k] for k in COLUMNS_BY_LEVEL[level] if k in values}
    return MetricsVector(level=level, values=ordered, element=elem)


def method_metrics(elem: SourceElement, ctx: TokenContext) -> MetricsVector:
    """Full metric vector for a method element."""
    assert elem.kind == "method"
    v = _line_metrics(ctx, elem)
    body_start, body_end = _body_range(elem)
    scan = _StatementScan(ctx.view, body_start, body_end)
    v["NOS"] = v["TNOS"] = float(scan.count)
    v["NL"], v["NLE"] = float(scan.max_nl), float(scan.max_nle)
    v["NUMPAR"] = float(len(elem.param_types))
    code = ctx.view.tokens
    v["McCC"] = float(1 + _decision_points(code, body_start, body_end))
    v.update(_halstead(code, body_start, body_end))
    v.update(_maintainability(v["HVOL"], v["McCC"], v["LLOC"], v["CD"]))
    return _vector("method", v, elem)


def _documented_public(ctx, elements):
    """(PDA, PUA): public elements with and without an attached doc comment."""
    public = [e for e in elements if e.is_public]
    pda = sum(1 for e in public if ctx.doc_comment(e) is not None)
    return float(pda), float(len(public) - pda)


def _accessor(m, prefixes):
    """Whether the method's name is one of ``prefixes`` followed by an
    upper-case letter."""
    n = m.name
    return any(
        n.startswith(p) and len(n) > len(p) and n[len(p)].isupper() for p in prefixes
    )


def class_metrics(
    elem: SourceElement, members, nested_classes, ctx: TokenContext
) -> MetricsVector:
    """Metric vector for a class.

    ``members`` are the metric vectors of the class's methods (a method whose
    ``parent_fqn`` is another class is ignored); ``nested_classes`` are the
    already-computed vectors of directly nested classes.
    """
    assert elem.kind == "class"
    direct = [m for m in members if m.element.parent_fqn == elem.fqn]
    nested = list(nested_classes)
    v = _line_metrics(
        ctx, elem, [(n.element.start_line, n.element.end_line) for n in nested]
    )

    v["NL"] = max((m.values["NL"] for m in direct), default=0.0)
    v["NLE"] = max((m.values["NLE"] for m in direct), default=0.0)
    nos = sum(m.values["NOS"] for m in direct) + len(elem.fields)
    v["NOS"] = float(nos)
    v["TNOS"] = float(nos + sum(n.values["TNOS"] for n in nested))

    v["WMC"] = float(sum(m.values["McCC"] for m in direct))

    local = {
        "M": len(direct),
        "PM": sum(1 for m in direct if m.element.is_public),
        "G": sum(1 for m in direct if _accessor(m.element, ("get", "is"))),
        "S": sum(1 for m in direct if _accessor(m.element, ("set",))),
        "A": sum(f.declarators for f in elem.fields),
        "PA": sum(f.declarators for f in elem.fields if "public" in f.modifiers),
    }
    # No inheritance resolution: local counts equal plain counts.
    for k, count in local.items():
        v["N" + k] = v["NL" + k] = float(count)
        total = count + sum(n.values["TN" + k] for n in nested)
        v["TN" + k] = v["TNL" + k] = float(total)

    pda, pua = _documented_public(ctx, [x.element for x in direct + nested])
    v["PDA"], v["PUA"] = pda, pua
    v["AD"] = pda / (pda + pua) if (pda + pua) > 0 else 0.0
    return _vector("class", v, elem)


def file_metrics(elem: SourceElement, elements, ctx: TokenContext) -> MetricsVector:
    """Metric vector for a file element.

    ``elements`` (all elements parsed from the file) feed the public-API
    documentation counts.
    """
    assert elem.kind == "file"
    v = _line_metrics(ctx, elem)
    code = ctx.view.tokens
    v["McCC"] = float(1 + _decision_points(code, 0, len(code)))
    v["PDA"], v["PUA"] = _documented_public(
        ctx, [e for e in elements if e.kind in ("class", "method")]
    )
    return _vector("file", v, elem)
