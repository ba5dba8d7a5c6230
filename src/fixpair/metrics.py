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

    def get(self, metric_id):
        return self.values.get(metric_id)


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


def _line_counts(ctx, start_line, end_line, holes=()):
    """(physical, logical, comment) line counts over a range minus holes."""
    lines = set(range(start_line, end_line + 1))
    for hs, he in holes:
        lines.difference_update(range(hs, he + 1))
    loc = len(lines)
    lloc = len(lines & ctx.code_lines)
    cloc = len(lines & ctx.comment_lines)
    return loc, lloc, cloc


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
    def __init__(self, view, start, end):
        self.code = view.tokens
        self.match = view.match
        self.start = start
        self.end = end
        self.count = 0
        self.max_nl = 0
        self.max_nle = 0

    def run(self):
        self._block(self.start, self.end, 0, 0)
        return self.count, self.max_nl, self.max_nle

    def _lex(self, i):
        return self.code[i].lexeme

    def _kind(self, i):
        return self.code[i].kind

    def _skip_group(self, i):
        """i at '(' or '{': index just past the matching closer."""
        return self.match[i] + 1

    def _braced_block(self, i, end, nl, nle):
        """i at '{': scan the block's statements, clipped to ``end``;
        return the index just past the block."""
        close = self.match[i]
        self._block(i + 1, min(close, end), nl, nle)
        return min(close + 1, end)

    def _skip_to_semicolon(self, i):
        while i < self.end:
            lex = self._lex(i)
            if lex in "({":
                i = self._skip_group(i)
                continue
            if lex == ";":
                return i + 1
            if lex == "}":
                return i  # malformed: statement runs into the closing brace
            i += 1
        return self.end

    def _block(self, i, end, nl, nle):
        while i < end:
            i = self._statement(i, end, nl, nle)

    def _statement(self, i, end, nl, nle):
        lex = self._lex(i)
        kind = self._kind(i)

        if lex == ";":
            self.count += 1
            return i + 1
        if lex == "{":
            return self._braced_block(i, end, nl, nle)
        if lex == "}":
            return i + 1  # stray closer, tolerated

        if kind == "keyword":
            if lex == "if":
                return self._if(i, end, nl, nle)
            if lex in ("for", "while", "switch", "synchronized"):
                self.count += 1
                self._enter(nl + 1, nle + 1)
                i += 1
                if i < end and self._lex(i) == "(":
                    i = self._skip_group(i)
                if lex == "switch":
                    if i < end and self._lex(i) == "{":
                        return self._braced_block(i, end, nl + 1, nle + 1)
                    return i
                return self._statement(i, end, nl + 1, nle + 1) if i < end else i
            if lex == "do":
                self.count += 1
                self._enter(nl + 1, nle + 1)
                i = self._statement(i + 1, end, nl + 1, nle + 1)
                if i < end and self._lex(i) == "while":
                    i += 1
                    if i < end and self._lex(i) == "(":
                        i = self._skip_group(i)
                    if i < end and self._lex(i) == ";":
                        i += 1
                return i
            if lex == "try":
                return self._try(i, end, nl, nle)
            if lex in ("case", "default"):
                while i < end and self._lex(i) != ":":
                    if self._lex(i) in "({":
                        i = self._skip_group(i)
                    else:
                        i += 1
                return i + 1
            if lex == "else":
                return i + 1  # orphaned else, tolerated
            if lex in ("class", "interface", "enum"):
                # local class declaration: one statement, body opaque
                self.count += 1
                while i < end and self._lex(i) != "{":
                    i += 1
                if i < end:
                    return min(self.match[i] + 1, end)
                return end
            if lex in STATEMENT_KEYWORDS:
                self.count += 1
                return self._skip_to_semicolon(i + 1)

        # labeled statement: Name ':' Statement
        if (
            kind == "identifier"
            and i + 1 < end
            and self._lex(i + 1) == ":"
        ):
            return self._statement(i + 2, end, nl, nle) if i + 2 < end else end

        # expression or local declaration
        self.count += 1
        return self._skip_to_semicolon(i)

    def _enter(self, nl, nle):
        self.max_nl = max(self.max_nl, nl)
        self.max_nle = max(self.max_nle, nle)

    def _if(self, i, end, nl, nle):
        self.count += 1
        self._enter(nl + 1, nle + 1)
        i += 1
        if i < end and self._lex(i) == "(":
            i = self._skip_group(i)
        if i < end:
            i = self._statement(i, end, nl + 1, nle + 1)
        while i < end and self._lex(i) == "else":
            i += 1
            if i < end and self._lex(i) == "if":
                # else-if: deepens NL but not NLE
                self.count += 1
                self._enter(nl + 2, nle + 1)
                i += 1
                if i < end and self._lex(i) == "(":
                    i = self._skip_group(i)
                if i < end:
                    i = self._statement(i, end, nl + 2, nle + 1)
                nl += 1
                continue
            if i < end:
                i = self._statement(i, end, nl + 1, nle + 1)
            break
        return i

    def _try(self, i, end, nl, nle):
        self.count += 1
        self._enter(nl + 1, nle + 1)
        i += 1
        if i < end and self._lex(i) == "(":  # try-with-resources
            i = self._skip_group(i)
        if i < end and self._lex(i) == "{":
            i = self._braced_block(i, end, nl + 1, nle + 1)
        while i < end and self._lex(i) in ("catch", "finally"):
            i += 1
            if i < end and self._lex(i) == "(":
                i = self._skip_group(i)
            if i < end and self._lex(i) == "{":
                i = self._braced_block(i, end, nl + 1, nle + 1)
        return i


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

def method_metrics(elem: SourceElement, ctx: TokenContext) -> MetricsVector:
    """Full metric vector for a method element."""
    assert elem.kind == "method"
    v = {}
    doc = ctx.doc_comment(elem)
    dloc = (doc.end_line - doc.line + 1) if doc is not None else 0

    loc, lloc, cloc = _line_counts(ctx, elem.start_line, elem.end_line)
    v["LOC"], v["LLOC"], v["CLOC"] = float(loc), float(lloc), float(cloc)
    v["TLOC"], v["TLLOC"] = float(loc), float(lloc)
    v["TCLOC"] = float(cloc + dloc)
    v["DLOC"] = float(dloc)
    v["CD"] = _density(cloc, lloc)
    v["TCD"] = _density(cloc + dloc, lloc)

    body_start, body_end = _body_range(elem)
    nos, nl, nle = _StatementScan(ctx.view, body_start, body_end).run()
    v["NOS"], v["TNOS"] = float(nos), float(nos)
    v["NL"], v["NLE"] = float(nl), float(nle)
    v["NUMPAR"] = float(len(elem.param_types))
    code = ctx.view.tokens
    v["McCC"] = float(1 + _decision_points(code, body_start, body_end))
    v.update(_halstead(code, body_start, body_end))
    v.update(_maintainability(v["HVOL"], v["McCC"], v["LLOC"], v["CD"]))
    ordered = {k: v[k] for k in METHOD_COLUMNS if k in v}
    return MetricsVector(level="method", values=ordered, element=elem)


def _documented_public(ctx, elements):
    """(PDA, PUA): public elements with and without an attached doc comment."""
    public = [e for e in elements if e.is_public]
    pda = sum(1 for e in public if ctx.doc_comment(e) is not None)
    return float(pda), float(len(public) - pda)


def _is_getter(m):
    for prefix in ("get", "is"):
        n = m.name
        if n.startswith(prefix) and len(n) > len(prefix) and n[len(prefix)].isupper():
            return True
    return False


def _is_setter(m):
    n = m.name
    return n.startswith("set") and len(n) > 3 and n[3].isupper()


def class_metrics(
    elem: SourceElement, members, nested_classes, ctx: TokenContext
) -> MetricsVector:
    """Metric vector for a class.

    ``members`` are the metric vectors of the class's methods (a method whose
    ``parent_fqn`` is another class is ignored); ``nested_classes`` are the
    already-computed vectors of directly nested classes.
    """
    assert elem.kind == "class"
    v = {}
    direct = [m for m in members if m.element.parent_fqn == elem.fqn]
    nested = list(nested_classes)

    doc = ctx.doc_comment(elem)
    dloc = (doc.end_line - doc.line + 1) if doc is not None else 0
    holes = [
        (n.element.start_line, n.element.end_line)
        for n in nested
    ]
    loc, lloc, cloc = _line_counts(ctx, elem.start_line, elem.end_line, holes)
    tloc, tlloc, tcloc = _line_counts(ctx, elem.start_line, elem.end_line)
    v["LOC"], v["LLOC"], v["CLOC"] = float(loc), float(lloc), float(cloc)
    v["TLOC"], v["TLLOC"] = float(tloc), float(tlloc)
    v["TCLOC"] = float(tcloc + dloc)
    v["DLOC"] = float(dloc)
    v["CD"] = _density(cloc, lloc)
    v["TCD"] = _density(tcloc + dloc, tlloc)

    v["NL"] = max((m.values["NL"] for m in direct), default=0.0)
    v["NLE"] = max((m.values["NLE"] for m in direct), default=0.0)
    nos = sum(m.values["NOS"] for m in direct) + len(elem.fields)
    v["NOS"] = float(nos)
    v["TNOS"] = float(nos + sum(n.values["TNOS"] for n in nested))

    v["WMC"] = float(sum(m.values["McCC"] for m in direct))

    nm = len(direct)
    npm = sum(1 for m in direct if m.element.is_public)
    ng = sum(1 for m in direct if _is_getter(m.element))
    ns = sum(1 for m in direct if _is_setter(m.element))
    na = sum(f.declarators for f in elem.fields)
    npa = sum(f.declarators for f in elem.fields if "public" in f.modifiers)
    # No inheritance resolution: local counts equal plain counts.
    v["NM"] = v["NLM"] = float(nm)
    v["NPM"] = v["NLPM"] = float(npm)
    v["NG"] = v["NLG"] = float(ng)
    v["NS"] = v["NLS"] = float(ns)
    v["NA"] = v["NLA"] = float(na)
    v["NPA"] = v["NLPA"] = float(npa)
    v["TNM"] = v["TNLM"] = float(nm + sum(n.values["TNM"] for n in nested))
    v["TNPM"] = v["TNLPM"] = float(npm + sum(n.values["TNPM"] for n in nested))
    v["TNG"] = v["TNLG"] = float(ng + sum(n.values["TNG"] for n in nested))
    v["TNS"] = v["TNLS"] = float(ns + sum(n.values["TNS"] for n in nested))
    v["TNA"] = v["TNLA"] = float(na + sum(n.values["TNA"] for n in nested))
    v["TNPA"] = v["TNLPA"] = float(npa + sum(n.values["TNPA"] for n in nested))

    pda, pua = _documented_public(ctx, [x.element for x in direct + nested])
    v["PDA"], v["PUA"] = pda, pua
    v["AD"] = pda / (pda + pua) if (pda + pua) > 0 else 0.0

    ordered = {k: v[k] for k in CLASS_COLUMNS if k in v}
    return MetricsVector(level="class", values=ordered, element=elem)


def file_metrics(elem: SourceElement, elements, ctx: TokenContext) -> MetricsVector:
    """Metric vector for a file element.

    ``elements`` (all elements parsed from the file) feed the public-API
    documentation counts.
    """
    assert elem.kind == "file"
    v = {}
    loc, lloc, cloc = _line_counts(ctx, elem.start_line, elem.end_line)
    v["LOC"], v["LLOC"], v["CLOC"] = float(loc), float(lloc), float(cloc)
    code = ctx.view.tokens
    v["McCC"] = float(1 + _decision_points(code, 0, len(code)))
    v["PDA"], v["PUA"] = _documented_public(
        ctx, [e for e in elements if e.kind in ("class", "method")]
    )
    ordered = {k: v[k] for k in FILE_COLUMNS if k in v}
    return MetricsVector(level="file", values=ordered, element=elem)
