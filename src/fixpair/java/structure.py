"""Structural recognition of files, classes, and methods in Java source.

This is brace-matching recognition, not a grammar: the goal is stable
positions and fully-qualified names, not semantics.  Rules that matter for
downstream consumers:

* FQN format: ``pkg.Outer.Inner.name(paramType,...)ret`` for methods,
  ``pkg.Outer.Inner`` for classes, the repo-relative path for files.
* Generic type arguments are erased in FQNs (``List<String>`` -> ``List``);
  array suffixes are kept; varargs render as arrays (``int...`` -> ``int[]``).
* Constructors use the class simple name with return type ``void``.
* Anonymous, local, and enum-constant-body members are not emitted; their
  code belongs to the range of the enclosing element.
* Methods without a body (abstract, interface, native declarations ending in
  ``;``) are not emitted.
* Annotation type declarations (``@interface``) count as classes.
* Element ranges run from the first token of the declaration (including
  modifiers and annotations) to the matching closing brace, as matched by
  the stream's :class:`~.tokenizer.CodeView` (which also fixes the rule for
  unbalanced input).  So every method and nested class lies within the lines
  of its parent class.

Declarations.  A member declaration is the run of code tokens since the last
``;``, ``{`` or ``}`` at its level.  Its modifiers are read from the front of
the run: annotations (``@`` and a qualified name with an optional argument
group) are skipped, modifier keywords (:data:`MODIFIER_KEYWORDS`) are kept,
and the first other token ends them.  A method header also skips type
parameters (``<T>``) there, and a run that reaches ``@interface`` is no
method.  A field does not skip ``<``.  A class's modifiers are every modifier
keyword before its class keyword, wherever it stands.
"""

from dataclasses import dataclass, field

from ..errors import FixpairError
from .tokenizer import TokenStream

MODIFIER_KEYWORDS = frozenset(
    "public protected private static abstract final native synchronized "
    "transient volatile strictfp default".split()
)

PRIMITIVE_KEYWORDS = frozenset(
    "void boolean byte short int long char float double".split()
)

CLASS_KEYWORDS = frozenset({"class", "interface", "enum"})

_TYPE_PUNCT = {".", "[", "]"}


def _angle_delta(tok):
    """How a generic bracket (an operator made of ``<`` and ``>`` only, such
    as ``>>``) changes the angle depth; 0 for every other token."""
    lex = tok.lexeme
    if tok.kind == "operator" and lex.strip("<>") == "":
        return lex.count("<") - lex.count(">")
    return 0


class ElementCollisionError(FixpairError):
    """Two distinct declarations produced the same FQN."""


@dataclass
class FieldDecl:
    """A field declaration inside a class body (not a dataset element)."""

    modifiers: tuple
    declarators: int


@dataclass
class SourceElement:
    kind: str  # file | class | method
    fqn: str
    path: str
    start_line: int
    end_line: int
    parent_fqn: str = None
    # --- analyzer internals used by the metrics pass ---
    name: str = ""
    modifiers: tuple = ()
    decl_index: int = -1  # full-stream index of the first declaration token
    body_open: int = -1  # code-view index of '{' (-1 for the file element)
    body_close: int = -1  # code-view index where the body's group ends
    param_types: tuple = ()
    return_type: str = ""
    fields: list = field(default_factory=list)  # FieldDecl, classes only
    degraded: bool = False  # file element: unbalanced braces

    @property
    def is_public(self):
        return "public" in self.modifiers


class _Parser:
    def __init__(self, path, stream):
        self.path = path
        self.stream = stream
        self.view = stream.code_view
        self.code = self.view.tokens
        self.n = len(self.code)
        self.elements = []
        self.package = ""
        self.match = self.view.match  # every '(' and '{' has an entry

    def tok(self, i):
        return self.code[i]

    # -- helpers over a run of code-token indices --------------------------

    def _skip_annotation(self, i, end):
        """i points at '@'; return index after the annotation."""
        i += 1
        if i < end and self.tok(i).kind in ("identifier", "keyword"):
            i += 1
            while i + 1 < end and self.tok(i).lexeme == "." and self.tok(i + 1).kind == "identifier":
                i += 2
        if i < end and self.tok(i).lexeme == "(":
            i = self.match[i] + 1
        return i

    def _skip_angles(self, idxs, i):
        """``idxs[i]`` is an operator starting with '<'; return the position
        in ``idxs`` after the generic group it opens."""
        depth = 0
        while i < len(idxs):
            delta = _angle_delta(self.tok(idxs[i]))
            depth += delta
            i += 1
            if delta and depth <= 0:
                break
        return i

    def _render_type(self, idxs):
        """Erased textual form of a type token sequence."""
        parts = []
        i = 0
        while i < len(idxs):
            t = self.tok(idxs[i])
            if t.kind == "operator" and t.lexeme.startswith("<"):
                i = self._skip_angles(idxs, i)  # erase generic arguments
                continue
            if t.lexeme == "...":
                parts.append("[]")
            elif t.kind in ("identifier", "keyword") or t.lexeme in _TYPE_PUNCT:
                parts.append(t.lexeme)
            i += 1
        return "".join(parts)

    def _parse_params(self, open_idx):
        """Parameter list of the paren group opening at ``open_idx``."""
        close = self.match[open_idx]
        groups = [[]]
        i = open_idx + 1
        angle = 0
        while i < close:
            t = self.tok(i)
            lex = t.lexeme
            if lex == "(":
                i = self.match[i] + 1
                continue
            angle += _angle_delta(t)
            if lex == "," and angle == 0:
                groups.append([])
            else:
                groups[-1].append(i)
            i += 1
        if groups == [[]]:
            return []
        types = []
        for g in groups:
            ty = self._render_param(g)
            if ty is None:
                return None
            types.append(ty)
        return types

    def _render_param(self, idxs):
        # drop annotations and 'final'
        kept = []
        i = 0
        while i < len(idxs):
            t = self.tok(idxs[i])
            if t.lexeme == "@":
                j = i + 1
                if j < len(idxs) and self.tok(idxs[j]).kind == "identifier":
                    j += 1
                    while j + 1 < len(idxs) and self.tok(idxs[j]).lexeme == ".":
                        j += 2
                i = j
                continue
            if t.kind == "keyword" and t.lexeme == "final":
                i += 1
                continue
            kept.append(idxs[i])
            i += 1
        # last identifier is the parameter name; trailing [] belong to the type
        name_pos = None
        for k in range(len(kept) - 1, -1, -1):
            if self.tok(kept[k]).kind == "identifier":
                name_pos = k
                break
        if name_pos is None or name_pos == 0 and self.tok(kept[0]).kind != "identifier":
            return None
        type_idxs = kept[:name_pos]
        trailing = kept[name_pos + 1:]
        if not type_idxs:
            return None
        ty = self._render_type(type_idxs)
        for k in trailing:
            if self.tok(k).lexeme in ("[", "]"):
                ty += self.tok(k).lexeme
        return ty if ty else None

    # -- classification -----------------------------------------------------

    def _find_class_kw(self, start, end):
        i = start
        while i < end:
            t = self.tok(i)
            if t.lexeme == "(":
                i = self.match[i] + 1
                continue
            if t.kind == "keyword" and t.lexeme in CLASS_KEYWORDS:
                if i > start and self.tok(i - 1).lexeme == ".":
                    i += 1  # Foo.class literal
                    continue
                return i
            i += 1
        return None

    def _read_modifiers(self, idxs, method):
        """``(modifiers, position in idxs after them)`` of the run ``idxs``;
        ``None`` for a method header that reaches ``@interface``."""
        modifiers = []
        end = idxs[-1] + 1 if idxs else 0
        i = 0
        while i < len(idxs):
            k = idxs[i]
            t = self.tok(k)
            if t.lexeme == "@":
                if method and k + 1 < end and self.tok(k + 1).lexeme == "interface":
                    return None
                after = self._skip_annotation(k, end)
                while i < len(idxs) and idxs[i] < after:
                    i += 1
            elif t.kind == "keyword" and t.lexeme in MODIFIER_KEYWORDS:
                modifiers.append(t.lexeme)
                i += 1
            elif method and t.kind == "operator" and t.lexeme.startswith("<"):
                i = self._skip_angles(idxs, i)
            else:
                break
        return tuple(modifiers), i

    def _parse_method_header(self, start, end, class_name):
        """Return (modifiers, name, params, ret) or None."""
        header = self._read_modifiers(range(start, end), method=True)
        if header is None:
            return None
        modifiers, i = header
        i += start
        # find the parameter-list '(' : first top-level paren after i
        paren = None
        j = i
        while j < end:
            if self.tok(j).lexeme == "(":
                paren = j
                break
            j += 1
        if paren is None or paren == i:
            return None
        name_tok = self.tok(paren - 1)
        if name_tok.kind != "identifier":
            return None
        type_idxs = list(range(i, paren - 1))
        angle = 0
        for k in type_idxs:
            t = self.tok(k)
            delta = _angle_delta(t)
            if delta:
                angle += delta
                continue
            ok = (
                t.kind == "identifier"
                or (t.kind == "keyword" and t.lexeme in PRIMITIVE_KEYWORDS)
                or t.lexeme in _TYPE_PUNCT
                # inside generic arguments: wildcards, bounds, commas
                or (angle > 0 and t.lexeme in (",", "?", "&"))
                or (angle > 0 and t.kind == "keyword" and t.lexeme in ("extends", "super"))
            )
            if not ok:
                return None
        if not type_idxs:
            ret = "void"
            if name_tok.lexeme != class_name:
                return None
        else:
            ret = self._render_type(type_idxs)
            if not ret or not (
                self.tok(type_idxs[0]).kind == "identifier"
                or self.tok(type_idxs[0]).lexeme in PRIMITIVE_KEYWORDS
            ):
                return None
        params = self._parse_params(paren)
        if params is None:
            return None
        # after the ')', only a throws clause may precede the body
        close = self.match[paren]
        k = close + 1
        if k < end:
            if not (self.tok(k).kind == "keyword" and self.tok(k).lexeme == "throws"):
                return None
        return modifiers, name_tok.lexeme, tuple(params), ret

    # -- main walk -----------------------------------------------------------

    def parse(self):
        last = self.stream.tokens[-1] if self.stream.tokens else None
        # a final newline ends the last line rather than starting one
        end_line = last.end_line - last.lexeme.endswith("\n") if last else 1
        self.elements.append(
            SourceElement(
                kind="file",
                fqn=self.path,
                path=self.path,
                start_line=1,
                end_line=end_line,
                decl_index=0,
                degraded=self.view.degraded,
            )
        )
        self._walk(0, self.n, parent=None, class_names=())
        self._check_collisions()
        return self.elements

    def _check_collisions(self):
        seen = {}
        for e in self.elements:
            key = (e.kind, e.fqn)
            if key in seen:
                raise ElementCollisionError(
                    f"{self.path}: duplicate {e.kind} FQN {e.fqn!r} "
                    f"(lines {seen[key]} and {e.start_line})"
                )
            seen[key] = e.start_line

    def _class_fqn(self, class_names):
        parts = [p for p in (self.package,) if p] + list(class_names)
        return ".".join(parts)

    def _walk(self, start, end, parent, class_names):
        """Scan one body (file top level or a class body) for declarations."""
        i = start
        run_start = i
        stash = []  # field-run fragments interrupted by initializer braces
        while i < end:
            t = self.tok(i)
            lex = t.lexeme

            if lex == "(":
                i = self.match[i] + 1
                continue

            if lex == ";":
                if parent is None and self._is_package_run(run_start, i):
                    self._read_package(run_start, i)
                elif parent is not None:
                    run = stash + list(range(run_start, i))
                    self._maybe_field(run, parent)
                stash = []
                i += 1
                run_start = i
                continue

            if lex == "{":
                close = self.match[i]
                handled = self._classify_brace(run_start, i, close, parent, class_names)
                if not handled and parent is not None:
                    # initializer / enum-constant fragment: keep tokens for a
                    # possible field declaration continuing after the group
                    stash += list(range(run_start, i))
                i = close + 1
                run_start = i
                continue

            if lex == "}":
                # unmatched closer at this level (tolerated, flagged)
                i += 1
                run_start = i
                continue

            i += 1

        if parent is not None:
            # trailing run without ';' (typically an enum constant list)
            run = stash + list(range(run_start, min(i, end)))
            self._maybe_field(run, parent)

    def _is_package_run(self, start, end):
        return start < end and self.tok(start).lexeme == "package"

    def _read_package(self, start, end):
        parts = [
            self.tok(k).lexeme
            for k in range(start + 1, end)
            if self.tok(k).kind == "identifier"
        ]
        self.package = ".".join(parts)

    def _maybe_field(self, run, parent):
        """Record a field declaration (class bodies only)."""
        modifiers, i = self._read_modifiers(run, method=False)
        rest = run[i:]
        if not rest:
            return
        # A paren group preceded by a type+name pattern is a bodyless method
        # declaration (abstract/native/interface), not a field.  A paren right
        # after a single leading identifier is an enum constant's argument
        # list and harmless.
        depth_angle = 0
        declarators = 1
        has_ident = False
        k = 0
        saw_assign = False
        since_separator = 0
        while k < len(rest):
            t = self.tok(rest[k])
            lex = t.lexeme
            if lex == "(":
                if not saw_assign and since_separator >= 2:
                    return  # method declaration without a body
                close = self.match[rest[k]]
                while k < len(rest) and rest[k] <= close:
                    k += 1
                continue
            depth_angle += _angle_delta(t)
            if lex == "," and depth_angle == 0:
                declarators += 1
                since_separator = 0
            else:
                saw_assign = saw_assign or lex == "="
                has_ident = has_ident or t.kind == "identifier"
                since_separator += 1
            k += 1
        if not has_ident:
            return
        parent.fields.append(FieldDecl(modifiers=modifiers, declarators=declarators))

    def _classify_brace(self, run_start, open_i, close_i, parent, class_names):
        """Handle a '{' at member level; return True when an element was made."""
        kw = self._find_class_kw(run_start, open_i)
        if kw is not None:
            name_i = kw + 1
            if name_i < open_i and self.tok(name_i).kind == "identifier":
                cname = self.tok(name_i).lexeme
                names = class_names + (cname,)
                modifiers = tuple(
                    self.tok(k).lexeme
                    for k in range(run_start, kw)
                    if self.tok(k).kind == "keyword"
                    and self.tok(k).lexeme in MODIFIER_KEYWORDS
                )
                elem = self._element(
                    "class", self._class_fqn(names), cname, modifiers,
                    parent, run_start, open_i, close_i,
                )
                self._walk(open_i + 1, close_i, parent=elem, class_names=names)
                return True
            return False
        if parent is not None:
            header = self._parse_method_header(run_start, open_i, parent.name)
            if header is not None:
                modifiers, name, params, ret = header
                self._element(
                    "method", f"{parent.fqn}.{name}({','.join(params)}){ret}", name,
                    modifiers, parent, run_start, open_i, close_i,
                    param_types=params, return_type=ret,
                )
                return True
        return False

    def _element(
        self, kind, fqn, name, modifiers, parent, run_start, open_i, close_i, **extra
    ):
        """Record a class or method whose declaration starts at ``run_start``
        and whose body is the group from ``open_i`` to ``close_i``."""
        elem = SourceElement(
            kind=kind,
            fqn=fqn,
            path=self.path,
            start_line=self.tok(run_start).line,
            end_line=self.tok(close_i).line,
            parent_fqn=parent.fqn if parent is not None else None,
            name=name,
            modifiers=modifiers,
            decl_index=self.view.index[run_start],
            body_open=open_i,
            body_close=close_i,
            **extra,
        )
        self.elements.append(elem)
        return elem


def parse_elements(path: str, tokens: TokenStream) -> list:
    """Extract file/class/method elements with positions from a token stream."""
    return _Parser(path, tokens).parse()
