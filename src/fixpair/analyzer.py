"""Per-file and per-tree analysis: elements plus their metric vectors."""

import fnmatch
from dataclasses import dataclass, field

from .java.structure import ElementCollisionError, parse_elements
from .java.tokenizer import tokenize
from .metrics import TokenContext, class_metrics, file_metrics, method_metrics

# Bump when counting rules change; cache entries are keyed by this.
ANALYZER_VERSION = "2"

DEFAULT_TEST_GLOBS = ("**/test/**",)


@dataclass
class FileAnalysis:
    path: str
    elements: list
    vectors: dict = field(default_factory=dict)  # (kind, fqn) -> MetricsVector
    code_lines: frozenset = frozenset()  # lines carrying non-comment tokens
    error: str = None


def is_test_path(path, globs=DEFAULT_TEST_GLOBS):
    norm = path.replace("\\", "/")
    for g in globs:
        if fnmatch.fnmatch(norm, g) or fnmatch.fnmatch("/" + norm, g):
            return True
    return False


def analyze_source(path: str, text: str) -> FileAnalysis:
    """Parse one Java file and compute the metrics of its elements."""
    stream = tokenize(text)
    ctx = TokenContext(stream)
    code_lines = frozenset(ctx.code_lines)
    try:
        elements = parse_elements(path, stream)
    except ElementCollisionError as exc:
        return FileAnalysis(path=path, elements=[], code_lines=code_lines, error=str(exc))
    analysis = FileAnalysis(path=path, elements=elements, code_lines=code_lines)
    methods = [e for e in elements if e.kind == "method"]
    classes = [e for e in elements if e.kind == "class"]
    file_elem = next(e for e in elements if e.kind == "file")

    method_vecs = {}
    for m in methods:
        vec = method_metrics(m, ctx)
        method_vecs[m.fqn] = vec
        analysis.vectors[("method", m.fqn)] = vec

    # innermost classes first so nested totals exist when the outer is done
    class_vecs = {}
    for c in sorted(classes, key=lambda e: -e.fqn.count(".")):
        members = [
            v for v in method_vecs.values()
            if _inside(v.element, c)
        ]
        nested = [
            class_vecs[d.fqn] for d in classes
            if d.parent_fqn == c.fqn and d.fqn in class_vecs
        ]
        vec = class_metrics(c, members, nested, ctx)
        class_vecs[c.fqn] = vec
        analysis.vectors[("class", c.fqn)] = vec

    analysis.vectors[("file", file_elem.fqn)] = file_metrics(file_elem, elements, ctx)
    return analysis


def _inside(inner, outer):
    return (
        inner.path == outer.path
        and outer.start_line <= inner.start_line
        and inner.end_line <= outer.end_line
    )
