"""Per-file and per-tree analysis: elements plus their metric vectors."""

import fnmatch
from collections import defaultdict
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
    # the vectors of each class's own methods and directly nested classes
    methods, nested = defaultdict(list), defaultdict(list)
    for m in elements:
        if m.kind == "method":
            vec = method_metrics(m, ctx)
            analysis.vectors[("method", m.fqn)] = vec
            methods[m.parent_fqn].append(vec)

    # innermost classes first so nested totals exist when the outer is done
    classes = [e for e in elements if e.kind == "class"]
    for c in sorted(classes, key=lambda e: -e.fqn.count(".")):
        vec = class_metrics(c, methods[c.fqn], nested[c.fqn], ctx)
        analysis.vectors[("class", c.fqn)] = vec
        nested[c.parent_fqn].append(vec)

    file_elem = elements[0]
    analysis.vectors[("file", file_elem.fqn)] = file_metrics(file_elem, elements, ctx)
    return analysis
