"""The package holds only what it uses.

* Every default-valued parameter of a package function is set by some call
  inside the package: an option only tests set is a path no command takes.
  Calls are matched by the called name (``f(...)`` or ``obj.f(...)``; a
  class name for its ``__init__``).  So the check can miss a dead option
  whose function shares its name with another's, and it does not follow a
  call made through ``functools.partial`` or a table; a parameter that is
  set only so goes in ``ALLOWED`` with its reason, as does one that is set
  from outside.
* Every name the package defines, each ``self.attr = …`` of a method
  included, is read somewhere in the package outside its own definition:
  code only tests reach is code no command runs.  Reads are matched by name
  too, so a dead name that shares its name with a live one goes unseen; a
  name read only from outside goes in ``UNREAD`` with its reason.
* Every dunder method but ``__init__`` and ``__post_init__``, which Python
  calls by protocol rather than by name, is in ``PROTOCOL`` with the package
  expression that invokes it.
"""

import ast
import functools
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fixpair")

# (module, function, parameter) -> why no call inside the package sets it
ALLOWED = {
    ("cli.py", "main", "argv"): "the console entry point reads sys.argv",
    ("github.py", "fetch_issues", "sleeper"):
        "the rate-limit tests pause without sleeping",
    **{
        ("learn/evaluate.py", "cross_validate_projected", p):
            "kept for perfbench/tracer.py, which wraps it by name"
        for p in ("k", "repeats", "seed")
    },
}


@functools.cache
def _parse_package():
    """``(module, tree)`` for every source file of the package."""
    parsed = []
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                parsed.append((module, ast.parse(fh.read(), filename=path)))
    return parsed


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call, param, index):
    """Whether ``call`` passes ``param``, by keyword, by ``*``/``**``
    unpacking, or as positional argument ``index`` (None: keyword-only)."""
    keywords = {k.arg for k in call.keywords}
    if param in keywords or None in keywords:
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unset_defaults():
    defs, by_name = [], {}
    for module, tree in _parse_package():
        owner = {
            id(item): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node, owner.get(id(node))))
            elif isinstance(node, ast.Call):
                by_name.setdefault(_called_name(node), []).append(node)
    unset = set()
    for module, fn, cls in defs:
        a = fn.args
        positional = a.posonlyargs + a.args
        bound = cls is not None and positional and positional[0].arg in ("self", "cls")
        called = fn.name if fn.name != "__init__" else cls
        params = [
            (x.arg, i - bound)
            for i, x in enumerate(positional)
            if i >= len(positional) - len(a.defaults)
        ]
        params += [
            (x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        for param, index in params:
            if not any(_sets(c, param, index) for c in by_name.get(called, ())):
                unset.add((module, fn.name, param))
    return unset


def test_every_default_is_set_inside_the_package():
    unset = unset_defaults()
    assert sorted(unset - ALLOWED.keys()) == []
    # an allowance that no longer applies goes too
    assert sorted(ALLOWED.keys() - unset) == []


# (module, name or Class.member) -> why nothing in the package reads it
UNREAD = {
    ("gitio.py", "GitRepo.checkout_tree"): "perfbench/tracer.py wraps it by name",
    ("learn/evaluate.py", "cross_validate_projected"):
        "perfbench/tracer.py wraps it by name",
    ("learn/kernels.py", "KERNEL_BACKEND"): "perfbench/reference.py imports it",
    ("diffs.py", "apply_file_diff"): "criterion 3's replay oracle",
    **{
        ("stats.py", name): "criterion 8"
        for name in ("wilcoxon_signed_rank", "effect_size_r", "rate",
                     "WilcoxonResult.z", "WilcoxonResult.n_nonzero",
                     "EffectSize.r", "EffectSize.magnitude")
    },
    ("java/tokenizer.py", "TokenStream.text"): "the tokenizer round-trip oracle",
    ("java/tokenizer.py", "TokenStream.diagnostics"):
        "computed, then dropped: no output counts the lexer's diagnostics yet",
    **{
        ("errors.py", name): "the error's location, for callers; tests check it"
        for name in ("SnapshotFormatError.field", "DiffParseError.line_no",
                     "DiffParseError.offset")
    },
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _instance_attributes(cls, method):
    """``("Class.attr", statement)`` per ``self.attr = …`` in ``method``."""
    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for node in (n for t in targets for n in ast.walk(t)):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and not _dunder(node.attr)):
                yield f"{cls}.{node.attr}", stmt


def _definitions(tree):
    """``(name, node)`` per top-level function, class and constant of a
    module, and ``("Class.member", node)`` per method, property, annotated
    field and instance attribute of its classes; dunders left out.  An
    instance attribute's node is the statement that assigns it, so that
    statement's own reads do not count."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            names = []
        yield from ((name, node) for name in names if not _dunder(name))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _instance_attributes(node.name, item)
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not _dunder(name):
                yield f"{node.name}.{name}", item


def _reads(node, inside, classes, reads, fielded):
    """Add to ``reads`` a ``(name, bare, inside)`` per read below ``node``:
    ``bare`` marks a plain name or an import, which cannot reach a class
    member, and ``inside`` holds the ids of the nodes around the read.  Add
    to ``fielded`` every class passed to ``dataclasses.fields``."""
    inside += (id(node),)
    if isinstance(node, ast.ClassDef):
        classes += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        reads.append((node.id, True, inside))
    elif isinstance(node, ast.alias):
        reads.append((node.name, True, inside))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        reads.append((node.attr, False, inside))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        reads.append((node.value, False, inside))
    elif (isinstance(node, ast.Call) and _called_name(node) == "fields"
          and node.args and isinstance(node.args[0], ast.Name)):
        cls = node.args[0].id
        fielded.add(classes[-1] if cls in ("self", "cls") else cls)
    for child in ast.iter_child_nodes(node):
        _reads(child, inside, classes, reads, fielded)


def unread_names():
    defs, reads, fielded = [], [], set()
    for module, tree in _parse_package():
        defs += [(module, name, node) for name, node in _definitions(tree)]
        _reads(tree, (), (), reads, fielded)
    by_name = {}
    for name, bare, inside in reads:
        by_name.setdefault(name, []).append((bare, inside))
    unread = set()
    for module, qualname, node in defs:
        cls, _, name = qualname.rpartition(".")
        if cls in fielded and isinstance(node, ast.AnnAssign):
            continue
        if not any(id(node) not in inside and not (cls and bare)
                   for bare, inside in by_name.get(name, ())):
            unread.add((module, qualname))
    return unread


def test_every_name_is_read_inside_the_package():
    unread = unread_names()
    assert sorted(unread - UNREAD.keys()) == []
    # an allowance that no longer applies goes too
    assert sorted(UNREAD.keys() - unread) == []
    for (_, qualname), reason in UNREAD.items():
        for cited in re.findall(r"perfbench/[\w/]+\.py", reason):
            with open(os.path.join(ROOT, cited), encoding="utf-8") as fh:
                assert qualname.rpartition(".")[2] in fh.read(), (qualname, cited)


# (module, Class.dunder) -> (module, expression) that invokes it
PROTOCOL = {
    ("learn/evaluate.py", "ConfusionMatrix.__add__"):
        ("learn/evaluate.py", "sum(matrices, ConfusionMatrix())"),
    ("gitio.py", "GitRepo.__enter__"): ("pipeline.py", "with GitRepo("),
    ("gitio.py", "GitRepo.__exit__"): ("pipeline.py", "with GitRepo("),
}


def dunder_methods():
    return {
        (module, f"{node.name}.{item.name}")
        for module, tree in _parse_package()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _dunder(item.name) and item.name not in ("__init__", "__post_init__")
    }


def test_every_dunder_is_invoked_inside_the_package():
    dunders = dunder_methods()
    assert sorted(dunders - PROTOCOL.keys()) == []
    # an entry whose dunder is gone goes too
    assert sorted(PROTOCOL.keys() - dunders) == []
    for module, expression in PROTOCOL.values():
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            assert expression in fh.read(), (module, expression)
