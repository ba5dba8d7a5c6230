"""Every default-valued parameter of a package function is set by some call
inside the package: an option only tests set is a path no command takes.

Calls are matched by the called name (``f(...)`` or ``obj.f(...)``; a class
name for its ``__init__``).  So the check can miss a dead option whose
function shares its name with another's, and it does not follow a call made
through ``functools.partial`` or a table; a parameter that is set only so
goes in ``ALLOWED`` with its reason, as does one that is set from outside.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "fixpair")

# (module, function, parameter) -> why no call inside the package sets it
ALLOWED = {
    ("cli.py", "main", "argv"): "the console entry point reads sys.argv",
    ("github.py", "fetch_remote", "sleeper"):
        "the rate-limit tests pause without sleeping",
    **{
        ("learn/evaluate.py", "cross_validate_projected", p):
            "kept for perfbench/tracer.py, which wraps it by name"
        for p in ("k", "repeats", "seed")
    },
}


def _parse_package():
    """``(module, function node, class name or None)`` per definition, and
    every call node of the package."""
    defs, calls = [], []
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            owner = {
                id(item): node.name
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((module, node, owner.get(id(node))))
                elif isinstance(node, ast.Call):
                    calls.append(node)
    return defs, calls


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
    defs, calls = _parse_package()
    by_name = {}
    for call in calls:
        by_name.setdefault(_called_name(call), []).append(call)
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
