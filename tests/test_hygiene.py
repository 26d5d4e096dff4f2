"""Source hygiene: an AST scan of the package for unused imports and for
module-level private functions and classes that no package code uses.

A private helper that only the tests call belongs in the tests (as their
reference), and a route deleted from the package should take its imports
with it.
"""
import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import freeboson

PACKAGE = Path(freeboson.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _used_names(tree) -> set[str]:
    """Names read anywhere in the tree: Name nodes and the strings listed in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def _imported_names(tree):
    """(bound name, line) for each import in the tree.  ``from __future__``
    and the explicit re-export ``import x as x`` are left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    yield (alias.asname or alias.name), node.lineno


def test_no_unused_imports():
    unused = []
    for name, tree in _trees().items():
        used = _used_names(tree)
        unused += [
            f"{name}:{line} {bound}" for bound, line in _imported_names(tree) if bound not in used
        ]
    assert unused == []


def test_no_module_imports_warnings():
    """The CLI promises nothing on stderr, where a warning goes: the package
    reports through return values and exceptions only."""
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "warnings" for module in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_private_module_function_and_class_is_used_in_the_package():
    trees = _trees()
    used_anywhere: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used_anywhere[node.id] = used_anywhere.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                used_anywhere[node.attr] = used_anywhere.get(node.attr, 0) + 1
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    used_anywhere[alias.name] = used_anywhere.get(alias.name, 0) + 1
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # a recursive call inside the definition does not count as a use
            inside = sum(
                1 for n in ast.walk(node)
                if (isinstance(n, ast.Name) and n.id == node.name)
                or (isinstance(n, ast.Attribute) and n.attr == node.name)
            )
            if used_anywhere.get(node.name, 0) - inside <= 0:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


def _called_name(node) -> str | None:
    """The name a call node calls: ``f(...)`` or ``obj.f(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_exported_function_is_called_in_the_package():
    """The public API names only what the package itself runs: a function
    listed in ``freeboson.__all__`` is called by some package code, which
    may be another function of its own module but not its own body.  A
    route that only the tests call belongs in the tests, as their
    reference.  Classes are exempt."""
    trees = _trees()
    calls: dict[str, int] = {}
    own: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (name := _called_name(node)) is not None:
                calls[name] = calls.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = sum(1 for n in ast.walk(node) if _called_name(n) == node.name)
                own[node.name] = own.get(node.name, 0) + inside
    exported = [
        name for name in freeboson.__all__ if inspect.isfunction(getattr(freeboson, name))
    ]
    uncalled = [name for name in exported if calls.get(name, 0) - own.get(name, 0) <= 0]
    assert uncalled == []


def test_every_public_method_of_every_class_is_used_in_the_package():
    """A class holds only what the package runs: each public method or
    property of every class in the package is read as an attribute by some
    package code outside its own body.  Like the exported-function scan it
    matches by name, so a method of another class or a module function of
    the same name counts too."""
    trees = _trees()
    reads: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
    unused = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                inside = sum(
                    1 for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == node.name
                )
                if reads.get(node.name, 0) - inside <= 0:
                    unused.append(f"{module} {cls.name}.{node.name}")
    assert unused == []


def _defaulted_parameters(func):
    """(position or None, name) of each parameter of ``func`` with a default;
    the position is None for a keyword-only parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield i, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


# The console entry point: ``main(argv=None)`` is called with no argument, so
# that the command line is read from sys.argv, and with an argument list by
# the tests and the benchmark harness, which live outside the package.
_ENTRY_POINTS = {("cli.py", "main", "argv")}


def test_every_defaulted_parameter_is_set_by_some_package_call():
    """An option that every caller leaves at its default is a constant: a
    module-level function parameter with a default must be set, by keyword
    or by position, by at least one call in the package."""
    trees = _trees()
    # per called name: the keywords passed, and the most positional arguments
    keywords: dict[str, set[str]] = {}
    positions: dict[str, float] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            given = keywords.setdefault(name, set())
            for kw in node.keywords:
                # **kwargs may set any keyword
                given.add("*" if kw.arg is None else kw.arg)
            count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            given = keywords.get(node.name, set())
            for position, param in _defaulted_parameters(node):
                if (module, node.name, param) in _ENTRY_POINTS:
                    continue
                by_position = position is not None and positions.get(node.name, 0) > position
                if not (by_position or param in given or "*" in given):
                    unused.append(f"{module} {node.name}({param})")
    assert unused == []


def _is_frozen_dataclass(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords
    )


def test_every_dataclass_is_frozen():
    """A value the package hands out is built once: every ``@dataclass`` in
    the package is ``frozen=True``."""
    mutable = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name == "dataclass" and not _is_frozen_dataclass(decorator):
                    mutable.append(f"{module}:{node.lineno} {node.name}")
    assert mutable == []


def _is_throwaway_table(node) -> bool:
    """A call of the form ``KernelTable()(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Call)):
        return False
    made = node.func.func
    return (made.id if isinstance(made, ast.Name) else getattr(made, "attr", None)) == "KernelTable"


def test_no_kernel_table_is_used_for_one_value():
    """A ``KernelTable`` is held for the length of one computation, so that
    the computation evaluates each kernel once: no package call builds a
    table, asks it for one value and drops it."""
    found: dict[int, str] = {}
    for module, tree in _trees().items():
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{module} {getattr(scope, 'name', '<module>')}"
            for node in ast.walk(scope):
                # the walk is breadth first: the innermost scope is named last
                if _is_throwaway_table(node):
                    found[id(node)] = name
    assert sorted(found.values()) == []



_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _has_path(root, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."), root)
    except AttributeError:
        return False
    return True


def test_every_named_helper_in_a_docstring_exists():
    """A docstring that names a package object in double backquotes names
    one that exists: each such token that is a dotted name, or starts with
    ``_`` or a capital, resolves in its own module, in ``freeboson``, or in
    the package module named by its first segment.  A helper that is
    deleted or renamed takes the docstrings that name it along."""
    modules = {
        path.stem: freeboson if path.stem == "__init__" else importlib.import_module(f"freeboson.{path.stem}")
        for path in MODULES
    }
    missing = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for token in re.findall(r"``([^`]+)``", ast.get_docstring(node) or ""):
                first, _, rest = token.partition(".")
                if not (_NAME.fullmatch(token) and (rest or first[0] == "_" or first[0].isupper())):
                    continue
                homes = [(modules[path.stem], token), (freeboson, token)]
                if rest and first in modules:
                    homes.append((modules[first], rest))
                if not any(_has_path(root, name) for root, name in homes):
                    missing.append(f"{path.name}:{getattr(node, 'lineno', 1)} {token}")
    assert missing == []
