"""Every exception class the package defines earns its name. A class in
`errors.py` is named in a `raise` or `except` clause of another module, so a
caller or an output tells it apart from its base; no other module defines an
exception class of its own."""

import ast
import builtins
from pathlib import Path

import pytest

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
ERRORS = PACKAGE / "errors.py"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != ERRORS)
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined_classes(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def _name(node: ast.expr) -> str | None:
    """`X` for `X`, `m.X` or a call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_or_caught(tree: ast.Module) -> set[str]:
    """The class names in the module's `raise` and `except` clauses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(_name(node.exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(_name(t) for t in types)
    return names - {None}


def exception_classes(tree: ast.Module, known: set[str]) -> list[str]:
    """The module's classes that derive from a built-in exception, a class
    in `known` or an exception class defined before them in the module."""
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {_name(b) for b in node.bases}
            if bases & (BUILTIN_EXCEPTIONS | known | set(found)):
                found.append(node.name)
    return found


ERROR_CLASSES = defined_classes(parse(ERRORS))


def test_every_error_class_is_raised_or_caught_elsewhere():
    named = set().union(*(raised_or_caught(parse(p)) for p in MODULES))
    assert [name for name in ERROR_CLASSES if name not in named] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_other_module_defines_an_exception(path):
    assert exception_classes(parse(path), set(ERROR_CLASSES)) == []


def test_checks_find_what_they_look_for(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .errors import Base, Kept\n"
        "class Local(Base):\n    pass\n"
        "class Deeper(Local):\n    pass\n"
        "class Plain:\n    pass\n"
        "def f():\n"
        "    try:\n        raise errors.Raised('x')\n"
        "    except (Kept, OSError):\n        raise\n"
    )
    tree = parse(module)
    assert raised_or_caught(tree) == {"Raised", "Kept", "OSError"}
    assert exception_classes(tree, {"Base"}) == ["Local", "Deeper"]
