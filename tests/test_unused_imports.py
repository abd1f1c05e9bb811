"""Every name a source module imports is used in it. A stdlib stand-in for a
linter's unused-import rule: `__future__` imports and import statements
marked `# noqa: F401` are exempt."""

import ast
from pathlib import Path

import pytest

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """`name (line N)` for each name `path` imports and never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)  # `a.b.c` reads the Name `a`
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re  # noqa: F401\n"
        "from typing import Callable, Optional\n"
        "x: Optional[int] = os.path.sep\n"
    )
    assert unused_imports(module) == ["Callable (line 4)"]
