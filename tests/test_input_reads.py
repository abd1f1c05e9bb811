"""Every text file a source module opens, reads or writes is UTF-8, and
input files are read in one place: `errors.read_input`, which names a bad
file in its error (the bundled prompt templates are read by
`prompts.load_template`)."""

import ast
from pathlib import Path
from typing import Optional

import pytest

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
TEXT_IO = ("open", "read_text", "write_text")
# the one function per module allowed to call read_text
READERS = {"errors.py": "read_input", "prompts/__init__.py": "load_template"}


def violations(path: Path, reader: Optional[str]) -> list[str]:
    """`call (line N): problem` for each text-file call in `path` that does not
    pass `encoding="utf-8"`, and each read_text outside the function `reader`."""
    found = []

    def visit(node: ast.AST, function: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in TEXT_IO:
                encoding = next((k.value for k in node.keywords if k.arg == "encoding"), None)
                if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
                    found.append(f"{name} (line {node.lineno}): no encoding='utf-8'")
                if name == "read_text" and function != reader:
                    found.append(f"{name} (line {node.lineno}): outside {reader}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_text_files_are_utf8_and_read_in_one_place(path):
    assert violations(path, READERS.get(path.relative_to(PACKAGE).as_posix())) == []


def test_violations_are_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from pathlib import Path\n"
        "def read_input(p):\n"
        "    return Path(p).read_text(encoding='utf-8')\n"
        "def load(p):\n"
        "    return Path(p).read_text(encoding='utf-8')\n"
        "def save(p, s):\n"
        "    Path(p).write_text(s)\n"
        "    with open(p, 'a', encoding='latin-1') as fh:\n"
        "        fh.write(s)\n"
        "    with Path(p).open('a', encoding='utf-8') as fh:\n"
        "        fh.write(s)\n"
    )
    assert violations(module, "read_input") == [
        "read_text (line 5): outside read_input",
        "write_text (line 7): no encoding='utf-8'",
        "open (line 8): no encoding='utf-8'",
    ]
