"""The package's `prompts/*.txt` files are its template list. Every
`render_prompt("<name>", …)` call in `rtlflow` names an existing
`prompts/<name>.txt` with a string literal, and every such file is
rendered somewhere, so a misspelt name or an orphan file fails here rather
than on the first run that reaches it."""

import ast
from pathlib import Path

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
TEMPLATES = {p.stem for p in (PACKAGE / "prompts").glob("*.txt")}


def rendered(source: str) -> list:
    """The template each `render_prompt` call names, or None where the
    name is not a string literal."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func  # `render_prompt` or `<module>.render_prompt`
        if getattr(func, "id", getattr(func, "attr", None)) != "render_prompt":
            continue
        first = node.args[0] if node.args else None
        literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
        names.append(first.value if literal else None)
    return names


RENDERED = {str(p.relative_to(PACKAGE)): rendered(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.rglob("*.py"))}


def test_every_rendered_template_is_a_file():
    unknown = [(path, name) for path, names in RENDERED.items()
               for name in names if name not in TEMPLATES]
    assert unknown == []


def test_every_template_file_is_rendered():
    used = {name for names in RENDERED.values() for name in names}
    assert sorted(TEMPLATES - used) == []


def test_scan_finds_every_call_form():
    source = ("render_prompt('a', code=x)\n"
              "prompts.render_prompt(\"b\")\n"
              "render_prompt(name)\n"
              "load_template('c')\n")
    assert rendered(source) == ["a", "b", None]
