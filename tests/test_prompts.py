"""The package's `prompts/*.txt` files are its template list. Every
`render_prompt("<name>", …)` call in `rtlflow` names an existing
`prompts/<name>.txt` with a string literal, and every such file is
rendered somewhere, so a misspelt name or an orphan file fails here rather
than on the first run that reaches it. Each call passes exactly the
`$placeholders` of its template, since `safe_substitute` leaves a misspelt
one in the prompt without an error."""

import ast
from pathlib import Path
from string import Template

import rtlflow
from rtlflow.prompts import load_template

PACKAGE = Path(rtlflow.__file__).resolve().parent
TEMPLATES = {p.stem for p in (PACKAGE / "prompts").glob("*.txt")}


def render_calls(source: str) -> list:
    """Each call's template name, or None where the name is not a string
    literal, and the keywords it passes (None for a `**` argument)."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func  # `render_prompt` or `<module>.render_prompt`
        if getattr(func, "id", getattr(func, "attr", None)) != "render_prompt":
            continue
        first = node.args[0] if node.args else None
        literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
        calls.append((first.value if literal else None, {kw.arg for kw in node.keywords}))
    return calls


def rendered(source: str) -> list:
    """The template each `render_prompt` call names, or None where the
    name is not a string literal."""
    return [name for name, _ in render_calls(source)]


def placeholders(template: str) -> set:
    """The names `string.Template` substitutes in `template`."""
    return {m["named"] or m["braced"] for m in Template.pattern.finditer(template)
            if m["named"] or m["braced"]}


CALLS = {str(p.relative_to(PACKAGE)): render_calls(p.read_text(encoding="utf-8"))
         for p in sorted(PACKAGE.rglob("*.py"))}
RENDERED = {path: [name for name, _ in calls] for path, calls in CALLS.items()}


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


def test_every_call_passes_exactly_its_templates_placeholders():
    mismatched = [(path, name, passed) for path, calls in CALLS.items() for name, passed in calls
                  if name in TEMPLATES and passed != placeholders(load_template(name))]
    assert mismatched == []


def test_scan_finds_keywords_and_placeholders():
    assert render_calls("render_prompt('a', code=x, **more)\n") == [("a", {"code", None})]
    assert placeholders("$code, ${plan}s, $$5 and $") == {"code", "plan"}
