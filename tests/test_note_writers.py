"""An artifact's notes are set in one place only:
`engine.artifact_from_reply`, which notes, by index, the STEP and FIX tags
a reply's prompt asked for and its code lacks, so every note follows that
one rule. A function counts as setting notes when it assigns, augments or
deletes `x.notes` or an item of it, calls a method of `x.notes`, or passes
notes to `RtlArtifact`, `replace` or `setattr`; a nested function's write
counts for the function it sits in."""

import ast
from dataclasses import fields
from pathlib import Path

import rtlflow
from rtlflow.engine import RtlArtifact

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
# how many positional arguments to `RtlArtifact` come before its notes
NOTES_AT = [f.name for f in fields(RtlArtifact)].index("notes")


def _is_notes(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "notes"


def _sets_notes(node: ast.AST) -> bool:
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        target = node if isinstance(node, ast.Attribute) else node.value
        return _is_notes(target) and isinstance(node.ctx, (ast.Store, ast.Del))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and _is_notes(func.value):
        return True
    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    keywords = {k.arg for k in node.keywords}
    return ((called in ("RtlArtifact", "replace") and "notes" in keywords)
            or (called == "RtlArtifact" and len(node.args) > NOTES_AT)
            or (called == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "notes"))


def note_setters(tree: ast.Module) -> list[str]:
    """The module's functions (methods as `Class.method`) that set notes,
    and `line N` for each such write outside a function."""
    found = []
    scopes = [(node.name, node) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes += [(f"{cls.name}.{node.name}", node) for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_scope = {id(n) for _, scope in scopes for n in ast.walk(scope)}
    found += [name for name, scope in scopes if any(map(_sets_notes, ast.walk(scope)))]
    found += [f"line {node.lineno}" for node in ast.walk(tree)
              if _sets_notes(node) and id(node) not in in_scope]
    return found


def test_notes_are_set_by_artifact_from_reply_only():
    found = [(path.relative_to(PACKAGE).as_posix(), name)
             for path in MODULES
             for name in note_setters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("engine.py", "artifact_from_reply")]


def test_note_setters_finds_what_it_looks_for():
    tree = ast.parse(
        "DEFAULT = RtlArtifact('module m; endmodule', notes=['x'])\n"
        "def reads(rtl):\n    return list(rtl.notes) + [rtl.notes[0]]\n"
        "def logs(events, rtl):\n    _event(events, 'notes', notes=rtl.notes)\n"
        "def appends(rtl):\n    rtl.notes.append('MissingFixTags: [2]')\n"
        "def assigns(rtl):\n    rtl.notes = []\n"
        "def augments(rtl):\n    rtl.notes += ['x']\n"
        "def slices(rtl):\n    rtl.notes[:] = []\n"
        "def copies(rtl):\n    return replace(rtl, notes=[])\n"
        "def positional(code):\n    return RtlArtifact(code, set(), 0, ['x'])\n"
        "def named(rtl):\n    setattr(rtl, 'notes', [])\n"
        "def nested(rtl):\n"
        "    def inner():\n        rtl.notes.extend(['x'])\n"
        "    inner()\n"
        "class Fixer:\n"
        "    def fix(self, rtl):\n        del rtl.notes[0]\n"
    )
    assert note_setters(tree) == ["appends", "assigns", "augments", "slices", "copies",
                                  "positional", "named", "nested", "Fixer.fix", "line 1"]
