"""A backend's `complete` is called in one place only:
`gateway.RoleSession.send`, which appends every exchange to the transcript,
so no role call can leave its exchange out. A call counts when it calls
`complete` as a name or as an attribute of anything, and a nested
function's call counts for the function it sits in."""

import ast
from pathlib import Path

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _calls_complete(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "complete"


def complete_callers(tree: ast.Module) -> list[str]:
    """The module's functions (methods as `Class.method`) that call
    `complete`, and `line N` for each such call outside a function."""
    found = []
    scopes = [(node.name, node) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes += [(f"{cls.name}.{node.name}", node) for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_scope = {id(n) for _, scope in scopes for n in ast.walk(scope)}
    for name, scope in scopes:
        found += [name] * sum(map(_calls_complete, ast.walk(scope)))
    found += [f"line {node.lineno}" for node in ast.walk(tree)
              if _calls_complete(node) and id(node) not in in_scope]
    return found


def test_backend_complete_is_called_by_role_session_send_only():
    found = [(path.relative_to(PACKAGE).as_posix(), name)
             for path in MODULES
             for name in complete_callers(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("gateway.py", "RoleSession.send")]


def test_complete_callers_finds_what_it_looks_for():
    tree = ast.parse(
        "reply = backend.complete('Planner', [])\n"
        "def ask(gateway):\n    return gateway.backend.complete('Evaluator', [])\n"
        "def verdict(v):\n    return v.complete\n"
        "def nested(fn):\n"
        "    def inner():\n        return complete('Reviewer', [])\n"
        "    return inner()\n"
        "class Session:\n"
        "    def send(self, prompt):\n        return self.backend.complete('Planner', [prompt])\n"
    )
    assert complete_callers(tree) == ["ask", "nested", "Session.send", "line 1"]
