"""`status.json` is written in two places only: `engine.run_log`, where
every run ends, and `cli.bench_cmd`, which sums up a suite. A function
counts as writing it when it names `status.json` and calls a file writer;
naming it outside a function counts too, since a constant hides the caller."""

import ast
from pathlib import Path

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
WRITERS = {"write_json", "write_text", "write_bytes", "open", "dump"}


def _called(node: ast.AST) -> str | None:
    """`f` for a call of `f` or `x.f`."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def status_writers(tree: ast.Module) -> list[str]:
    """The module's functions (methods as `Class.method`) that name
    `status.json` and call a writer, and `line N` for each statement outside
    a function that names it."""
    found = []
    scopes = [(node.name, node) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes += [(f"{cls.name}.{node.name}", node) for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_scope = {id(n) for _, scope in scopes for n in ast.walk(scope)}
    for name, scope in scopes:
        nodes = list(ast.walk(scope))
        if (any(isinstance(n, ast.Constant) and n.value == "status.json" for n in nodes)
                and any(_called(n) in WRITERS for n in nodes)):
            found.append(name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and node.value == "status.json"
                and id(node) not in in_scope):
            found.append(f"line {node.lineno}")
    return found


def test_status_json_is_written_where_a_run_ends_and_by_bench_only():
    found = {(path.relative_to(PACKAGE).as_posix(), name)
             for path in MODULES
             for name in status_writers(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("engine.py", "run_log"), ("cli.py", "bench_cmd")}


def test_status_writers_finds_what_it_looks_for():
    tree = ast.parse(
        "STATUS = 'status.json'\n"
        "def reads(ws):\n    return read_input(ws / 'status.json')\n"
        "def writes(ws):\n    write_json(ws / 'status.json', {})\n"
        "def nested(ws):\n"
        "    def inner():\n        (ws / 'status.json').write_text('{}')\n"
        "    inner()\n"
        "class Run:\n"
        "    def end(self):\n        with open('status.json', 'w') as fh:\n            pass\n"
    )
    assert status_writers(tree) == ["writes", "nested", "Run.end", "line 1"]
