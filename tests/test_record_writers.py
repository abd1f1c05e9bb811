"""A run's two record files have one writer, the `Gateway`: `Gateway.start`
is the one function that opens `events.jsonl` and the transcript, and
`gateway._append` is the one that writes their lines. A function counts as
opening a file when it calls `open`, and as writing JSON lines when it
calls `json.dumps` and a handle's `write`, `writelines` or `flush`. The
functions that name the two files open nothing; the one other opener,
`bench.emit_tables`, names no JSONL file."""

import ast
from pathlib import Path

import rtlflow

PACKAGE = Path(rtlflow.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
RECORD_FILES = {"events.jsonl", "transcript.jsonl"}
LINE_WRITES = {"write", "writelines", "flush"}


def functions(tree: ast.Module) -> dict[str, tuple[set[str], set[str]]]:
    """Each of the module's functions (methods as `Class.method`) mapped to
    the names it calls (`f` for `f(...)` and `x.f(...)`) and the strings it
    names, nested functions included; the statements outside a function
    are `<module>`."""
    scopes = [(node.name, node) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes += [(f"{cls.name}.{node.name}", node) for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_scope = {id(n) for _, scope in scopes for n in ast.walk(scope)}
    scopes.append(("<module>", [n for n in ast.walk(tree) if id(n) not in in_scope]))
    found = {}
    for name, scope in scopes:
        nodes = list(ast.walk(scope)) if isinstance(scope, ast.AST) else scope
        calls = {getattr(n.func, "attr", getattr(n.func, "id", None))
                 for n in nodes if isinstance(n, ast.Call)}
        strings = {n.value for n in nodes
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        found[name] = (calls, strings)
    return found


def package_functions() -> dict[tuple[str, str], tuple[set[str], set[str]]]:
    return {(path.relative_to(PACKAGE).as_posix(), name): found
            for path in MODULES
            for name, found in functions(ast.parse(path.read_text(encoding="utf-8"))).items()}


def test_the_gateway_alone_opens_the_record_files():
    found = package_functions()
    openers = {key: strings for key, (calls, strings) in found.items() if "open" in calls}
    assert set(openers) == {("gateway.py", "Gateway.start"), ("bench.py", "emit_tables")}
    assert not any(s.endswith(".jsonl") for s in openers[("bench.py", "emit_tables")])
    namers = {key for key, (_, strings) in found.items() if strings & RECORD_FILES}
    assert namers == {("engine.py", "run_log"), ("cli.py", "_make_gateway")}


def test_gateway_append_alone_writes_json_lines():
    writers = {key for key, (calls, _) in package_functions().items()
               if "dumps" in calls and calls & LINE_WRITES}
    assert writers == {("gateway.py", "_append")}


def test_functions_finds_what_it_looks_for():
    tree = ast.parse(
        "LOG = 'events.jsonl'\n"
        "def opens(ws):\n    return (ws / 'x.csv').open('w')\n"
        "def nested(fh, r):\n"
        "    def inner():\n        fh.write(json.dumps(r))\n"
        "    inner()\n"
        "class Run:\n"
        "    def end(self):\n        open(LOG).close()\n"
    )
    assert functions(tree) == {
        "opens": ({"open"}, {"x.csv", "w"}),
        "nested": ({"inner", "write", "dumps"}, set()),
        "Run.end": ({"open", "close"}, set()),
        "<module>": (set(), {"events.jsonl"}),
    }
