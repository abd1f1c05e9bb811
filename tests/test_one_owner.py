"""Each job here has one owner in `rtlflow`, so the package does it by one
rule. A rule counts its hits in each scope: a function with the functions
nested in it, a method as `Class.method`, or `<module>`, the code outside
every function. A call is named `f` for `f(...)` and `x.f(...)` alike.

The `Gateway` alone holds a run's record files: `Gateway.start` opens them,
`gateway._append` writes their lines, and only `event`, `write` and `end`
call it; the one other opener, `bench.emit_tables`, names no `.jsonl` file.
Only the engine's three record writers call `event`. `artifact_from_reply`
alone sets an artifact's notes. `status.json` is written where a run ends
and where a suite is summed up; naming it outside a function counts, since
a constant hides its writer. `RoleSession.send` alone calls a backend's
`complete`, so every exchange reaches the transcript."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import rtlflow
from rtlflow.engine import RtlArtifact

PACKAGE = Path(rtlflow.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
LINE_WRITES = {"write", "writelines", "flush"}
FILE_WRITES = {"write_json", "write_text", "write_bytes", "open", "dump"}
# how many positional arguments to `RtlArtifact` come before its notes
NOTES_AT = [f.name for f in fields(RtlArtifact)].index("notes")


def scopes(tree: ast.Module) -> list[tuple[str, list[ast.AST]]]:
    """Each scope of the module, in source order, with its nodes."""
    found = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            found.append((node.name, list(ast.walk(node))))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{n.name}", list(ast.walk(n)))
                      for n in node.body if isinstance(n, FUNCTIONS)]
    inside = {id(n) for _, nodes in found for n in nodes}
    return found + [("<module>", [n for n in ast.walk(tree) if id(n) not in inside])]


def _called(node: ast.AST) -> str | None:
    """`f` for a call of `f` or `x.f`."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _calls(nodes: list[ast.AST]) -> set[str | None]:
    return set(map(_called, nodes))


def _strings(nodes: list[ast.AST]) -> set[str]:
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _is_notes(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "notes"


def _sets_notes(node: ast.AST) -> bool:
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        target = node if isinstance(node, ast.Attribute) else node.value
        return _is_notes(target) and isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call) and _is_notes(getattr(node.func, "value", None)):
        return True
    called, keywords = _called(node), {k.arg for k in getattr(node, "keywords", ())}
    return ((called in ("RtlArtifact", "replace") and "notes" in keywords)
            or (called == "RtlArtifact" and len(node.args) > NOTES_AT)
            or (called == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "notes"))


RECORDS = (
    "LOG = 'events.jsonl'\n"
    "def opens(ws):\n    return (ws / 'x.csv').open('w')\n"
    "def nested(fh, r):\n"
    "    def inner():\n        fh.write(json.dumps(r))\n"
    "    inner()\n"
    "class Run:\n"
    "    def end(self):\n        open(LOG).close()\n"
)
GATEWAY = (
    "_append(fh, {'event': 'end'})\n"
    "def event(self, kind):\n    _append(self._events, {'event': kind})\n"
    "def settle(gateway, out):\n    gateway.event('outcome')\n    gateway.event('diagnosis')\n"
    "def reads(record, out):\n    out.append(record.event)\n    threading.Event().wait()\n"
    "class Gateway:\n"
    "    def end(self, status):\n"
    "        def inner():\n            gateway._append(self._events, status)\n"
    "        inner()\n"
    "    def run(self):\n        self.event('plan', revision=0)\n"
)
NOTES = (
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
STATUS = (
    "STATUS = 'status.json'\n"
    "def reads(ws):\n    return read_input(ws / 'status.json')\n"
    "def writes(ws):\n    write_json(ws / 'status.json', {})\n"
    "def nested(ws):\n"
    "    def inner():\n        (ws / 'status.json').write_text('{}')\n"
    "    inner()\n"
    "class Run:\n"
    "    def end(self):\n        with open('status.json', 'w') as fh:\n            pass\n"
)
COMPLETES = (
    "reply = backend.complete('Planner', [])\n"
    "def ask(gateway):\n    return gateway.backend.complete('Evaluator', [])\n"
    "def verdict(v):\n    return v.complete\n"
    "def nested(fn):\n"
    "    def inner():\n        return complete('Reviewer', [])\n"
    "    return inner()\n"
    "class Session:\n"
    "    def send(self, prompt):\n        return self.backend.complete('Planner', [prompt])\n"
)

# rule: (the hits a scope `name` makes; the package's hits; a self-test source and its hits)
RULES = {
    "opens-a-file": (
        lambda name, nodes: "open" in _calls(nodes),
        ["gateway.Gateway.start", "bench.emit_tables"], RECORDS, ["opens", "Run.end"]),
    "names-a-jsonl-file": (
        lambda name, nodes: any(s.endswith(".jsonl") for s in _strings(nodes)),
        ["engine.run_log", "cli._make_gateway"], RECORDS, ["<module>"]),
    "writes-json-lines": (
        lambda name, nodes: "dumps" in _calls(nodes) and bool(_calls(nodes) & LINE_WRITES),
        ["gateway._append"], RECORDS, ["nested"]),
    "calls-_append": (
        lambda name, nodes: "_append" in _calls(nodes),
        ["gateway.Gateway.event", "gateway.Gateway.write", "gateway.Gateway.end"],
        GATEWAY, ["event", "Gateway.end", "<module>"]),
    "calls-event": (
        lambda name, nodes: "event" in _calls(nodes),
        ["engine.run_pipeline", "engine.fix_loop", "engine._settle"],
        GATEWAY, ["settle", "Gateway.run"]),
    "sets-notes": (
        lambda name, nodes: any(map(_sets_notes, nodes)),
        ["engine.artifact_from_reply"], NOTES,
        ["appends", "assigns", "augments", "slices", "copies", "positional", "named",
         "nested", "Fixer.fix", "<module>"]),
    "writes-status-json": (
        lambda name, nodes: "status.json" in _strings(nodes)
        and (name.endswith("<module>") or bool(_calls(nodes) & FILE_WRITES)),
        ["engine.run_log", "cli.bench_cmd"], STATUS, ["writes", "nested", "Run.end", "<module>"]),
    "calls-complete": (
        lambda name, nodes: sum(_called(n) == "complete" for n in nodes),
        ["gateway.RoleSession.send"], COMPLETES, ["ask", "nested", "Session.send", "<module>"]),
}


def hits(rule, found: list[tuple[str, list[ast.AST]]]) -> list[str]:
    return [name for name, nodes in found for _ in range(rule(name, nodes))]


# every scope of the package, as `module.scope`
PACKAGE_SCOPES = [(".".join(path.relative_to(PACKAGE).with_suffix("").parts) + f".{name}", nodes)
                  for path in sorted(PACKAGE.rglob("*.py"))
                  for name, nodes in scopes(ast.parse(path.read_text(encoding="utf-8")))]


@pytest.mark.parametrize("rule", RULES)
def test_each_job_has_its_owners(rule):
    holds, owners, _, _ = RULES[rule]
    assert sorted(hits(holds, PACKAGE_SCOPES)) == sorted(owners)


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_finds_what_it_looks_for(rule):
    holds, _, source, expected = RULES[rule]
    assert hits(holds, scopes(ast.parse(source))) == expected
