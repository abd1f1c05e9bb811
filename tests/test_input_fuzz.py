"""A structural fuzzer over the input files. One leaf of spec.json, run.yaml,
suite.yaml, a scripted turns.json or outcomes.json, or a technique card's
front-matter is replaced by a value of some type, or one key is deleted or
renamed to a name no record declares or to a non-string; then a command
that reads the file runs in-process with `--scripted`.
Whatever the fault, the command exits 0, 1 or 2 with no traceback, and every
bench failure reason that names an exception type names an rtlflow error or
an OSError."""

import builtins
import json
import re
import traceback
from dataclasses import asdict

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import COMMANDS, make_inputs

from rtlflow import errors
from rtlflow.cli import main
from rtlflow.config import PathsConfig, RunConfig

# each fuzzed file and the commands that read it
FILES = {
    "spec.json": ("generate", "bench"),
    "run.yaml": ("generate", "optimize", "bench"),
    "suite.yaml": ("bench",),
    "scripted/turns.json": ("generate", "bench"),
    "scripted/outcomes.json": ("generate", "bench"),
    "opt_script/turns.json": ("optimize",),
    "opt_script/outcomes.json": ("optimize",),
    "ws/spec.json": ("optimize",),
    "cards/carry_lookahead_restructuring.md": ("optimize",),
}
# what a leaf may become: a value of each type an input holds, and edge values
VALUES = [None, True, 0, -1, 2.5, "", "x", "Pass", [], {}, ["x"], [[1]], {"a": 1}]
# what a mapping key may become: None deletes it, the rest rename it
KEYS = [None, "unknown_key", 1]
# the exception types a bench reason may name
NAMED = ({name for name, value in vars(errors).items()
          if isinstance(value, type) and issubclass(value, errors.RtlflowError)}
         | {name for name, value in vars(builtins).items()
            if isinstance(value, type) and issubclass(value, OSError)})


def load(rel: str, text: str):
    if rel.endswith(".json"):
        return json.loads(text)
    if rel.endswith(".md"):
        _, front, body = text.split("---\n", 2)
        return {"front": yaml.safe_load(front), "body": body}
    return yaml.safe_load(text)


def dump(rel: str, doc) -> str:
    if rel.endswith(".json"):
        return json.dumps(doc)
    if rel.endswith(".md"):
        return f"---\n{yaml.safe_dump(doc['front'])}---\n{doc['body']}"
    return yaml.safe_dump(doc)


def sites(doc, path=()):
    """(path, is_key) for each leaf, and for each key of a mapping, in `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from sites(value, path + (key,))
        else:
            yield path + (key,), False
        if isinstance(doc, dict):
            yield path + (key,), True


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = make_inputs(tmp_path_factory.mktemp("inputs").resolve())
    config = RunConfig(paths=PathsConfig(str(root / "cards")))
    (root / "run.yaml").write_text(yaml.safe_dump(asdict(config)))  # every key, fuzzed
    return root


@st.composite
def faults(draw, root):
    rel = draw(st.sampled_from(sorted(FILES)))
    command = draw(st.sampled_from(FILES[rel]))
    doc = load(rel, (root / rel).read_text())
    parent = doc["front"] if rel.endswith(".md") else doc  # a card's body is not fuzzed
    path, is_key = draw(st.sampled_from(list(sites(parent))))
    for key in path[:-1]:
        parent = parent[key]
    if not is_key:
        parent[path[-1]] = draw(st.sampled_from(VALUES))
    else:
        value = parent.pop(path[-1])
        renamed = draw(st.sampled_from(KEYS))
        if renamed is not None:
            parent[renamed] = value
    return command, rel, dump(rel, doc)


def test_input_faults_end_in_an_exit_code(root):
    texts = {rel: (root / rel).read_text() for rel in FILES}

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(faults(root))
    def check(fault):
        command, rel, text = fault
        (root / rel).write_text(text)
        try:
            result = CliRunner().invoke(main, [a.format(root) for a in COMMANDS[command]])
        finally:
            (root / rel).write_text(texts[rel])
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            "".join(traceback.format_exception(*result.exc_info)))
        if command == "bench" and result.exit_code == 0:
            status = json.loads((root / "out" / "status.json").read_text())
            for reason in status["failure_reasons"].values():
                named = re.match(r"(?:report: )?(\w+): ", reason)
                assert named is None or named[1] in NAMED, reason

    check()
