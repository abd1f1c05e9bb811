"""Prompt templates for each role, stored as editable text files.

Templates use ``string.Template`` placeholders (``$plan``, ``$code``,
``$errors``, ...). Each template file is read once per process.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from string import Template

TEMPLATE_NAMES = (
    "planner",
    "programmer",
    "reviewer",
    "evaluator",
    "fixer",
    "reprogrammer",
    "optimizer",
)


@cache
def load_template(name: str) -> str:
    if name not in TEMPLATE_NAMES:
        raise KeyError(f"unknown prompt template: {name}")
    return resources.files(__package__).joinpath(f"{name}.txt").read_text()


def render_prompt(template_name: str, **fields: str) -> str:
    return Template(load_template(template_name)).safe_substitute(**fields)
