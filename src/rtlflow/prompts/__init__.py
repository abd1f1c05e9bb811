"""Prompt templates for each role, stored as editable text files.

Templates use ``string.Template`` placeholders (``$plan``, ``$code``,
``$errors``, ...). Each ``<name>.txt`` file here is the template ``name``,
read once per process.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from string import Template


@cache
def load_template(name: str) -> str:
    return resources.files(__package__).joinpath(f"{name}.txt").read_text(encoding="utf-8")


def render_prompt(template_name: str, **fields: str) -> str:
    return Template(load_template(template_name)).safe_substitute(**fields)
