"""YAML parsing shared by the manifest, config and technique-card loaders.

Uses PyYAML's libyaml-backed safe loader when PyYAML was built with libyaml,
and the pure-Python safe loader otherwise. Both construct the same safe
schema and raise `yaml.YAMLError` on malformed input.
"""

from __future__ import annotations

import yaml

LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def safe_load(text: str):
    """Parse one YAML document with LOADER."""
    return yaml.load(text, Loader=LOADER)
