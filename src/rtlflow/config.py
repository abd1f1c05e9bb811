"""Run configuration: each file section is built by its dataclass, so a
setting's name, type and default are declared once, on that dataclass."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_type_hints

from .engine import PipelineBudget
from .errors import read_input
from .gateway import BackendConfig
from .toolchain import ToolchainConfig
from .yamlload import safe_load

log = logging.getLogger(__name__)


@dataclass
class PathsConfig:
    catalog_dir: Optional[str] = None  # None = bundled cards

    def __post_init__(self):
        if self.catalog_dir is not None and not Path(self.catalog_dir).is_dir():
            raise ValueError(f"catalog_dir does not exist: {self.catalog_dir}")


@dataclass
class RunConfig:
    """One field per config-file section."""

    backend: BackendConfig = field(default_factory=BackendConfig)
    toolchain: ToolchainConfig = field(default_factory=ToolchainConfig)
    budget: PipelineBudget = field(default_factory=PipelineBudget)
    paths: PathsConfig = field(default_factory=PathsConfig)


def _build(cls: type, where: str, mapping) -> object:
    """`cls(**mapping)`, with int and float fields coerced by their declared
    type; an unknown key, a non-mapping, a bool for a number, a fraction for
    an int or a non-string for a string (a null is fine for an optional
    string) is a ValueError naming `where`."""
    if mapping is None:  # a section whose keys are all commented out
        mapping = {}
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}: section must be a mapping, not {type(mapping).__name__}")
    hints = get_type_hints(cls)
    types = {f.name: hints[f.name] for f in fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in types:
            raise ValueError(f"{where}: unknown key {key!r}")
        kind = types[key]
        if kind == Optional[str] and value is not None:
            kind = str
        try:
            if kind in (int, float) and (isinstance(value, bool) or kind is int and
                                         isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"expected {kind.__name__}, got {value!r}")
            if kind is str and not isinstance(value, str):
                raise ValueError(f"expected str, got {value!r}")
            kwargs[key] = kind(value) if kind in (int, float) else value
        except (TypeError, ValueError) as exc:  # name the key the value belongs to
            raise ValueError(f"{where}.{key}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _parse(text: str) -> RunConfig:
    doc = safe_load(text) or {}
    if not isinstance(doc, dict):
        raise ValueError("top level must be a mapping")
    sections = get_type_hints(RunConfig)
    for name in doc:
        if name not in sections:
            raise ValueError(f"unknown section {name!r}")
    return RunConfig(**{name: _build(cls, name, doc.get(name)) for name, cls in sections.items()})


def load_config(path: Optional[str | Path] = None) -> RunConfig:
    """Build a RunConfig from a YAML file (or from the defaults alone when
    `path` is None); a key the file leaves out keeps its default. A bad
    file is a BadInput."""
    cfg = RunConfig() if path is None else read_input(path, _parse)
    log.info("resolved config: %s", cfg)
    return cfg
