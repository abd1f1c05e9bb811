"""Run configuration: each file section is built by its dataclass through
`errors.build`, so a setting's name, type and default are declared once, on
that dataclass."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .engine import PipelineBudget
from .errors import build, read_input, safe_load
from .gateway import BackendConfig
from .toolchain import ToolchainConfig

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


def _parse(text: str) -> RunConfig:
    doc = safe_load(text) or {}
    if isinstance(doc, dict):  # a section whose keys are all commented out is empty
        doc = {name: {} if section is None else section for name, section in doc.items()}
    return build(RunConfig, doc)


def load_config(path: Optional[str | Path] = None) -> RunConfig:
    """Build a RunConfig from a YAML file (or from the defaults alone when
    `path` is None); a key the file leaves out keeps its default. A bad
    file is a BadInput."""
    cfg = RunConfig() if path is None else read_input(path, _parse)
    log.info("resolved config: %s", cfg)
    return cfg
