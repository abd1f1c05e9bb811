"""Layered run configuration: flags > file > built-in defaults."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .engine import PipelineBudget
from .errors import ConfigParseError
from .gateway import BackendConfig
from .toolchain import ToolchainConfig
from .yamlload import safe_load

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    backend: BackendConfig = field(default_factory=BackendConfig)
    toolchain: ToolchainConfig = field(default_factory=ToolchainConfig)
    budget: PipelineBudget = field(default_factory=PipelineBudget)
    catalog_dir: Optional[str] = None  # None = bundled cards

    def to_log_dict(self) -> dict:
        """Resolved config for the run log; the API key value is never
        read here, only the env-var name appears."""
        return {
            "backend": {
                "endpoint_url": self.backend.endpoint_url,
                "model_name": self.backend.model_name,
                "api_key_source": f"${self.backend.api_key_env} (redacted)",
                "temperature": self.backend.temperature,
                "max_retries": self.backend.max_retries,
                "timeout": self.backend.timeout,
            },
            "toolchain": {
                "compiler": self.toolchain.compiler,
                "simulator": self.toolchain.simulator,
                "sim_timeout": self.toolchain.sim_timeout,
            },
            "budget": {
                "max_fix_iterations": self.budget.max_fix_iterations,
                "max_review_rounds": self.budget.max_review_rounds,
            },
            "catalog_dir": self.catalog_dir,
        }


def load_config(path: Optional[str | Path] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig; `overrides` is a flat flag map taking precedence
    over the file, which takes precedence over defaults."""
    doc: dict = {}
    if path is not None:
        try:
            doc = safe_load(Path(path).read_text()) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigParseError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigParseError(f"{path}: top level must be a mapping")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    def pick(section: str, key: str, default):
        if f"{section}_{key}" in overrides:
            return overrides[f"{section}_{key}"]
        if key in overrides:
            return overrides[key]
        return doc.get(section, {}).get(key, default) if isinstance(doc.get(section), dict) else default

    try:
        backend = BackendConfig(
            endpoint_url=pick("backend", "endpoint_url", BackendConfig.endpoint_url),
            model_name=pick("backend", "model_name", BackendConfig.model_name),
            api_key_env=pick("backend", "api_key_env", BackendConfig.api_key_env),
            temperature=float(pick("backend", "temperature", BackendConfig.temperature)),
            max_retries=int(pick("backend", "max_retries", BackendConfig.max_retries)),
            timeout=float(pick("backend", "timeout", BackendConfig.timeout)),
        )
        tc_defaults = ToolchainConfig()
        toolchain = ToolchainConfig(
            compiler=pick("toolchain", "compiler", tc_defaults.compiler),
            compile_args=pick("toolchain", "compile_args", tc_defaults.compile_args),
            simulator=pick("toolchain", "simulator", tc_defaults.simulator),
            simulate_args=pick("toolchain", "simulate_args", tc_defaults.simulate_args),
            sim_timeout=float(pick("toolchain", "sim_timeout", tc_defaults.sim_timeout)),
            pass_marker=pick("toolchain", "pass_marker", tc_defaults.pass_marker),
            fail_pattern=pick("toolchain", "fail_pattern", tc_defaults.fail_pattern),
        )
        budget = PipelineBudget(
            max_fix_iterations=int(pick("budget", "max_fix_iterations", 5)),
            max_review_rounds=int(pick("budget", "max_review_rounds", 2)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(str(exc)) from exc

    cfg = RunConfig(
        backend=backend,
        toolchain=toolchain,
        budget=budget,
        catalog_dir=pick("paths", "catalog_dir", None),
    )
    if cfg.catalog_dir is not None and not Path(cfg.catalog_dir).is_dir():
        raise ConfigParseError(f"catalog_dir does not exist: {cfg.catalog_dir}")
    log.info("resolved config: %s", cfg.to_log_dict())
    return cfg
