"""Exception hierarchy shared across the package, the one input reader, the
one YAML parser and the one builder of an input record."""

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import yaml

# PyYAML's libyaml-backed safe loader when PyYAML was built with libyaml;
# both build the same safe schema and raise `yaml.YAMLError`
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class RtlflowError(Exception):
    """Base class for all rtlflow errors."""


class InfraError(RtlflowError):
    """A failure of what surrounds the design (backend, script, toolchain,
    input file), not of the design itself."""


# --- gateway ---

class BackendUnavailable(InfraError):
    """Remote chat backend could not be reached after all retries."""


class ScriptExhausted(InfraError):
    """The scripted backend has no turn left for the role that asks."""


# --- role engine ---

class UnparseableReply(RtlflowError):
    """A role's reply lacks the form its parser needs: numbered plan steps or
    fixes, a Verilog module, or a review that maps onto the plan's steps."""


# --- toolchain ---

class ToolchainUnavailable(InfraError):
    """Configured compiler/simulator executable is missing."""


# --- synthesis metrics ---

class ZeroBaseline(RtlflowError):
    """Ratio improvement undefined for a zero baseline value."""


# --- input files ---

class BadInput(InfraError, ValueError):
    """An input file could not be read or parsed; the message names it first."""


def read_input(path, parse=None):
    """The text of the UTF-8 file `path`, or `parse(text)`. Any failure to
    read or parse it is a BadInput naming `path`; a BadInput raised by
    `parse` (about another file it reads) passes through unchanged."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return text if parse is None else parse(text)
    except BadInput:
        raise
    except yaml.YAMLError as exc:
        raise BadInput(f"{path}: invalid YAML: {exc}") from exc
    except (OSError, ValueError, TypeError, RtlflowError) as exc:
        raise BadInput(f"{path}: {exc}") from exc


def safe_load(text: str):
    """Parse one YAML document with LOADER: the manifest, the run config and
    each card's front-matter."""
    return yaml.load(text, Loader=LOADER)


@cache
def _field_types(cls: type) -> tuple[dict[str, object], frozenset[str]]:
    """The type of each field of the dataclass `cls`, and the fields a
    mapping must give (those with no default)."""
    hints = get_type_hints(cls)
    return ({f.name: hints[f.name] for f in fields(cls)},
            frozenset(f.name for f in fields(cls)
                      if f.default is MISSING and f.default_factory is MISSING))


def _at(where: str, message) -> str:
    return f"{where}: {message}" if where else str(message)


def build(kind, value, where: str = "", /, **given):
    """`value`, as parsed from a JSON or YAML input file, as a `kind`: a
    dataclass, `list[X]`, `dict[K, X]`, `Optional[X]`, str, int or float. A
    dataclass is built from a mapping whose keys are its fields but those in
    `given`, which the caller fills in. An unknown key, a missing key and a
    key or value of the wrong type are each a ValueError led by its key path
    from `where` (`cases[2].optimized_reports.power: expected str, got 5`),
    as is a ValueError from the dataclass's `__post_init__`. A bool is no
    number; an int is a float, and a float is an int when nothing is lost."""
    if type(value) is kind:
        return value
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(_at(where, f"expected a mapping, got {value!r}"))
        types, required = _field_types(kind)
        for key in value:
            if key not in types or key in given:
                raise ValueError(_at(where, f"unknown key {key!r}"))
        missing = required.difference(value, given)
        if missing:
            raise ValueError(_at(where, f"missing key {min(missing)!r}"))
        # a value already of its field's type, as most are, needs no call
        args = {key: v if type(v) is types[key]
                else build(types[key], v, f"{where}.{key}" if where else key)
                for key, v in value.items()}
        try:
            return kind(**args, **given)
        except ValueError as exc:
            raise ValueError(_at(where, exc)) from exc
    origin = get_origin(kind)
    if origin is list and isinstance(value, list):
        return [build(get_args(kind)[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        key_kind, value_kind = get_args(kind)
        return {build(key_kind, k, where): build(value_kind, v, f"{where}.{k}" if where else str(k))
                for k, v in value.items()}
    if origin is Union:  # Optional[X]
        return None if value is None else build(get_args(kind)[0], value, where)
    if kind is float and type(value) is int:
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(_at(where, f"expected {(origin or kind).__name__}, got {value!r}"))
