"""Exception hierarchy shared across the package, and the one input reader."""

from pathlib import Path

import yaml


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
    except KeyError as exc:
        raise BadInput(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, RtlflowError) as exc:
        raise BadInput(f"{path}: {exc}") from exc
