"""Exception hierarchy shared across the package, and the one input reader."""

from pathlib import Path

import yaml


class RtlflowError(Exception):
    """Base class for all rtlflow errors."""


class InfraError(RtlflowError):
    """A failure of what surrounds the design (backend, script, toolchain,
    sink), not of the design itself."""


# --- gateway ---

class BackendUnavailable(InfraError):
    """Remote chat backend could not be reached after all retries."""


class ScriptExhausted(InfraError):
    """Scripted backend has no canned turns left."""


class RoleMismatch(InfraError):
    """Scripted turn expected a different role than the one sending."""


class SinkWriteError(InfraError):
    """Transcript sink could not be written."""


# --- role engine ---

class UnparseableReply(RtlflowError):
    """A role's reply lacks the form its parser needs: numbered plan steps or
    fixes, a Verilog module, or a review that maps onto the plan's steps."""


# --- toolchain ---

class ToolchainUnavailable(InfraError):
    """Configured compiler/simulator executable is missing."""


# --- rtl inspection ---

class EmptySource(RtlflowError):
    """Verilog source is empty or whitespace-only."""


class UnbalancedModule(RtlflowError):
    """module/endmodule keywords do not balance."""


# --- synthesis metrics ---

class MissingMetric(RtlflowError):
    def __init__(self, name: str):
        super().__init__(f"required metric missing from report: {name}")
        self.name = name


class AmbiguousUnit(RtlflowError):
    """A metric value carries a unit this parser cannot normalize."""


class UnknownDialect(RtlflowError):
    """Report text matches no supported synthesis-report dialect."""


class ZeroBaseline(RtlflowError):
    """Ratio improvement undefined for a zero baseline value."""


class ZeroTotal(RtlflowError):
    """Success rate undefined over an empty suite."""


# --- optimizer ---

class MalformedCard(RtlflowError):
    """Technique card file is missing a required section."""


class DuplicateId(RtlflowError):
    """Two technique cards share the same id."""


class MissingRequiredTechnique(RtlflowError):
    """Catalog does not cover one of the required technique names."""


class PromptOverBudget(RtlflowError):
    """ICL prompt exceeds the character budget even after truncation."""


class FunctionalRegressionUnrecoverable(RtlflowError):
    """Optimized variant never passed re-verification within budget."""


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
