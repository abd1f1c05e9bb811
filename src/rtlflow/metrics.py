"""Synthesis-report parsing and PPA improvement arithmetic.

Two report dialects are supported: the project's canonical line format
(``key: value unit``) and a Design-Compiler-style reader for externally
produced reports. Improvements are signed percentages; timing slack uses
the violation-magnitude convention and is N/A for combinational baselines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from decimal import Decimal, ROUND_HALF_UP
from typing import Optional

from .errors import RtlflowError, ZeroBaseline, build

# the six headline comparison metrics, in table order
HEADLINE_METRICS = (
    "cell_area",
    "design_area",
    "dynamic_power",
    "leakage_power",
    "cp_length",
    "cp_slack",
)


@dataclass
class PpaMetrics:
    cell_area: float
    design_area: float
    dynamic_power: float
    leakage_power: float
    cp_length: float
    cell_internal_power: Optional[float] = None
    net_switching_power: Optional[float] = None
    combinational_area: Optional[float] = None
    sequential_area: Optional[float] = None
    cp_slack: Optional[float] = None
    total_negative_slack: Optional[float] = None
    levels_of_logic: Optional[int] = None

    def __post_init__(self):
        for name in ("cell_area", "design_area", "dynamic_power", "leakage_power"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.cp_length <= 0:
            raise ValueError("cp_length must be positive")
        if self.design_area < self.cell_area:
            raise ValueError("design_area must be >= cell_area")


ALL_FIELDS = tuple(f.name for f in fields(PpaMetrics))

# unit class by field-name suffix: the canonical unit, then each accepted
# unit's factor to it
_UNIT_CLASSES = {
    ("_area",): ("um2", {"um2": 1.0, "µm2": 1.0, "um^2": 1.0, "µm^2": 1.0, "mm2": 1e6}),
    ("_power",): ("uW", {"uw": 1.0, "µw": 1.0, "mw": 1e3, "w": 1e6, "nw": 1e-3}),
    ("_length", "_slack"): ("ns", {"ns": 1.0, "ps": 1e-3, "us": 1e3, "µs": 1e3}),
}
# every field but the unitless levels_of_logic
_UNITS = {n: u for n in ALL_FIELDS for sfx, u in _UNIT_CLASSES.items() if n.endswith(sfx)}


@dataclass
class ImprovementRow:
    design: str
    per_metric: dict[str, Optional[float]]  # metric -> signed percent, None = N/A

    def to_dict(self) -> dict:
        return {"design": self.design,
                "per_metric": {m: render_pct(v) for m, v in self.per_metric.items()}}


def round_display(value: float) -> float:
    """Round half-up to 2 decimals for display; internals keep full precision."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_pct(value: Optional[float]) -> str:
    if value is None:
        return "N/A"
    shown = round_display(value)
    if shown == int(shown):
        return str(int(shown))
    return f"{shown:g}"


# --- parsing ---

# a number, as every input file writes one: a sign, digits, an optional fraction and an
# optional exponent; and a value: that number, then the unit token after it on its line
NUMBER = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_VALUE = rf"({NUMBER})[^\S\n]*(\S*)"

_CANON_LINE = re.compile(rf"^\s*([a-z_]+)\s*:\s*{_VALUE}\s*$")

# each metric's DC-style label, through the separator before its value
_DC_PATTERNS = {name: re.compile(rf"{label}\s*{_VALUE}", re.IGNORECASE) for name, label in {
    "cell_area": r"Total cell area\s*[:=]",
    "design_area": r"Total (?:design )?area\s*[:=]",
    "combinational_area": r"Combinational area\s*[:=]",
    "sequential_area": r"Noncombinational area\s*[:=]",
    "dynamic_power": r"Total Dynamic Power\s*=",
    "leakage_power": r"Cell Leakage Power\s*=",
    "cell_internal_power": r"Cell Internal Power\s*=",
    "net_switching_power": r"Net Switching Power\s*=",
    "cp_length": r"data arrival time\s",
    "cp_slack": r"slack\s*\((?:MET|VIOLATED)\)",
    "total_negative_slack": r"Total Negative Slack\s*[:=]?",
    "levels_of_logic": r"Levels of Logic\s*[:=]?",
}.items()}


def _normalize(name: str, num: str, unit: str) -> float:
    value = float(num)
    unit = unit.strip().lower()
    if name not in _UNITS or not unit:
        return value  # unitless, or canonical units assumed
    factors = _UNITS[name][1]
    if unit not in factors:
        raise RtlflowError(f"{name}: unknown unit {unit!r}")
    return value * factors[unit]


def parse_report(text: str) -> PpaMetrics:
    """The metrics of a canonical or DC-style report, in canonical units.

    Three canonical lines naming known metrics make the report canonical;
    otherwise two DC-style matches, or a `cp_slack` match, make it DC-style.
    Units are normalised only once the dialect is chosen, and the record is
    built by `errors.build`, which names a missing metric as a missing key."""
    if not text or not text.strip():
        raise RtlflowError("empty report text")
    canon = [
        m.groups() for line in text.splitlines()
        if (m := _CANON_LINE.match(line)) and m.group(1) in ALL_FIELDS
    ]
    if len(canon) >= 3:
        values = {name: _normalize(name, num, unit) for name, num, unit in canon}
    else:
        found = {name: m for name, pat in _DC_PATTERNS.items() if (m := pat.search(text))}
        if len(found) < 2 and "cp_slack" not in found:
            raise RtlflowError("report matches neither canonical nor DC-style grammar")
        values = {name: _normalize(name, *m.groups()) for name, m in found.items()}
    return build(PpaMetrics, values)


def emit_canonical(metrics: PpaMetrics) -> str:
    """Render metrics in the canonical line grammar (stable field order)."""
    lines = []
    for name in ALL_FIELDS:
        value = getattr(metrics, name)
        if value is not None:
            unit = f" {_UNITS[name][0]}" if name in _UNITS else ""
            lines.append(f"{name}: {value!r}{unit}")
    return "\n".join(lines) + "\n"


# --- improvement arithmetic ---

def improvement_pct(base: Optional[float], opt: Optional[float], metric: str) -> Optional[float]:
    """Signed improvement percent; positive means better (lower) for ratio
    metrics. Slack improvement is measured on violation magnitude and is
    N/A unless the baseline violates (base < 0)."""
    if metric == "cp_slack":
        if base is None or base >= 0:
            return None
        if opt is None or opt >= 0:
            return 100.0  # violation fully closed
        return (abs(base) - abs(opt)) / abs(base) * 100.0
    if base is None or opt is None:
        return None
    if base == 0:
        raise ZeroBaseline(f"{metric}: baseline is zero")
    return (base - opt) / base * 100.0


def build_comparison(design: str, base: PpaMetrics, opt: PpaMetrics) -> ImprovementRow:
    per_metric = {
        name: improvement_pct(getattr(base, name), getattr(opt, name), name)
        for name in HEADLINE_METRICS
    }
    return ImprovementRow(design=design, per_metric=per_metric)
