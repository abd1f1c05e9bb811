"""Synthesis-report parsing and PPA improvement arithmetic.

Two report dialects are supported: the project's canonical line format
(``key: value unit``) and a Design-Compiler-style reader for externally
produced reports. Improvements are signed percentages; timing slack uses
the violation-magnitude convention and is N/A for combinational baselines.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, asdict, fields
from decimal import Decimal, ROUND_HALF_UP
from typing import Optional

from .errors import AmbiguousUnit, MissingMetric, UnknownDialect, ZeroBaseline

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

    def get(self, name: str) -> Optional[float]:
        return getattr(self, name)

    def to_dict(self) -> dict:
        return asdict(self)


ALL_FIELDS = tuple(f.name for f in fields(PpaMetrics))
REQUIRED_FIELDS = tuple(f.name for f in fields(PpaMetrics) if f.default is MISSING)

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

    def rendered(self) -> dict[str, str]:
        return {m: render_pct(v) for m, v in self.per_metric.items()}

    def to_dict(self) -> dict:
        return {"design": self.design, "per_metric": self.rendered()}


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

_CANON_LINE = re.compile(r"^\s*([a-z_]+)\s*:\s*(-?[\d.]+(?:[eE][+-]?\d+)?)\s*([^\s]*)\s*$")

_DC_PATTERNS = {
    "cell_area": re.compile(r"Total cell area\s*[:=]\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "design_area": re.compile(r"Total (?:design )?area\s*[:=]\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "combinational_area": re.compile(r"Combinational area\s*[:=]\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "sequential_area": re.compile(r"Noncombinational area\s*[:=]\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "dynamic_power": re.compile(r"Total Dynamic Power\s*=\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "leakage_power": re.compile(r"Cell Leakage Power\s*=\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "cell_internal_power": re.compile(r"Cell Internal Power\s*=\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "net_switching_power": re.compile(r"Net Switching Power\s*=\s*(-?[\d.]+)[^\S\n]*(\S*)", re.IGNORECASE),
    "cp_length": re.compile(r"data arrival time\s+(-?[\d.]+)", re.IGNORECASE),
    "total_negative_slack": re.compile(r"Total Negative Slack\s*[:=]?\s*(-?[\d.]+)", re.IGNORECASE),
    "levels_of_logic": re.compile(r"Levels of Logic\s*[:=]?\s*(\d+)", re.IGNORECASE),
}
_DC_SLACK = re.compile(r"slack\s*\((MET|VIOLATED)\)\s*(-?[\d.]+)", re.IGNORECASE)


def _normalize(name: str, num: str, unit: str = "") -> float:
    value = float(num)
    unit = unit.strip().lower()
    if name not in _UNITS or not unit:
        return value  # unitless, or canonical units assumed
    factors = _UNITS[name][1]
    if unit not in factors:
        raise AmbiguousUnit(f"{name}: unknown unit {unit!r}")
    return value * factors[unit]


def parse_report(text: str) -> PpaMetrics:
    """The metrics of a canonical or DC-style report, in canonical units.

    Three canonical lines naming known metrics make the report canonical;
    otherwise two DC-style matches, or a DC slack line, make it DC-style.
    Units are normalised only once the dialect is chosen."""
    if not text or not text.strip():
        raise UnknownDialect("empty report text")
    canon = [
        m.groups() for line in text.splitlines()
        if (m := _CANON_LINE.match(line)) and m.group(1) in ALL_FIELDS
    ]
    if len(canon) >= 3:
        values = {name: _normalize(name, num, unit) for name, num, unit in canon}
    else:
        found = {name: m for name, pat in _DC_PATTERNS.items() if (m := pat.search(text))}
        slack = _DC_SLACK.search(text)
        if len(found) < 2 and not slack:
            raise UnknownDialect("report matches neither canonical nor DC-style grammar")
        values = {name: _normalize(name, *m.groups()) for name, m in found.items()}
        if slack:
            values["cp_slack"] = float(slack.group(2))

    for name in REQUIRED_FIELDS:
        if name not in values:
            raise MissingMetric(name)
    if "levels_of_logic" in values:
        values["levels_of_logic"] = int(values["levels_of_logic"])
    return PpaMetrics(**values)


def emit_canonical(metrics: PpaMetrics) -> str:
    """Render metrics in the canonical line grammar (stable field order)."""
    lines = []
    for name in ALL_FIELDS:
        value = metrics.get(name)
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
        name: improvement_pct(base.get(name), opt.get(name), name)
        for name in HEADLINE_METRICS
    }
    return ImprovementRow(design=design, per_metric=per_metric)
