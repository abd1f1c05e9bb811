import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORTS, load_table3

from rtlflow.errors import RtlflowError, ZeroBaseline
from rtlflow.metrics import (
    HEADLINE_METRICS,
    PpaMetrics,
    build_comparison,
    emit_canonical,
    improvement_pct,
    parse_report,
    render_pct,
    round_display,
)

BASE_RPT = (REPORTS / "adder_16bit_base.rpt").read_text()
OPT_RPT = (REPORTS / "adder_16bit_opt_timing.rpt").read_text()
DC_RPT = (REPORTS / "dc_style.rpt").read_text()


# --- model validation ---

def test_metrics_validation():
    with pytest.raises(ValueError):
        PpaMetrics(-1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        PpaMetrics(1, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        PpaMetrics(cell_area=10, design_area=5, dynamic_power=1, leakage_power=1, cp_length=1)


# --- parsing ---

def test_parse_canonical_baseline():
    assert parse_report(BASE_RPT) == PpaMetrics(
        cell_area=187.05, design_area=202.13, dynamic_power=19.62, leakage_power=0.23,
        cp_length=5.77, cell_internal_power=11.04, net_switching_power=8.58,
        combinational_area=187.05, sequential_area=0.0, levels_of_logic=34,
    )


def test_parse_dc_style():
    assert parse_report(DC_RPT) == PpaMetrics(
        cell_area=510.07, design_area=580.28, dynamic_power=19.62, leakage_power=0.78,
        cp_length=1.79, cell_internal_power=71.82, net_switching_power=47.0,
        combinational_area=402.11, sequential_area=108.96, cp_slack=-1.5,
    )


def test_parse_missing_required_metric():
    with pytest.raises(ValueError, match="^missing key 'leakage_power'$"):
        parse_report((REPORTS / "missing_leakage.rpt").read_text())


def test_fractional_levels_of_logic_is_rejected():
    # it used to be truncated to 3
    text = "cell_area: 1 um2\ndesign_area: 2 um2\ndynamic_power: 1 uW\n" \
           "leakage_power: 1 uW\ncp_length: 1 ns\nlevels_of_logic: 3.5\n"
    with pytest.raises(ValueError, match="^levels_of_logic: expected int, got 3.5$"):
        parse_report(text)


def test_parse_unknown_dialect_and_empty():
    with pytest.raises(RtlflowError, match="neither canonical nor DC-style"):
        parse_report("hello world\nnothing to see\n")
    with pytest.raises(RtlflowError, match="^empty report text$"):
        parse_report("   \n")


@pytest.mark.parametrize("text, expected", [
    # the unknown unit is never read: two canonical lines do not make a canonical report
    pytest.param("cell_area: 9 acres\nlevels_of_logic: 7\n" + DC_RPT, "DC",
                 id="two-canonical-lines-in-dc-text"),
    pytest.param("cell_area: 1 acres\ndesign_area: 2 um2\ndynamic_power: 1 uW\n",
                 "cell_area: unknown unit 'acres'", id="three-canonical-lines-one-bad-unit"),
    pytest.param("  slack (MET)  0.50\n", "^missing key 'cell_area'$",
                 id="dc-slack-line-alone"),
    pytest.param("cell_area: 1 um2\ndesign_area: 2 um2\n", "neither canonical nor DC-style",
                 id="two-canonical-lines-alone"),
])
def test_dialect_rule(text, expected):
    """Three canonical lines naming known metrics make a report canonical;
    otherwise two DC-style matches or a `cp_slack` match make it DC-style;
    units are normalised only after that choice."""
    if expected == "DC":
        assert parse_report(text) == parse_report(DC_RPT)
    else:
        with pytest.raises((RtlflowError, ValueError), match=expected):
            parse_report(text)


@pytest.mark.parametrize("old, new, name, expected", [
    # an exponent in each unit class
    pytest.param("Total cell area:               510.07", "Total cell area: 5.1007e+02",
                 "cell_area", 510.07, id="area-exponent"),
    pytest.param("Total Dynamic Power    =  19.6200 uW", "Total Dynamic Power = 1.962E-02 mW",
                 "dynamic_power", 19.62, id="power-exponent"),
    pytest.param("data arrival time      1.79", "data arrival time 179e-2", "cp_length", 1.79,
                 id="time-exponent"),
    pytest.param("-1.50", "-15e-1", "cp_slack", -1.5, id="slack-exponent"),
    # slack and TNS are scaled like every other time
    pytest.param("-1.50", "-250 ps", "cp_slack", -0.25, id="slack-in-ps"),
    pytest.param("-1.50", "-1.50\nTotal Negative Slack: -500 ps", "total_negative_slack", -0.5,
                 id="tns-in-ps"),
    pytest.param("-1.50", "-1.50\nLevels of Logic: 12.00", "levels_of_logic", 12,
                 id="whole-levels-of-logic"),
])
def test_dc_style_values(old, new, name, expected):
    assert old in DC_RPT
    assert getattr(parse_report(DC_RPT.replace(old, new)), name) == pytest.approx(expected)


@pytest.mark.parametrize("new, error, message", [
    pytest.param("-1.50\nLevels of Logic: 3.5", ValueError,
                 "^levels_of_logic: expected int, got 3.5$", id="fractional-levels-of-logic"),
    pytest.param("-1.50 acres", RtlflowError, "^cp_slack: unknown unit 'acres'$",
                 id="unknown-unit-after-slack"),
])
def test_dc_style_bad_values(new, error, message):
    with pytest.raises(error, match=message):
        parse_report(DC_RPT.replace("-1.50", new))


def test_unit_normalization():
    text = (
        "cell_area: 0.000187 mm2\n"
        "design_area: 0.000202 mm2\n"
        "dynamic_power: 0.01962 mW\n"
        "leakage_power: 230 nW\n"
        "cp_length: 5770 ps\n"
    )
    m = parse_report(text)
    assert m.cell_area == pytest.approx(187.0)
    assert m.dynamic_power == pytest.approx(19.62)
    assert m.leakage_power == pytest.approx(0.23)
    assert m.cp_length == pytest.approx(5.77)


def test_unknown_unit_rejected():
    text = "cell_area: 1 acres\ndesign_area: 2 um2\ndynamic_power: 1 uW\nleakage_power: 1 uW\ncp_length: 1 ns\n"
    with pytest.raises(RtlflowError, match="cell_area: unknown unit 'acres'"):
        parse_report(text)


@pytest.mark.parametrize("name", ["adder_16bit_base.rpt", "adder_16bit_opt_timing.rpt"])
def test_canonical_round_trip(name):
    original = parse_report((REPORTS / name).read_text())
    again = parse_report(emit_canonical(original))
    assert again == original


metric_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
random_metrics = given(
    cell=metric_floats, extra=st.floats(min_value=0, max_value=1e5),
    dyn=metric_floats, leak=metric_floats, cp=metric_floats,
    slack=st.one_of(st.none(), st.floats(min_value=-100, max_value=100)),
)


@settings(max_examples=100, deadline=None)
@random_metrics
def test_round_trip_random_metrics(cell, extra, dyn, leak, cp, slack):
    m = PpaMetrics(cell, cell + extra, dyn, leak, cp, cp_slack=slack)
    _assert_headline_close(m, parse_report(emit_canonical(m)))


@settings(max_examples=100, deadline=None)
@random_metrics
def test_dc_style_round_trip_random_metrics(cell, extra, dyn, leak, cp, slack):
    m = PpaMetrics(cell, cell + extra, dyn, leak, cp, cp_slack=slack)
    text = (f"Total cell area: {cell:e}\nTotal area: {cell + extra:e}\n"
            f"Total Dynamic Power = {dyn:e} uW\nCell Leakage Power = {leak:e} uW\n"
            f"  data arrival time      {cp:e}\n")
    if slack is not None:
        text += f"  slack ({'MET' if slack >= 0 else 'VIOLATED'})      {slack:e}\n"
    _assert_headline_close(m, parse_report(text))


def _assert_headline_close(m, again):
    for name in HEADLINE_METRICS:
        a, b = getattr(m, name), getattr(again, name)
        if a is None:
            assert b is None
        else:
            assert math.isclose(a, b, rel_tol=1e-6)


# --- improvement arithmetic ---

def test_ratio_improvement_basic():
    assert improvement_pct(200.0, 100.0, "cell_area") == pytest.approx(50.0)
    assert improvement_pct(100.0, 120.0, "cp_length") == pytest.approx(-20.0)


def test_zero_baseline_rejected():
    with pytest.raises(ZeroBaseline):
        improvement_pct(0.0, 1.0, "dynamic_power")


def test_slack_rules():
    # no baseline violation -> N/A regardless of the optimized value
    assert improvement_pct(None, -0.5, "cp_slack") is None
    assert improvement_pct(0.1, -0.5, "cp_slack") is None
    # violation closed entirely
    assert improvement_pct(-0.20, 0.03, "cp_slack") == pytest.approx(100.0)
    assert improvement_pct(-0.20, None, "cp_slack") == pytest.approx(100.0)
    # partial improvement on violation magnitude
    assert improvement_pct(-0.20, -0.02, "cp_slack") == pytest.approx(90.0)
    # regression: violation got worse
    assert improvement_pct(-0.02, -0.03, "cp_slack") == pytest.approx(-50.0)


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(min_value=0.01, max_value=1e6),
    opt=st.floats(min_value=0.01, max_value=1e6),
    scale=st.floats(min_value=0.001, max_value=1000),
)
def test_ratio_improvement_scale_invariant(base, opt, scale):
    a = improvement_pct(base, opt, "design_area")
    b = improvement_pct(base * scale, opt * scale, "design_area")
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(min_value=0.01, max_value=1e6),
    opt=st.floats(min_value=0.01, max_value=1e6),
)
def test_ratio_improvement_sign(base, opt):
    pct = improvement_pct(base, opt, "dynamic_power")
    if opt < base:
        assert pct > 0
    elif opt > base:
        assert pct < 0
    else:
        assert pct == 0


def test_table3_adder_row():
    row = next(r for r in load_table3() if r["design"] == "adder_16bit")
    base = PpaMetrics(**{k: v for k, v in row["baseline"].items() if v is not None})
    opt = PpaMetrics(**{k: v for k, v in row["optimized"].items() if v is not None})
    result = build_comparison("adder_16bit", base, opt)
    for name in HEADLINE_METRICS:
        expected = row["expected_pct"][name]
        got = result.per_metric[name]
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=0.05)


def test_comparison_from_report_fixtures():
    base = parse_report(BASE_RPT)
    opt = parse_report(OPT_RPT)
    row = build_comparison("adder_16bit", base, opt)
    assert row.per_metric["cell_area"] == pytest.approx(58.70, abs=0.05)
    assert row.per_metric["cp_length"] == pytest.approx(58.40, abs=0.05)
    assert row.per_metric["cp_slack"] is None
    assert row.to_dict()["per_metric"]["cp_slack"] == "N/A"


# --- display rounding ---

def test_round_display_half_up():
    assert round_display(58.695) == 58.7
    assert round_display(2.675) == 2.68  # decimal, not binary-float, rounding
    assert round_display(-1.005) == -1.01


def test_render_pct():
    assert render_pct(None) == "N/A"
    assert render_pct(100.0) == "100"
    assert render_pct(58.6999) == "58.7"
    assert render_pct(-50.0) == "-50"
