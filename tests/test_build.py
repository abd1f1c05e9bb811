"""`errors.build` on a `dict[K, X]`: each key and each value is built, and
a bad one is named by its key path."""

import re

import pytest

from rtlflow.errors import build


@pytest.mark.parametrize("kind, value, built", [
    pytest.param(dict[str, float], {"power": 1, "area": 2.5}, {"power": 1.0, "area": 2.5},
                 id="each-value-built"),
    pytest.param(dict[str, str], {}, {}, id="empty"),
])
def test_dict_is_built(kind, value, built):
    assert build(kind, value, "optimized_reports") == built


@pytest.mark.parametrize("kind, value, where, needle", [
    pytest.param(dict[str, str], {"timing": "t.rpt", "power": 5}, "cases[2].optimized_reports",
                 "cases[2].optimized_reports.power: expected str, got 5", id="bad-value"),
    pytest.param(dict[str, str], {"timing": "t.rpt", 1: "p.rpt"}, "cases[2].optimized_reports",
                 "cases[2].optimized_reports: expected str, got 1", id="non-string-key"),
    pytest.param(dict[str, str], ["timing"], "cases[2].optimized_reports",
                 "cases[2].optimized_reports: expected dict, got ['timing']", id="not-a-mapping"),
    pytest.param(dict[str, list[int]], {"power": ["x"]}, "",
                 "power[0]: expected int, got 'x'", id="nested-value-at-the-top"),
])
def test_dict_rejects_with_its_key_path(kind, value, where, needle):
    with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
        build(kind, value, where)
