import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VERILOG

from rtlflow.errors import EmptySource, UnbalancedModule
from rtlflow.inspect_rtl import _instances, fingerprint, strip_comments

ADDER = (VERILOG / "adder_16bit.v").read_text()
FSM = (VERILOG / "fsm_example.v").read_text()
PIPE = (VERILOG / "pipeline_example.v").read_text()
CLA = (VERILOG / "adder_16bit_cla.v").read_text()

COMB_MUX = """
module mux4 (input [1:0] sel, input [7:0] a, b, c, d, output [7:0] y);
    assign y = (sel == 2'd0) ? a : (sel == 2'd1) ? b : (sel == 2'd2) ? c : d;
endmodule
"""

SYNC_COUNTER = """
module counter (input clk, input rst, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + 8'd1;
    end
endmodule
"""


def test_empty_and_unbalanced():
    with pytest.raises(EmptySource):
        fingerprint("   \n")
    with pytest.raises(UnbalancedModule):
        fingerprint("module m; wire x;")


def test_combinational_mux():
    fp = fingerprint(COMB_MUX)
    assert fp.is_combinational
    assert fp.clocked_always == 0
    assert fp.register_bits == 0
    assert fp.operator_census.get("mux") == 3
    assert fp.operator_census.get("eq") == 3
    assert not fp.fsm_detected


def test_sync_reset_counter():
    fp = fingerprint(SYNC_COUNTER)
    assert not fp.is_combinational
    assert fp.clocked_always == 1
    assert fp.reset_style == "Sync"
    assert fp.register_bits == 8
    assert fp.operator_census.get("add") == 1


def test_async_reset_fsm_fixture():
    fp = fingerprint(FSM)
    assert fp.reset_style == "Async"
    assert fp.fsm_detected
    assert fp.fsm_state_register == "state"
    assert fp.clocked_always >= 1


def test_pipeline_fixture_depth():
    fp = fingerprint(PIPE)
    assert not fp.is_combinational
    assert fp.pipeline_stages == 2


def test_ripple_adder_structure():
    fp = fingerprint(ADDER)
    assert fp.instance_groups == {"full_adder": 16}
    assert fp.carry_chain_detected
    assert fp.is_combinational


def test_cla_flags_generate_warning():
    fp = fingerprint(CLA)
    assert any("generate" in w for w in fp.warnings)


def test_strip_comments_preserves_lines():
    text = "module m; // tail\n/* multi\nline */ wire x;\nendmodule\n"
    stripped = strip_comments(text)
    assert stripped.count("\n") == text.count("\n")
    assert "tail" not in stripped and "multi" not in stripped
    assert "wire x;" in stripped


@pytest.mark.parametrize("text, stripped, instances", [
    pytest.param("wire a; /* open\nwire b;\n", "wire a; ", {}, id="unterminated-block"),
    pytest.param("wire a; /*/ wire b; */ wire c;\n", "wire a;  wire c;\n", {}, id="slash-star-slash"),
    pytest.param("wire a; /* one\ntwo\nthree */ wire b;\n", "wire a; \n\n wire b;\n", {},
                 id="multi-line-block"),
    pytest.param('x = "say \\"hi\\" // not a comment"; y;\n', 'x = ""; y;\n', {},
                 id="escaped-quote"),
    pytest.param('x = "tail \\', 'x = ""', {}, id="lone-backslash-at-end"),
    pytest.param('x = "http://a"; // gone\ny;\n', 'x = ""; \ny;\n', {}, id="slashes-in-string"),
    # the unterminated list runs to the text's end
    pytest.param("full_adder fa0 (.a(a[0]), .b(b[0]), .cin(c0)",
                 "full_adder fa0 (.a(a[0]), .b(b[0]), .cin(c0)",
                 {"full_adder": [".a(a[0]), .b(b[0]), .cin(c0)"]}, id="unterminated-instance"),
])
def test_scanner_edge_cases(text, stripped, instances):
    assert strip_comments(text) == stripped
    assert _instances(stripped) == instances


def test_string_literals_do_not_leak_tokens():
    text = 'module m; initial $display("always @(posedge clk) + error"); endmodule'
    fp = fingerprint(text)
    assert fp.clocked_always == 0
    assert "add" not in fp.operator_census


def _mutate(rng: random.Random, text: str) -> str:
    """Insert comments and whitespace at random line boundaries."""
    lines = text.splitlines()
    out = []
    for line in lines:
        if rng.random() < 0.3:
            out.append(f"// noise {rng.randint(0, 999)} error fail always posedge")
        if rng.random() < 0.2:
            line = line + f"  /* inline {rng.randint(0, 99)} + * / ? */"
        if rng.random() < 0.2:
            line = "    " + line
        out.append(line)
    if rng.random() < 0.5:
        out.append("/* trailing\ncomment with module-looking text:\n endmodule */"
                    .replace("endmodule", "end_module"))
    return "\n".join(out)


@pytest.mark.parametrize("source", [ADDER, FSM, PIPE, COMB_MUX, SYNC_COUNTER],
                         ids=["adder", "fsm", "pipe", "mux", "counter"])
def test_fingerprint_invariant_under_comment_mutations(source):
    base = fingerprint(source).to_dict()
    rng = random.Random(11)
    for _ in range(100):
        mutated = _mutate(rng, source)
        assert fingerprint(mutated).to_dict() == base


@settings(max_examples=60, deadline=None)
@given(extra_adds=st.integers(min_value=0, max_value=5))
def test_operator_census_monotone(extra_adds):
    """Adding assign statements with '+' never decreases the add count."""
    body = "\n".join(
        f"    assign t{i} = a + b;" for i in range(extra_adds)
    )
    decls = "\n".join(f"    wire [7:0] t{i};" for i in range(extra_adds))
    text = (
        "module m (input [7:0] a, b, output [7:0] y);\n"
        f"{decls}\n{body}\n    assign y = a + b;\nendmodule\n"
    )
    fp = fingerprint(text)
    assert fp.operator_census.get("add", 0) == extra_adds + 1


def test_nonblocking_assign_not_counted_as_operator():
    fp = fingerprint(SYNC_COUNTER)
    # two '<=' nonblocking assignments must not appear in the census
    assert "le" not in fp.operator_census
    assert fp.operator_census.get("shl", 0) == 0


def clocked_module(statements: list[str]) -> str:
    regs = sorted({s.split("<=")[0].strip() for s in statements})
    return (
        "module m (input clk, input [7:0] d, output [7:0] y);\n"
        f"    reg [7:0] {', '.join(regs)};\n"
        "    always @(posedge clk) begin\n"
        + "".join(f"        {s}\n" for s in statements)
        + "    end\n    assign y = d;\nendmodule\n"
    )


@st.composite
def register_graphs(draw):
    """Non-blocking statements over 2-7 registers, each reading any of them."""
    regs = [f"r{i}" for i in range(draw(st.integers(2, 7)))]
    statements = []
    for reg in regs:
        srcs = draw(st.lists(st.sampled_from(regs), max_size=3, unique=True))
        statements.append(f"{reg} <= {' ^ '.join(srcs) or 'd'};")
    return statements


@settings(max_examples=200, deadline=None)
@given(data=st.data(), statements=register_graphs())
def test_fingerprint_independent_of_statement_order(data, statements):
    shuffled = data.draw(st.permutations(statements))
    assert fingerprint(clocked_module(shuffled)).to_dict() == \
        fingerprint(clocked_module(statements)).to_dict()


@pytest.mark.parametrize("statements, stages", [
    pytest.param(["a <= b;", "b <= a;"], 0, id="lone-loop"),
    pytest.param(["q <= q + 1;"], 0, id="counter"),
    # r0..r3 form one loop, read by r4
    pytest.param(["r4 <= r3;", "r1 <= r0 ^ r3;", "r3 <= r2 ^ r3;", "r2 <= r1;", "r0 <= r2;"], 1,
                 id="loop-then-register"),
    pytest.param(["b <= a;", "a <= d;", "c <= b ^ e;", "e <= c;", "f <= e;"], 3,
                 id="chain-through-loop"),
])
def test_pipeline_stages_counts_each_loop_once(statements, stages):
    fp = fingerprint(clocked_module(statements))
    assert fp.pipeline_stages == stages
    assert fp.warnings == []


def test_pipeline_stages_cap_is_noted():
    # longer than the recursion limit: the walk must not recurse per register
    statements = ["r0 <= d;"] + [f"r{i} <= r{i - 1};" for i in range(1, 3000)]
    fp = fingerprint(clocked_module(statements))
    assert fp.pipeline_stages == 8
    assert fp.warnings == ["pipeline_stages capped at 8: the longest register chain has 2999"]
