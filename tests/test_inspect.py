import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPORTS, VERILOG

from rtlflow.errors import RtlflowError
from rtlflow.inspect_rtl import VERILOG_KEYWORDS, _instances, fingerprint, strip_comments
from rtlflow.metrics import parse_report
from rtlflow.optimizer import OptimizationGoal, load_catalog, select_techniques

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
    with pytest.raises(RtlflowError, match="^empty Verilog source$"):
        fingerprint("   \n")
    with pytest.raises(RtlflowError, match="^1 module vs 0 endmodule$"):
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
    assert fp.register_bits == 8
    assert fp.operator_census.get("add") == 1


@pytest.mark.parametrize("ports, bits", [
    pytest.param("output reg [7:0] q, input clk, input en", 8, id="reg-first"),
    pytest.param("input clk, input en, output reg [7:0] q", 8, id="reg-last"),
    pytest.param("input clk, input en, output reg [7:0] q, output reg [3:0] r", 12,
                 id="two-regs"),
])
def test_reg_port_counts_only_its_own_names(ports, bits):
    # a `reg` in an ANSI port list ends at the list's `);` or the next port
    counter = (f"module counter ({ports});\n"
               "    always @(posedge clk) if (en) q <= q + 8'd1;\nendmodule\n")
    fp = fingerprint(counter)
    assert fp.register_bits == bits
    report = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())
    area = select_techniques(fp, report, OptimizationGoal("area"), load_catalog())
    assert area.techniques == (["register_optimization"] if bits > 8 else ["fsm_state_encoding"])


def test_reg_body_declarations_count_every_name():
    # an initializer's `)` ends no declaration
    body = ("module m (input clk);\n    reg [7:0] a, b;\n    reg c = 1'b0;\n"
            "    reg d = (1'b1), e;\n"
            "    always @(posedge clk) begin a <= b; b <= a; c <= ~c; end\nendmodule\n")
    assert fingerprint(body).register_bits == 8 + 8 + 1 + 1 + 1


TWO_STATE_FSM = """
module blink (input clk, input rst, output reg led);
    reg state;
    reg flag;
    always @(posedge clk) begin
        if (rst) state <= 1'b0;
        else case (state)
            1'b0: begin flag <= 1'b1; state <= 1'b1; end
            1'b1: begin flag <= 1'b0; state <= 1'b0; end
        endcase
        led <= state;
    end
endmodule
"""

SEL_MUX = """
module sel_mux (input clk, input [1:0] sel, input [7:0] a, b, output reg [7:0] y);
    always @(posedge clk)
        case (sel)
            2'd0: y <= a;
            default: y <= (sel == 2'd1) ? b : a;
        endcase
endmodule
"""


@pytest.mark.parametrize("name", ["flag", "endcase_seen", "seen_endcase"])
def test_fsm_case_ends_at_the_endcase_keyword(name):
    # a register whose name holds `endcase` does not end the case's arms
    assert fingerprint(TWO_STATE_FSM.replace("flag", name)).fsm_detected


@pytest.mark.parametrize("compare", ["==", "!=", "<="])
def test_fsm_comparison_on_the_case_register_is_no_assignment(compare):
    # `sel` is an input the arms compare, not a state they assign
    assert not fingerprint(SEL_MUX.replace("==", compare)).fsm_detected


@pytest.mark.parametrize("arm, fsm", [
    ("begin flag <= 1'b1; state <= 1'b1; end", True),
    ("begin if (flag) begin flag <= 1'b0; end state <= 1'b1; end", True),
    ("if (flag) flag <= 1'b0; else state <= 1'b1;", True),
    ("if (flag) state[0] <= 1'b1;", True),
    ("begin flag <= state; end", False),
])
def test_fsm_state_assigned_at_each_statement_start(arm, fsm):
    # one arm alone may assign `state`, after a `;`, `end`, `else` or `)` on its line
    source = (TWO_STATE_FSM.replace("begin flag <= 1'b1; state <= 1'b1; end", arm)
              .replace("begin flag <= 1'b0; state <= 1'b0; end", "flag <= 1'b0;"))
    assert fingerprint(source).fsm_detected is fsm


def test_async_reset_fsm_fixture():
    fp = fingerprint(FSM)
    assert fp.fsm_detected
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
    # an unterminated list runs to the next instance, or to the text's end
    pytest.param("full_adder fa0 (.a(a[0]), .b(b[0]), .cin(c0)",
                 "full_adder fa0 (.a(a[0]), .b(b[0]), .cin(c0)",
                 {"full_adder": [".a(a[0]), .b(b[0]), .cin(c0)"]}, id="unterminated-instance"),
    pytest.param("sub u0 (.a(x0)\nsub u1 (.a(x1));\n", "sub u0 (.a(x0)\nsub u1 (.a(x1));\n",
                 {"sub": [".a(x0)\n", ".a(x1)"]}, id="unterminated-then-closed"),
])
def test_scanner_edge_cases(text, stripped, instances):
    assert strip_comments(text) == stripped
    assert _instances(stripped) == instances


@pytest.mark.parametrize("row, rows, groups", [
    pytest.param("sub u{i} (.a(x{i})\n", 4000, {"sub": 4000}, id="unterminated-instances"),
    pytest.param("case (s{i})\n", 4000, {}, id="cases-without-endcase"),
    pytest.param("\n", 40000, {}, id="blank-lines"),
    pytest.param("reg r{i}\n", 4000, {}, id="reg-without-semicolon"),
    pytest.param("r{i} <= x{i}\n", 4000, {}, id="nonblocking-without-semicolon"),
    # no `name (` follows any parameter list, so no row is an instance
    pytest.param("sub #(.W(x{i}) u{i}\n", 4000, {}, id="parameter-list-without-ports"),
    pytest.param("always @(posedge c{i}\n", 4000, {}, id="always-without-paren"),
    pytest.param("assign y{i} = a[{i};\n", 8000, {}, id="select-without-bracket"),
    pytest.param("reg [{i} r{i};\n", 8000, {}, id="reg-range-without-bracket"),
    pytest.param("r{i}[{i} <= x{i}\n", 8000, {}, id="target-index-without-bracket"),
])
def test_fingerprint_of_many_rows_takes_under_a_second(row, rows, groups):
    # a scan from each row to the text's end, or over every blank line after
    # it, took 1-21 s on these texts; the rows sit in a clocked block, so the
    # register and pipeline scans run too
    text = ("module m;\nalways @(posedge clk) begin\n"
            + "".join(row.format(i=i) for i in range(rows)) + "end\nendmodule\n")
    start = time.perf_counter()
    fp = fingerprint(text)
    assert time.perf_counter() - start < 1.0
    assert fp.instance_groups == groups


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


REWRITE_NAMES = ["W", "clk", "rst", "go", "sel", "a", "b", "z", "s", "state", "flag", "c",
                 "fa0", "fa1", "fa2", "fa3"]
# a statement of an arm that assigns something other than the case register
ARM_COMPARES = ["if ({r} <= 2'd1) {stmt}", "if ({r} < 2'd2) {stmt}", "if ({r} <= 2'd1) begin {stmt} end"]


def rewritable(fsm: bool, bounds: set[str], splits: list[bool], compare: str | None) -> str:
    """A clocked design with a 4-bit ripple adder, a `case` on the input `sel`
    and, given `fsm`, a state machine: `bounds` names the range bounds given
    by a `parameter`, `splits` the instances whose connection lists span
    lines, and `compare` the comparison on each case's register added to an
    arm that does not assign it."""
    params = {"SW": 2, "NC": 4}
    state, carry = ("SW-1" if "SW" in bounds else "1"), ("NC" if "NC" in bounds else "4")
    lines = ["module top #(parameter W = 8) (input clk, input rst, input go, input [1:0] sel,",
             "    input [W-1:0] a, b, output reg [W-1:0] z, output [3:0] s);"]
    lines += [f"    parameter {p} = {params[p]};" for p in sorted(bounds)]
    lines += [f"    reg [{state}:0] state;", "    reg flag;", f"    wire [{carry}:0] c;",
              "    assign c[0] = 1'b0;"]
    for i, split in enumerate(splits):
        ports = [f".ai(a[{i}])", f".bi(b[{i}])", f".ci(c[{i}])", f".so(s[{i}])", f".co(c[{i + 1}])"]
        lines.append(f"    full_adder fa{i} (" + (",\n        " if split else ", ").join(ports) + ");")
    arm = (compare or "{stmt}").format
    if fsm:
        lines += ["    always @(posedge clk) begin",
                  "        if (rst) state <= 2'd0;",
                  "        else case (state)",
                  "            2'd0: begin flag <= 1'b1; if (go) state <= 2'd1; end",
                  "            2'd1: " + arm(r="state", stmt="flag <= 1'b0;"),
                  "            default: state <= 2'd0;",
                  "        endcase",
                  "    end"]
    lines += ["    always @(posedge clk)", "        case (sel)",
              "            2'd0: " + arm(r="sel", stmt="z <= a;"),
              "            default: z <= b;", "        endcase", "endmodule", ""]
    return "\n".join(lines)


# a name that holds a keyword, such as `endcase_3`, `n3_endcase` or `endcase3`
_renamed = st.builds(lambda k, form: form.replace("{k}", k), st.sampled_from(sorted(VERILOG_KEYWORDS)),
                     st.sampled_from(["{k}_{i}", "n{i}_{k}", "{k}{i}"]))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(fsm=st.booleans(), names=st.lists(_renamed, min_size=len(REWRITE_NAMES),
                                         max_size=len(REWRITE_NAMES)),
       bounds=st.sets(st.sampled_from(["SW", "NC"])),
       splits=st.lists(st.booleans(), min_size=4, max_size=4),
       compare=st.none() | st.sampled_from(ARM_COMPARES))
def test_fingerprint_invariant_under_meaning_keeping_rewrites(fsm, names, bounds, splits, compare):
    base = fingerprint(rewritable(fsm, set(), [False] * 4, None)).to_dict()
    assert base["fsm_detected"] == fsm and base["instance_groups"] == {"full_adder": 4}
    assert base["carry_chain_detected"] and base["register_bits"] == 8 + 2 + 1
    # each new name holds its own index, so no two names collide
    mapping = {old: new.format(i=i) for i, (old, new) in enumerate(zip(REWRITE_NAMES, names))}
    text = re.sub(r"\b\w+\b", lambda m: mapping.get(m[0], m[0]),
                  rewritable(fsm, bounds, splits, compare))
    assert fingerprint(text).to_dict() == base


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


PRIORITY_ENCODER = """`timescale 1ns/1ps
module enc (input [7:0] r, output reg [2:0] y);
    always @(*) begin
        casez (r)
            8'b1???????: y = 3'd7;
            8'b01??????: y = 3'd6;
            8'b001?????: y = 3'd5;
            8'b0001????: y = 3'd4;
            8'b00001???: y = 3'd3;
            8'b000001??: y = 3'd2;
            8'b0000001?: y = 3'd1;
            default: y = 3'd0;
        endcase
    end
endmodule
"""


def test_census_counts_only_operators():
    # `@(*)`, casez wildcards and `timescale's `/` hold no operator
    assert fingerprint(PRIORITY_ENCODER).operator_census == {}
    real = ("module m (input [7:0] a, b, input s, output [15:0] y, output reg [7:0] z);\n"
            "    always @* z = s ? a : b;\n    assign y = a * b / 8'h3;\nendmodule\n")
    assert fingerprint(real).operator_census == {"mul": 1, "div": 1, "mux": 1}


def test_ranges_and_part_selects_hold_no_operator():
    # `[W-1:0]`, `[3:0]` and `[i*8 +: 8]` are no arithmetic; an index is
    ranges = ("module m #(parameter W = 8) (input [W-1:0] a, output [W-1:0] y);\n"
              "    assign y = a;\nendmodule\n")
    assert fingerprint(ranges).operator_census == {}
    selects = ("module m (input [31:0] a, input [1:0] i, output [7:0] y, output [3:0] z);\n"
               "    assign y = a[i*8 +: 8];\n    assign z = a[3:0] + a[7:4];\nendmodule\n")
    assert fingerprint(selects).operator_census == {"add": 1}
    index = "module m (input [7:0] a, input [2:0] i, output y);\n    assign y = a[i+1];\nendmodule\n"
    assert fingerprint(index).operator_census == {"add": 1}


PARAM_COUNTER = """
module counter #(parameter W = 8) (input clk, output [W-1:0] q);
    localparam IDLE = 2'd0;
    reg [W-1:0] count;
    reg [IDLE:0] flag;
    always @(posedge clk) begin
        count <= count + 1;
        flag <= ~flag;
    end
    assign q = count;
endmodule
"""


def test_parameters_resolve_in_declared_ranges():
    # `[W-1:0]` reads W's default; `2'd0` is no plain default, so `[IDLE:0]` is 1 bit
    assert fingerprint(PARAM_COUNTER).register_bits == 8 + 1
    # every item of a declaration resolves, after an optional type or range
    for params in ("parameter A = 2, B = 8", "parameter integer B = 8",
                   "parameter [3:0] A = 2, parameter B = 8", "parameter A = $clog2(4), B = 8"):
        counter = (f"module c #({params}) (input clk); reg [B-1:0] x;\n"
                   "    always @(posedge clk) x <= x + 1;\nendmodule\n")
        assert fingerprint(counter).register_bits == 8, params
    adder = ("module add #(parameter W = 16) (input [W-1:0] a, b, input cin,\n"
             "    output [W-1:0] sum, output cout);\n"
             "    assign {cout, sum} = a + b + cin;\nendmodule\n")
    fp = fingerprint(adder)
    assert fp.carry_chain_detected
    report = parse_report((REPORTS / "adder_16bit_base.rpt").read_text())
    timing = select_techniques(fp, report, OptimizationGoal("timing"), load_catalog())
    assert timing.techniques == ["carry_lookahead_restructuring", "pipelining"]


def clocked_module(statements: list[str], sep: str = "\n        ") -> str:
    regs = sorted({s.split("<=")[0].strip() for s in statements})
    return (
        "module m (input clk, input [7:0] d, output [7:0] y);\n"
        f"    reg [7:0] {', '.join(regs)};\n"
        "    always @(posedge clk) begin"
        + "".join(sep + s for s in statements)
        + "\n    end\n    assign y = d;\nendmodule\n"
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
    pytest.param(["a <= d;", "b <= a;", "c <= b;"], 2, id="chain"),
])
def test_pipeline_stages_counts_each_loop_once(statements, stages):
    # a `;` ends one statement and starts the next, also on one line
    for sep in ("\n        ", " "):
        fp = fingerprint(clocked_module(statements, sep))
        assert fp.pipeline_stages == stages
        assert fp.warnings == []


def test_pipeline_stages_cap_is_noted():
    # longer than the recursion limit: the walk must not recurse per register
    statements = ["r0 <= d;"] + [f"r{i} <= r{i - 1};" for i in range(1, 3000)]
    fp = fingerprint(clocked_module(statements))
    assert fp.pipeline_stages == 8
    assert fp.warnings == ["pipeline_stages capped at 8: the longest register chain has 2999"]
