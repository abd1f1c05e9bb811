"""Seeded Verilog text builders.

Two families: small behavioural modules that the scripted Programmer
"writes" in the suite workloads, and large ripple-carry, array-multiplier
and behavioural sources for inspect_large. Each large builder returns the
text together with the structural facts fixed by its construction; the
oracle compares rtlflow's fingerprint against those facts.
"""

from __future__ import annotations

import random

PIPELINE_CAP = 8  # documented cap on reported pipeline depth


# --- small suite designs -------------------------------------------------

TEMPLATES = ("counter", "accumulator", "pipeline", "fsm", "adder")

_STEP_NOTES = {
    "counter": [
        "declare the count register",
        "clocked always block on posedge clk",
        "synchronous reset clears the count",
        "increment under enable",
        "drive the count output",
        "wrap at the maximum value",
        "keep non-blocking assignments",
    ],
    "accumulator": [
        "declare the accumulator register",
        "clocked always block on posedge clk",
        "synchronous reset clears the sum",
        "add the input sample when valid",
        "register the valid flag",
        "drive the sum output",
        "keep non-blocking assignments",
    ],
    "pipeline": [
        "declare the stage registers",
        "clocked always block on posedge clk",
        "load the first stage from the input",
        "shift each stage into the next",
        "drive the output from the last stage",
        "hold the stages during reset",
        "keep non-blocking assignments",
    ],
    "fsm": [
        "declare the state encoding as localparams",
        "declare the state register",
        "one clocked always block holds the state machine",
        "leave IDLE on start",
        "count busy cycles in RUN",
        "raise done in FINISH and return to IDLE",
        "synchronous reset returns to IDLE",
    ],
    "adder": [
        "declare the operand inputs",
        "declare the sum and carry outputs",
        "compute the sum with one continuous assignment",
        "include the carry input",
        "expose the carry output",
        "keep the module purely combinational",
        "no registers or clocks",
    ],
}


def suite_ports(template: str, width: int) -> list[dict]:
    if template == "adder":
        return [
            {"name": "a", "direction": "in", "width": width},
            {"name": "b", "direction": "in", "width": width},
            {"name": "cin", "direction": "in", "width": 1},
            {"name": "sum", "direction": "out", "width": width},
            {"name": "cout", "direction": "out", "width": 1},
        ]
    ports = [
        {"name": "clk", "direction": "in", "width": 1},
        {"name": "rst", "direction": "in", "width": 1},
    ]
    if template == "counter":
        ports += [{"name": "en", "direction": "in", "width": 1},
                  {"name": "count", "direction": "out", "width": width}]
    elif template == "accumulator":
        ports += [{"name": "din", "direction": "in", "width": width},
                  {"name": "valid", "direction": "in", "width": 1},
                  {"name": "sum", "direction": "out", "width": width}]
    elif template == "pipeline":
        ports += [{"name": "din", "direction": "in", "width": width},
                  {"name": "dout", "direction": "out", "width": width}]
    else:  # fsm
        ports += [{"name": "start", "direction": "in", "width": 1},
                  {"name": "busy", "direction": "out", "width": 1},
                  {"name": "done", "direction": "out", "width": 1}]
    return ports


def step_notes(template: str, n_steps: int) -> list[str]:
    return _STEP_NOTES[template][:n_steps]


def _header(module: str, ports: list[dict]) -> list[str]:
    decls = []
    for p in ports:
        kind = "input" if p["direction"] == "in" else "output"
        rng = f" [{p['width'] - 1}:0]" if p["width"] > 1 else ""
        decls.append(f"    {kind}{rng} {p['name']}")
    return [f"module {module} ("] + [d + "," for d in decls[:-1]] + [decls[-1], ");"]


def _body(template: str, width: int, depth: int, variant: int) -> list[str]:
    w = width - 1
    if template == "adder":
        return [f"    assign {{cout, sum}} = a + b + cin;  // variant {variant}"]
    if template == "counter":
        return [
            f"    reg [{w}:0] count_q;",
            "    always @(posedge clk) begin",
            "        if (rst)",
            "            count_q <= 0;",
            "        else if (en)",
            f"            count_q <= count_q + {1 + variant};",
            "    end",
            "    assign count = count_q;",
        ]
    if template == "accumulator":
        return [
            f"    reg [{w}:0] acc_q;",
            "    reg valid_q;",
            "    always @(posedge clk) begin",
            "        if (rst) begin",
            "            acc_q <= 0;",
            "            valid_q <= 0;",
            "        end else begin",
            "            valid_q <= valid;",
            "            if (valid)",
            f"                acc_q <= acc_q + din + {variant};",
            "        end",
            "    end",
            "    assign sum = acc_q;",
        ]
    if template == "pipeline":
        lines = [f"    reg [{w}:0] " + ", ".join(f"stage_{i}" for i in range(depth + 1)) + ";",
                 "    always @(posedge clk) begin",
                 "        if (rst) begin"]
        lines += [f"            stage_{i} <= {variant};" for i in range(depth + 1)]
        lines += ["        end else begin", "            stage_0 <= din;"]
        lines += [f"            stage_{i} <= stage_{i - 1};" for i in range(1, depth + 1)]
        lines += ["        end", "    end", f"    assign dout = stage_{depth};"]
        return lines
    # one-process FSM
    return [
        "    localparam IDLE = 2'd0, RUN = 2'd1, FINISH = 2'd2;",
        "    reg [1:0] state;",
        f"    reg [{w}:0] ticks;",
        "    reg busy_q, done_q;",
        "    always @(posedge clk) begin",
        "        if (rst) begin",
        "            state <= IDLE;",
        "            ticks <= 0;",
        "            busy_q <= 0;",
        "            done_q <= 0;",
        "        end else begin",
        "            case (state)",
        "                IDLE: begin",
        "                    done_q <= 0;",
        "                    if (start) state <= RUN;",
        "                end",
        "                RUN: begin",
        "                    busy_q <= 1;",
        "                    ticks <= ticks + 1;",
        f"                    if (ticks == {depth + variant}) state <= FINISH;",
        "                end",
        "                FINISH: begin",
        "                    busy_q <= 0;",
        "                    done_q <= 1;",
        "                    state <= IDLE;",
        "                end",
        "                default: state <= IDLE;",
        "            endcase",
        "        end",
        "    end",
        "    assign busy = busy_q;",
        "    assign done = done_q;",
    ]


def suite_module(module: str, template: str, width: int, depth: int, notes: list[str],
                 fixes: list[str], variant: int, preamble: int) -> str:
    """One revision of a small design, tagged `// STEP k:` per plan step and
    `// FIX k:` per applied fix; `preamble` comment lines pad the reply the
    way verbose model output does."""
    lines = [f"// {module}: revision {variant}, generated from the plan below"]
    lines += [f"// note {i}: keep the interface of {module} unchanged" for i in range(preamble)]
    lines += _header(module, suite_ports(template, width))
    body = _body(template, width, depth, variant)
    # spread the step tags evenly over the body
    n = len(notes)
    for k in range(n, 0, -1):
        at = (k - 1) * len(body) // n
        body.insert(at, f"    // STEP {k}: {notes[k - 1]}")
    for k, fix in enumerate(fixes, 1):
        body.insert(min(len(body), 2 * k), f"    // FIX {k}: {fix}")
    return "\n".join(lines + body + ["endmodule"]) + "\n"


def testbench(module: str, template: str, width: int, checks: int) -> str:
    ports = suite_ports(template, width)
    decls = []
    conns = []
    for p in ports:
        rng = f"[{p['width'] - 1}:0] " if p["width"] > 1 else ""
        kind = "reg" if p["direction"] == "in" else "wire"
        decls.append(f"    {kind} {rng}{p['name']};")
        conns.append(f".{p['name']}({p['name']})")
    lines = ["`timescale 1ns/1ps", f"module {module}_tb;"] + decls
    lines.append(f"    {module} dut ({', '.join(conns)});")
    if template != "adder":
        lines.append("    initial clk = 0;")
        lines.append("    always #5 clk = ~clk;")
    lines.append("    integer checks = 0;")
    lines.append("    initial begin")
    for i in range(checks):
        lines.append(f"        #10 checks = checks + 1;  // stimulus vector {i}")
    lines.append('        $display("PASS");')
    lines.append("        $finish;")
    lines.append("    end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# --- large designs for inspect_large --------------------------------------

_FULL_ADDER = """module full_adder (input a, input b, input cin, output s, output cout);
    assign s = a ^ b ^ cin;
    assign cout = (a & b) | (cin & (a ^ b));
endmodule
"""

_AND2 = """module and2 (input a, input b, output y);
    assign y = a & b;
endmodule
"""


def ripple_netlist(rng: random.Random, target_bytes: int, tag: str) -> tuple[str, dict]:
    """Ripple-carry adder: one full_adder per bit, carry-out of bit i wired
    to carry-in of bit i+1, plus an and2 gate per bit masking the sum."""
    per_bit = 150
    bits = max(8, target_bytes // per_bit)
    out = [_FULL_ADDER, _AND2,
           f"// ripple-carry adder, {bits} bits",
           f"module ripple_{tag} (",
           f"    input [{bits - 1}:0] a,",
           f"    input [{bits - 1}:0] b,",
           "    input cin,",
           "    input mask,",
           f"    output [{bits - 1}:0] s,",
           "    output cout",
           ");",
           f"    wire [{bits}:0] c;",
           f"    wire [{bits - 1}:0] raw;",
           "    assign c[0] = cin;"]
    for i in range(bits):
        if rng.random() < 0.05:
            out.append(f"    /* bit {i} */")
        out.append(f"    full_adder fa_{i} (.a(a[{i}]), .b(b[{i}]), .cin(c[{i}]), "
                   f".s(raw[{i}]), .cout(c[{i + 1}]));")
        out.append(f"    and2 mk_{i} (.a(raw[{i}]), .b(mask), .y(s[{i}]));")
    out += [f"    assign cout = c[{bits}];", "endmodule", ""]
    facts = {
        "instance_groups": {"full_adder": bits, "and2": bits},
        "carry_chain_detected": True,
        "fsm_detected": False,
        "clocked_always": 0,
        "comb_always": 0,
        "pipeline_stages": 0,
    }
    return "\n".join(out), facts


def array_multiplier(rng: random.Random, target_bytes: int, tag: str) -> tuple[str, dict]:
    """n x n array multiplier: n*n and2 partial-product gates and n-1 rows of
    n full adders, each row a ripple chain adding the next partial product."""
    per_cell = 140
    n = max(4, int((target_bytes / per_cell) ** 0.5))
    out = [_FULL_ADDER, _AND2,
           f"// array multiplier, {n} x {n}",
           f"module amul_{tag} (",
           f"    input [{n - 1}:0] a,",
           f"    input [{n - 1}:0] b,",
           f"    output [{2 * n - 1}:0] p",
           ");",
           f"    wire [{n * n - 1}:0] pp;",
           f"    wire [{n * n - 1}:0] rs;",
           f"    wire [{n * n - 1}:0] rc;"]
    for i in range(n):
        for j in range(n):
            out.append(f"    and2 pp_{i}_{j} (.a(a[{j}]), .b(b[{i}]), .y(pp[{i * n + j}]));")
    for r in range(1, n):
        if rng.random() < 0.5:
            out.append(f"    // adder row {r}")
        for j in range(n):
            prev = f"rs[{(r - 1) * n + j + 1}]" if (r > 1 and j + 1 < n) else (
                f"pp[{j + 1}]" if j + 1 < n else "1'b0")
            cin = f"rc[{r * n + j - 1}]" if j > 0 else "1'b0"
            out.append(f"    full_adder fa_{r}_{j} (.a({prev}), .b(pp[{r * n + j}]), "
                       f".cin({cin}), .s(rs[{r * n + j}]), .cout(rc[{r * n + j}]));")
    out += ["    assign p[0] = pp[0];", "endmodule", ""]
    facts = {
        "instance_groups": {"and2": n * n, "full_adder": n * (n - 1)},
        "carry_chain_detected": True,
        "fsm_detected": False,
        "clocked_always": 0,
        "comb_always": 0,
        "pipeline_stages": 0,
    }
    return "\n".join(out), facts


def behavioural(rng: random.Random, target_bytes: int, tag: str, with_fsm: bool) -> tuple[str, dict]:
    """Behavioural RTL built from independent units: register pipelines of
    depth 1-14, free-running counters, one-process FSMs and combinational
    case muxes. Units share no registers, so the longest register-to-
    register chain is the deepest pipeline."""
    units: list[list[str]] = []
    decls: list[str] = []
    ports = ["    input clk,", "    input rst,"]
    clocked = comb = 0
    max_depth = 0
    n_fsm = 0
    size = 400
    u = 0
    while size < target_bytes or (with_fsm and n_fsm == 0):
        n_decls, n_ports = len(decls), len(ports)
        kind = rng.choices(["pipe", "count", "fsm", "mux"], [5, 2, 2 if with_fsm else 0, 2])[0]
        w = rng.choice([4, 8, 16, 32])
        block: list[str] = []
        if kind == "pipe":
            depth = rng.randint(1, 14)
            max_depth = max(max_depth, depth)
            regs = [f"pl{u}_{k}" for k in range(depth + 1)]
            ports.append(f"    input [{w - 1}:0] pin{u},")
            ports.append(f"    output [{w - 1}:0] pout{u},")
            decls.append(f"    reg [{w - 1}:0] {', '.join(regs)};")
            order = list(range(1, depth + 1))
            if rng.random() < 0.5:
                order.reverse()  # stages written last-to-first, as often in RTL
            block += [f"    // pipeline {u}: {depth} register transfers",
                      "    always @(posedge clk) begin",
                      "        if (rst) begin"]
            block += [f"            {r} <= 0;" for r in regs]
            block += ["        end else begin", f"            {regs[0]} <= pin{u};"]
            block += [f"            {regs[k]} <= {regs[k - 1]};" for k in order]
            block += ["        end", "    end", f"    assign pout{u} = {regs[-1]};"]
            clocked += 1
        elif kind == "count":
            ports.append(f"    output [{w - 1}:0] cnt_out{u},")
            decls.append(f"    reg [{w - 1}:0] cnt{u};")
            block += ["    always @(posedge clk) begin",
                      "        if (rst)",
                      f"            cnt{u} <= 0;",
                      "        else",
                      f"            cnt{u} <= cnt{u} + {rng.randint(1, 7)};",
                      "    end",
                      f"    assign cnt_out{u} = cnt{u};"]
            clocked += 1
        elif kind == "fsm":
            n_fsm += 1
            states = [f"F{u}_S{k}" for k in range(rng.randint(3, 6))]
            ports.append(f"    input go{u},")
            ports.append(f"    output busy_out{u},")
            decls.append("    localparam " + ", ".join(
                f"{s} = {k}" for k, s in enumerate(states)) + ";")
            decls.append(f"    reg [2:0] fsm{u};")
            decls.append(f"    reg busy{u};")
            block += ["    /* one-process state machine */",
                      "    always @(posedge clk) begin",
                      "        if (rst) begin",
                      f"            fsm{u} <= {states[0]};",
                      f"            busy{u} <= 0;",
                      "        end else begin",
                      f"            case (fsm{u})"]
            for k, s in enumerate(states):
                nxt = states[(k + 1) % len(states)]
                block += [f"                {s}: begin",
                          f"                    busy{u} <= {0 if k == 0 else 1};",
                          f"                    if (go{u}) fsm{u} <= {nxt};",
                          "                end"]
            block += [f"                default: fsm{u} <= {states[0]};",
                      "            endcase",
                      "        end",
                      "    end",
                      f"    assign busy_out{u} = busy{u};"]
            clocked += 1
        else:
            arms = rng.randint(2, 4)
            ports.append(f"    input [1:0] sel{u},")
            ports += [f"    input [{w - 1}:0] mi{u}_{k}," for k in range(arms)]
            ports.append(f"    output reg [{w - 1}:0] mo{u},")
            block += ["    always @(*) begin",
                      f"        case (sel{u})"]
            block += [f"            2'd{k}: mo{u} = mi{u}_{k};" for k in range(arms)]
            block += [f"            default: mo{u} = 0;", "        endcase", "    end"]
            comb += 1
        units.append(block)
        size += sum(len(x) + 1 for x in block + decls[n_decls:] + ports[n_ports:])
        u += 1
    ports[-1] = ports[-1].rstrip(",")
    text = "\n".join([f"// behavioural RTL, {u} units", f"module beh_{tag} ("] + ports
                     + [");"] + decls + [line for block in units for line in block]
                     + ["endmodule", ""])
    facts = {
        "instance_groups": {},
        "carry_chain_detected": False,
        "fsm_detected": n_fsm > 0,
        "clocked_always": clocked,
        "comb_always": comb,
        "pipeline_stages": min(max_depth, PIPELINE_CAP),
    }
    return text, facts
