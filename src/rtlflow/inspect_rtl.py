"""Token-level structural analysis of a Verilog module.

Produces the design facts that drive technique selection: combinational vs
sequential, always-block census, reset style, FSM presence, operator and
register counts, instance replication, carry chains and pipeline depth.
Heuristics over a defined Verilog subset, not a full IEEE-1364 parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, asdict

from .errors import EmptySource, UnbalancedModule

VERILOG_KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "begin", "end", "if", "else", "case", "casex",
    "casez", "endcase", "default", "posedge", "negedge", "or", "and",
    "parameter", "localparam", "integer", "initial", "for", "while",
    "generate", "endgenerate", "genvar", "function", "endfunction",
    "task", "endtask", "signed", "not",
}


@dataclass
class DesignFingerprint:
    is_combinational: bool
    clocked_always: int
    comb_always: int
    reset_style: str  # Async | Sync | None
    fsm_detected: bool
    fsm_state_register: str
    operator_census: dict[str, int]
    register_bits: int
    instance_groups: dict[str, int]
    carry_chain_detected: bool
    pipeline_stages: int
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# A line comment, a block comment (group 1), an unterminated block comment
# (to the end of the text) or a string literal with backslash escapes (an
# unterminated one, or one ending in a lone backslash, also runs to the end).
_LEXEME_RE = re.compile(r'//[^\n]*|(/\*.*?\*/)|/\*.*|"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.DOTALL)


def _blank(m: re.Match) -> str:
    if m[1]:
        return "\n" * m[1].count("\n")
    return '""' if m[0][0] == '"' else ""


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments and string literals, preserving line
    structure so fingerprints are comment/whitespace immune. A string becomes
    `""`; an unterminated block comment drops the rest of the text."""
    return _LEXEME_RE.sub(_blank, text)


_ALWAYS_RE = re.compile(r"\balways\b\s*@\s*\(([^)]*)\)")
_RESET_NAME_RE = re.compile(r"\b(rst|reset|a?rst_?n?|clear)\w*\b", re.IGNORECASE)
_CLK_NAME_RE = re.compile(r"\b(clk|clock)\w*\b", re.IGNORECASE)
_RANGE_RE = re.compile(r"\[\s*(\d+)\s*:\s*(\d+)\s*\]")
_REG_DECL_RE = re.compile(
    r"\breg\b(?:\s+signed)?\s*(\[\s*\d+\s*:\s*\d+\s*\])?\s*([^;]+);"
)
_INSTANCE_RE = re.compile(
    r"^\s*([A-Za-z_]\w*)\s*(#\s*\([^;]*?\))?\s+([A-Za-z_]\w*)\s*\(", re.MULTILINE
)
_CASE_RE = re.compile(r"\bcase[xz]?\b\s*\(\s*([A-Za-z_]\w*)")
_PAREN_RE = re.compile(r"[()]")
_CONN_IDENT_RE = re.compile(r"[A-Za-z_]\w*(?:\s*\[\s*\d+\s*\])?")
_NONBLOCKING_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*<=\s*([^;]+);")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_OPERATORS = [
    ("<<", "shl"), (">>", "shr"), ("==", "eq"), ("!=", "neq"),
    ("<=", None), (">=", "ge"),  # <= is ambiguous (nonblocking); not counted
    ("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div"), ("%", "mod"),
    ("&", "and"), ("|", "or"), ("^", "xor"), ("?", "mux"),
]


def _count_operators(body: str) -> dict[str, int]:
    census: dict[str, int] = {}
    work = body
    for token, name in _OPERATORS:
        count = work.count(token)
        work = work.replace(token, " ")
        if name and count:
            census[name] = census.get(name, 0) + count
    return census


def _always_blocks(body: str) -> list[tuple[str, str]]:
    """Return (sensitivity, block_text) pairs; block text runs to the next
    always/assign/endmodule at a coarse level (good enough for censusing)."""
    matches = list(_ALWAYS_RE.finditer(body))
    ends = [m.start() for m in matches[1:]] + [len(body)]
    return [(m.group(1), body[m.end(): end]) for m, end in zip(matches, ends)]


def _reg_bits(body: str) -> int:
    total = 0
    for m in _REG_DECL_RE.finditer(body):
        rng, names_part = m.group(1), m.group(2)
        width = 1
        if rng:
            r = _RANGE_RE.search(rng)
            width = abs(int(r.group(1)) - int(r.group(2))) + 1
        # drop array dimensions and initializers, keep declared names
        names = [
            n.strip().split("[")[0].split("=")[0].strip()
            for n in names_part.split(",")
        ]
        total += width * sum(1 for n in names if n and n not in VERILOG_KEYWORDS)
    return total


def _instances(body: str) -> dict[str, list[str]]:
    """Map submodule name -> list of flattened connection strings per
    instance, in source order."""
    groups: dict[str, list[str]] = {}
    for m in _INSTANCE_RE.finditer(body):
        mod, inst = m.group(1), m.group(3)
        if mod in VERILOG_KEYWORDS or inst in VERILOG_KEYWORDS:
            continue
        # the connection list runs to the matching ')', or to the text's end
        depth, close = 1, len(body)
        for p in _PAREN_RE.finditer(body, m.end()):
            depth += 1 if p[0] == "(" else -1
            if not depth:
                close = p.start()
                break
        groups.setdefault(mod, []).append(body[m.end():close])
    return groups


def _chained(connections: list[str]) -> bool:
    """True when consecutive instances share at least one signal for a run
    of >= 4 instances (carry-out wired to the next carry-in)."""
    if len(connections) < 4:
        return False
    sets = [
        {t.replace(" ", "") for t in _CONN_IDENT_RE.findall(c)
         if t.split("[")[0] not in VERILOG_KEYWORDS}
        for c in connections
    ]
    run = best = 1
    for a, b in zip(sets, sets[1:]):
        run = run + 1 if a & b else 1
        best = max(best, run)
    return best >= 4


MAX_PIPELINE_STAGES = 8


def _pipeline_stages(always_bodies: list[str]) -> int:
    """Longest chain of clocked register-to-register transfers: the longest
    path, in edges, from a register read on a non-blocking right-hand side
    to the one assigned, once each strongly connected set of registers (a
    feedback loop) is one node. So statement order does not matter, and a
    lone loop such as `a <= b; b <= a` gets 0, like a counter. `fingerprint`
    caps the result at MAX_PIPELINE_STAGES and notes the cap in `warnings`."""
    edges: dict[str, set[str]] = {}  # register -> registers it reads
    for body in always_bodies:
        for m in _NONBLOCKING_RE.finditer(body):
            edges.setdefault(m.group(1), set()).update(_IDENT_RE.findall(m.group(2)))
    regs = edges.keys() - VERILOG_KEYWORDS
    for lhs, srcs in edges.items():
        srcs &= regs
        srcs.discard(lhs)

    # Tarjan's algorithm without recursion, as a register chain may be longer
    # than the recursion limit. A component closes after each one it reads.
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    depth: dict[str, int] = {}  # set when the register's component closes
    stack: list[str] = []
    for root in edges:
        work = [] if root in order else [(root, None, "")]
        while work:
            v, succ, child = work.pop()
            if succ is None:  # first visit
                order[v] = low[v] = len(order)
                stack.append(v)
                succ = iter(edges[v])
            elif child not in depth:  # back from a child in v's component
                low[v] = min(low[v], low[child])
            for w in succ:
                if w not in order:
                    work += [(v, succ, w), (w, None, "")]
                    break
                if w not in depth:  # on the stack: in v's component
                    low[v] = min(low[v], order[w])
            else:
                if low[v] == order[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    d = max((1 + depth[w] for x in component for w in edges[x] if w in depth),
                            default=0)
                    depth.update(dict.fromkeys(component, d))
    return max(depth.values(), default=0)


def fingerprint(verilog_text: str) -> DesignFingerprint:
    if not verilog_text or not verilog_text.strip():
        raise EmptySource("empty Verilog source")
    body = strip_comments(verilog_text)
    n_mod = len(re.findall(r"\bmodule\b", body))
    n_end = len(re.findall(r"\bendmodule\b", body))
    if n_mod == 0 or n_mod != n_end:
        raise UnbalancedModule(f"{n_mod} module vs {n_end} endmodule")

    warnings = []
    for construct in ("generate", "function", "task"):
        if re.search(rf"\b{construct}\b", body):
            warnings.append(f"unsupported construct skipped: {construct}")

    blocks = _always_blocks(body)
    clocked = [(s, b) for s, b in blocks if re.search(r"\b(pos|neg)edge\b", s)]

    # reset style: edge on a reset-named signal -> async; reset-named signal
    # tested inside a clocked block -> sync
    reset_style = "None"
    for sens, blk in clocked:
        edge_terms = re.findall(r"\b(?:pos|neg)edge\s+([A-Za-z_]\w*)", sens)
        if any(_RESET_NAME_RE.fullmatch(t) and not _CLK_NAME_RE.fullmatch(t) for t in edge_terms):
            reset_style = "Async"
            break
        if _RESET_NAME_RE.search(blk):
            reset_style = "Sync"

    is_combinational = not clocked
    register_bits = 0 if is_combinational else _reg_bits(body)

    # FSM: a case switching on a register that is also assigned from the arms
    fsm_detected = False
    fsm_reg = ""
    for m in _CASE_RE.finditer(body):
        subject = m.group(1)
        case_end = body.find("endcase", m.end())
        arm_text = body[m.end(): case_end if case_end >= 0 else len(body)]
        if re.search(rf"\b{re.escape(subject)}\b\s*(?:\[[^\]]*\])?\s*<?=", arm_text):
            fsm_detected = True
            fsm_reg = subject
            break

    groups = _instances(body)
    instance_groups = {k: len(v) for k, v in groups.items()}

    census = _count_operators(body)
    widths = (abs(int(a) - int(b)) + 1 for a, b in _RANGE_RE.findall(body))
    carry_chain = any(_chained(v) for v in groups.values()) or (
        is_combinational and "add" in census and max(widths, default=1) >= 8
    )

    stages = 0 if is_combinational else _pipeline_stages([b for _, b in clocked])
    if stages > MAX_PIPELINE_STAGES:
        warnings.append(f"pipeline_stages capped at {MAX_PIPELINE_STAGES}: "
                        f"the longest register chain has {stages}")

    return DesignFingerprint(
        is_combinational=is_combinational,
        clocked_always=len(clocked),
        comb_always=len(blocks) - len(clocked),
        reset_style=reset_style,
        fsm_detected=fsm_detected,
        fsm_state_register=fsm_reg,
        operator_census=census,
        register_bits=register_bits,
        instance_groups=instance_groups,
        carry_chain_detected=carry_chain,
        pipeline_stages=min(stages, MAX_PIPELINE_STAGES),
        warnings=warnings,
    )
