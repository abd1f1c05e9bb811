"""Token-level structural analysis of a Verilog module.

Produces the design facts that drive technique selection: combinational vs
sequential, always-block census, FSM presence, operator and register
counts, instance replication, carry chains and pipeline depth.
Heuristics over a defined Verilog subset, not a full IEEE-1364 parser.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field, asdict

from .errors import RtlflowError

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
    fsm_detected: bool
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
# a range bound: an integer, or a parameter name, plus or minus an integer
_BOUND = r"\s*(\d+|[A-Za-z_]\w*)\s*(?:([+-])\s*(\d+)\s*)?"
_RANGE_RE = re.compile(rf"\[{_BOUND}:{_BOUND}\]")
# a parameter or localparam declaration, to its `;` or its `#(` list's `)` (a default may
# hold one `(...)`), and an item of it that ends in a plain decimal default (not `2'd0`)
_PARAM_DECL_RE = re.compile(r"\b(?:parameter|localparam)\b((?:[^;()]|\([^;()]*\))*)")
_PARAM_ITEM_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*(\d+)\s*$")
# a `reg` declaration's names, with the blanks around them, to its `;`, a port list's `);` or
# the next port's direction, but never across another `reg`; its range crosses no `[` or `;`
_REG_DECL_RE = re.compile(r"\breg\b(?:\s+signed)?(?:\s*(\[[^\[\];]*\]))?((?:(?!\breg\b)[^;])+?)"
                          r"(?=;|\)\s*;|,\s*(?:input|output|inout)\b)")
_INSTANCE_RE = re.compile(
    r"^[^\S\n]*([A-Za-z_]\w*)(?:\s*(#\s*\([^;#]*?\)))?\s+([A-Za-z_]\w*)\s*\(", re.MULTILINE
)
_CASE_RE = re.compile(r"\bcase[xz]?\b\s*\(\s*([A-Za-z_]\w*)")
_ENDCASE_RE = re.compile(r"\bendcase\b")
_PAREN_RE = re.compile(r"[()]")
_CONN_IDENT_RE = re.compile(r"[A-Za-z_]\w*(?:\s*\[\s*\d+\s*\])?")
# an assignment's target, a name or an item of it, at a statement's start: a line start,
# or after `;`, `:`, `)`, `begin`, `end` or `else`; so the `<=` of a comparison inside an
# expression or a condition assigns nothing
_TARGET = r"(?:^[^\S\n]*|(?:[;:)]|\b(?:begin|end|else)\b)\s*)([A-Za-z_]\w*)\s*(?:\[[^\][;]*\]\s*)?"
# an assignment, `<=` or `=` but not the `==` of a comparison
_ASSIGN_RE = re.compile(rf"{_TARGET}(?:<=|=(?!=))", re.MULTILINE)
# a non-blocking assignment and its right-hand side; the `;` is left to start the next statement
_NONBLOCKING_RE = re.compile(rf"{_TARGET}<=([^;]+)(?=;)", re.MULTILINE)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_OPERATORS = [
    ("<<", "shl"), (">>", "shr"), ("==", "eq"), ("!=", "neq"),
    ("<=", None), (">=", "ge"),  # <= is ambiguous (nonblocking); not counted
    ("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "div"), ("%", "mod"),
    ("&", "and"), ("|", "or"), ("^", "xor"), ("?", "mux"),
]
# operator characters that are no operator: in `@(*)`, on a compiler-directive
# line (`timescale 1ns/1ps), in a based literal, whose `?` is a wildcard, and
# in a range or part-select (`[W-1:0]`, `[i*8 +: 8]`): a bracket holding a `:`
# and no `?`, `[` or `;`
_NOT_OPERATOR_RE = re.compile(
    r"@[\s(]*\*|^[ \t]*`.*|'[sS]?[bodhBODH]\s*[\w?]+|\[[^\[\]?:;]*:[^\[\]?;]*\]", re.MULTILINE)


def _count_operators(body: str) -> dict[str, int]:
    census: dict[str, int] = {}
    work = _NOT_OPERATOR_RE.sub(" ", body)
    for token, name in _OPERATORS:
        count = work.count(token)
        work = work.replace(token, " ")
        if name and count:
            census[name] = census.get(name, 0) + count
    return census


def _always_blocks(body: str) -> list[tuple[str, str]]:
    """Return (sensitivity, block_text) pairs; block text runs to the next
    always/assign/endmodule at a coarse level (good enough for censusing).
    The scan stops at the last `)`, where every header ends."""
    matches = list(_ALWAYS_RE.finditer(body, 0, body.rfind(")") + 1))
    ends = [m.start() for m in matches[1:]] + [len(body)]
    return [(m.group(1), body[m.end(): end]) for m, end in zip(matches, ends)]


def _width(m: re.Match, params: dict[str, int]) -> int:
    """The width of a `_RANGE_RE` match, its names read from `params`; 1
    when a bound does not resolve."""
    bounds = []
    for base, sign, offset in (m.group(1, 2, 3), m.group(4, 5, 6)):
        value = int(base) if base.isdecimal() else params.get(base)
        if value is None:
            return 1
        bounds.append(value + int(sign + offset) if sign else value)
    return abs(bounds[0] - bounds[1]) + 1


def _reg_bits(body: str, params: dict[str, int]) -> int:
    total = 0
    for m in _REG_DECL_RE.finditer(body):
        rng, names_part = m.group(1), m.group(2)
        r = _RANGE_RE.fullmatch(rng or "")
        width = _width(r, params) if r else 1
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
    close: dict[int, int] = {}  # each paired `(` -> its `)`
    opened: list[int] = []
    for p in _PAREN_RE.finditer(body):
        if p[0] == "(":
            opened.append(p.start())
        elif opened:
            close[opened.pop()] = p.start()
    found = [m for m in _INSTANCE_RE.finditer(body)
             if m[1] not in VERILOG_KEYWORDS and m[3] not in VERILOG_KEYWORDS]
    groups: dict[str, list[str]] = {}
    # the connection list runs to the matching ')', or to the next instance
    for m, end in zip(found, [m.start() for m in found[1:]] + [len(body)]):
        groups.setdefault(m[1], []).append(body[m.end():close.get(m.end() - 1, end)])
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
        for m in _NONBLOCKING_RE.finditer(body, 0, body.rfind(";") + 1):  # each ends at a `;`
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
        raise RtlflowError("empty Verilog source")
    body = strip_comments(verilog_text)
    n_mod = len(re.findall(r"\bmodule\b", body))
    n_end = len(re.findall(r"\bendmodule\b", body))
    if n_mod == 0 or n_mod != n_end:
        raise RtlflowError(f"{n_mod} module vs {n_end} endmodule")

    warnings = []
    for construct in ("generate", "function", "task"):
        if re.search(rf"\b{construct}\b", body):
            warnings.append(f"unsupported construct skipped: {construct}")

    blocks = _always_blocks(body)
    clocked = [(s, b) for s, b in blocks if re.search(r"\b(pos|neg)edge\b", s)]

    is_combinational = not clocked
    params = {m[1]: int(m[2]) for decl in _PARAM_DECL_RE.findall(body)
              for m in map(_PARAM_ITEM_RE.search, decl.split(",")) if m}
    register_bits = 0 if is_combinational else _reg_bits(body, params)

    # FSM: a case switching on a register that its arms, up to the `endcase`, assign
    endcases = [m.start() for m in _ENDCASE_RE.finditer(body)] + [len(body)]
    assigned: dict[str, list[int]] = {}
    for m in _ASSIGN_RE.finditer(body):
        assigned.setdefault(m[1], []).append(m.start(1))
    fsm_detected = False
    for m in _CASE_RE.finditer(body):
        sites = assigned.get(m[1], [])
        i = bisect_left(sites, m.end())
        if i < len(sites) and sites[i] < endcases[bisect_left(endcases, m.end())]:
            fsm_detected = True
            break

    groups = _instances(body)
    instance_groups = {k: len(v) for k, v in groups.items()}

    census = _count_operators(body)
    widths = (_width(m, params) for m in _RANGE_RE.finditer(body))
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
        fsm_detected=fsm_detected,
        operator_census=census,
        register_bits=register_bits,
        instance_groups=instance_groups,
        carry_chain_detected=carry_chain,
        pipeline_stages=min(stages, MAX_PIPELINE_STAGES),
        warnings=warnings,
    )
