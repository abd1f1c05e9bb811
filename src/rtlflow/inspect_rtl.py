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


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments and string literals, preserving line
    structure so fingerprints are comment/whitespace immune."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                break
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""')
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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
    blocks = []
    matches = list(_ALWAYS_RE.finditer(body))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(body)
        blocks.append((m.group(1), body[m.end(): end]))
    return blocks


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
        # capture the connection list up to the closing ');'
        tail = body[m.end():]
        depth = 1
        j = 0
        while j < len(tail) and depth:
            if tail[j] == "(":
                depth += 1
            elif tail[j] == ")":
                depth -= 1
            j += 1
        groups.setdefault(mod, []).append(tail[: j - 1])
    return groups


def _chained(connections: list[str]) -> bool:
    """True when consecutive instances share at least one signal for a run
    of >= 4 instances (carry-out wired to the next carry-in)."""
    if len(connections) < 4:
        return False
    ident = re.compile(r"[A-Za-z_]\w*(?:\s*\[\s*\d+\s*\])?")
    sets = [
        {t.replace(" ", "") for t in ident.findall(c) if t.split("[")[0] not in VERILOG_KEYWORDS}
        for c in connections
    ]
    run = 1
    best = 1
    for a, b in zip(sets, sets[1:]):
        run = run + 1 if a & b else 1
        best = max(best, run)
    return best >= 4


def _pipeline_stages(always_bodies: list[str]) -> int:
    """Longest chain of clocked register-to-register transfers, capped at 8."""
    nb_re = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*<=\s*([^;]+);")
    edges: dict[str, set[str]] = {}
    regs: set[str] = set()
    for body in always_bodies:
        for m in nb_re.finditer(body):
            lhs, rhs = m.group(1), m.group(2)
            regs.add(lhs)
            srcs = {
                t for t in re.findall(r"[A-Za-z_]\w*", rhs)
                if t not in VERILOG_KEYWORDS
            }
            edges.setdefault(lhs, set()).update(srcs)
    reg_edges = {lhs: {s for s in srcs if s in regs and s != lhs} for lhs, srcs in edges.items()}

    depth_cache: dict[str, int] = {}

    def depth(node: str, seen: frozenset[str]) -> int:
        if node in depth_cache:
            return depth_cache[node]
        if node in seen or len(seen) > 8:
            return 0
        d = 0
        for src in reg_edges.get(node, ()):
            d = max(d, 1 + depth(src, seen | {node}))
        depth_cache[node] = d
        return d

    best = 0
    for node in reg_edges:
        best = max(best, depth(node, frozenset()))
    return min(best, 8)


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
    comb = [(s, b) for s, b in blocks if not re.search(r"\b(pos|neg)edge\b", s)]

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

    carry_chain = any(_chained(v) for v in groups.values())
    if not carry_chain and is_combinational:
        census_probe = _count_operators(body)
        max_width = max(
            (abs(int(a) - int(b)) + 1 for a, b in _RANGE_RE.findall(body)),
            default=1,
        )
        if census_probe.get("add", 0) >= 1 and max_width >= 8:
            carry_chain = True

    return DesignFingerprint(
        is_combinational=is_combinational,
        clocked_always=len(clocked),
        comb_always=len(comb),
        reset_style=reset_style,
        fsm_detected=fsm_detected,
        fsm_state_register=fsm_reg,
        operator_census=_count_operators(body),
        register_bits=register_bits,
        instance_groups=instance_groups,
        carry_chain_detected=carry_chain,
        pipeline_stages=0 if is_combinational else _pipeline_stages([b for _, b in clocked]),
        warnings=warnings,
    )
