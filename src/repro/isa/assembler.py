"""Two-pass assembler for the mini-ISA.

Syntax (one instruction per line; ``#`` starts a comment)::

    entry:                          # label
        S2R R0, SR_CTAID.X
        S2R R1, SR_TID.X
        IMAD R2, R0, c[0x0][0x10], R1
        ISETP.GE P0, R2, c[0x0][0x0]
    @P0 EXIT
        SHL R3, R2, 0x2
        IADD R4, R3, c[0x0][0x4]
        LD R5, [R4]
        FADD R5, R5, 1.0            # float literal -> IEEE-754 bits
        ST [R4], R5
        EXIT

Operand forms: ``R7``/``RZ`` registers, ``P3``/``PT`` predicates (optionally
``!``-negated where a predicate *source* is accepted), ``0x1f``/``-12``
integer immediates, ``1.5``/``2e-3`` float literals, ``0f3f800000`` hex float
bits, ``c[0x0][0x8]`` constant-bank words, ``SR_TID.X`` special registers and
``[Rn+0x10]`` memory addresses.
"""

from __future__ import annotations

import re

from repro.errors import AssemblerError
from repro.isa.instruction import (
    PT,
    RZ,
    Instruction,
    Operand,
    OperandKind,
    special_reg_by_name,
)
from repro.isa.opcodes import MNEMONIC_TO_OPCODE, OPCODE_INFO, Opcode
from repro.utils.bitops import bitcast_f2u

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):$")
_GUARD_RE = re.compile(r"^@(!?)(P[0-6]|PT)$", re.IGNORECASE)
_REG_RE = re.compile(r"^(?:R(\d+)|RZ)$", re.IGNORECASE)
_PRED_RE = re.compile(r"^(!?)(?:P([0-6])|PT)$", re.IGNORECASE)
_CONST_RE = re.compile(r"^c\[0x0\]\[(0x[0-9a-f]+|\d+)\]$", re.IGNORECASE)
_MEM_RE = re.compile(
    r"^\[(R\d+|RZ)\s*(?:(\+|-)\s*(0x[0-9a-f]+|\d+))?\]$", re.IGNORECASE
)
_HEXFLOAT_RE = re.compile(r"^0f([0-9a-f]{8})$", re.IGNORECASE)
_INT_RE = re.compile(r"^[+-]?(0x[0-9a-f]+|\d+)$", re.IGNORECASE)
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)(e[+-]?\d+)?$", re.IGNORECASE)


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    if idx >= 0:
        line = line[:idx]
    return line.strip()


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_reg(tok: str) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AssemblerError(f"expected register, got {tok!r}")
    if m.group(1) is None:
        return RZ
    return int(m.group(1))


def _parse_pred(tok: str) -> tuple[int, bool]:
    m = _PRED_RE.match(tok)
    if not m:
        raise AssemblerError(f"expected predicate, got {tok!r}")
    neg = m.group(1) == "!"
    idx = PT if m.group(2) is None else int(m.group(2))
    return idx, neg


def _parse_operand(tok: str) -> Operand:
    """Parse a general source operand (reg / imm / const / special)."""
    if _REG_RE.match(tok):
        return Operand.reg(_parse_reg(tok))
    m = _CONST_RE.match(tok)
    if m:
        return Operand.const(_parse_int(m.group(1)))
    m = _HEXFLOAT_RE.match(tok)
    if m:
        return Operand.imm(int(m.group(1), 16))
    if tok.upper().startswith("SR_"):
        return Operand.special(special_reg_by_name(tok))
    if _INT_RE.match(tok):
        return Operand.imm(_parse_int(tok) & 0xFFFFFFFF)
    if _FLOAT_RE.match(tok) and ("." in tok or "e" in tok.lower()):
        return Operand.imm(bitcast_f2u(float(tok)))
    raise AssemblerError(f"cannot parse operand {tok!r}")


def _split_operands(text: str) -> list[str]:
    """Split an operand list on top-level commas (commas inside [] or c[][] stay)."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_mem(tok: str) -> tuple[Operand, int]:
    m = _MEM_RE.match(tok)
    if not m:
        raise AssemblerError(f"expected memory operand, got {tok!r}")
    base = Operand.reg(_parse_reg(m.group(1)))
    offset = 0
    if m.group(3) is not None:
        offset = _parse_int(m.group(3))
        if m.group(2) == "-":
            offset = -offset
    return base, offset


def _parse_mnemonic(tok: str) -> tuple[Opcode, str]:
    head, _, modifier = tok.partition(".")
    opcode = MNEMONIC_TO_OPCODE.get(head.upper())
    if opcode is None:
        raise AssemblerError(f"unknown opcode {head!r}")
    modifier = modifier.upper()
    info = OPCODE_INFO[opcode]
    if modifier:
        if info.modifiers and modifier not in info.modifiers:
            raise AssemblerError(
                f"{info.mnemonic} does not accept modifier .{modifier}"
            )
        if not info.modifiers:
            raise AssemblerError(f"{info.mnemonic} takes no modifier")
    elif info.requires_modifier:
        raise AssemblerError(
            f"{info.mnemonic} requires a modifier (one of {', '.join(info.modifiers)})"
        )
    return opcode, modifier


def _assemble_line(line: str, lineno: int) -> tuple[Instruction, str | None]:
    """Assemble one instruction line; returns (instruction, branch_label)."""
    guard_pred, guard_neg = PT, False
    tokens = line.split(None, 1)
    if tokens and _GUARD_RE.match(tokens[0]):
        m = _GUARD_RE.match(tokens[0])
        assert m is not None
        guard_neg = m.group(1) == "!"
        g = m.group(2).upper()
        guard_pred = PT if g == "PT" else int(g[1:])
        line = tokens[1] if len(tokens) > 1 else ""
        if not line:
            raise AssemblerError(f"line {lineno}: guard without instruction")
        tokens = line.split(None, 1)
    mnemonic = tokens[0]
    rest = tokens[1] if len(tokens) > 1 else ""
    opcode, modifier = _parse_mnemonic(mnemonic)
    ops = _split_operands(rest)
    info = OPCODE_INFO[opcode]
    base = dict(
        opcode=opcode,
        modifier=modifier,
        guard_pred=guard_pred,
        guard_neg=guard_neg,
    )
    branch_label: str | None = None

    try:
        if opcode == Opcode.BRA:
            if len(ops) != 1:
                raise AssemblerError("BRA takes exactly one target label")
            branch_label = ops[0]
            instr = Instruction(**base, label=branch_label)
        elif opcode in (Opcode.EXIT, Opcode.NOP, Opcode.BAR):
            if ops:
                raise AssemblerError(f"{info.mnemonic} takes no operands")
            instr = Instruction(**base)
        elif opcode in (Opcode.LD, Opcode.LDS, Opcode.LDT):
            if len(ops) != 2:
                raise AssemblerError(f"{info.mnemonic} needs: Rd, [Ra(+ofs)]")
            dst = _parse_reg(ops[0])
            addr, offset = _parse_mem(ops[1])
            instr = Instruction(**base, dst=dst, src_a=addr, mem_offset=offset)
        elif opcode in (Opcode.ST, Opcode.STS):
            if len(ops) != 2:
                raise AssemblerError(f"{info.mnemonic} needs: [Ra(+ofs)], Rb")
            addr, offset = _parse_mem(ops[0])
            data = _parse_operand(ops[1])
            if data.kind != OperandKind.REG:
                raise AssemblerError("store data must come from a register")
            instr = Instruction(**base, src_a=addr, src_b=data, mem_offset=offset)
        elif opcode == Opcode.VOTE:
            if len(ops) != 2:
                raise AssemblerError("VOTE needs: Pd, Ps")
            dst_pred, dneg = _parse_pred(ops[0])
            if dneg:
                raise AssemblerError("destination predicate cannot be negated")
            src_pred, sneg = _parse_pred(ops[1])
            instr = Instruction(
                **base, dst_pred=dst_pred, src_pred=src_pred, src_pred_neg=sneg
            )
        elif opcode == Opcode.PSETP:
            if len(ops) not in (2, 3):
                raise AssemblerError("PSETP needs: Pd, Pa(, Pb)")
            dst_pred, dneg = _parse_pred(ops[0])
            if dneg:
                raise AssemblerError("destination predicate cannot be negated")
            pa, pa_neg = _parse_pred(ops[1])
            pb, pb_neg = (None, False)
            if len(ops) == 3:
                pb, pb_neg = _parse_pred(ops[2])
            if modifier in ("MOV", "NOT") and pb is not None:
                raise AssemblerError(f"PSETP.{modifier} takes a single source")
            if modifier in ("AND", "OR", "XOR") and pb is None:
                raise AssemblerError(f"PSETP.{modifier} needs two sources")
            instr = Instruction(
                **base,
                dst_pred=dst_pred,
                src_pred=pa,
                src_pred_neg=pa_neg,
                src_pred2=pb,
                src_pred2_neg=pb_neg,
            )
        elif info.writes_pred:  # ISETP / FSETP
            if len(ops) != 3:
                raise AssemblerError(f"{info.mnemonic} needs: Pd, Ra, src")
            dst_pred, dneg = _parse_pred(ops[0])
            if dneg:
                raise AssemblerError("destination predicate cannot be negated")
            src_a = _parse_operand(ops[1])
            src_b = _parse_operand(ops[2])
            instr = Instruction(**base, dst_pred=dst_pred, src_a=src_a, src_b=src_b)
        elif opcode == Opcode.SEL:
            if len(ops) != 4:
                raise AssemblerError("SEL needs: Rd, Ra, src, Ps")
            dst = _parse_reg(ops[0])
            src_a = _parse_operand(ops[1])
            src_b = _parse_operand(ops[2])
            src_pred, sneg = _parse_pred(ops[3])
            instr = Instruction(
                **base,
                dst=dst,
                src_a=src_a,
                src_b=src_b,
                src_pred=src_pred,
                src_pred_neg=sneg,
            )
        else:
            # Generic ALU form: Rd(, srcs...)
            if not info.has_dst:
                raise AssemblerError(f"unhandled opcode form {info.mnemonic}")
            expected = 1 + info.num_srcs
            if len(ops) != expected:
                raise AssemblerError(
                    f"{info.mnemonic} needs {expected} operands, got {len(ops)}"
                )
            dst = _parse_reg(ops[0])
            srcs = [_parse_operand(t) for t in ops[1:]]
            while len(srcs) < 3:
                srcs.append(Operand.none())
            instr = Instruction(
                **base, dst=dst, src_a=srcs[0], src_b=srcs[1], src_c=srcs[2]
            )
    except AssemblerError as exc:
        raise AssemblerError(f"line {lineno}: {exc}") from None
    return instr, branch_label


def assemble(source: str, name: str = "kernel"):
    """Assemble source text into a :class:`repro.isa.program.Program`."""
    from repro.isa.program import Program  # local import to avoid a cycle

    labels: dict[str, int] = {}
    pending: list[tuple[str, int, str | None]] = []  # (line, lineno, label?)

    index = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        m = _LABEL_RE.match(line)
        if m:
            label = m.group(1)
            if label in labels:
                raise AssemblerError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = index
            continue
        pending.append((line, lineno, None))
        index += 1

    instructions: list[Instruction] = []
    for i, (line, lineno, _) in enumerate(pending):
        instr, branch_label = _assemble_line(line, lineno)
        if branch_label is not None:
            if branch_label not in labels:
                raise AssemblerError(
                    f"line {lineno}: undefined label {branch_label!r}"
                )
            instr = instr.with_target(labels[branch_label])
        instructions.append(instr)

    if not instructions:
        raise AssemblerError("empty program")
    return Program(name=name, instructions=tuple(instructions), labels=dict(labels))
