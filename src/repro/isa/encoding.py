"""Binary encoding and decoding of RTP-32 instructions.

All instructions are 32 bits:

* R-format: ``opcode[31:26] rs[25:21] rt[20:16] rd[15:11] shamt[10:6] funct[5:0]``
* I-format: ``opcode[31:26] rs[25:21] rt[20:16] imm[15:0]``
* J-format: ``opcode[31:26] target[25:0]``
* F-format: R-format layout under opcode 0x11 (fs/ft/fd in rs/rt/rd slots).

Encoding and decoding round-trip exactly (property-tested), which lets the
program image store plain 32-bit words like a real binary.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import BY_ENCODING, Fmt, OpInfo

_MASK16 = 0xFFFF
_MASK26 = 0x3FFFFFF
# Bound once: reading a member off an Enum class costs a Python-level call.
_FMT_I = Fmt.I
_FMT_J = Fmt.J

#: ``opcode << 6 | funct`` -> OpInfo (None: not an instruction).  I- and
#: J-format records (funct None) fill all 64 funct values of their opcode;
#: R/F records own exactly one.
_DECODE: list[OpInfo | None] = [None] * (1 << 12)
for (_opcode, _funct), _rec in BY_ENCODING.items():
    if _funct is None:
        _DECODE[_opcode << 6:(_opcode + 1) << 6] = [_rec] * 64
for (_opcode, _funct), _rec in BY_ENCODING.items():
    if _funct is not None:
        _DECODE[_opcode << 6 | _funct] = _rec


def encode_fields(
    info: OpInfo,
    rd: int = 0,
    rs: int = 0,
    rt: int = 0,
    shamt: int = 0,
    imm: int = 0,
    target: int = 0,
) -> int:
    """Encode one instruction, given its opcode record and raw fields.

    Raises:
        EncodingError: if a field does not fit its encoding slot.
    """
    if not (0 <= rd < 32 and 0 <= rs < 32 and 0 <= rt < 32):
        for value, what in ((rd, "rd"), (rs, "rs"), (rt, "rt")):
            if not 0 <= value < 32:
                raise EncodingError(f"{what} out of range: {value}")
    fmt = info.fmt
    if fmt is _FMT_I:
        if not -(1 << 15) <= imm < (1 << 16):
            raise EncodingError(
                f"immediate out of range for {info.op.value}: {imm}"
            )
        return info.opcode << 26 | rs << 21 | rt << 16 | imm & _MASK16
    if fmt is _FMT_J:
        if not 0 <= target <= _MASK26:
            raise EncodingError(f"jump target out of range: {target:#x}")
        return info.opcode << 26 | target
    if not 0 <= shamt < 32:
        raise EncodingError(f"shamt out of range: {shamt}")
    return (
        info.opcode << 26 | rs << 21 | rt << 16 | rd << 11 | shamt << 6
        | info.funct
    )


def encode(inst: Instruction) -> int:
    """Encode ``inst`` into a 32-bit instruction word.

    Raises:
        EncodingError: if a field does not fit its encoding slot.
    """
    return encode_fields(
        inst.info, inst.rd, inst.rs, inst.rt, inst.shamt, inst.imm,
        inst.target,
    )


def decode(word: int, addr: int | None = None) -> Instruction:
    """Decode a 32-bit instruction word into an :class:`Instruction`.

    Args:
        word: The instruction word.
        addr: Optional address to attach (needed to resolve branch targets).

    Raises:
        EncodingError: if the word is not a valid RTP-32 instruction.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError(f"not a 32-bit word: {word:#x}")
    info = _DECODE[word >> 20 & 0xFC0 | word & 0x3F]
    if info is None:
        raise EncodingError(
            f"unknown instruction word {word:#010x} "
            f"(opcode {word >> 26:#04x}, funct {word & 0x3F:#04x})"
        )
    fmt = info.fmt
    if fmt is _FMT_I:
        imm = word & _MASK16
        if imm >= 1 << 15:  # sign-extend
            imm -= 1 << 16
        # Logical immediates are zero-extended by the semantics layer; the
        # decoded field keeps the signed view so encode/decode round-trips.
        return Instruction(
            info.op, 0, word >> 21 & 0x1F, word >> 16 & 0x1F, 0, imm, 0, addr
        )
    if fmt is _FMT_J:
        return Instruction(info.op, 0, 0, 0, 0, 0, word & _MASK26, addr)
    return Instruction(
        info.op, word >> 11 & 0x1F, word >> 21 & 0x1F, word >> 16 & 0x1F,
        word >> 6 & 0x1F, 0, 0, addr,
    )


def is_valid_word(word: int) -> bool:
    """True when ``word`` decodes to a valid instruction."""
    try:
        decode(word)
    except EncodingError:
        return False
    return True


__all__ = ["encode", "encode_fields", "decode", "is_valid_word"]
