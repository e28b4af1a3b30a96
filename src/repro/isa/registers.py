"""Register definitions and ABI names for RTP-32.

Integer registers follow the MIPS o32 convention.  ``r0`` reads as zero and
ignores writes.  Floating-point registers are ``f0`` .. ``f31``; by
convention ``f0``/``f2`` hold FP return values, ``f12``-``f15`` FP arguments,
``f20``-``f31`` are callee-saved.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32

# ABI names in register order r0..r31.
INT_REG_NAMES = (
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
)

# Canonical indices used throughout the code base.
ZERO = 0
AT = 1
V0, V1 = 2, 3
A0, A1, A2, A3 = 4, 5, 6, 7
T0, T1, T2, T3, T4, T5, T6, T7 = 8, 9, 10, 11, 12, 13, 14, 15
S0, S1, S2, S3, S4, S5, S6, S7 = 16, 17, 18, 19, 20, 21, 22, 23
T8, T9 = 24, 25
K0, K1 = 26, 27
GP, SP, FP, RA = 28, 29, 30, 31

# Caller-saved (temporary) and callee-saved integer registers usable by the
# compiler's register allocator.  ``at``/``k0``/``k1`` are reserved for the
# assembler and runtime snippets.
CALLER_SAVED_INT = (T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)
CALLEE_SAVED_INT = (S0, S1, S2, S3, S4, S5, S6, S7)
ARG_INT = (A0, A1, A2, A3)

CALLER_SAVED_FP = tuple(range(4, 20))
CALLEE_SAVED_FP = tuple(range(20, 32))
ARG_FP = (12, 13, 14, 15)
FP_RETURN = 0

_INT_NAME_TO_NUM = {name: i for i, name in enumerate(INT_REG_NAMES)}
_INT_NAME_TO_NUM.update({f"r{i}": i for i in range(NUM_INT_REGS)})
_FP_NAME_TO_NUM = {f"f{i}": i for i in range(NUM_FP_REGS)}


def parse_int_reg(name: str) -> int:
    """Return the register number for an integer register name.

    Accepts ABI names (``sp``, ``t0``), numeric names (``r29``), and an
    optional leading ``$``.

    >>> parse_int_reg("$sp")
    29
    >>> parse_int_reg("r0")
    0
    """
    num = _INT_NAME_TO_NUM.get(name)  # the common, canonical spelling
    if num is not None:
        return num
    key = name.lstrip("$").lower()
    if key not in _INT_NAME_TO_NUM:
        raise KeyError(f"unknown integer register {name!r}")
    return _INT_NAME_TO_NUM[key]


def parse_fp_reg(name: str) -> int:
    """Return the register number for a floating-point register name.

    >>> parse_fp_reg("$f12")
    12
    """
    num = _FP_NAME_TO_NUM.get(name)  # the common, canonical spelling
    if num is not None:
        return num
    key = name.lstrip("$").lower()
    if key not in _FP_NAME_TO_NUM:
        raise KeyError(f"unknown FP register {name!r}")
    return _FP_NAME_TO_NUM[key]


def int_reg_name(num: int) -> str:
    """Return the canonical ABI name of integer register ``num``."""
    return INT_REG_NAMES[num]


def fp_reg_name(num: int) -> str:
    """Return the canonical name of FP register ``num``."""
    return f"f{num}"
