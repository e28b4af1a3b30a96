"""Golden front end: MiniC source -> tokens -> Program stays bit-identical.

Every digest, token list and error message below was recorded from the
previous (per-character lexer, per-line ``Instruction`` assembler)
implementation and is never re-recorded: a front-end rewrite must
reproduce each of them exactly.
"""

import hashlib

import pytest

from repro.errors import AssemblerError, CompileError, EncodingError
from repro.isa.assembler import assemble
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.minicc.lexer import tokenize
from repro.workloads.suite import (
    EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES, get_workload,
)

#: Every slot of a decoded instruction, in a fixed order.
INST_SLOTS = (
    "op", "rd", "rs", "rt", "shamt", "imm", "target", "addr",
    "sources", "dest", "info", "latency", "is_load", "is_store",
    "is_branch", "is_direct_jump", "is_indirect_jump", "is_control",
    "is_mem", "fu_class",
)
PROGRAM_FIELDS = (
    "words", "data", "symbols", "loop_bounds", "subtask_marks",
    "source_map", "frame_sizes", "entry", "text_base", "data_base",
)


def program_sha256(program):
    """sha256 over the program image, its side tables (in insertion
    order) and every slot of every decoded instruction."""
    digest = hashlib.sha256()
    for name in PROGRAM_FIELDS:
        digest.update(f"{name}={getattr(program, name)!r}\n".encode())
    for inst in program.instructions:
        digest.update(repr(tuple(getattr(inst, s) for s in INST_SLOTS)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def tokens_sha256(source):
    digest = hashlib.sha256()
    for token in tokenize(source):
        digest.update(repr((token.kind, token.value, token.line)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: (workload, scale) -> (program sha256, token-stream sha256).
GOLDEN = {
    ("adpcm", "tiny"): (
        "76785c5a8a1b0de22cf3a6fab624e8999aeddad96f03015b9273616fd25585cf",
        "6521de7a1aa4fc6c9d4c2c1345f2ec5c7f93494f42a38e1b38e75534916ab69e",
    ),
    ("cnt", "tiny"): (
        "7e4fdd637ec80fe17fbd04bc00e6f9a78c5decf0564f9714defd2c5e20b0edae",
        "5398e6175ac2607b797cb6f9632eab0761f261753682bc0e9d82b010a0146ac2",
    ),
    ("fft", "tiny"): (
        "a95bcb1ba5592f6576a04eeca7480305df56c299e8c4db69eb01df4eff33e90b",
        "551078746bcce806e2f1fd48c85bb145bfb00ccf5c7c7622b8346c59d36f3341",
    ),
    ("lms", "tiny"): (
        "7ab70af7268a0cb9bba98cfed258942bcd42f887e6e8301df15b21ef653012ab",
        "eb437ad509a00b4c15ead8111df67d981316d978644c44305a9b9ec8bd3bd0a5",
    ),
    ("mm", "tiny"): (
        "a574edb4dae8f895060130900d41e1698cf479fcf95e169b2a55fefe56b77202",
        "fe3790c582ea249336ce4c4fb990b39ff6b9431574dde88a583b0ce530b3af75",
    ),
    ("srt", "tiny"): (
        "7500bc60d2ac54e2d6af1aab2fbaebbd94e00c66c4a7d80893b45efbd7c2da8f",
        "93d1f4be4b8f187c679fd976ea07f366d1c581b9e18cce34603af2ee662b87df",
    ),
    ("crc", "tiny"): (
        "a920ef554ddaac8b152377a6f261f41db4faa76bbc7f7d8a7e658c86a5135f72",
        "085a31c91a205715482636378631ec43498d6ceb1770f03eb99af819fe06399c",
    ),
    ("fir", "tiny"): (
        "20a28e9ca146d74d740eacbef866ca937af84947a0638fdd5efcf86091fed4bf",
        "691e72fdc2e05ef46718b8e74ab228dd439a79c414b287bfd4292e3bf6c636c7",
    ),
    ("adpcm", "default"): (
        "b67dff04a5f1ca14cefbfbb84c44acde13a40635cfce5b052dcbd6b8c9f7c2c8",
        "c91812bfd49e347f220b654d88916c503e4b370ebde01d25762069a9cf7233a3",
    ),
    ("cnt", "default"): (
        "487cf4d0649c51a9267c032d6be245770a5724e63616212b6ffa4741bf8a8efd",
        "e816cf7b1dc4163259c701ec4fd4c1ab52ff321fd1092d47bb7570ec35f8d929",
    ),
    ("fft", "default"): (
        "cf0764ff26a3fd36c76ce17d4f9dfac3acf025c551e1ee63aea03a5c73df7672",
        "9f43074e91b2a5ab8c36f22b443bb9a2e41f8f4f8c456ad7de5c1813f89e9197",
    ),
    ("lms", "default"): (
        "9b4aa90a121f75517c88f739d9b0310689cde0e7d56252442108cdb441fa7781",
        "4b5d0d19c40cd064419be2e3d7bc8cefb0286cd4f1f56653127c6663bca95d97",
    ),
    ("mm", "default"): (
        "824494531e56f0d03946763c0d3fc4014f8745f9f12248c7fe917125a2ac4628",
        "847a14f7698b33ed3931a07ed652b04ebc7ace46f3ce3dec5d65dbcaf99834e5",
    ),
    ("srt", "default"): (
        "5b3ab156cb711cb2cd9045b369d660776debd28f1aa653ac3f307b3a82bc852d",
        "5498503643cf5abde20923093f9034136d17749016426284e05d1741b18dfbbd",
    ),
    ("crc", "default"): (
        "90a38e5c736fbcb296558bf7b28e872f4fdda9d6c2f08073e9204a7a1953f55c",
        "db23611ffdfac117e836a08916e8f015e1e9f45736b5f44eb37f5176fbc0fed4",
    ),
    ("fir", "default"): (
        "f923cd2c040079275e04cae72f0a22522d7cb6230bb1c196e1a7bc31c1104b73",
        "b6a9b60a438cdde9860dd80fc4699017819c203571f6c3a8606462337511d104",
    ),
}


def test_instruction_slots_are_all_hashed():
    assert set(INST_SLOTS) == set(Instruction.__slots__)


@pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
@pytest.mark.parametrize("scale", ["tiny", "default"])
def test_kernel_program_and_tokens_unchanged(name, scale):
    workload = get_workload(name, scale)
    program_digest, token_digest = GOLDEN[(name, scale)]
    assert tokens_sha256(workload.source) == token_digest
    assert program_sha256(workload.program) == program_digest


LEX_EDGE_SOURCE = (
    "0x1F 0XaB .5 7. 1e3 3.0e-2 1E+2 2e 0x1Fg 07 1.5.5 x.5\n"
    "/* spans\ntwo\nlines */ a\n/**/b/*x*/c\n"
    "<< >> <= >= == != && || + - * / % < > = ! & | ^ ~ ( ) { } [ ] ; ,\n"
    "<<= >>= a<=b !== &&& ||| -->\n"
    "_x9 int intx return\treturn_\r\n"
    "x // comment at EOF"
)
LEX_EDGE_TOKENS = [
    ("int_lit", 31, 1), ("int_lit", 171, 1), ("float_lit", 0.5, 1),
    ("float_lit", 7.0, 1), ("float_lit", 1000.0, 1), ("float_lit", 0.03, 1),
    ("float_lit", 100.0, 1), ("int_lit", 2, 1), ("ident", "e", 1),
    ("int_lit", 31, 1), ("ident", "g", 1), ("int_lit", 7, 1),
    ("float_lit", 1.5, 1), ("float_lit", 0.5, 1), ("ident", "x", 1),
    ("float_lit", 0.5, 1),
    # The block comment spans lines 2-4; its newlines still count.
    ("ident", "a", 4), ("ident", "b", 5), ("ident", "c", 5),
    ("op", "<<", 6), ("op", ">>", 6), ("op", "<=", 6), ("op", ">=", 6),
    ("op", "==", 6), ("op", "!=", 6), ("op", "&&", 6), ("op", "||", 6),
    ("op", "+", 6), ("op", "-", 6), ("op", "*", 6), ("op", "/", 6),
    ("op", "%", 6), ("op", "<", 6), ("op", ">", 6), ("op", "=", 6),
    ("op", "!", 6), ("op", "&", 6), ("op", "|", 6), ("op", "^", 6),
    ("op", "~", 6), ("op", "(", 6), ("op", ")", 6), ("op", "{", 6),
    ("op", "}", 6), ("op", "[", 6), ("op", "]", 6), ("op", ";", 6),
    ("op", ",", 6),
    # Maximal munch: ``<<=`` is ``<<`` then ``=``.
    ("op", "<<", 7), ("op", "=", 7), ("op", ">>", 7), ("op", "=", 7),
    ("ident", "a", 7), ("op", "<=", 7), ("ident", "b", 7), ("op", "!=", 7),
    ("op", "=", 7), ("op", "&&", 7), ("op", "&", 7), ("op", "||", 7),
    ("op", "|", 7), ("op", "-", 7), ("op", "-", 7), ("op", ">", 7),
    ("ident", "_x9", 8), ("keyword", "int", 8), ("ident", "intx", 8),
    ("keyword", "return", 8), ("ident", "return_", 8),
    ("ident", "x", 9), ("eof", None, 9),
]


def _triples(source):
    return [(t.kind, t.value, t.line) for t in tokenize(source)]


def test_lexer_edge_cases():
    tokens = _triples(LEX_EDGE_SOURCE)
    assert tokens == LEX_EDGE_TOKENS
    # float and int literals are told apart by type, not just value.
    assert [type(v) for _, v, _ in tokens[:8]] == [
        int, int, float, float, float, float, float, int,
    ]
    assert _triples("") == [("eof", None, 1)]
    assert _triples("a\n\n//x") == [("ident", "a", 1), ("eof", None, 3)]
    # Unicode letters and digits lex as identifier characters.
    assert _triples("\u00e9\u0663 x\u00b2") == [
        ("ident", "\u00e9\u0663", 1), ("ident", "x\u00b2", 1), ("eof", None, 1),
    ]


@pytest.mark.parametrize("source, line, message", [
    ("int x;\n/* never ends\n\n", 2, "line 2: unterminated block comment"),
    ("a /*/ b", 1, "line 1: unterminated block comment"),
    ("int x;\n\n\nint @y;", 4, "line 4: unexpected character '@'"),
    ("/* a\n b */ $", 2, "line 2: unexpected character '$'"),
    ("a ..5", 1, "line 1: unexpected character '.'"),
    ('x = "s";', 1, "line 1: unexpected character '\"'"),
    ("int x = 0x;\n", 1, "line 1: malformed hex literal"),
    ("\n\n0xg", 3, "line 3: malformed hex literal"),
    ("int x;\nint \u00bd;", 2, "line 2: unexpected character '\u00bd'"),
])
def test_lexer_error_messages(source, line, message):
    with pytest.raises(CompileError) as excinfo:
        tokenize(source)
    assert excinfo.value.line == line
    assert str(excinfo.value) == message


@pytest.mark.parametrize("source, line, message", [
    ("main: add t0, t1", 1, "add expects 3 operands (rd,rs,rt), got 2"),
    ("main: nop\nadd t0, t1\n", 2, "add expects 3 operands (rd,rs,rt), got 2"),
    ("main: nop\nli t0\n", 2, "li expects 2 operands, got 1"),
    ("main: halt t0", 1, "halt expects 0 operands (), got 1"),
    ("main: addi t0, t0, 70000", 1, "immediate out of range for addi: 70000"),
    ("main: addi t0, t0, -32769", 1, "immediate out of range for addi: -32769"),
    ("main: lui t0, 65536", 1, "immediate out of range for lui: 65536"),
    ("main: ori t0, t0, -40000", 1, "immediate out of range for ori: -40000"),
    ("main: lw t0, 70000(sp)", 1, "immediate out of range for lw: 70000"),
    ("main: beq t0, t1, 0x40000", 1, "immediate out of range for beq: -983041"),
    ("main: sll t0, t0, 32", 1, "shamt out of range: 32"),
    ("main: sll t0, t0, -1", 1, "expected non-negative integer, got -1"),
    ("main: add t0, t1, t9x", 1, "\"unknown integer register 't9x'\""),
    ("main: add q0, t1, t2", 1, "\"unknown integer register 'q0'\""),
    ("main: fadd f0, f1, t0", 1, "\"unknown FP register 't0'\""),
    ("main: flw f40, 0(sp)", 1, "\"unknown FP register 'f40'\""),
    ("main: lw t0, 4[sp]", 1, "bad memory operand '4[sp]'"),
    ("main: lw t0, x(sp)", 1, "bad integer 'x'"),
    ("main: addi t0, t0, foo", 1, "bad integer 'foo'"),
    ("main: beq t0, t1, nowhere", 1, "undefined symbol 'nowhere'"),
    ("main: addi t0, t0, %hi(nowhere)", 1, "undefined symbol 'nowhere'"),
    ("main: beq t0, t1, 2", 1, "misaligned branch target 2"),
    ("main: j 0x10000000", 1, "jump target 0x10000000 out of region"),
])
def test_assembler_error_messages(source, line, message):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert excinfo.value.line == line
    assert str(excinfo.value) == f"line {line}: {message}"


@pytest.mark.parametrize("op, fields, message", [
    (Op.ADD, {"rd": 32}, "rd out of range: 32"),
    (Op.ADD, {"rs": -1}, "rs out of range: -1"),
    (Op.ADDI, {"rt": 40}, "rt out of range: 40"),
    (Op.ADD, {"rd": 32, "shamt": 40}, "rd out of range: 32"),
    (Op.J, {"rd": 33}, "rd out of range: 33"),
    (Op.SLL, {"shamt": 32}, "shamt out of range: 32"),
    (Op.ADDI, {"imm": 1 << 16}, "immediate out of range for addi: 65536"),
    (Op.BEQ, {"imm": -(1 << 15) - 1}, "immediate out of range for beq: -32769"),
    (Op.J, {"target": 1 << 26}, "jump target out of range: 0x4000000"),
    (Op.JAL, {"target": -1}, "jump target out of range: -0x1"),
])
def test_encode_error_messages(op, fields, message):
    with pytest.raises(EncodingError) as excinfo:
        encode(Instruction(op, **fields))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("word, message", [
    (0xFFFFFFFF, "unknown instruction word 0xffffffff (opcode 0x3f, funct 0x3f)"),
    (0x4400003F, "unknown instruction word 0x4400003f (opcode 0x11, funct 0x3f)"),
    (0x04000000, "unknown instruction word 0x04000000 (opcode 0x01, funct 0x00)"),
    (1 << 32, "not a 32-bit word: 0x100000000"),
    (-1, "not a 32-bit word: -0x1"),
])
def test_decode_error_messages(word, message):
    with pytest.raises(EncodingError) as excinfo:
        decode(word)
    assert str(excinfo.value) == message
