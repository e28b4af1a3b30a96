"""Tokenizer for MiniC."""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import CompileError

KEYWORDS = {
    "int", "float", "void", "if", "else", "while", "for",
    "return", "break", "continue",
}

INTRINSICS = {"__subtask", "__taskend", "__loopbound", "__out"}

# Multi-character operators first so maximal munch works.
OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",",
)

# One master pattern: blanks, then one token or comment.  The numbered
# groups are the token kinds ``tokenize`` dispatches on (``lastindex``);
# blanks at the end of the source and ``//`` comments match no group.
_NEWLINE, _BLOCK_COMMENT, _NUMBER, _WORD, _OP = range(1, 6)
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"
    r"|//[^\n]*"
    r"|(/\*)"
    r"|(\d|\.\d)"  # a number; _lex_number reads the rest
    r"|([^\W\d]\w*)"
    r"|(" + "|".join(map(re.escape, OPERATORS)) + r")"
    r"|\Z)"
)


class Token(NamedTuple):
    """One lexical token.

    kind: "int_lit", "float_lit", "ident", "keyword", "op", or "eof".
    """

    kind: str
    value: object
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, line {self.line})"


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC source.

    Raises:
        CompileError: on unrecognized characters or malformed literals.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    i = 0
    line = 1
    n = len(source)
    while i < n:
        m = match(source, i)
        if m is None:
            ch = source[i:].lstrip(" \t\r")[0]
            raise CompileError(f"unexpected character {ch!r}", line)
        kind = m.lastindex
        if kind == _OP:
            append(Token("op", m.group(_OP), line))
        elif kind == _WORD:
            word = m.group(_WORD)
            if not (word[0].isalpha() or word[0] == "_"):  # e.g. "½"
                raise CompileError(f"unexpected character {word[0]!r}", line)
            append(Token("keyword" if word in KEYWORDS else "ident", word, line))
        elif kind == _NUMBER:
            i, token = _lex_number(source, m.start(_NUMBER), line)
            append(token)
            continue
        elif kind == _NEWLINE:
            line += 1
        elif kind == _BLOCK_COMMENT:
            start = m.end()
            end = source.find("*/", start)
            if end < 0:
                raise CompileError("unterminated block comment", line)
            line += source.count("\n", start, end)
            i = end + 2
            continue
        i = m.end()
    tokens.append(Token("eof", None, line))
    return tokens


def _lex_number(source: str, i: int, line: int) -> tuple[int, Token]:
    # isdecimal, not isdigit: int() and float() reject digits such as "²".
    n = len(source)
    if source.startswith(("0x", "0X"), i):
        j = i + 2
        while j < n and source[j] in "0123456789abcdefABCDEF":
            j += 1
        if j == i + 2:
            raise CompileError("malformed hex literal", line)
        return j, Token("int_lit", int(source[i:j], 16), line)
    j = i
    while j < n and source[j].isdecimal():
        j += 1
    is_float = False
    if j < n and source[j] == ".":
        is_float = True
        j += 1
        while j < n and source[j].isdecimal():
            j += 1
    if j < n and source[j] in "eE":
        k = j + 1
        if k < n and source[k] in "+-":
            k += 1
        if k < n and source[k].isdecimal():
            is_float = True
            j = k
            while j < n and source[j].isdecimal():
                j += 1
    text = source[i:j]
    if is_float:
        return j, Token("float_lit", float(text), line)
    return j, Token("int_lit", int(text), line)
