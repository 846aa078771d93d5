"""Tokenizer for the mini-C surface language.

One compiled regular expression scans the source from left to right.  A
token is a plain tuple ``(kind, text, line, column)``: ``kind`` is
``'ident'``, ``'number'``, ``'keyword'``, ``'symbol'`` or ``'eof'`` (whose
text is empty), and ``line`` and ``column`` are 1-based.  A tab counts as one
column.  The parser builds a :class:`~repro.lang.ast.SourcePosition` only
where it keeps one in the AST or reports one in an error.
"""

from __future__ import annotations

import re

from .ast import SourcePosition

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "void",
    "int",
    "if",
    "else",
    "while",
    "for",
    "assume",
    "assert",
    "nondet",
    "skip",
    "true",
    "false",
    "return",
}

Token = tuple[str, str, int, int]

# Each alternative is tried in order at the current offset.  Two-character
# symbols come before the one-character ones they start with (maximal munch:
# ``x--`` is ``x`` ``--``).  A number is decimal digits, which is what
# ``int()`` reads.  A name starts with a letter or ``_`` and goes on with
# letters, digits and ``_``; ``word`` catches names that do not start with an
# ASCII letter, and :func:`tokenize` rejects those whose first character is
# no letter either (``²``).
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r]+)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<symbol>==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|[-+*!<>=(){}\[\];,])
    | (?P<number>\d+)
    | (?P<newline>\n)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<word>[^\W\d]\w*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(ValueError):
    """Raised on malformed input."""


def tokenize(source: str) -> list[Token]:
    """Turn source text into a token list ending with an EOF token."""
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    end = len(source)  # where the EOF token's column is counted
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        text = match.group()
        start = match.start()
        if kind == "name":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "comment":
            if text[1] == "*":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rfind("\n") + 1
            elif match.end() == end:
                end = start  # the column does not advance over a line comment
            continue
        elif kind == "word":
            kind = "ident" if text[0].isalpha() else "bad"
        if kind == "bad":
            position = SourcePosition(line, start - line_start + 1)
            if source.startswith("/*", start):
                raise LexError(f"unterminated comment at {position}")
            raise LexError(f"unexpected character {text[0]!r} at {position}")
        tokens.append((kind, text, line, start - line_start + 1))
    tokens.append(("eof", "", line, end - line_start + 1))
    return tokens
