"""Tokenizer for the supported SQL subset.

Produces a flat token stream; all words are classified as keyword or
identifier and lowercased here, so the parser only ever sees canonical
word spellings. String literal content is kept byte-exact.
"""

import re
from typing import NamedTuple

from .errors import ParseError

KEYWORDS = frozenset(
    """
    select distinct from where group by having order limit
    join inner left right full cross outer on as
    and or not in exists between like is null asc desc
    union all intersect except
    """.split()
)

# token kinds
KEYWORD = "keyword"
IDENT = "ident"
STRING = "string"
NUMBER = "number"
OP = "op"
LPAREN = "("
RPAREN = ")"
COMMA = ","
DOT = "."
SEMI = ";"
EOF = "eof"

# each punctuation kind is its own character
_PUNCTUATION = LPAREN + RPAREN + COMMA + DOT + SEMI
_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", "==", "||")
_ONE_CHAR_OPS = "=<>+-*/%"
# For str patterns \s matches exactly what str.isspace accepts and \w exactly
# what str.isalnum accepts, plus "_". \d is narrower than str.isdigit
# (it misses "²"), so numbers are still scanned with isdigit.
_skip_space = re.compile(r"\s*").match
_word_tail = re.compile(r"\w*").match


class Token(NamedTuple):
    kind: str
    text: str  # canonical text; for STRING this is the unescaped value
    offset: int


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens, raising ParseError on anything unlexable."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i = _skip_space(text, i + 1).end()
            continue
        start = i
        if c.isalpha() or c == "_":
            i = _word_tail(text, i + 1).end()
            word = text[start:i].lower()
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, start))
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            if c != "." and i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j + 1
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(Token(NUMBER, text[start:i], start))
        elif c in ("'", '"'):
            value, i = _scan_string(text, i, c)
            tokens.append(Token(STRING, value, start))
        elif c == "`":
            end = text.find("`", i + 1)
            if end < 0:
                raise ParseError("unterminated quoted identifier", start)
            tokens.append(Token(IDENT, f"`{text[i + 1:end].lower()}`", start))
            i = end + 1
        elif text[i : i + 2] in _TWO_CHAR_OPS:
            tokens.append(Token(OP, text[i : i + 2], start))
            i += 2
        elif c in _ONE_CHAR_OPS:
            tokens.append(Token(OP, c, start))
            i += 1
        elif c in _PUNCTUATION:
            tokens.append(Token(c, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", start)
    tokens.append(Token(EOF, "", n))
    return tokens


def _scan_string(text: str, i: int, quote: str) -> tuple[str, int]:
    """Scan a quoted literal starting at ``i``; doubled quotes escape."""
    n = len(text)
    parts: list[str] = []
    j = i + 1
    while True:
        if j >= n:
            raise ParseError("unterminated string literal", i)
        c = text[j]
        if c == quote:
            if j + 1 < n and text[j + 1] == quote:
                parts.append(quote)
                j += 2
                continue
            return "".join(parts), j + 1
        parts.append(c)
        j += 1


def quote_literal(value: str) -> str:
    """Render a string value in canonical single-quoted form."""
    return "'" + value.replace("'", "''") + "'"
