"""Tokenizer for the supported SQL subset.

Produces a flat token stream; all words are classified as keyword or
identifier and lowercased here, so the parser only ever sees canonical
word spellings. String literal content is kept byte-exact.
"""

import re
from functools import partial
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
# (it misses "²"), so _scan still reads numbers with isdigit.
_skip_space = re.compile(r"\s*").match
_word_tail = re.compile(r"\w*").match

# One match per token of an ASCII text: its leading space, then the token as
# written, or else the rest of the text from a character that starts no
# token. Words and numbers are ASCII, so a text with a non-ASCII letter or
# digit outside quotes reaches the third group, as does every lexing error.
_OPERATOR = "|".join(map(re.escape, _TWO_CHAR_OPS)) + f"|[{re.escape(_ONE_CHAR_OPS + _PUNCTUATION)}]"
_TOKEN = re.compile(
    rf"""(\s*)(?:(
        [A-Za-z_][A-Za-z0-9_]*
      | (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
      | '[^']*(?:''[^']*)*'(?!') | "[^"]*(?:""[^"]*)*"(?!")
      | `[^`]*`
      | {_OPERATOR}
    )|(\S[\s\S]*))""",
    re.VERBOSE,
)
# a token's kind by its first character; None marks a word
_ASCII = "".join(map(chr, range(128)))
_KIND_OF_FIRST = {
    **dict.fromkeys(c for c in _ASCII if c.isalpha() or c == "_"),
    **dict.fromkeys(filter(str.isdigit, _ASCII), NUMBER),
    **dict.fromkeys("'\"", STRING),
    "`": IDENT,
    **dict.fromkeys(_ONE_CHAR_OPS + "".join(op[0] for op in _TWO_CHAR_OPS), OP),
    **{c: c for c in _PUNCTUATION},
}


class Token(NamedTuple):
    kind: str
    text: str  # canonical text; for STRING this is the unescaped value
    offset: int


# a Token built without the Python-level __new__ that NamedTuple generates
_new_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens, raising ParseError on anything unlexable."""
    # with no trailing space, each match of _TOKEN starts where the last one ended
    pieces = _TOKEN.findall(text.rstrip())
    if pieces and pieces[-1][2]:
        return _scan(text)
    kinds, values, offsets = [], [], []
    offset = 0
    for space, raw, _ in pieces:
        offset += len(space)
        kind = _KIND_OF_FIRST[raw[0]]
        if kind is None:
            value = raw.lower()
            kind = KEYWORD if value in KEYWORDS else IDENT
        elif kind is STRING:
            value = raw[1:-1].replace(raw[0] * 2, raw[0])
        elif kind is IDENT:  # quoted in backticks
            value = raw.lower()
        else:
            value = raw
            if kind == DOT and len(raw) > 1:  # a number such as ".5"
                kind = NUMBER
        kinds.append(kind)
        values.append(value)
        offsets.append(offset)
        offset += len(raw)
    tokens = list(map(_new_token, zip(kinds, values, offsets)))
    tokens.append(Token(EOF, "", len(text)))
    return tokens


def _scan(text: str) -> list[Token]:
    """Scan ``text`` one character at a time: the reader of any text that
    _TOKEN cannot read, and the reference that tokenize must equal."""
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
            # a doubled quote escapes one quote character
            end = text.find(c, i + 1)
            while 0 <= end < n - 1 and text[end + 1] == c:
                end = text.find(c, end + 2)
            if end < 0:
                raise ParseError("unterminated string literal", start)
            tokens.append(Token(STRING, text[i + 1 : end].replace(c * 2, c), start))
            i = end + 1
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


def quote_literal(value: str) -> str:
    """Render a string value in canonical single-quoted form."""
    return "'" + value.replace("'", "''") + "'"
