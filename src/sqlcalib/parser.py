"""Recursive-descent parser for the supported SQL subset.

The grammar only validates: each production consumes tokens and returns
nothing. Every consumed token's canonical text goes onto one output list,
and a clause's text is the slice of that list it consumed, joined by
single spaces. Anything outside the subset raises ParseError, which
downstream stages treat as a syntactically bad candidate.

No tree records how operands group, so precedence is not modelled: one
production serves each syntactic shape (``a = b = c`` stays an error).
"""

from . import lexer
from .errors import ParseError
from .lexer import COMMA, DOT, EOF, IDENT, KEYWORD, LPAREN, NUMBER, OP, RPAREN, SEMI, STRING, Token
from .sqlast import SET_OPS, QueryTree, SelectStatement, SetOperation

_COMPARISONS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "||", "*", "/", "%")
_JOIN_STARTERS = ("join", "inner", "left", "right", "full", "cross")
# Productions test one key per token: a keyword's or operator's text, any
# other token's kind. No keyword or operator is spelt like a kind.
_SPELT = (KEYWORD, OP)
# Nesting levels (brackets, subqueries, NOT or sign prefixes, set-operation
# terms) a statement may open; keeps every tree walk clear of the recursion limit.
MAX_DEPTH = 50


def parse_sql(text: str) -> QueryTree:
    """Parse one SQL statement (optionally semicolon-terminated)."""
    if not text or not text.strip():
        raise ParseError("empty input, expected SELECT", 0)
    p = _Parser(lexer.tokenize(text))
    tree = p.parse_query()
    p.accept(SEMI)
    if p.key() != EOF:
        tok = p.tokens[p.pos]
        raise ParseError(f"trailing input {tok.text!r}, expected end of statement", tok.offset)
    return tree


class _Parser:
    def __init__(self, tokens: list[Token]):
        # pos never passes the first EOF and a production looks at most one
        # token ahead, so a second EOF keeps every look inside the list
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.keys = [text if kind in _SPELT else kind for kind, text, _ in tokens]
        self.pos = 0
        self.depth = 0
        self.out: list[str] = []  # the canonical text of each consumed token

    # -- cursor helpers -------------------------------------------------

    def key(self, ahead: int = 0) -> str:
        return self.keys[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
            self.out.append(tok.text)
        return tok

    def accept(self, *wanted: str) -> str | None:
        """Consume the next token if its key is in ``wanted``; its text, or None."""
        if self.keys[self.pos] in wanted:
            return self.advance().text
        return None

    def expect(self, wanted: str, what: str = "") -> str:
        """Consume the next token, whose key must be ``wanted``; its text."""
        if self.keys[self.pos] != wanted:
            self.fail(what or wanted.upper())
        return self.advance().text

    def fail(self, what: str):
        tok = self.tokens[self.pos]
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.offset)

    def nested(self, parse, *args):
        """``parse(*args)`` one nesting level deeper; past MAX_DEPTH is a ParseError."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.tokens[self.pos].offset)
        result = parse(*args)
        self.depth -= 1
        return result

    def text_of(self, parse, *args) -> str:
        """``parse(*args)``, returning the text of the tokens it consumed."""
        mark = len(self.out)
        parse(*args)
        return " ".join(self.out[mark:])

    # -- statements -----------------------------------------------------

    def parse_query(self) -> QueryTree:
        entry = self.depth
        tree: QueryTree = self.parse_select()
        while op := self.accept(*SET_OPS):  # a keyword is one word: UNION ALL is two
            if op == "union" and self.accept("all"):
                op = "union all"
            self.depth += 1  # each term nests the left-deep tree one level further
            tree = SetOperation(op, tree, self.nested(self.parse_select))
        self.depth = entry
        return tree

    def parse_select(self) -> SelectStatement:
        self.expect("select")
        where = group_by = having = order_by = limit = None
        distinct = self.accept("distinct")
        select = self.text_of(self.comma_list, self.parse_select_item)
        self.expect("from")
        tables, on, from_body = self.parse_from()
        if self.accept("where"):
            where = self.text_of(self.parse_expr)
        if self.accept("group"):
            self.expect("by")
            group_by = self.text_of(self.comma_list, self.parse_expr)
        if self.accept("having"):
            having = self.text_of(self.parse_expr)
        if self.accept("order"):
            self.expect("by")
            order_by = self.text_of(self.comma_list, self.parse_order_item)
        if self.accept("limit"):
            limit = self.expect(NUMBER, "number after LIMIT")
        clauses = (distinct, select, tables, on, where, group_by, having, order_by, limit)
        return SelectStatement(clauses, from_body)

    def comma_list(self, parse_item) -> None:
        parse_item()
        while self.accept(COMMA):
            parse_item()

    def parse_select_item(self) -> None:
        if self.accept("*"):
            return
        self.parse_expr()
        self.parse_alias()

    def parse_alias(self) -> None:
        if self.accept("as"):
            self.expect(IDENT, "alias name")
        else:
            self.accept(IDENT)

    # -- FROM -----------------------------------------------------------

    def parse_from(self) -> tuple[str, str | None, str]:
        """The FROM clause as its tables text, its ON text (None without an
        ON) and its full text with each ON condition in place."""
        out = self.out
        start = segment = len(out)
        tables: list[str] = []  # the FROM pieces outside the ON segments
        ons = []
        self.parse_table_ref()
        while True:
            if self.accept(COMMA):
                self.parse_table_ref()
            elif self.key() in _JOIN_STARTERS:
                self.parse_join_connector()
                self.parse_table_ref()
                if self.key() == "on":
                    tables += out[segment:]
                    self.advance()
                    ons.append(self.text_of(self.parse_expr))
                    segment = len(out)
            else:
                break
        tables += out[segment:]
        return " ".join(tables), " | ".join(ons) if ons else None, " ".join(out[start:])

    def parse_join_connector(self) -> None:
        word = self.advance().text
        if word in ("inner", "cross"):
            self.expect("join")
        elif word in ("left", "right", "full"):
            self.accept("outer")
            self.expect("join")

    def parse_table_ref(self) -> None:
        if self.key() == LPAREN and self.key(1) == "select":
            self.parse_subquery()
        else:
            self.parse_name_chain("table name")
        self.parse_alias()

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> None:
        self.parse_not()
        while self.accept("and", "or"):
            self.parse_not()

    def parse_not(self) -> None:
        if self.accept("not"):
            self.nested(self.parse_not)
        else:
            self.parse_predicate()

    def parse_predicate(self) -> None:
        self.parse_arithmetic()
        key = self.keys[self.pos]
        if key in _COMPARISONS:
            self.advance()
            self.parse_arithmetic()
            return
        if key == "not" and self.keys[self.pos + 1] in ("in", "between", "like"):
            self.advance()
        if self.accept("is"):
            self.accept("not")
            self.expect("null")
        elif self.accept("between"):
            self.parse_arithmetic()
            self.expect("and")
            self.parse_arithmetic()
        elif self.accept("in"):
            self.parse_in_operand()
        elif self.accept("like"):
            self.parse_arithmetic()

    def parse_in_operand(self) -> None:
        if self.key() != LPAREN:
            self.fail("( after IN")
        if self.key(1) == "select":
            self.parse_subquery()
            return
        self.advance()
        self.nested(self.comma_list, self.parse_expr)
        self.expect(RPAREN)

    def parse_arithmetic(self) -> None:
        self.parse_unary()
        while self.keys[self.pos] in _ARITHMETIC:
            self.advance()
            self.parse_unary()

    def parse_unary(self) -> None:
        if self.keys[self.pos] in ("-", "+"):
            self.advance()
            self.nested(self.parse_unary)
        else:
            self.parse_primary()

    def parse_primary(self) -> None:
        key = self.keys[self.pos]
        if key == NUMBER or key == "null":
            self.advance()
        elif key == STRING:
            self.out.append(lexer.quote_literal(self.tokens[self.pos].text))
            self.pos += 1
        elif key == "exists":
            self.advance()
            if self.keys[self.pos] != LPAREN:
                self.fail("( after EXISTS")
            self.parse_subquery()
        elif key == LPAREN:
            if self.keys[self.pos + 1] == "select":
                self.parse_subquery()
                return
            self.advance()
            self.nested(self.parse_expr)
            self.expect(RPAREN)
        elif key == IDENT:
            last = self.parse_name_chain("column name")
            if self.keys[self.pos] == LPAREN and last != "*":
                self.parse_call()
        else:
            self.fail("expression")

    def parse_call(self) -> None:
        self.advance()  # (
        if self.accept(RPAREN):
            return
        if not self.accept("*"):
            self.accept("distinct")
            self.nested(self.comma_list, self.parse_expr)
        self.expect(RPAREN, ") to close call")

    def parse_order_item(self) -> None:
        self.parse_expr()
        self.accept("asc", "desc")

    def parse_name_chain(self, what: str) -> str:
        """Consume a dotted name as one output entry; return its last part."""
        last = self.expect(IDENT, what)
        if self.key() != DOT:
            return last
        mark = len(self.out) - 1
        while self.accept(DOT):
            if self.accept("*"):
                last = "*"
                break
            last = self.expect(IDENT, "name after '.'")
        self.out[mark:] = ["".join(self.out[mark:])]
        return last

    def parse_subquery(self) -> None:
        self.expect(LPAREN)
        self.nested(self.parse_query)
        self.expect(RPAREN, ") to close subquery")
