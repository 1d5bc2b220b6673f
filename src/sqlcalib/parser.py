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
from .lexer import EOF, IDENT, KEYWORD, LPAREN, NUMBER, OP, RPAREN, SEMI, STRING, Token
from .sqlast import SET_OPS, QueryTree, SelectStatement, SetOperation

_COMPARISONS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "||", "*", "/", "%")
_JOIN_STARTERS = ("join", "inner", "left", "right", "full", "cross")
# Nesting levels (brackets, subqueries, NOT or sign prefixes, set-operation
# terms) a statement may open; keeps every tree walk clear of the recursion limit.
MAX_DEPTH = 50


def parse_sql(text: str) -> QueryTree:
    """Parse one SQL statement (optionally semicolon-terminated)."""
    if not text or not text.strip():
        raise ParseError("empty input, expected SELECT", 0)
    p = _Parser(lexer.tokenize(text))
    tree = p.parse_query()
    if p.peek().kind == SEMI:
        p.advance()
    tok = p.peek()
    if tok.kind != EOF:
        raise ParseError(f"trailing input {tok.text!r}, expected end of statement", tok.offset)
    return tree


class _Parser:
    def __init__(self, tokens: list[Token]):
        # pos never passes the first EOF and peek looks at most one token
        # ahead, so a second EOF keeps every peek inside the list
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.out: list[str] = []  # the canonical text of each consumed token

    # -- cursor helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
            self.out.append(tok.text)
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == KEYWORD and tok.text in words

    def accept(self, *words: str) -> str | None:
        """Consume the next token if it is a keyword in ``words``; its text, or None."""
        tok = self.tokens[self.pos]
        if tok.kind == KEYWORD and tok.text in words:  # a keyword is never EOF
            self.pos += 1
            self.out.append(tok.text)
            return tok.text
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept(word):
            self.fail(word.upper())

    def expect_kind(self, kind: str, what: str) -> Token:
        if self.peek().kind != kind:
            self.fail(what)
        return self.advance()

    def fail(self, what: str):
        tok = self.peek()
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.offset)

    def nested(self, parse, *args):
        """``parse(*args)`` one nesting level deeper; past MAX_DEPTH is a ParseError."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.peek().offset)
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
        self.expect_keyword("select")
        where = group_by = having = order_by = limit = None
        distinct = self.accept("distinct")
        select = self.text_of(self.comma_list, self.parse_select_item)
        self.expect_keyword("from")
        tables, on, from_body = self.parse_from()
        if self.accept("where"):
            where = self.text_of(self.parse_expr)
        if self.accept("group"):
            self.expect_keyword("by")
            group_by = self.text_of(self.comma_list, self.parse_expr)
        if self.accept("having"):
            having = self.text_of(self.parse_expr)
        if self.accept("order"):
            self.expect_keyword("by")
            order_by = self.text_of(self.comma_list, self.parse_order_item)
        if self.accept("limit"):
            limit = self.expect_kind(NUMBER, "number after LIMIT").text
        clauses = (distinct, select, tables, on, where, group_by, having, order_by, limit)
        return SelectStatement(clauses, from_body)

    def comma_list(self, parse_item) -> None:
        parse_item()
        while self.peek().kind == lexer.COMMA:
            self.advance()
            parse_item()

    def parse_select_item(self) -> None:
        if self.peek().kind == OP and self.peek().text == "*":
            self.advance()
            return
        self.parse_expr()
        self.parse_alias()

    def parse_alias(self) -> None:
        if self.accept("as"):
            self.expect_kind(IDENT, "alias name")
        elif self.peek().kind == IDENT:
            self.advance()

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
            if self.peek().kind == lexer.COMMA:
                self.advance()
                self.parse_table_ref()
            elif self.at_keyword(*_JOIN_STARTERS):
                self.parse_join_connector()
                self.parse_table_ref()
                if self.at_keyword("on"):
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
            self.expect_keyword("join")
        elif word in ("left", "right", "full"):
            self.accept("outer")
            self.expect_keyword("join")

    def parse_table_ref(self) -> None:
        if self.peek().kind == LPAREN and self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
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
        tok = self.peek()
        if tok.kind == OP and tok.text in _COMPARISONS:
            self.advance()
            self.parse_arithmetic()
            return
        if self.at_keyword("not") and self.peek(1).kind == KEYWORD and self.peek(1).text in ("in", "between", "like"):
            self.advance()
        if self.accept("is"):
            self.accept("not")
            self.expect_keyword("null")
        elif self.accept("between"):
            self.parse_arithmetic()
            self.expect_keyword("and")
            self.parse_arithmetic()
        elif self.accept("in"):
            self.parse_in_operand()
        elif self.accept("like"):
            self.parse_arithmetic()

    def parse_in_operand(self) -> None:
        if self.peek().kind != LPAREN:
            self.fail("( after IN")
        if self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
            self.parse_subquery()
            return
        self.advance()
        self.nested(self.comma_list, self.parse_expr)
        self.expect_kind(RPAREN, ")")

    def parse_arithmetic(self) -> None:
        self.parse_unary()
        while self.peek().kind == OP and self.peek().text in _ARITHMETIC:
            self.advance()
            self.parse_unary()

    def parse_unary(self) -> None:
        if self.peek().kind == OP and self.peek().text in ("-", "+"):
            self.advance()
            self.nested(self.parse_unary)
        else:
            self.parse_primary()

    def parse_primary(self) -> None:
        tok = self.peek()
        if tok.kind == NUMBER or (tok.kind == KEYWORD and tok.text == "null"):
            self.advance()
        elif tok.kind == STRING:
            self.advance()
            self.out[-1] = lexer.quote_literal(tok.text)
        elif tok.kind == KEYWORD and tok.text == "exists":
            self.advance()
            if self.peek().kind != LPAREN:
                self.fail("( after EXISTS")
            self.parse_subquery()
        elif tok.kind == LPAREN:
            if self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
                self.parse_subquery()
                return
            self.advance()
            self.nested(self.parse_expr)
            self.expect_kind(RPAREN, ")")
        elif tok.kind == IDENT:
            last = self.parse_name_chain("column name")
            if self.peek().kind == LPAREN and last != "*":
                self.parse_call()
        else:
            self.fail("expression")

    def parse_call(self) -> None:
        self.advance()  # (
        if self.peek().kind == RPAREN:
            self.advance()
            return
        if self.peek().kind == OP and self.peek().text == "*":
            self.advance()
        else:
            self.accept("distinct")
            self.nested(self.comma_list, self.parse_expr)
        self.expect_kind(RPAREN, ") to close call")

    def parse_order_item(self) -> None:
        self.parse_expr()
        self.accept("asc", "desc")

    def parse_name_chain(self, what: str) -> str:
        """Consume a dotted name as one output entry; return its last part."""
        last = self.expect_kind(IDENT, what).text
        if self.peek().kind != lexer.DOT:
            return last
        mark = len(self.out) - 1
        while self.peek().kind == lexer.DOT:
            self.advance()
            nxt = self.peek()
            if nxt.kind == OP and nxt.text == "*":
                last = self.advance().text
                break
            last = self.expect_kind(IDENT, "name after '.'").text
        self.out[mark:] = ["".join(self.out[mark:])]
        return last

    def parse_subquery(self) -> None:
        self.expect_kind(LPAREN, "(")
        self.nested(self.parse_query)
        self.expect_kind(RPAREN, ") to close subquery")
