"""Recursive-descent parser for the supported SQL subset.

The parser validates structure and simultaneously builds the canonical
text of each clause. Anything outside the subset raises ParseError,
which downstream stages treat as a syntactically bad candidate.
"""

from . import lexer
from .errors import ParseError
from .lexer import EOF, IDENT, KEYWORD, LPAREN, NUMBER, OP, RPAREN, SEMI, STRING, Token
from .sqlast import QueryTree, SelectStatement, SetOperation, canonicalize

_COMPARISONS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
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
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- cursor helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == KEYWORD and tok.text in words

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != KEYWORD or tok.text != word:
            raise ParseError(f"expected {word.upper()}, found {tok.text!r}", tok.offset)
        return self.advance()

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.offset)
        return self.advance()

    def nested(self, parse):
        """``parse()`` one nesting level deeper; past MAX_DEPTH is a ParseError."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.peek().offset)
        out = parse()
        self.depth -= 1
        return out

    def fail(self, what: str):
        tok = self.peek()
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.offset)

    # -- statements -----------------------------------------------------

    def parse_query(self) -> QueryTree:
        entry = self.depth
        tree: QueryTree = self.parse_select()
        while self.at_keyword("union", "intersect", "except"):
            op = self.advance().text
            if op == "union" and self.at_keyword("all"):
                self.advance()
                op = "union all"
            self.depth += 1  # each term nests the left-deep tree one level further
            tree = SetOperation(op, tree, self.nested(self.parse_select))
        self.depth = entry
        return tree

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = where = group_by = having = order_by = limit = None
        if self.at_keyword("distinct"):
            distinct = self.advance().text
        select = " ".join(self.parse_select_list())
        self.expect_keyword("from")
        tables, on, from_body = self.parse_from()
        if self.at_keyword("where"):
            self.advance()
            where = " ".join(self.parse_expr())
        if self.at_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            group_by = " ".join(self.parse_expr_list())
        if self.at_keyword("having"):
            self.advance()
            having = " ".join(self.parse_expr())
        if self.at_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            order_by = " ".join(self.parse_order_list())
        if self.at_keyword("limit"):
            self.advance()
            limit = self.expect_kind(NUMBER, "number after LIMIT").text
        clauses = (distinct, select, tables, on, where, group_by, having, order_by, limit)
        return SelectStatement(clauses, from_body)

    def parse_select_list(self) -> list[str]:
        out = self.parse_select_item()
        while self.peek().kind == lexer.COMMA:
            self.advance()
            out.append(",")
            out.extend(self.parse_select_item())
        return out

    def parse_select_item(self) -> list[str]:
        if self.peek().kind == OP and self.peek().text == "*":
            self.advance()
            return ["*"]
        item = self.parse_expr()
        if self.at_keyword("as"):
            self.advance()
            item.append("as")
            item.append(self.expect_kind(IDENT, "alias name").text)
        elif self.peek().kind == IDENT:
            item.append(self.advance().text)
        return item

    # -- FROM -----------------------------------------------------------

    def parse_from(self) -> tuple[str, str | None, str]:
        """The FROM clause as its tables text, its ON text (None without an
        ON) and its full text with each ON condition in place."""
        tables = self.parse_table_ref()
        body = list(tables)
        ons = []
        while True:
            on = None
            if self.peek().kind == lexer.COMMA:
                self.advance()
                step = [","] + self.parse_table_ref()
            elif self.at_keyword(*_JOIN_STARTERS):
                step = self.parse_join_connector() + self.parse_table_ref()
                if self.at_keyword("on"):
                    self.advance()
                    on = " ".join(self.parse_expr())
            else:
                break
            tables += step
            body += step
            if on is not None:
                ons.append(on)
                body += ("on", on)
        return " ".join(tables), " | ".join(ons) if ons else None, " ".join(body)

    def parse_join_connector(self) -> list[str]:
        words = [self.advance().text]
        if words[0] in ("inner", "cross"):
            self.expect_keyword("join")
            words.append("join")
        elif words[0] in ("left", "right", "full"):
            if self.at_keyword("outer"):
                self.advance()
                words.append("outer")
            self.expect_keyword("join")
            words.append("join")
        return words

    def parse_table_ref(self) -> list[str]:
        if self.peek().kind == LPAREN and self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
            out = self.parse_subquery_tokens()
        else:
            out = [self.parse_name_chain("table name")]
        if self.at_keyword("as"):
            self.advance()
            out.append("as")
            out.append(self.expect_kind(IDENT, "alias name").text)
        elif self.peek().kind == IDENT:
            out.append(self.advance().text)
        return out

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> list[str]:
        out = self.parse_and_chain()
        while self.at_keyword("or"):
            self.advance()
            out.append("or")
            out.extend(self.parse_and_chain())
        return out

    def parse_and_chain(self) -> list[str]:
        out = self.parse_not()
        while self.at_keyword("and"):
            self.advance()
            out.append("and")
            out.extend(self.parse_not())
        return out

    def parse_not(self) -> list[str]:
        if self.at_keyword("not"):
            self.advance()
            return ["not"] + self.nested(self.parse_not)
        return self.parse_predicate()

    def parse_predicate(self) -> list[str]:
        out = self.parse_additive()
        tok = self.peek()
        if tok.kind == OP and tok.text in _COMPARISONS:
            self.advance()
            out.append(tok.text)
            out.extend(self.parse_additive())
            return out
        negated = False
        if self.at_keyword("not") and self.peek(1).kind == KEYWORD and self.peek(1).text in ("in", "between", "like"):
            self.advance()
            out.append("not")
            negated = True
        if self.at_keyword("is"):
            if negated:
                self.fail("IN, BETWEEN or LIKE after NOT")
            self.advance()
            out.append("is")
            if self.at_keyword("not"):
                self.advance()
                out.append("not")
            self.expect_keyword("null")
            out.append("null")
        elif self.at_keyword("between"):
            self.advance()
            out.append("between")
            out.extend(self.parse_additive())
            self.expect_keyword("and")
            out.append("and")
            out.extend(self.parse_additive())
        elif self.at_keyword("in"):
            self.advance()
            out.append("in")
            out.extend(self.parse_in_operand())
        elif self.at_keyword("like"):
            self.advance()
            out.append("like")
            out.extend(self.parse_additive())
        elif negated:
            self.fail("IN, BETWEEN or LIKE after NOT")
        return out

    def parse_in_operand(self) -> list[str]:
        if self.peek().kind != LPAREN:
            self.fail("( after IN")
        if self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
            return self.parse_subquery_tokens()
        self.advance()
        out = ["("] + self.nested(self.parse_expr_list)
        self.expect_kind(RPAREN, ")")
        out.append(")")
        return out

    def parse_additive(self) -> list[str]:
        out = self.parse_multiplicative()
        while self.peek().kind == OP and self.peek().text in ("+", "-", "||"):
            out.append(self.advance().text)
            out.extend(self.parse_multiplicative())
        return out

    def parse_multiplicative(self) -> list[str]:
        out = self.parse_unary()
        while self.peek().kind == OP and self.peek().text in ("*", "/", "%"):
            out.append(self.advance().text)
            out.extend(self.parse_unary())
        return out

    def parse_unary(self) -> list[str]:
        if self.peek().kind == OP and self.peek().text in ("-", "+"):
            return [self.advance().text] + self.nested(self.parse_unary)
        return self.parse_primary()

    def parse_primary(self) -> list[str]:
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return [tok.text]
        if tok.kind == STRING:
            self.advance()
            return [lexer.quote_literal(tok.text)]
        if tok.kind == KEYWORD and tok.text == "null":
            self.advance()
            return ["null"]
        if tok.kind == KEYWORD and tok.text == "exists":
            self.advance()
            if self.peek().kind != LPAREN:
                self.fail("( after EXISTS")
            return ["exists"] + self.parse_subquery_tokens()
        if tok.kind == LPAREN:
            if self.peek(1).kind == KEYWORD and self.peek(1).text == "select":
                return self.parse_subquery_tokens()
            self.advance()
            out = ["("] + self.nested(self.parse_expr)
            self.expect_kind(RPAREN, ")")
            out.append(")")
            return out
        if tok.kind == IDENT:
            name = self.parse_name_chain("column name")
            if self.peek().kind == LPAREN and not name.endswith("*"):
                return self.parse_call(name)
            return [name]
        self.fail("expression")

    def parse_call(self, name: str) -> list[str]:
        self.advance()  # (
        out = [name, "("]
        if self.peek().kind == RPAREN:
            self.advance()
            out.append(")")
            return out
        if self.peek().kind == OP and self.peek().text == "*":
            self.advance()
            out.append("*")
        else:
            if self.at_keyword("distinct"):
                self.advance()
                out.append("distinct")
            out.extend(self.nested(self.parse_expr_list))
        self.expect_kind(RPAREN, ") to close call")
        out.append(")")
        return out

    def parse_expr_list(self) -> list[str]:
        out = self.parse_expr()
        while self.peek().kind == lexer.COMMA:
            self.advance()
            out.append(",")
            out.extend(self.parse_expr())
        return out

    def parse_order_list(self) -> list[str]:
        out = self.parse_order_item()
        while self.peek().kind == lexer.COMMA:
            self.advance()
            out.append(",")
            out.extend(self.parse_order_item())
        return out

    def parse_order_item(self) -> list[str]:
        out = self.parse_expr()
        if self.at_keyword("asc", "desc"):
            out.append(self.advance().text)
        return out

    def parse_name_chain(self, what: str) -> str:
        parts = [self.expect_kind(IDENT, what).text]
        while self.peek().kind == lexer.DOT:
            self.advance()
            nxt = self.peek()
            if nxt.kind == OP and nxt.text == "*":
                self.advance()
                parts.append("*")
                break
            parts.append(self.expect_kind(IDENT, "name after '.'").text)
        return ".".join(parts)

    def parse_subquery_tokens(self) -> list[str]:
        self.expect_kind(LPAREN, "(")
        tree = self.nested(self.parse_query)
        self.expect_kind(RPAREN, ") to close subquery")
        return ["(", canonicalize(tree), ")"]
