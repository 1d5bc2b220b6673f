"""Parser, canonicalizer and clause-extraction behavior."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqlcalib import lexer
from sqlcalib.errors import ParseError
from sqlcalib.lexer import KEYWORD, NUMBER, Token, tokenize
from sqlcalib.parser import parse_sql
from sqlcalib.querygen import generate_candidate_records, generate_query
from sqlcalib.sqlast import (
    CLAUSE_KINDS,
    SelectStatement,
    SetOperation,
    canonicalize,
    decompose,
    extract_clauses,
)

from corpus import CAKE_COOKIE, CORPUS_ALL, PIPER_CUB


# characters that start each kind of token, whitespace (ASCII and not),
# characters that start none, and pieces that are rare in a random draw
LEXER_PIECES = [
    *"aZ_eE09.'\"`!|<>=+-*/%(),;", " ", "\t", "\n", "\x1c", "\xa0", "\u3000",
    "é", "²", "٣", "Ⅷ", "''", '""', "``", "e+1", ".5",
]


class TestTokenize:
    @pytest.mark.parametrize("number", ["1e10", "2.5E+12", ".5e-07"])
    def test_number_with_a_multi_digit_exponent_is_one_token_as_written(self, number):
        assert tokenize(f"SELECT {number} FROM t")[1:3] == [
            Token(NUMBER, number, 7), Token(KEYWORD, "from", 8 + len(number))
        ]

    def test_keywords_operators_and_kinds_are_spelt_apart(self):
        # the parser keys a keyword or operator by its text and any other
        # token by its kind, so no spelling may be shared between the three
        punctuation = [lexer.LPAREN, lexer.RPAREN, lexer.COMMA, lexer.DOT, lexer.SEMI]
        kinds = {lexer.KEYWORD, lexer.IDENT, lexer.STRING, lexer.NUMBER, lexer.OP, lexer.EOF, *punctuation}
        ops = set(lexer._TWO_CHAR_OPS) | set(lexer._ONE_CHAR_OPS)
        assert not lexer.KEYWORDS & ops
        assert not lexer.KEYWORDS & kinds
        assert not ops & kinds
        assert [(t.kind, t.text) for t in tokenize(" ".join(punctuation))[:-1]] == [
            (c, c) for c in punctuation
        ]

    @given(st.text(alphabet="ab '\"", max_size=24))
    @example("'it''s")  # unterminated after an escape
    def test_string_literals_scan_as_one_character_at_a_time(self, text):
        expected = reference_tokens(text)
        if isinstance(expected, int):
            with pytest.raises(ParseError, match="^unterminated string literal") as info:
                tokenize(text)
            assert info.value.offset == expected
        else:
            assert tokenize(text) == expected

    @given(st.lists(st.sampled_from(LEXER_PIECES), max_size=16).map("".join))
    @example("SELECT t.a, .5e-3, 1.e5, 2E+1x FROM `T``x` WHERE s = 'it''s' || \"q\"\"\" ;")
    @example("x = 1.5 AND y <> 2 OR z != .7")
    @example("SELECT é FROM t")
    @example("x = 1² + ² + a²")
    @example("x = ٣ + 1.٣ + a٣")
    @example("x = Ⅷ")
    @example("a\x1c\xa0\u3000b ")
    @example("'a''")
    @example("!x || 1")
    @example("| x")
    @example("`x")
    def test_tokenize_reads_every_text_as_the_scanner_does(self, text):
        # _scan reads one character at a time and is the reference
        assert lexed(tokenize, text) == lexed(lexer._scan, text)

    def test_generated_and_corpus_texts_never_fall_back_to_the_scanner(self, monkeypatch):
        def no_scan(text):
            raise AssertionError(f"fell back to _scan on {text!r}")

        monkeypatch.setattr(lexer, "_scan", no_scan)
        texts = [c["sql"] for r in generate_candidate_records(200, 0) for c in r["candidates"]]
        texts += [text for text in CORPUS_ALL if text.isascii()]
        for text in texts:
            assert tokenize(text)[-1] == Token(lexer.EOF, "", len(text))


def lexed(lex, text):
    """The tokens ``lex`` reads from ``text``, or the message and offset of
    the ParseError it raises."""
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc), exc.offset


def reference_tokens(text):
    """The (kind, text, offset) triples of ``text``, made of a, b, spaces and
    quotes, with each literal read one character at a time; or the offset of
    a literal left unterminated."""
    tokens, i = [], 0
    while i < len(text):
        c, start = text[i], i
        if c == " ":
            i += 1
        elif c in "ab":
            while i < len(text) and text[i] in "ab":
                i += 1
            tokens.append((lexer.IDENT, text[start:i], start))
        else:
            value, i = "", i + 1
            while True:
                if i == len(text):
                    return start
                if text[i] == c:
                    if text[i + 1 : i + 2] != c:
                        break
                    i += 1  # a doubled quote stands for one
                value += text[i]
                i += 1
            tokens.append((lexer.STRING, value, start))
            i += 1
    return tokens + [(lexer.EOF, "", len(text))]


class TestParse:
    def test_minimal_statement(self):
        tree = parse_sql("SELECT a FROM b;")
        assert isinstance(tree, SelectStatement)
        assert canonicalize(tree) == "select a from b"

    def test_set_operation_splits_into_two_leaves(self):
        tree = parse_sql("SELECT a FROM b WHERE c UNION SELECT d FROM e")
        assert isinstance(tree, SetOperation)
        assert tree.op == "union"
        assert isinstance(tree.left, SelectStatement)
        assert isinstance(tree.right, SelectStatement)

    def test_union_all_is_distinct_from_union(self):
        assert parse_sql("SELECT a FROM b UNION ALL SELECT c FROM d").op == "union all"
        assert parse_sql("SELECT a FROM b UNION SELECT c FROM d").op == "union"

    def test_chained_set_ops_left_associative(self):
        tree = parse_sql("SELECT a FROM b UNION SELECT c FROM d EXCEPT SELECT e FROM f")
        assert tree.op == "except"
        assert isinstance(tree.left, SetOperation)
        assert tree.left.op == "union"
        assert isinstance(tree.right, SelectStatement)

    def test_malformed_keyword_fails_at_offset_zero(self):
        with pytest.raises(ParseError) as exc:
            parse_sql("SELEC a FROM b")
        assert exc.value.offset == 0

    def test_error_carries_offset_and_expectation(self):
        with pytest.raises(ParseError) as exc:
            parse_sql("SELECT a FROM b WHERE")
        assert "expected" in str(exc.value)
        assert exc.value.offset == len("SELECT a FROM b WHERE")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "SELECT FROM b",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM b WHERE x = ",
            "SELECT a FROM b GROUP x",
            "SELECT a FROM b LIMIT many",
            "SELECT a FROM b extra trailing",
            "INSERT INTO t VALUES (1)",
            "SELECT a FROM b WHERE name = 'unterminated",
        ],
    )
    def test_out_of_subset_inputs_raise(self, bad):
        with pytest.raises(ParseError):
            parse_sql(bad)

    def test_determinism_same_bytes_same_tree(self):
        q = "SELECT a, count(*) FROM t WHERE x > 2 GROUP BY a"
        assert parse_sql(q) == parse_sql(q)

    def test_corpus_parses(self):
        for q in CORPUS_ALL:
            parse_sql(q)


class TestCanonicalize:
    def test_whitespace_and_case_normalization(self):
        assert canonicalize(parse_sql("SELECT  A FROM B")) == "select a from b"

    def test_string_literal_case_preserved(self):
        got = canonicalize(parse_sql("SELECT x FROM t WHERE name = 'Piper Cub'"))
        assert got == "select x from t where name = 'Piper Cub'"

    def test_double_quoted_literals_become_single_quoted(self):
        got = canonicalize(parse_sql('SELECT x FROM t WHERE food = "Cake"'))
        assert got == "select x from t where food = 'Cake'"

    def test_embedded_quote_round_trips(self):
        q = "SELECT x FROM t WHERE note = 'it''s fine'"
        assert canonicalize(parse_sql(q)) == "select x from t where note = 'it''s fine'"

    def test_names_spelt_like_token_kinds_are_plain_identifiers(self):
        q = "select ident, number, string, eof, keyword, op from t where ident = number"
        got = canonicalize(parse_sql(q))
        assert got == "select ident , number , string , eof , keyword , op from t where ident = number"

    def test_no_trailing_semicolon(self):
        assert not canonicalize(parse_sql("SELECT a FROM b;")).endswith(";")

    def test_corpus_idempotent(self):
        for q in CORPUS_ALL:
            once = canonicalize(parse_sql(q))
            twice = canonicalize(parse_sql(once))
            assert once == twice, q

    def test_generated_queries_idempotent(self):
        rng = random.Random(1234)
        for _ in range(1000):
            q = generate_query(rng)
            once = canonicalize(parse_sql(q))
            twice = canonicalize(parse_sql(once))
            assert once == twice, q


class TestDecompose:
    def test_leaf_case(self):
        tree = parse_sql("select a from b")
        root = decompose(tree)
        assert root.set_op is None
        assert root.subq1 is tree
        assert root.subq2 is None

    def test_node_case_projects_fields(self):
        tree = parse_sql("SELECT a FROM b UNION SELECT c FROM d")
        root = decompose(tree)
        assert root.set_op == "union"
        assert root.subq1 is tree.left
        assert root.subq2 is tree.right

    def test_only_root_is_split(self):
        tree = parse_sql(
            "SELECT a FROM b UNION SELECT c FROM d EXCEPT SELECT e FROM f"
        )
        root = decompose(tree)
        assert root.set_op == "except"
        assert isinstance(root.subq1, SetOperation)  # nested union stays intact
        assert root.subq1.op == "union"

    def test_total_on_generated_trees(self):
        rng = random.Random(99)
        for _ in range(200):
            tree = parse_sql(generate_query(rng))
            root = decompose(tree)
            if isinstance(tree, SelectStatement):
                assert root == (None, tree, None)
            else:
                assert root == (tree.op, tree.left, tree.right)


class TestExtractClauses:
    def test_minimal_statement_mostly_none(self):
        got = extract_clauses(parse_sql("select a from b"))
        assert got == {
            "distinct": None,
            "select": "a",
            "from": "b",
            "on": None,
            "where": None,
            "group_by": None,
            "having": None,
            "order_by": None,
            "limit": None,
        }

    def test_every_clause_populated(self):
        q = (
            "select distinct x, count(*) from t1 join t2 on t1.id = t2.id "
            "group by x having count(*) > 2 order by x limit 5"
        )
        got = extract_clauses(parse_sql(q))
        assert got == {
            "distinct": "distinct",
            "select": "x , count ( * )",
            "from": "t1 join t2",
            "on": "t1.id = t2.id",
            "where": None,
            "group_by": "x",
            "having": "count ( * ) > 2",
            "order_by": "x",
            "limit": "5",
        }

    def test_multi_join_on_conditions_concatenate_in_order(self):
        q = "select x from a join b on a.i = b.i join c on b.j = c.j"
        got = extract_clauses(parse_sql(q))
        assert got["from"] == "a join b join c"
        assert got["on"] == "a.i = b.i | b.j = c.j"

    def test_known_union_example_where_clause(self):
        left = decompose(parse_sql(PIPER_CUB)).subq1
        got = extract_clauses(left)
        assert got["where"] == "plane_name = 'Piper Cub' and age > 35"
        assert got["select"] == "pilot_name , age"
        assert got["from"] == "pilotskills"

    def test_known_intersect_example(self):
        tree = parse_sql(CAKE_COOKIE)
        assert tree.op == "intersect"
        left = extract_clauses(tree.left)
        assert left["from"] == "receipts as t1 join goods as t2"
        assert left["on"] == "t1.customerid = t2.id"
        assert left["where"] == "t2.food = 'Cake'"

    def test_select_and_from_always_present(self):
        rng = random.Random(5)
        for _ in range(300):
            tree = parse_sql(generate_query(rng))
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, SetOperation):
                    stack.extend([node.left, node.right])
                    continue
                got = extract_clauses(node)
                assert got["select"] is not None
                assert got["from"] is not None
                assert set(got) == set(CLAUSE_KINDS)

    def test_nested_subquery_stays_inside_clause_text(self):
        q = "SELECT name FROM users WHERE id IN (SELECT uid FROM orders)"
        got = extract_clauses(parse_sql(q))
        assert got["where"] == "id in ( select uid from orders )"
