"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]   # drop eof


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_keywords_and_identifiers(self):
        toks = tokenize("int foo while whilefoo _bar")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("kw", "int"), ("ident", "foo"), ("kw", "while"),
            ("ident", "whilefoo"), ("ident", "_bar"),
        ]

    def test_integer_literals(self):
        toks = tokenize("0 42 0x1F 100u 7L")
        assert [t.value for t in toks[:-1]] == [0, 42, 31, 100, 7]
        assert all(t.kind == "int" for t in toks[:-1])

    def test_float_literals(self):
        toks = tokenize("1.5 2.0f 3e2 1.5e-3 .25")
        assert [t.kind for t in toks[:-1]] == ["float"] * 5
        assert toks[0].value == 1.5
        assert toks[1].value == 2.0
        assert toks[2].value == 300.0
        assert toks[3].value == 1.5e-3
        assert toks[4].value == 0.25

    def test_float_suffix_forces_float_kind(self):
        toks = tokenize("2f")
        assert toks[0].kind == "float"
        assert toks[0].value == 2.0

    def test_char_literals(self):
        toks = tokenize(r"'a' '\n' '\0' '\\'")
        assert [t.value for t in toks[:-1]] == [97, 10, 0, 92]

    def test_operators_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a<<b") == ["a", "<<", "b"]
        assert texts("a<b") == ["a", "<", "b"]
        assert texts("x+++y") == ["x", "++", "+", "y"]

    def test_all_compound_assignment_ops(self):
        ops = ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
        for op in ops:
            assert texts(f"a {op} b")[1] == op


class TestCommentsAndPositions:
    def test_line_comments_skipped(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_block_comments_skipped(self):
        assert texts("a /* x\ny\nz */ b") == ["a", "b"]

    def test_line_numbers_tracked(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3
        assert toks[2].col == 3

    def test_line_numbers_after_block_comment(self):
        toks = tokenize("/* one\ntwo */ x")
        assert toks[0].line == 2


class TestLexErrors:
    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_empty_char_literal(self):
        with pytest.raises(LexError):
            tokenize("''")

    def test_unterminated_char_literal(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_malformed_exponent(self):
        with pytest.raises(LexError):
            tokenize("1e")

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("ok\n  @")
        assert exc.value.line == 2
        assert exc.value.col == 3


def test_token_repr():
    from repro.lang.lexer import tokenize
    first = tokenize("int x;")[0]
    assert repr(first) == f"Token({first.kind}, 'int')"
