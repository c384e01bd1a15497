"""Unit tests for the SQL lexer."""

import pytest

from repro.errors import LexerError
from repro.sql.lexer import TokenType, tokenize


def token_texts(sql):
    return [token.text for token in tokenize(sql) if token.type is not TokenType.EOF]


def token_types(sql):
    return [token.type for token in tokenize(sql) if token.type is not TokenType.EOF]


class TestBasicTokens:
    def test_identifiers_and_keywords_are_idents(self):
        assert token_types("SELECT foo FROM bar") == [TokenType.IDENT] * 4

    def test_numbers_integer_and_decimal(self):
        tokens = tokenize("42 3.14 .5")
        assert [t.text for t in tokens[:3]] == ["42", "3.14", ".5"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:3])

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].text == "hello world"

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_double_quoted_scope_string(self):
        """A double-quoted token is an identifier; the parser takes it as
        the scope text of ``SET SCOPE``."""
        tokens = tokenize('SET SCOPE = "IN (1,2)"')
        assert tokens[3].type is TokenType.QUOTED_IDENT
        assert tokens[3].text == "IN (1,2)"

    def test_parameters(self):
        tokens = tokenize("$1 + $22")
        assert tokens[0].type is TokenType.PARAM
        assert tokens[0].text == "$1"
        assert tokens[2].text == "$22"

    def test_operators_two_char_before_one_char(self):
        assert token_texts("a <= b <> c || d") == ["a", "<=", "b", "<>", "c", "||", "d"]

    def test_punctuation(self):
        assert token_texts("f(a, b.c);") == ["f", "(", "a", ",", "b", ".", "c", ")", ";"]

    def test_at_sign_for_mt_annotations(self):
        assert "@" in token_texts("CONVERTIBLE @toFn @fromFn")

    def test_position_tracking(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert token_texts("SELECT 1 -- comment\n+ 2") == ["SELECT", "1", "+", "2"]

    def test_block_comment_skipped(self):
        assert token_texts("SELECT /* hi */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("SELECT /* oops")

    def test_whitespace_and_newlines(self):
        assert token_texts("SELECT\n\t 1") == ["SELECT", "1"]


class TestLexerErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'unterminated")

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT ¤")

    def test_eof_token_always_present(self):
        tokens = tokenize("")
        assert tokens[-1].type is TokenType.EOF

    def test_token_matches_helper_is_case_insensitive(self):
        token = tokenize("select")[0]
        assert token.matches("SELECT")
        assert token.matches("select")
        assert not token.matches("FROM")
