"""Unit tests for the QUEL lexer."""

import pytest

from repro.core.errors import QuelLexError
from repro.quel.lexer import tokenize
from repro.quel.tokens import TokenType


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text) if t.type is not TokenType.END]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("RANGE of e IS emp")[:4] == [
            TokenType.RANGE, TokenType.OF, TokenType.IDENTIFIER, TokenType.IS
        ]

    def test_identifier_with_hash(self):
        tokens = tokenize("e.TEL#")
        assert tokens[0].value == "e"
        assert tokens[1].type is TokenType.DOT
        assert tokens[2].value == "TEL#"

    def test_numbers(self):
        tokens = tokenize("2634000 3.5")
        assert tokens[0].value == 2634000 and isinstance(tokens[0].value, int)
        assert tokens[1].value == 3.5 and isinstance(tokens[1].value, float)

    def test_strings_double_and_single_quoted(self):
        assert values('"F" \'M\'') == ["F", "M"]

    def test_string_escape(self):
        assert values(r'"a\"b"') == ['a"b']

    def test_unterminated_string(self):
        with pytest.raises(QuelLexError):
            tokenize('"oops')

    def test_end_token_always_present(self):
        assert tokenize("")[-1].type is TokenType.END
        assert tokenize("retrieve")[-1].type is TokenType.END


class TestNegativeNumbers:
    @pytest.mark.parametrize("text, expected", [
        ("-1", [-1]),
        ("-0.5", [-0.5]),
        ("-.5", [-0.5]),
        ("-0", [0]),
        ("(A = -1, B = 2)", ["(", "A", "=", -1, ",", "B", "=", 2, ")"]),
    ])
    def test_minus_before_a_digit_is_a_negative_literal(self, text, expected):
        assert values(text) == expected

    def test_negative_literal_types(self):
        tokens = tokenize("-7 -7.25")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == -7 and isinstance(tokens[0].value, int)
        assert tokens[1].value == -7.25 and isinstance(tokens[1].value, float)

    def test_negative_literal_in_a_comparison(self):
        assert kinds("t.A > -5")[3:5] == [TokenType.GREATER, TokenType.NUMBER]
        assert values("t.A > -5")[-1] == -5

    def test_double_dash_is_still_a_comment(self):
        assert values("1 --2") == [1]
        assert values("1 -- -2\n3") == [1, 3]

    def test_detached_minus_rejected(self):
        with pytest.raises(QuelLexError):
            tokenize("A = - 1")
        with pytest.raises(QuelLexError):
            tokenize("A = -x")


class TestOperators:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("=", TokenType.EQUALS),
            ("==", TokenType.EQUALS),
            ("!=", TokenType.NOT_EQUALS),
            ("<>", TokenType.NOT_EQUALS),
            ("≠", TokenType.NOT_EQUALS),
            ("<", TokenType.LESS),
            ("<=", TokenType.LESS_EQUAL),
            (">", TokenType.GREATER),
            (">=", TokenType.GREATER_EQUAL),
        ],
    )
    def test_comparison_operators(self, text, expected):
        assert kinds(text)[0] is expected

    def test_symbolic_connectives(self):
        assert kinds("∧ ∨ ¬")[:3] == [TokenType.AND, TokenType.OR, TokenType.NOT]

    def test_word_connectives(self):
        assert kinds("and or not")[:3] == [TokenType.AND, TokenType.OR, TokenType.NOT]

    def test_bare_bang_rejected(self):
        with pytest.raises(QuelLexError):
            tokenize("!")

    def test_unexpected_character(self):
        with pytest.raises(QuelLexError) as excinfo:
            tokenize("retrieve $")
        assert "line 1" in str(excinfo.value)

    def test_unknown_comparator_character(self):
        with pytest.raises(QuelLexError):
            tokenize("e.A ~ 5")

    def test_bang_followed_by_non_equals(self):
        with pytest.raises(QuelLexError):
            tokenize("e.A !< 5")


class TestParameters:
    def test_parameter_token(self):
        tokens = tokenize("$rate")
        assert tokens[0].type is TokenType.PARAMETER
        assert tokens[0].value == "rate"

    def test_parameter_describe(self):
        assert tokenize("$k")[0].describe() == "PARAMETER($k)"

    def test_parameter_needs_a_name(self):
        with pytest.raises(QuelLexError):
            tokenize("$1")

    def test_parameter_name_with_underscore_and_digits(self):
        assert tokenize("$max_sal2")[0].value == "max_sal2"

    def test_dml_keywords(self):
        assert kinds("append to delete replace")[:4] == [
            TokenType.APPEND, TokenType.TO, TokenType.DELETE, TokenType.REPLACE
        ]


class TestCommentsAndPositions:
    def test_line_comment(self):
        assert values("retrieve -- a comment\n (e.A)") == ["retrieve", "(", "e", ".", "A", ")"]

    def test_block_comment(self):
        assert values("retrieve /* hi\nthere */ (e.A)")[0] == "retrieve"

    def test_unterminated_block_comment(self):
        with pytest.raises(QuelLexError):
            tokenize("/* never closed")

    def test_positions_track_lines(self):
        tokens = tokenize("range\nof")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_figure_one_lexes(self):
        from repro.datagen import FIGURE_1_QUERY
        token_types = kinds(FIGURE_1_QUERY)
        assert TokenType.RETRIEVE in token_types
        assert TokenType.WHERE in token_types
        assert token_types.count(TokenType.IDENTIFIER) >= 8
