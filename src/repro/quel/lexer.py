"""The QUEL lexer: source text → token stream.

Handles the lexical oddities needed to accept the paper's queries as
written: identifiers containing ``#``, double- and single-quoted string
literals, the symbolic logical connectives ``∧``/``∨``/``¬`` (the journal
typesets Figure 1 with ``∧``/``∨``), integer and decimal numbers (a
``-`` directly before a digit, or before ``.digit``, makes the literal
negative), and the
comparison operators ``=``, ``!=``, ``<>``, ``≠``, ``<``, ``<=``, ``>``,
``>=``.  Comments run from ``--`` or ``/*...*/``.  ``$name`` lexes as a
parameter placeholder (prepared-statement binding site).
"""

from __future__ import annotations

from typing import Iterator, List

from ..core.errors import QuelLexError
from .tokens import KEYWORDS, Token, TokenType


_SINGLE_CHARACTER_TOKENS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
}


def _is_identifier_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_identifier_part(ch: str) -> bool:
    return ch.isalnum() or ch in ("_", "#")


class Lexer:
    """A hand-written scanner over QUEL source text."""

    def __init__(self, text: str):
        self.text = text
        self.position = 0
        self.line = 1
        self.column = 1

    # -- character-level helpers ----------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self) -> str:
        ch = self.text[self.position]
        self.position += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _error(self, message: str) -> QuelLexError:
        return QuelLexError(message, self.position, self.line, self.column)

    # -- token production -----------------------------------------------------
    def tokens(self) -> List[Token]:
        """Scan the whole input and return the token list (ending with END)."""
        result: List[Token] = []
        while self.position < len(self.text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
                continue
            if ch == "-" and self._peek(1) == "-":
                self._skip_line_comment()
                continue
            if ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
                continue
            result.append(self._next_token())
        result.append(Token(TokenType.END, None, self.line, self.column))
        return result

    def _skip_line_comment(self) -> None:
        while self.position < len(self.text) and self._peek() != "\n":
            self._advance()

    def _skip_block_comment(self) -> None:
        self._advance()  # '/'
        self._advance()  # '*'
        while self.position < len(self.text):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()
        raise self._error("unterminated block comment")

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()

        if ch in _SINGLE_CHARACTER_TOKENS and not (ch == "." and self._peek(1).isdigit()):
            self._advance()
            return Token(_SINGLE_CHARACTER_TOKENS[ch], ch, line, column)

        if ch in ("∧",):
            self._advance()
            return Token(TokenType.AND, ch, line, column)
        if ch in ("∨",):
            self._advance()
            return Token(TokenType.OR, ch, line, column)
        if ch in ("¬",):
            self._advance()
            return Token(TokenType.NOT, ch, line, column)

        if ch == "=":
            self._advance()
            if self._peek() == "=":
                self._advance()
            return Token(TokenType.EQUALS, "=", line, column)
        if ch == "≠":
            self._advance()
            return Token(TokenType.NOT_EQUALS, "!=", line, column)
        if ch == "!":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.NOT_EQUALS, "!=", line, column)
            raise self._error("unexpected character '!'")
        if ch == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.LESS_EQUAL, "<=", line, column)
            if self._peek() == ">":
                self._advance()
                return Token(TokenType.NOT_EQUALS, "!=", line, column)
            return Token(TokenType.LESS, "<", line, column)
        if ch == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.GREATER_EQUAL, ">=", line, column)
            return Token(TokenType.GREATER, ">", line, column)

        if ch == "$":
            self._advance()
            if not _is_identifier_start(self._peek()):
                raise self._error("expected a parameter name after '$'")
            name_token = self._identifier(line, column)
            return Token(TokenType.PARAMETER, str(name_token.value), line, column)

        if ch in ('"', "'"):
            return self._string(ch, line, column)

        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._number(line, column)
        if ch == "-" and (
            self._peek(1).isdigit()
            or (self._peek(1) == "." and self._peek(2).isdigit())
        ):
            self._advance()
            number = self._number(line, column)
            return number._replace(value=-number.value)

        if _is_identifier_start(ch):
            return self._identifier(line, column)

        raise self._error(f"unexpected character {ch!r}")

    def _string(self, quote: str, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self.position >= len(self.text):
                raise self._error("unterminated string literal")
            ch = self._advance()
            if ch == quote:
                break
            if ch == "\\" and self._peek() in (quote, "\\"):
                chars.append(self._advance())
                continue
            chars.append(ch)
        return Token(TokenType.STRING, "".join(chars), line, column)

    def _number(self, line: int, column: int) -> Token:
        chars: List[str] = []
        has_dot = False
        while self.position < len(self.text):
            ch = self._peek()
            if ch.isdigit():
                chars.append(self._advance())
            elif ch == "." and not has_dot and self._peek(1).isdigit():
                has_dot = True
                chars.append(self._advance())
            else:
                break
        literal = "".join(chars)
        value = float(literal) if has_dot else int(literal)
        return Token(TokenType.NUMBER, value, line, column)

    def _identifier(self, line: int, column: int) -> Token:
        chars: List[str] = []
        while self.position < len(self.text) and _is_identifier_part(self._peek()):
            chars.append(self._advance())
        word = "".join(chars)
        keyword = KEYWORDS.get(word.lower())
        if keyword is not None:
            return Token(keyword, word.lower(), line, column)
        return Token(TokenType.IDENTIFIER, word, line, column)


def tokenize(text: str) -> List[Token]:
    """Convenience wrapper: lex *text* into a token list."""
    return Lexer(text).tokens()
