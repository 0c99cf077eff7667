"""Token definitions for the MiniACC lexer.

MiniACC is the small C-like kernel language this reproduction uses in place
of the paper's C/Fortran front ends.  The token set covers everything the
SPEC/NAS-style benchmark kernels need: numeric literals, identifiers, the
usual C operator zoo, and a dedicated ``PRAGMA`` token whose value is the
raw directive text (parsed separately by :mod:`repro.lang.directives`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`repro.lang.lexer.Lexer`."""

    IDENT = "ident"
    INT_LIT = "int"
    FLOAT_LIT = "float"
    KEYWORD = "keyword"
    PRAGMA = "pragma"

    # Punctuation / operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    COLON = ":"
    QUESTION = "?"

    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"

    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND_AND = "&&"
    OR_OR = "||"
    NOT = "!"
    AMP = "&"

    EOF = "<eof>"


#: Reserved words.  ``kernel`` introduces a device-visible function (our
#: stand-in for a translation unit handed to the OpenACC compiler).
KEYWORDS = frozenset(
    {
        "kernel",
        "void",
        "float",
        "double",
        "int",
        "long",
        "const",
        "restrict",
        "for",
        "if",
        "else",
        "return",
    }
)

#: Binary operator precedence, loosest first; every level is
#: left-associative.  The parser climbs it, and directive size expressions
#: fold with the ``+ - * / %`` levels.
BINARY_PRECEDENCE: dict[TokenKind, int] = {
    TokenKind.OR_OR: 1,
    TokenKind.AND_AND: 2,
    TokenKind.EQ: 3,
    TokenKind.NE: 3,
    TokenKind.LT: 4,
    TokenKind.LE: 4,
    TokenKind.GT: 4,
    TokenKind.GE: 4,
    TokenKind.PLUS: 5,
    TokenKind.MINUS: 5,
    TokenKind.STAR: 6,
    TokenKind.SLASH: 6,
    TokenKind.PERCENT: 6,
}


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexeme with its source location.

    ``value`` holds the identifier/keyword spelling, the literal text for
    numbers, or the raw directive body for :attr:`TokenKind.PRAGMA`.
    """

    kind: TokenKind
    value: str
    loc: SourceLocation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.value!r}, {self.loc})"
