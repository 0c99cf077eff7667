"""Lexer for MiniACC: one compiled master regex, matched at the current
position.

The regex has one alternative per kind of lexeme, tried in this order:

* ``skip`` — a run of whitespace (space, tab, CR, LF), ``//`` comments
  (to the end of the line) and ``/* ... */`` comments (which may span
  lines);
* ``open`` — a ``/*`` with no closing ``*/``: a :class:`LexError` at the
  ``/*``;
* ``pragma`` — ``#`` to the end of the line, continued onto the next line
  while a line ends with a backslash, as in the C preprocessor.  It becomes
  one :attr:`TokenKind.PRAGMA` token whose value is the text after ``#``
  with its lines joined by single spaces; :mod:`repro.lang.directives`
  lexes that text again through :func:`tokenize`;
* ``number`` — a decimal integer or float (a fraction, an exponent, or
  both) with an optional ``f``/``F`` or ``l``/``L`` suffix.  The suffix is
  recorded in the value as ``f`` or ``L``, and ``f`` makes the literal a
  float, so the parser can pick ``float`` vs ``double`` constants;
* ``word`` — an identifier or a keyword;
* ``op`` — an operator or punctuator.  The spellings are the values of
  :class:`TokenKind`, tried longest first, so ``+=`` wins over ``+``.

Any other character raises :class:`LexError`.  Lines and columns are
1-based; only skipped and pragma text can hold a newline, so they are the
only matches whose newlines are counted.
"""

from __future__ import annotations

import re

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

#: Operator and punctuator spellings: the kinds whose value has no letter.
_OPERATORS = {
    kind.value: kind
    for kind in TokenKind
    if not any(ch.isalpha() for ch in kind.value)
}

_TOKEN = re.compile(
    r"""
      (?P<skip> (?: [ \t\r\n]+ | //[^\n]* | /\*(?s:.*?)\*/ )+ )
    | (?P<open> /\* )
    | (?P<pragma> \# (?: [^\n]*\\[^\S\n]*\n )* [^\n]* )
    | (?P<number>
          (?: \d+ (?: \.(?: \d+ | (?![^\W\d_]) ) )? | \.\d+ )
          (?: [eE][+-]?\d+ )? [fFlL]? )
    | (?P<word> [^\W\d]\w* )
    | (?P<op> %s )
    """
    % "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True)),
    re.VERBOSE,
)


def _word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _number(text: str) -> tuple[TokenKind, str]:
    """The kind and value of a numeric literal."""
    suffix = text[-1]
    if suffix in "fF":
        return TokenKind.FLOAT_LIT, text[:-1] + "f"
    if suffix in "lL":
        text = text[:-1]
    kind = TokenKind.INT_LIT if text.isdecimal() else TokenKind.FLOAT_LIT
    return kind, (text + "L" if suffix in "lL" else text)


def _pragma_text(text: str) -> str:
    """The directive after ``#``, its continuation lines joined."""
    return " ".join(
        line.rstrip().removesuffix("\\").strip() for line in text[1:].split("\n")
    ).strip()


class Lexer:
    """Converts MiniACC source text into a list of :class:`Token`."""

    def __init__(self, source: str, filename: str = "<string>"):
        self._src = source
        self._filename = filename

    def tokens(self) -> list[Token]:
        """Lex the whole buffer, returning tokens ending with ``EOF``."""
        src, filename = self._src, self._filename
        match = _TOKEN.match
        out: list[Token] = []
        pos, line, line_start = 0, 1, 0
        while pos < len(src):
            m = match(src, pos)
            # ``\w`` also holds numerals that are neither letters nor
            # decimal digits (``²``, ``½``); a word cannot start with one.
            if m is None or m.lastgroup == "word" and not _word_start(src[pos]):
                loc = SourceLocation(line, pos - line_start + 1, filename)
                raise LexError(f"unexpected character {src[pos]!r}", loc)
            group, text = m.lastgroup, m.group()
            if group != "skip":
                loc = SourceLocation(line, pos - line_start + 1, filename)
                if group == "word":
                    kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                    out.append(Token(kind, text, loc))
                elif group == "op":
                    out.append(Token(_OPERATORS[text], text, loc))
                elif group == "number":
                    out.append(Token(*_number(text), loc))
                elif group == "pragma":
                    out.append(Token(TokenKind.PRAGMA, _pragma_text(text), loc))
                else:
                    raise LexError("unterminated block comment", loc)
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
            pos = m.end()
        out.append(Token(TokenKind.EOF, "", SourceLocation(line, pos - line_start + 1, filename)))
        return out


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokens()
