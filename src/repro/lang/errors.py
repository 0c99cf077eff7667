"""Diagnostics for the MiniACC front end.

All front-end failures raise a subclass of :class:`MiniAccError` carrying a
:class:`SourceLocation` so callers (and tests) can point at the offending
token.  The compiler driver converts these into user-facing diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ReproError


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A position in a MiniACC source buffer (1-based line / column)."""

    line: int = 0
    column: int = 0
    filename: str = "<string>"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.line}:{self.column}"


#: ``str(MiniAccError)``: ``<filename>:<line>:<column>: <message>``.
_LOCATED = re.compile(r"(.+?):(\d+):(\d+): (.*)", re.DOTALL)


class MiniAccError(ReproError):
    """Base class for every error produced by the MiniACC front end.

    Part of the unified :class:`~repro.errors.ReproError` hierarchy; the
    serve protocol maps it onto the ``parse_error`` wire code.
    """

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc or SourceLocation()
        self.message = message
        super().__init__(f"{self.loc}: {message}")

    @classmethod
    def from_wire(cls, text: str) -> "MiniAccError":
        """Rebuild an error from its ``str()`` (a serve response's
        message), which already starts with the location: the location
        is parsed back off instead of prefixed again, so
        ``str(cls.from_wire(text)) == text``."""
        match = _LOCATED.match(text)
        if match is None:
            err = cls(text)
            err.args = (text,)  # no location to parse: keep the text as is
            return err
        filename, line, column, message = match.groups()
        return cls(message, SourceLocation(int(line), int(column), filename))


class LexError(MiniAccError):
    """An unrecognised character or malformed literal."""


class ParseError(MiniAccError):
    """A syntax error in declarations, statements or expressions."""


class DirectiveError(MiniAccError):
    """A malformed or misplaced ``#pragma acc`` directive."""


class SemanticError(MiniAccError):
    """A name/type error found while lowering the AST to IR."""
