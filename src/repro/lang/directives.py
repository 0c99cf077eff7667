"""Parsing and representation of ``#pragma acc`` directives.

This module implements the OpenACC subset the paper relies on, plus the two
clauses the paper *proposes*:

* compute constructs: ``kernels`` and ``parallel`` (optionally combined with
  ``loop``), with data clauses (``copy``/``copyin``/``copyout``/``create``/
  ``present``), ``num_gangs``/``vector_length``;
* the ``loop`` construct with ``gang``/``worker``/``vector`` (each optionally
  sized), ``seq``, ``independent``, ``collapse(n)``, ``reduction(op:var)``
  and ``private(...)``;
* the proposed ``dim([d1][d2](A,B),...)`` clause (Section IV-A) declaring
  arrays that share identical dimensions — both the C ``[len]...`` and the
  Fortran ``(lb:len, ...)`` spellings are accepted;
* the proposed ``small(A,B,...)`` clause (Section IV-B) declaring arrays
  whose flattened offsets fit in a 32-bit integer.

The grammar is parsed from the raw text of a :attr:`TokenKind.PRAGMA` token
using the main lexer, so locations remain accurate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .errors import DirectiveError, SourceLocation
from .lexer import tokenize
from .tokens import BINARY_PRECEDENCE, Token, TokenKind

#: Reduction operators OpenACC defines that MiniACC supports.
REDUCTION_OPS = frozenset({"+", "*", "max", "min"})

#: Data-movement clause names we record (semantics handled by the runtime
#: model; for register optimization they only matter for read-only analysis).
DATA_CLAUSES = frozenset({"copy", "copyin", "copyout", "create", "present"})


@dataclass(frozen=True, slots=True)
class DimSpec:
    """One dimension inside a ``dim`` clause: optional lower bound + extent.

    ``lower``/``extent`` are either ``int`` literals or identifier strings
    naming kernel parameters; the IR builder resolves them against the
    symbol table.
    """

    extent: int | str
    lower: int | str | None = None


@dataclass(frozen=True, slots=True)
class DimGroup:
    """A group of arrays declared to share the same dimensions.

    ``dims`` may be empty, meaning the user gave only the array list
    (``dim((a, b, c))``); the compiler then takes dimension data from the
    first array's dope vector (Section IV-A).
    """

    arrays: tuple[str, ...]
    dims: tuple[DimSpec, ...] = ()


@dataclass(frozen=True, slots=True)
class Reduction:
    """A ``reduction(op:var)`` clause instance."""

    op: str
    var: str


@dataclass(slots=True)
class LoopDirective:
    """Parsed ``loop`` construct clauses.

    ``gang``/``worker``/``vector`` are ``None`` when absent, ``True`` when
    present without a size, or the size expression (int or identifier text).
    """

    gang: bool | int | str | None = None
    worker: bool | int | str | None = None
    vector: bool | int | str | None = None
    seq: bool = False
    independent: bool = False
    collapse: int = 1
    reductions: tuple[Reduction, ...] = ()
    private: tuple[str, ...] = ()
    loc: SourceLocation = field(default_factory=SourceLocation)

    @property
    def is_parallel(self) -> bool:
        """True when the loop's iterations are distributed across threads."""
        return not self.seq and (
            self.gang is not None
            or self.worker is not None
            or self.vector is not None
            or self.independent
        )


@dataclass(slots=True)
class ComputeDirective:
    """Parsed ``kernels`` or ``parallel`` construct clauses."""

    construct: str  # "kernels" | "parallel"
    data: dict[str, tuple[str, ...]] = field(default_factory=dict)
    num_gangs: int | str | None = None
    vector_length: int | str | None = None
    dim_groups: tuple[DimGroup, ...] = ()
    small: tuple[str, ...] = ()
    combined_loop: LoopDirective | None = None
    loc: SourceLocation = field(default_factory=SourceLocation)


AccDirective = ComputeDirective | LoopDirective


#: Binary operators a gang/vector size folds with, at their
#: :data:`BINARY_PRECEDENCE`.  C's ``/`` and ``%`` between integers are
#: integer operations; they floor here, like Python's ``//`` and ``%``.
_FOLD_OPS = {
    TokenKind.PLUS: operator.add,
    TokenKind.MINUS: operator.sub,
    TokenKind.STAR: operator.mul,
    TokenKind.SLASH: operator.floordiv,
    TokenKind.PERCENT: operator.mod,
}


def _fold_int(tokens: list[Token]) -> int | None:
    """The value of a size expression built from decimal integer literals,
    ``+ - * / %``, unary ``-`` and parentheses, or ``None`` for anything
    else (names, calls, other literals, division by zero, nesting deeper
    than the interpreter's recursion limit).  A literal with a leading
    zero is refused: C would read it as octal."""
    pos = 0

    def operand() -> int:
        nonlocal pos
        tok = tokens[pos] if pos < len(tokens) else None
        pos += 1
        kind = tok.kind if tok is not None else TokenKind.EOF
        if kind is TokenKind.MINUS:
            return -operand()
        if kind is TokenKind.LPAREN:
            value = expression(1)
            if pos >= len(tokens) or tokens[pos].kind is not TokenKind.RPAREN:
                raise ValueError("unbalanced parentheses")
            pos += 1
            return value
        text = tok.value if kind is TokenKind.INT_LIT else ""
        if text.isdigit() and str(int(text)) == text:
            return int(text)
        raise ValueError("not integer arithmetic")

    def expression(min_precedence: int) -> int:
        nonlocal pos
        value = operand()
        while pos < len(tokens) and tokens[pos].kind in _FOLD_OPS:
            kind = tokens[pos].kind
            precedence = BINARY_PRECEDENCE[kind]
            if precedence < min_precedence:
                break
            pos += 1
            value = _FOLD_OPS[kind](value, expression(precedence + 1))
        return value

    try:
        value = expression(1)
    except (ValueError, ZeroDivisionError, RecursionError):
        return None
    return value if pos == len(tokens) else None


class _DirectiveParser:
    """Recursive-descent parser over the tokens of one pragma line."""

    def __init__(self, text: str, loc: SourceLocation):
        self._tokens = tokenize(text, loc.filename)
        self._idx = 0
        self._loc = loc

    # -- cursor helpers ------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._idx]

    def _next(self) -> Token:
        tok = self._tokens[self._idx]
        if tok.kind is not TokenKind.EOF:
            self._idx += 1
        return tok

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._next()
        if tok.kind is not kind:
            raise DirectiveError(
                f"expected {what}, found {tok.value!r}", self._loc
            )
        return tok

    def _accept(self, kind: TokenKind) -> bool:
        if self._peek().kind is kind:
            self._next()
            return True
        return False

    def _word(self) -> str | None:
        tok = self._peek()
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            self._next()
            return tok.value
        return None

    def _int_or_ident(self, what: str) -> int | str:
        tok = self._next()
        if tok.kind is TokenKind.INT_LIT:
            return int(tok.value.rstrip("L"))
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            return tok.value
        raise DirectiveError(f"expected {what}, found {tok.value!r}", self._loc)

    def _name_list(self) -> tuple[str, ...]:
        """Parse ``(a, b, c)`` (trailing comma tolerated, as in the paper)."""
        self._expect(TokenKind.LPAREN, "'('")
        names: list[str] = []
        while not self._accept(TokenKind.RPAREN):
            name = self._word()
            if name is None:
                raise DirectiveError(
                    f"expected array name, found {self._peek().value!r}",
                    self._loc,
                )
            # Tolerate sub-array bounds in data clauses: a[0:n].
            while self._accept(TokenKind.LBRACKET):
                depth = 1
                while depth:
                    tok = self._next()
                    if tok.kind is TokenKind.EOF:
                        raise DirectiveError("unterminated '['", self._loc)
                    if tok.kind is TokenKind.LBRACKET:
                        depth += 1
                    elif tok.kind is TokenKind.RBRACKET:
                        depth -= 1
            names.append(name)
            if not self._accept(TokenKind.COMMA) and self._peek().kind is not TokenKind.RPAREN:
                raise DirectiveError(
                    f"expected ',' or ')', found {self._peek().value!r}",
                    self._loc,
                )
        return tuple(names)

    # -- clause parsers --------------------------------------------------
    def _parse_dim_clause(self) -> tuple[DimGroup, ...]:
        """Parse ``dim( group , group , ... )``.

        group := ``[e]...[e] (names)``       (C spelling)
               | ``( lb:len, ... ) (names)`` (Fortran spelling)
               | ``(names)``                 (dimensions taken from dope)
        """
        self._expect(TokenKind.LPAREN, "'(' after dim")
        groups: list[DimGroup] = []
        while not self._accept(TokenKind.RPAREN):
            dims: list[DimSpec] = []
            if self._peek().kind is TokenKind.LBRACKET:
                while self._accept(TokenKind.LBRACKET):
                    extent = self._int_or_ident("dimension length")
                    self._expect(TokenKind.RBRACKET, "']'")
                    dims.append(DimSpec(extent=extent, lower=0))
                arrays = self._name_list()
            else:
                # '(' — either a bounds tuple followed by names, or names.
                is_bounds = self._looks_like_bounds()
                if is_bounds:
                    self._expect(TokenKind.LPAREN, "'('")
                    while True:
                        first = self._int_or_ident("bound")
                        if self._accept(TokenKind.COLON):
                            extent = self._int_or_ident("dimension length")
                            dims.append(DimSpec(extent=extent, lower=first))
                        else:
                            dims.append(DimSpec(extent=first, lower=0))
                        if not self._accept(TokenKind.COMMA):
                            break
                    self._expect(TokenKind.RPAREN, "')'")
                arrays = self._name_list()
            if not arrays:
                raise DirectiveError("dim group has no arrays", self._loc)
            groups.append(DimGroup(arrays=arrays, dims=tuple(dims)))
            self._accept(TokenKind.COMMA)
        if not groups:
            raise DirectiveError("dim clause is empty", self._loc)
        return tuple(groups)

    def _looks_like_bounds(self) -> bool:
        """Lookahead: does the upcoming parenthesised list contain ':'?"""
        depth = 0
        idx = self._idx
        while idx < len(self._tokens):
            kind = self._tokens[idx].kind
            if kind is TokenKind.LPAREN:
                depth += 1
            elif kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    return False
            elif kind is TokenKind.COLON and depth == 1:
                return True
            elif kind is TokenKind.EOF:
                return False
            idx += 1
        return False

    def _parse_loop_clauses(
        self, loop: LoopDirective, compute: "ComputeDirective | None" = None
    ) -> None:
        """Parse loop clauses; in a combined construct (``kernels loop``),
        compute-construct clauses (data, ``dim``, ``small``…) may be mixed in
        and are routed to ``compute``."""
        while not self._at_end():
            name = self._word()
            if name is None:
                raise DirectiveError(
                    f"unexpected token {self._peek().value!r} in loop clauses",
                    self._loc,
                )
            if compute is not None and self._parse_compute_clause(compute, name):
                continue
            if name in ("gang", "worker", "vector"):
                value: bool | int | str = True
                if self._accept(TokenKind.LPAREN):
                    value = self._parse_size_expr()
                    self._expect(TokenKind.RPAREN, "')'")
                setattr(loop, name, value)
            elif name == "seq":
                loop.seq = True
            elif name == "independent":
                loop.independent = True
            elif name == "collapse":
                self._expect(TokenKind.LPAREN, "'('")
                n = self._int_or_ident("collapse factor")
                if not isinstance(n, int) or n < 1:
                    raise DirectiveError("collapse factor must be a positive integer", self._loc)
                loop.collapse = n
                self._expect(TokenKind.RPAREN, "')'")
            elif name == "reduction":
                self._expect(TokenKind.LPAREN, "'('")
                op_tok = self._next()
                op = op_tok.value
                if op not in REDUCTION_OPS:
                    raise DirectiveError(f"unknown reduction operator {op!r}", self._loc)
                self._expect(TokenKind.COLON, "':'")
                varname = self._word()
                if varname is None:
                    raise DirectiveError("expected reduction variable", self._loc)
                loop.reductions = loop.reductions + (Reduction(op, varname),)
                self._expect(TokenKind.RPAREN, "')'")
            elif name == "private":
                loop.private = loop.private + self._name_list()
            else:
                raise DirectiveError(f"unknown loop clause {name!r}", self._loc)

    def _parse_size_expr(self) -> int | str:
        """Parse a gang/vector size.

        Real OpenACC allows arbitrary expressions like ``(NX-1+63)/64``; we
        fold integer-literal arithmetic (:func:`_fold_int`) and otherwise
        keep the raw text (the launch configuration model treats
        non-constant sizes as runtime values).
        """
        parts: list[Token] = []
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                raise DirectiveError("unterminated size expression", self._loc)
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                if depth == 0:
                    break
                depth -= 1
            parts.append(tok)
            self._next()
        value = _fold_int(parts)
        return value if value is not None else " ".join(t.value for t in parts)

    def _parse_compute_clause(self, directive: "ComputeDirective", name: str) -> bool:
        """Try to parse one compute-construct clause; return False if ``name``
        is not a compute clause (the caller then tries loop clauses)."""
        if name in DATA_CLAUSES:
            directive.data[name] = directive.data.get(name, ()) + self._name_list()
        elif name == "num_gangs":
            self._expect(TokenKind.LPAREN, "'('")
            directive.num_gangs = self._parse_size_expr()
            self._expect(TokenKind.RPAREN, "')'")
        elif name == "vector_length":
            self._expect(TokenKind.LPAREN, "'('")
            directive.vector_length = self._parse_size_expr()
            self._expect(TokenKind.RPAREN, "')'")
        elif name == "dim":
            directive.dim_groups = directive.dim_groups + self._parse_dim_clause()
        elif name == "small":
            directive.small = directive.small + self._name_list()
        else:
            return False
        return True

    # -- entry point -------------------------------------------------------
    def parse(self) -> AccDirective | None:
        """Parse one pragma.  Returns ``None`` for non-acc pragmas."""
        first = self._word()
        if first != "pragma":
            return None
        if self._word() != "acc":
            return None  # Not ours (e.g. '#pragma omp'); caller ignores it.
        construct = self._word()
        if construct in ("kernels", "parallel"):
            directive = ComputeDirective(construct=construct, loc=self._loc)
            # Combined construct: 'kernels loop ...'.
            while not self._at_end():
                name = self._word()
                if name == "loop":
                    loop = LoopDirective(loc=self._loc)
                    self._parse_loop_clauses(loop, compute=directive)
                    directive.combined_loop = loop
                    break
                if name is None or not self._parse_compute_clause(directive, name):
                    raise DirectiveError(
                        f"unknown {construct} clause {name!r}", self._loc
                    )
            return directive
        if construct == "loop":
            loop = LoopDirective(loc=self._loc)
            self._parse_loop_clauses(loop)
            return loop
        raise DirectiveError(f"unknown acc construct {construct!r}", self._loc)


def parse_directive(text: str, loc: SourceLocation | None = None) -> AccDirective | None:
    """Parse the body of a ``#pragma`` token.

    Returns a :class:`ComputeDirective` or :class:`LoopDirective`, or
    ``None`` when the pragma is not an ``acc`` directive (such pragmas are
    ignored, matching C compiler behaviour).
    """
    return _DirectiveParser(text, loc or SourceLocation()).parse()
