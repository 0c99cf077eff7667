"""Recursive-descent parser for MiniACC.

Produces the source-level AST of :mod:`repro.lang.ast_nodes`.  OpenACC
pragmas are attached during parsing: a ``kernels``/``parallel`` pragma wraps
the following statement in a :class:`RegionStmt`; a ``loop`` pragma is
attached to the following ``for`` statement.  Binary operators are parsed
by precedence climbing over :data:`~repro.lang.tokens.BINARY_PRECEDENCE`.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .directives import ComputeDirective, LoopDirective, parse_directive
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import BINARY_PRECEDENCE, Token, TokenKind
from ..obs.tracer import span

#: Math intrinsics callable from kernel code.
INTRINSICS = frozenset(
    {
        "sqrt",
        "fabs",
        "abs",
        "exp",
        "log",
        "sin",
        "cos",
        "tan",
        "pow",
        "min",
        "max",
        "fmin",
        "fmax",
        "floor",
        "ceil",
    }
)

_TYPE_NAMES = frozenset({"float", "double", "int", "long"})

_ASSIGN_OPS = {
    TokenKind.ASSIGN: None,
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._idx = 0

    # -- cursor --------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._idx + offset, len(self._toks) - 1)
        return self._toks[idx]

    def _next(self) -> Token:
        tok = self._toks[self._idx]
        if tok.kind is not TokenKind.EOF:
            self._idx += 1
        return tok

    def _check(self, kind: TokenKind, value: str | None = None) -> bool:
        tok = self._peek()
        return tok.kind is kind and (value is None or tok.value == value)

    def _accept(self, kind: TokenKind, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._next()
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self._next()
        if tok.kind is not kind:
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.loc)
        return tok

    def _expect_kw(self, word: str) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.KEYWORD or tok.value != word:
            raise ParseError(f"expected {word!r}, found {tok.value!r}", tok.loc)
        return tok

    # -- program / declarations ----------------------------------------------
    def parse_program(self) -> ast.Program:
        kernels: list[ast.KernelDecl] = []
        while not self._check(TokenKind.EOF):
            if self._check(TokenKind.PRAGMA):
                # Stray top-level pragma (ignored, like a non-acc pragma).
                self._next()
                continue
            kernels.append(self._parse_kernel())
        return ast.Program(kernels)

    def _parse_kernel(self) -> ast.KernelDecl:
        kw = self._expect_kw("kernel")
        name = self._expect(TokenKind.IDENT, "kernel name").value
        self._expect(TokenKind.LPAREN, "'('")
        params: list[ast.ParamDecl] = []
        if not self._accept(TokenKind.RPAREN):
            while True:
                params.append(self._parse_param())
                if self._accept(TokenKind.RPAREN):
                    break
                self._expect(TokenKind.COMMA, "',' between parameters")
        body = self._parse_block()
        return ast.KernelDecl(name=name, params=tuple(params), body=body, loc=kw.loc)

    def _parse_param(self) -> ast.ParamDecl:
        loc = self._peek().loc
        is_const = bool(self._accept(TokenKind.KEYWORD, "const"))
        type_tok = self._next()
        if type_tok.kind is not TokenKind.KEYWORD or type_tok.value not in _TYPE_NAMES:
            raise ParseError(f"expected type name, found {type_tok.value!r}", type_tok.loc)
        if not is_const:
            is_const = bool(self._accept(TokenKind.KEYWORD, "const"))
        is_pointer = bool(self._accept(TokenKind.STAR))
        is_restrict = bool(self._accept(TokenKind.KEYWORD, "restrict"))
        if not is_const:
            is_const = bool(self._accept(TokenKind.KEYWORD, "const"))
        name = self._expect(TokenKind.IDENT, "parameter name").value
        dims: list[ast.DimDecl] = []
        while self._accept(TokenKind.LBRACKET):
            first = self._parse_expr()
            lower: ast.Expr | None = None
            if self._accept(TokenKind.COLON):
                lower = first
                extent = self._parse_expr()
            else:
                extent = first
            self._expect(TokenKind.RBRACKET, "']'")
            dims.append(ast.DimDecl(extent=extent, lower=lower))
        if is_pointer and dims:
            raise ParseError("parameter cannot be both pointer and array", loc)
        return ast.ParamDecl(
            type_name=type_tok.value,
            name=name,
            dims=tuple(dims),
            is_pointer=is_pointer,
            is_const=is_const,
            is_restrict=is_restrict,
            loc=loc,
        )

    # -- statements ------------------------------------------------------------
    def _parse_block(self) -> list[ast.Stmt]:
        self._expect(TokenKind.LBRACE, "'{'")
        stmts: list[ast.Stmt] = []
        while not self._accept(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", self._peek().loc)
            stmts += self._parse_stmt()
        return stmts

    def _parse_body(self) -> list[ast.Stmt]:
        """Loop/if body: either a braced block or a single statement."""
        if self._check(TokenKind.LBRACE):
            return self._parse_block()
        return self._parse_stmt()

    def _parse_stmt(self) -> list[ast.Stmt]:
        """One statement, as the statements it stands for: none for a
        non-acc pragma, one per declarator for ``double a, b;``."""
        tok = self._peek()
        if tok.kind is TokenKind.PRAGMA:
            return self._parse_pragma_stmt()
        if tok.kind is TokenKind.KEYWORD:
            if tok.value == "for":
                return [self._parse_for(None)]
            if tok.value == "if":
                return [self._parse_if()]
            if tok.value == "return":
                self._next()
                self._expect(TokenKind.SEMI, "';'")
                return [ast.ReturnStmt(loc=tok.loc)]
            if tok.value in _TYPE_NAMES or tok.value == "const":
                return self._parse_decl()
        if tok.kind is TokenKind.LBRACE:
            # Anonymous block: flatten by returning an if(1)-style wrapper is
            # overkill; MiniACC treats it as an error to keep scoping simple.
            raise ParseError("naked blocks are not supported; use a loop or if", tok.loc)
        return [self._parse_assign()]

    def _parse_pragma_stmt(self) -> list[ast.Stmt]:
        tok = self._next()
        directive = parse_directive(tok.value, tok.loc)
        if directive is None:
            return []  # non-acc pragma: skip.
        if isinstance(directive, ComputeDirective):
            if directive.combined_loop is not None:
                if not self._check(TokenKind.KEYWORD, "for"):
                    raise ParseError(
                        "combined 'acc kernels/parallel loop' must precede a for loop",
                        tok.loc,
                    )
                loop = self._parse_for(directive.combined_loop)
                return [ast.RegionStmt(directive=directive, body=[loop], loc=tok.loc)]
            body = self._parse_body()
            if not body:
                raise ParseError("empty acc compute region", tok.loc)
            return [ast.RegionStmt(directive=directive, body=body, loc=tok.loc)]
        assert isinstance(directive, LoopDirective)
        if not self._check(TokenKind.KEYWORD, "for"):
            raise ParseError("'acc loop' directive must precede a for loop", tok.loc)
        return [self._parse_for(directive)]

    def _parse_for(self, directive: LoopDirective | None) -> ast.ForStmt:
        kw = self._expect_kw("for")
        self._expect(TokenKind.LPAREN, "'('")
        # Optional inline loop-variable declaration: 'for (int i = ...'.
        self._accept(TokenKind.KEYWORD, "int") or self._accept(TokenKind.KEYWORD, "long")
        var = self._expect(TokenKind.IDENT, "loop variable").value
        self._expect(TokenKind.ASSIGN, "'='")
        init = self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        cond_var = self._expect(TokenKind.IDENT, "loop variable in condition").value
        if cond_var != var:
            raise ParseError(
                f"loop condition tests {cond_var!r} but loop variable is {var!r}",
                kw.loc,
            )
        op_tok = self._next()
        if op_tok.kind not in (TokenKind.LT, TokenKind.LE, TokenKind.GT, TokenKind.GE):
            raise ParseError(f"expected relational operator, found {op_tok.value!r}", op_tok.loc)
        bound = self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        step = self._parse_for_increment(var, kw.loc)
        self._expect(TokenKind.RPAREN, "')'")
        body = self._parse_body()
        return ast.ForStmt(
            var=var,
            init=init,
            cond_op=op_tok.value,
            bound=bound,
            step=step,
            body=body,
            directive=directive,
            loc=kw.loc,
        )

    def _parse_for_increment(self, var: str, loc: SourceLocation) -> ast.Expr:
        name = self._expect(TokenKind.IDENT, "loop variable in increment")
        if name.value != var:
            raise ParseError(
                f"loop increment updates {name.value!r} but loop variable is {var!r}", loc
            )
        if self._accept(TokenKind.PLUS_PLUS):
            return ast.IntLit(1, loc=loc)
        if self._accept(TokenKind.MINUS_MINUS):
            return ast.IntLit(-1, loc=loc)
        if self._accept(TokenKind.PLUS_ASSIGN):
            return self._parse_expr()
        if self._accept(TokenKind.MINUS_ASSIGN):
            return ast.Unary("-", self._parse_expr(), loc=loc)
        if self._accept(TokenKind.ASSIGN):
            # 'i = i + c' / 'i = i - c'
            base = self._expect(TokenKind.IDENT, "loop variable")
            if base.value != var:
                raise ParseError("loop increment must update the loop variable", loc)
            if self._accept(TokenKind.PLUS):
                return self._parse_expr()
            if self._accept(TokenKind.MINUS):
                return ast.Unary("-", self._parse_expr(), loc=loc)
            raise ParseError("unsupported loop increment form", loc)
        raise ParseError("unsupported loop increment form", loc)

    def _parse_if(self) -> ast.IfStmt:
        kw = self._expect_kw("if")
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "')'")
        then_body = self._parse_body()
        else_body: list[ast.Stmt] = []
        if self._accept(TokenKind.KEYWORD, "else"):
            if self._check(TokenKind.KEYWORD, "if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_body()
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body, loc=kw.loc)

    def _parse_decl(self) -> list[ast.DeclStmt]:
        loc = self._peek().loc
        is_const = bool(self._accept(TokenKind.KEYWORD, "const"))
        type_tok = self._next()
        if type_tok.kind is not TokenKind.KEYWORD or type_tok.value not in _TYPE_NAMES:
            raise ParseError(f"expected type name, found {type_tok.value!r}", type_tok.loc)
        decls: list[ast.DeclStmt] = []
        while True:
            name = self._expect(TokenKind.IDENT, "variable name").value
            init: ast.Expr | None = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_expr()
            decls.append(
                ast.DeclStmt(
                    type_name=type_tok.value,
                    name=name,
                    init=init,
                    is_const=is_const,
                    loc=loc,
                )
            )
            if self._accept(TokenKind.SEMI):
                break
            self._expect(TokenKind.COMMA, "',' or ';'")
        return decls

    def _parse_assign(self) -> ast.Stmt:
        loc = self._peek().loc
        target = self._parse_postfix()
        if not isinstance(target, (ast.Name, ast.Index)):
            raise ParseError("assignment target must be a variable or array element", loc)
        tok = self._next()
        if tok.kind is TokenKind.PLUS_PLUS:
            self._expect(TokenKind.SEMI, "';'")
            return ast.AssignStmt(target=target, value=ast.IntLit(1, loc=loc), op="+", loc=loc)
        if tok.kind is TokenKind.MINUS_MINUS:
            self._expect(TokenKind.SEMI, "';'")
            return ast.AssignStmt(target=target, value=ast.IntLit(1, loc=loc), op="-", loc=loc)
        if tok.kind not in _ASSIGN_OPS:
            raise ParseError(f"expected assignment operator, found {tok.value!r}", tok.loc)
        value = self._parse_expr()
        self._expect(TokenKind.SEMI, "';'")
        return ast.AssignStmt(target=target, value=value, op=_ASSIGN_OPS[tok.kind], loc=loc)

    # -- expressions -----------------------------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept(TokenKind.QUESTION):
            then = self._parse_expr()
            self._expect(TokenKind.COLON, "':'")
            otherwise = self._parse_ternary()
            return ast.Ternary(cond, then, otherwise)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        """Precedence climbing over :data:`BINARY_PRECEDENCE`: the
        operators at ``min_precedence`` or tighter, left-associative."""
        left = self._parse_unary()
        while (precedence := BINARY_PRECEDENCE.get(self._peek().kind, 0)) >= min_precedence:
            tok = self._next()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(tok.value, left, right, loc=tok.loc)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.MINUS:
            self._next()
            return ast.Unary("-", self._parse_unary(), loc=tok.loc)
        if tok.kind is TokenKind.PLUS:
            self._next()
            return self._parse_unary()
        if tok.kind is TokenKind.NOT:
            self._next()
            return ast.Unary("!", self._parse_unary(), loc=tok.loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        indices: list[ast.Expr] = []
        loc = self._peek().loc
        while self._accept(TokenKind.LBRACKET):
            indices.append(self._parse_expr())
            self._expect(TokenKind.RBRACKET, "']'")
        if indices:
            return ast.Index(base=expr, indices=tuple(indices), loc=loc)
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind is TokenKind.INT_LIT:
            return ast.IntLit(int(tok.value.rstrip("L")), loc=tok.loc)
        if tok.kind is TokenKind.FLOAT_LIT:
            text = tok.value
            is_single = text.endswith("f")
            return ast.FloatLit(float(text.rstrip("fL")), is_single=is_single, loc=tok.loc)
        if tok.kind is TokenKind.IDENT:
            if tok.value in INTRINSICS and self._check(TokenKind.LPAREN):
                self._next()
                args: list[ast.Expr] = []
                if not self._accept(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_expr())
                        if self._accept(TokenKind.RPAREN):
                            break
                        self._expect(TokenKind.COMMA, "','")
                return ast.CallExpr(func=tok.value, args=tuple(args), loc=tok.loc)
            return ast.Name(tok.value, loc=tok.loc)
        if tok.kind is TokenKind.LPAREN:
            # Parenthesised expression or a C-style cast '(double)expr'.
            if (
                self._peek().kind is TokenKind.KEYWORD
                and self._peek().value in _TYPE_NAMES
                and self._peek(1).kind is TokenKind.RPAREN
            ):
                type_tok = self._next()
                self._next()  # ')'
                operand = self._parse_unary()
                return ast.CallExpr(func=f"cast_{type_tok.value}", args=(operand,), loc=tok.loc)
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        raise ParseError(f"unexpected token {tok.value!r} in expression", tok.loc)


def parse_program(source: str, filename: str = "<string>") -> ast.Program:
    """Parse MiniACC ``source`` into a :class:`Program`."""
    with span("parse", filename=filename, bytes=len(source)) as sp:
        with span("lex", filename=filename):
            tokens = tokenize(source, filename)
        program = Parser(tokens).parse_program()
        sp.set(kernels=len(program.kernels))
    return program
