"""IR expression trees.

Expressions are immutable, structurally hashable dataclasses — the scalar
replacement machinery relies on structural equality of array subscripts
("same reference") and on pure-functional rewriting (``map_children``).

Nodes are **hash-consed**: every node lazily caches its structural hash
(recomputed after unpickling, where symbol identities change), equality
starts with an identity/hash fast path, and :func:`intern_expr` deduplicates
structurally equal trees through a table owned by one build (a function's
front end, one region's e-graph extraction), so equality checks in the
pass pipeline degrade to pointer compares for IR built there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .symbols import Symbol
from .types import BOOL, F64, I32, ScalarType, promote

#: Arithmetic / relational / logical operators carried by BinOp.
ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})
REL_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
LOGIC_OPS = frozenset({"&&", "||"})


class Expr:
    """Base class of all IR expressions.

    Subclasses are frozen slots dataclasses with ``eq=False``: equality and
    hashing are implemented here once, with an identity fast path (interned
    nodes compare by pointer) and a lazily cached structural hash.  The
    cache slot ``_hash`` is deliberately *not* a dataclass field, so it is
    excluded from ``__init__``/``repr`` and from pickled state — unpickled
    nodes recompute their hash on first use (``Symbol`` hashes by identity
    and is not stable across processes).
    """

    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", -1)

    def _key(self) -> tuple:
        """Field tuple used for structural equality and hashing."""
        return ()

    def __eq__(self, other: object):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        try:
            h = self._hash
        except AttributeError:  # unpickled or bare Expr(): slot never set
            h = -1
        if h == -1:
            h = hash((self.__class__.__name__, self._key()))
            if h == -1:
                h = -2
            object.__setattr__(self, "_hash", h)
        return h

    def children(self) -> tuple["Expr", ...]:
        return ()

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Return a copy with ``fn`` applied to each direct child."""
        return self

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True, slots=True, eq=False)
class IntConst(Expr):
    value: int
    stype: ScalarType = I32

    def _key(self) -> tuple:
        return (self.value, self.stype)


@dataclass(frozen=True, slots=True, eq=False)
class FloatConst(Expr):
    value: float
    stype: ScalarType = F64

    def _key(self) -> tuple:
        return (self.value, self.stype)


@dataclass(frozen=True, slots=True, eq=False)
class VarRef(Expr):
    """A read of a scalar variable."""

    sym: Symbol

    def _key(self) -> tuple:
        return (self.sym,)


@dataclass(frozen=True, slots=True, eq=False)
class ArrayRef(Expr):
    """An array element access ``sym[indices...]``.

    For raw pointer symbols there is exactly one (already linearised)
    index expression.
    """

    sym: Symbol
    indices: tuple[Expr, ...]

    def _key(self) -> tuple:
        return (self.sym, self.indices)

    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def map_children(self, fn: Callable[[Expr], Expr]) -> "ArrayRef":
        return replace(self, indices=tuple(fn(i) for i in self.indices))


@dataclass(frozen=True, slots=True, eq=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def map_children(self, fn: Callable[[Expr], Expr]) -> "BinOp":
        return replace(self, left=fn(self.left), right=fn(self.right))


@dataclass(frozen=True, slots=True, eq=False)
class UnOp(Expr):
    op: str  # '-' | '!'
    operand: Expr

    def _key(self) -> tuple:
        return (self.op, self.operand)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def map_children(self, fn: Callable[[Expr], Expr]) -> "UnOp":
        return replace(self, operand=fn(self.operand))


@dataclass(frozen=True, slots=True, eq=False)
class Call(Expr):
    """Math intrinsic call (sqrt, exp, pow, min, max, ...)."""

    func: str
    args: tuple[Expr, ...]

    def _key(self) -> tuple:
        return (self.func, self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def map_children(self, fn: Callable[[Expr], Expr]) -> "Call":
        return replace(self, args=tuple(fn(a) for a in self.args))


@dataclass(frozen=True, slots=True, eq=False)
class Cast(Expr):
    to_type: ScalarType
    operand: Expr

    def _key(self) -> tuple:
        return (self.to_type, self.operand)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def map_children(self, fn: Callable[[Expr], Expr]) -> "Cast":
        return replace(self, operand=fn(self.operand))


@dataclass(frozen=True, slots=True, eq=False)
class Select(Expr):
    """Ternary ``cond ? a : b`` (both arms evaluated type-wise)."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def _key(self) -> tuple:
        return (self.cond, self.then, self.otherwise)

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def map_children(self, fn: Callable[[Expr], Expr]) -> "Select":
        return replace(
            self, cond=fn(self.cond), then=fn(self.then), otherwise=fn(self.otherwise)
        )


# ---------------------------------------------------------------------------
# Hash-consing (structural interning)
# ---------------------------------------------------------------------------


def intern_expr(e: Expr, table: dict[Expr, Expr]) -> Expr:
    """Return the canonical instance of ``e`` in ``table`` (deduplicated
    bottom-up).

    The table belongs to one build — a function's front-end lowering or
    one region's e-graph extraction — and dies with it, so no table
    outlives the compile that filled it.  Within a table,
    structurally equal trees are the *same object*, so ``==`` hits the
    identity fast path and dict lookups hit the cached hash.  Safe for
    any Expr: nodes are immutable and Symbols compare by identity, so two
    trees only unify when they reference the very same symbols.
    """
    e = e.map_children(lambda c: intern_expr(c, table))
    return table.setdefault(e, e)


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------


def expr_type(e: Expr) -> ScalarType:
    """Compute the result type of an IR expression."""
    if isinstance(e, (IntConst, FloatConst)):
        return e.stype
    if isinstance(e, VarRef):
        return e.sym.stype
    if isinstance(e, ArrayRef):
        assert e.sym.array is not None
        return e.sym.array.elem
    if isinstance(e, BinOp):
        if e.op in REL_OPS or e.op in LOGIC_OPS:
            return BOOL
        return promote(expr_type(e.left), expr_type(e.right))
    if isinstance(e, UnOp):
        return BOOL if e.op == "!" else expr_type(e.operand)
    if isinstance(e, Cast):
        return e.to_type
    if isinstance(e, Select):
        return promote(expr_type(e.then), expr_type(e.otherwise))
    if isinstance(e, Call):
        if not e.args:
            return F64
        arg_t = expr_type(e.args[0])
        for a in e.args[1:]:
            arg_t = promote(arg_t, expr_type(a))
        # Transcendental intrinsics promote integers to double.
        if e.func not in ("min", "max", "abs") and not arg_t.is_float:
            return F64
        return arg_t
    raise TypeError(f"unknown expression node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Rewriting helpers
# ---------------------------------------------------------------------------


def rewrite(e: Expr, rule: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewriting: apply ``rule`` to each node after its children.

    ``rule`` returns a replacement node or ``None`` to keep the node.
    """
    e = e.map_children(lambda c: rewrite(c, rule))
    out = rule(e)
    return e if out is None else out


def substitute(e: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Replace whole sub-expressions by structural lookup (bottom-up).

    Used by scalar replacement to swap array references for temporaries.
    """

    def rule(node: Expr) -> Expr | None:
        return mapping.get(node)

    return rewrite(e, rule)


def fold_constants(e: Expr) -> Expr:
    """Bottom-up integer constant folding (+, -, * and unary minus).

    Used to tidy compiler-generated subscripts (preheader preloads of the
    rotating-register transformation) so the output matches the paper's
    listings; float arithmetic is never folded (rounding must match the
    target exactly).
    """

    def rule(node: Expr) -> Expr | None:
        if isinstance(node, UnOp) and node.op == "-" and isinstance(node.operand, IntConst):
            return IntConst(-node.operand.value, node.operand.stype)
        if isinstance(node, BinOp):
            lhs, rhs = node.left, node.right
            if isinstance(lhs, IntConst) and isinstance(rhs, IntConst):
                if node.op == "+":
                    return IntConst(lhs.value + rhs.value)
                if node.op == "-":
                    return IntConst(lhs.value - rhs.value)
                if node.op == "*":
                    return IntConst(lhs.value * rhs.value)
            if isinstance(rhs, IntConst) and rhs.value == 0 and node.op in ("+", "-"):
                return lhs
            if isinstance(lhs, IntConst) and lhs.value == 0 and node.op == "+":
                return rhs
            # Reassociate (x ± c1) ± c2 into x ± (c1 ± c2).
            if (
                node.op in ("+", "-")
                and isinstance(rhs, IntConst)
                and isinstance(lhs, BinOp)
                and lhs.op in ("+", "-")
                and isinstance(lhs.right, IntConst)
            ):
                c1 = lhs.right.value if lhs.op == "+" else -lhs.right.value
                c2 = rhs.value if node.op == "+" else -rhs.value
                total = c1 + c2
                if total == 0:
                    return lhs.left
                if total > 0:
                    return BinOp("+", lhs.left, IntConst(total))
                return BinOp("-", lhs.left, IntConst(-total))
        return None

    return rewrite(e, rule)


def array_refs(e: Expr) -> list[ArrayRef]:
    """All array references inside ``e`` (pre-order)."""
    return [n for n in e.walk() if isinstance(n, ArrayRef)]


def scalar_reads(e: Expr) -> list[VarRef]:
    """All scalar reads inside ``e`` (pre-order)."""
    return [n for n in e.walk() if isinstance(n, VarRef)]
