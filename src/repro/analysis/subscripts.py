"""Affine subscript analysis with symbolic coefficients.

Array subscripts in the benchmark kernels are affine in the loop variables
but may have *symbolic* coefficients — C codes hand-linearise indices as
``(k*ny + j)*nx + i``, where the stride of ``k`` is the run-time value
``ny*nx``.  To analyse both styles uniformly, subscripts are normalised to
a :class:`AffineForm`: an integer-coefficient polynomial over scalar
symbols, i.e. ``Σ c_m · m`` where each monomial ``m`` is a product of
symbols.  A form is *affine in a loop variable v* when ``v`` appears with
degree at most one; its stride with respect to ``v`` is then itself a form
(``1`` for unit-stride, ``ny*nx`` for plane-strided, ...).

This underpins:

* dependence/reuse distances (difference of two forms, tested for being an
  exact integer multiple of the stride),
* coalescing classification (the stride of the vector-loop variable in the
  fastest-varying position — Section III-A.2 of the paper, following the
  Jang et al. access-pattern analysis it cites).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.expr import ArrayRef, BinOp, Cast, Expr, IntConst, UnOp, VarRef
from ..ir.symbols import Symbol

#: A monomial: product of symbols, sorted by id, with repetition for powers.
Monomial = tuple[Symbol, ...]

#: Guard against pathological polynomial blow-up in generated code.
_MAX_TERMS = 64


@dataclass(frozen=True)
class AffineForm:
    """``Σ coef · monomial`` over scalar symbols (the empty monomial is the
    constant term).  Immutable and hashable."""

    terms: tuple[tuple[Monomial, int], ...] = ()

    # -- constructors --------------------------------------------------------
    @staticmethod
    def constant(value: int) -> "AffineForm":
        if value == 0:
            return AffineForm()
        return AffineForm((((), value),))

    @staticmethod
    def variable(sym: Symbol, coef: int = 1) -> "AffineForm":
        if coef == 0:
            return AffineForm()
        return AffineForm((((sym,), coef),))

    @staticmethod
    def _from_dict(d: dict[Monomial, int]) -> "AffineForm":
        items = tuple(
            sorted(
                ((m, c) for m, c in d.items() if c != 0),
                key=lambda t: (len(t[0]), tuple(id(s) for s in t[0])),
            )
        )
        return AffineForm(items)

    # -- accessors ----------------------------------------------------------
    @property
    def const(self) -> int:
        """The constant term."""
        for m, c in self.terms:
            if m == ():
                return c
        return 0

    @property
    def is_constant(self) -> bool:
        return all(m == () for m, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> tuple[Symbol, ...]:
        seen: list[Symbol] = []
        for m, _ in self.terms:
            for s in m:
                if s not in seen:
                    seen.append(s)
        return tuple(seen)

    def depends_on(self, sym: Symbol) -> bool:
        return any(sym in m for m, _ in self.terms)

    def coefficient(self, sym: Symbol) -> int:
        """Integer coefficient of the pure degree-1 term ``sym`` (0 when the
        symbol only appears inside products — use
        :meth:`linear_coefficient` for the general stride)."""
        for m, c in self.terms:
            if m == (sym,):
                return c
        return 0

    def linear_coefficient(self, sym: Symbol) -> "AffineForm | None":
        """The stride of ``sym``: the form multiplying it.

        Returns ``None`` when the form is *not* affine in ``sym`` (degree
        two or higher).  A zero form means ``sym`` does not appear.
        """
        out: dict[Monomial, int] = {}
        for m, c in self.terms:
            count = sum(1 for s in m if s is sym)
            if count == 0:
                continue
            if count > 1:
                return None
            rest = tuple(s for s in m if s is not sym)
            out[rest] = out.get(rest, 0) + c
        return AffineForm._from_dict(out)

    def drop(self, sym: Symbol) -> "AffineForm":
        """The form with every monomial containing ``sym`` removed."""
        return AffineForm._from_dict(
            {m: c for m, c in self.terms if sym not in m}
        )

    def as_int_multiple_of(self, other: "AffineForm") -> int | None:
        """``k`` such that ``self == k * other`` (integer), else ``None``."""
        if other.is_zero:
            return 0 if self.is_zero else None
        if self.is_zero:
            return 0
        if len(self.terms) != len(other.terms):
            return None
        k: int | None = None
        other_map = dict(other.terms)
        for m, c in self.terms:
            oc = other_map.get(m)
            if oc is None or oc == 0 or c % oc != 0:
                return None
            ratio = c // oc
            if k is None:
                k = ratio
            elif ratio != k:
                return None
        return k

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "AffineForm") -> "AffineForm":
        d = {m: c for m, c in self.terms}
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return AffineForm._from_dict(d)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scale(-1)

    def scale(self, k: int) -> "AffineForm":
        if k == 0:
            return AffineForm()
        return AffineForm._from_dict({m: c * k for m, c in self.terms})

    def multiply(self, other: "AffineForm") -> "AffineForm | None":
        """Polynomial product; ``None`` if the result would explode."""
        if len(self.terms) * len(other.terms) > _MAX_TERMS:
            return None
        d: dict[Monomial, int] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = tuple(sorted(ma + mb, key=id))
                d[m] = d.get(m, 0) + ca * cb
        return AffineForm._from_dict(d)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            if m == ():
                parts.append(str(c))
            else:
                names = "*".join(s.name for s in m)
                parts.append(f"{c}*{names}" if c != 1 else names)
        return " + ".join(parts)


def affine_of(e: Expr) -> AffineForm | None:
    """Normalise an integer expression into polynomial-affine form, or
    ``None`` when it is not polynomial (division, modulo, array loads...).

    The form is computed once per node and kept in the node's ``_affine``
    slot (see :class:`~repro.ir.expr.Expr`), so shared subtrees and repeat
    queries cost one attribute read."""
    try:
        return e._affine
    except AttributeError:  # never asked, or unpickled
        pass
    form = _normalise(e)
    object.__setattr__(e, "_affine", form)
    return form


def _normalise(e: Expr) -> AffineForm | None:
    if isinstance(e, IntConst):
        return AffineForm.constant(e.value)
    if isinstance(e, VarRef):
        return AffineForm.variable(e.sym)
    if isinstance(e, Cast):
        return affine_of(e.operand) if not e.to_type.is_float else None
    if isinstance(e, UnOp):
        if e.op == "-":
            inner = affine_of(e.operand)
            return None if inner is None else inner.scale(-1)
        return None
    if isinstance(e, BinOp):
        if e.op in ("+", "-", "*"):
            lhs = affine_of(e.left)
            rhs = affine_of(e.right) if lhs is not None else None
            if lhs is None or rhs is None:
                return None
            if e.op == "*":
                return lhs.multiply(rhs)
            return lhs + rhs if e.op == "+" else lhs - rhs
        return None
    return None


def subscript_forms(ref: ArrayRef) -> tuple[AffineForm, ...] | None:
    """Affine forms of every subscript of ``ref``, or ``None`` if any
    subscript is non-affine."""
    forms: list[AffineForm] = []
    for idx in ref.indices:
        form = affine_of(idx)
        if form is None:
            return None
        forms.append(form)
    return tuple(forms)


def subscript_distance(a: ArrayRef, b: ArrayRef) -> tuple[int, ...] | None:
    """Per-dimension *integer* distance ``a - b``.

    Returns ``None`` when the references are to different arrays, have
    non-affine subscripts, or differ by a non-constant (possibly symbolic)
    amount in any dimension.
    """
    if a.sym is not b.sym or len(a.indices) != len(b.indices):
        return None
    fa = subscript_forms(a)
    fb = subscript_forms(b)
    if fa is None or fb is None:
        return None
    dist: list[int] = []
    for da, db in zip(fa, fb):
        diff = da - db
        if not diff.is_constant:
            return None
        dist.append(diff.const)
    return tuple(dist)
