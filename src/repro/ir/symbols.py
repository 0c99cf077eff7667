"""Symbols and symbol tables for the MiniACC IR.

Array symbols carry their *dope vector* information — per-dimension lower
bound and extent, each either a compile-time integer or another (scalar)
symbol.  This mirrors the Fortran allocatable / C VLA distinction that the
paper's ``dim`` clause targets: when extents are symbols, the flattened
offset computation needs compiler-generated temporaries at run time
(Section IV-A), and those temporaries are what ``dim`` eliminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .types import ScalarType


class SymbolKind(enum.Enum):
    PARAM = "param"
    LOCAL = "local"
    LOOPVAR = "loopvar"
    TEMP = "temp"  # compiler-generated (e.g. scalar-replacement temporaries)


@dataclass(frozen=True, slots=True)
class Dim:
    """One array dimension: extent and lower bound.

    ``extent``/``lower`` are ``int`` when statically known, otherwise the
    scalar :class:`Symbol` holding the run-time value.
    """

    extent: "int | Symbol"
    lower: "int | Symbol" = 0

    @property
    def is_static(self) -> bool:
        return isinstance(self.extent, int) and isinstance(self.lower, int)


@dataclass(frozen=True, slots=True)
class ArrayInfo:
    """Shape/layout info attached to array and pointer symbols.

    * ``dims`` is empty for raw pointers (C benchmarks, where the paper
      notes the ``dim`` clause cannot be used).
    * Layout is row-major (C order); Fortran benchmarks are modelled with
      their subscripts already permuted to row-major, which preserves the
      coalescing structure the paper discusses.
    """

    elem: ScalarType
    dims: tuple[Dim, ...] = ()
    is_pointer: bool = False

    @property
    def ndim(self) -> int:
        return len(self.dims) if self.dims else 1

    @property
    def is_vla(self) -> bool:
        """True when any bound is a run-time value (dope vector needed)."""
        return any(not d.is_static for d in self.dims)

    def static_elem_count(self) -> int | None:
        """Total element count if all extents are static, else ``None``."""
        if not self.dims:
            return None
        count = 1
        for d in self.dims:
            if not isinstance(d.extent, int):
                return None
            count *= d.extent
        return count

    def static_size_bytes(self) -> int | None:
        count = self.static_elem_count()
        if count is None:
            return None
        return count * (self.elem.bits // 8)


@dataclass(eq=False, slots=True)
class Symbol:
    """A named program object.  Identity (not name) equality."""

    name: str
    stype: ScalarType
    kind: SymbolKind = SymbolKind.LOCAL
    array: ArrayInfo | None = None
    is_const: bool = False
    is_restrict: bool = False

    @property
    def is_array(self) -> bool:
        return self.array is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.array is not None:
            dims = "".join(
                f"[{d.lower if d.lower != 0 else ''}{':' if d.lower != 0 else ''}"
                f"{d.extent.name if isinstance(d.extent, Symbol) else d.extent}]"
                for d in self.array.dims
            )
            star = "*" if self.array.is_pointer else ""
            return f"<{self.array.elem}{star} {self.name}{dims}>"
        return f"<{self.stype} {self.name}>"


class SymbolTable:
    """Flat per-kernel symbol table with unique-name generation.

    MiniACC scoping is simple enough (no shadowing across nested loops)
    that one flat table per kernel function suffices; the IR builder
    enforces no-redeclaration.  The table also numbers the function's
    loops (:meth:`new_loop_id`), so loops a transformation creates
    continue the builder's numbering.
    """

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}
        self._counter = 0
        self._loop_ids = 0

    def copy(self) -> "SymbolTable":
        """An independent table over the same :class:`Symbol` objects, with
        the same fresh-name and loop-id counters: names and ids it hands
        out next match what this table would have handed out."""
        out = SymbolTable()
        out._symbols = dict(self._symbols)
        out._counter = self._counter
        out._loop_ids = self._loop_ids
        return out

    def new_loop_id(self) -> int:
        """The next loop id of this function (1, 2, ...)."""
        self._loop_ids += 1
        return self._loop_ids

    def declare(self, sym: Symbol) -> Symbol:
        if sym.name in self._symbols:
            raise KeyError(f"symbol {sym.name!r} already declared")
        self._symbols[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Symbol | None:
        return self._symbols.get(name)

    def require(self, name: str) -> Symbol:
        sym = self._symbols.get(name)
        if sym is None:
            raise KeyError(f"undeclared symbol {name!r}")
        return sym

    def fresh(
        self,
        base: str,
        stype: ScalarType,
        kind: SymbolKind = SymbolKind.TEMP,
    ) -> Symbol:
        """Create and declare a compiler temporary with a unique name."""
        while True:
            self._counter += 1
            name = f"{base}_{self._counter}"
            if name not in self._symbols:
                break
        return self.declare(Symbol(name=name, stype=stype, kind=kind))

    def __iter__(self):
        return iter(self._symbols.values())

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def arrays(self) -> list[Symbol]:
        return [s for s in self if s.is_array]
