"""Top-level IR containers: kernel functions and modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .stmt import Region, Stmt, clone_stmt, regions_in
from .symbols import Symbol, SymbolTable


@dataclass(slots=True)
class KernelFunction:
    """The IR of one MiniACC ``kernel`` declaration.

    A kernel function is host code containing zero or more OpenACC offload
    :class:`~repro.ir.stmt.Region` nodes; each region becomes one GPU
    kernel.
    """

    name: str
    params: list[Symbol]
    symtab: SymbolTable
    body: list[Stmt] = field(default_factory=list)

    def clone(self) -> "KernelFunction":
        """An independent copy to compile: a :func:`~repro.ir.stmt.clone_stmt`
        of the body and a copy of the symbol table, over the same params,
        :class:`Symbol` objects and (immutable) expressions.  Passes that
        mutate the copy cannot reach this function, and the names and loop
        ids they create match those they would create here."""
        return KernelFunction(
            name=self.name,
            params=list(self.params),
            symtab=self.symtab.copy(),
            body=[clone_stmt(s) for s in self.body],
        )

    def regions(self) -> list[Region]:
        """All offload regions, in source order."""
        return regions_in(self.body)


@dataclass(slots=True)
class Module:
    """A compiled MiniACC translation unit."""

    functions: list[KernelFunction] = field(default_factory=list)

    def function(self, name: str) -> KernelFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)
