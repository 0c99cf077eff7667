"""Runtime clause verification (paper Section IV, final paragraph).

    "Note that in the case where the user provides incorrect information
    inside the proposed clauses, the compiler can generate two versions of
    each kernel: (1) optimized kernel ... (2) unoptimized kernel ...  Also,
    the compiler can generate a segment of code responsible for verifying
    the correctness of the clauses.  At runtime, this segment will be run
    and a decision will be made to execute the optimized or unoptimized
    kernel."

This module implements exactly that scheme:
:meth:`CompilerSession.compile_guarded
<repro.compiler.session.CompilerSession.compile_guarded>` lowers one
region twice (clauses honored / ignored), and :func:`verify_clauses`
is the generated "segment" — it checks, against the run-time problem
sizes, that every ``dim`` group's arrays really share their dimensions and
that every ``small`` array really spans fewer than 4 GB.
:func:`select_kernel` then makes the paper's runtime decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.kernelgen import CodegenOptions, generate_kernel
from ..codegen.vir import VirKernel
from ..gpu.arch import GpuArch, KEPLER_K20XM
from ..gpu.registers import PtxasInfo, ptxas_info
from ..ir.stmt import Region
from ..ir.symbols import Dim, Symbol, SymbolTable
from ..transforms.small_clause import SMALL_LIMIT_BYTES


@dataclass(frozen=True, slots=True)
class ClauseViolation:
    """One runtime clause-check failure."""

    clause: str  # 'dim' | 'small'
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.clause}: {self.message}"


@dataclass(slots=True)
class ClauseVerdict:
    violations: list[ClauseViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _dim_value(bound: int | Symbol, env: dict[str, int]) -> int:
    if isinstance(bound, int):
        return bound
    try:
        return int(env[bound.name])
    except KeyError:
        raise KeyError(f"runtime size {bound.name!r} missing from env") from None


def _shape(sym: Symbol, env: dict[str, int]) -> tuple[tuple[int, int], ...]:
    assert sym.array is not None
    return tuple(
        (_dim_value(d.lower, env), _dim_value(d.extent, env)) for d in sym.array.dims
    )


def verify_clauses(
    region: Region, symtab: SymbolTable, env: dict[str, int]
) -> ClauseVerdict:
    """The runtime verification segment: check dim/small against concrete
    problem sizes."""
    verdict = ClauseVerdict()

    for group in region.directive.dim_groups:
        syms = [symtab.require(name) for name in group.arrays]
        shapes = [(s.name, _shape(s, env)) for s in syms]
        first_name, first_shape = shapes[0]
        for name, shape in shapes[1:]:
            if shape != first_shape:
                verdict.violations.append(
                    ClauseViolation(
                        clause="dim",
                        message=(
                            f"arrays {first_name!r} and {name!r} declared to share "
                            f"dimensions but have shapes {first_shape} vs {shape}"
                        ),
                    )
                )
        # Dimension data given in the clause itself (extents/bounds) was
        # already checked structurally at compile time where static; the
        # runtime check above covers the dynamic part (actual shapes).
        if group.dims:
            declared = tuple(
                (
                    spec.lower if isinstance(spec.lower, int) else _dim_value(symtab.require(spec.lower), env),
                    spec.extent if isinstance(spec.extent, int) else _dim_value(symtab.require(spec.extent), env),
                )
                for spec in group.dims
            )
            if declared != first_shape:
                verdict.violations.append(
                    ClauseViolation(
                        clause="dim",
                        message=(
                            f"clause declares bounds {declared} but array "
                            f"{first_name!r} has shape {first_shape}"
                        ),
                    )
                )

    for name in region.directive.small:
        sym = symtab.require(name)
        assert sym.array is not None
        elem_bytes = sym.array.elem.bits // 8
        count = 1
        for d in sym.array.dims:
            count *= _dim_value(d.extent, env)
        size = count * elem_bytes
        if size >= SMALL_LIMIT_BYTES:
            verdict.violations.append(
                ClauseViolation(
                    clause="small",
                    message=(
                        f"array {name!r} spans {size} bytes at this problem size "
                        f"(>= {SMALL_LIMIT_BYTES}); 32-bit offsets would overflow"
                    ),
                )
            )
    return verdict


@dataclass(slots=True)
class GuardedKernel:
    """The paper's two-version compilation of one region."""

    region: Region
    symtab: SymbolTable
    optimized: VirKernel
    optimized_info: PtxasInfo
    fallback: VirKernel
    fallback_info: PtxasInfo

    def select(self, env: dict[str, int]) -> tuple[VirKernel, PtxasInfo, ClauseVerdict]:
        """The runtime decision: optimized when the clauses verify, the
        unoptimized fallback otherwise."""
        verdict = verify_clauses(self.region, self.symtab, env)
        if verdict.ok:
            return self.optimized, self.optimized_info, verdict
        return self.fallback, self.fallback_info, verdict


def _compile_guarded(
    region: Region,
    symtab: SymbolTable,
    *,
    options: CodegenOptions | None = None,
    arch: "GpuArch | str" = KEPLER_K20XM,
    name: str = "guarded",
) -> GuardedKernel:
    """Lower one region twice: clauses honored vs ignored.

    The ``arch`` keyword is routed through ``CompilerConfig.derive`` so a
    caller-supplied arch (including a registry name) hits the same
    validation path as every other configuration field — an unknown name
    raises :class:`~repro.errors.ConfigError` here instead of silently
    compiling for an unintended device.
    """
    from .options import BASE

    arch = BASE.derive(arch=arch).arch
    options = options or CodegenOptions()
    opt = generate_kernel(region, symtab, options, name=f"{name}_opt")
    from dataclasses import replace

    plain_opts = replace(options, honor_dim=False, honor_small=False)
    fallback = generate_kernel(region, symtab, plain_opts, name=f"{name}_fallback")
    return GuardedKernel(
        region=region,
        symtab=symtab,
        optimized=opt,
        optimized_info=ptxas_info(opt, arch),
        fallback=fallback,
        fallback_info=ptxas_info(fallback, arch),
    )
