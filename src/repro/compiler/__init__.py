"""Compiler driver: configurations, the compile session (cache + pass
pipeline + stats), runtime clause guards, and reporting.

:class:`CompilerSession` is the compile API (the :mod:`repro` facade
wraps a module-level default session); this package also re-exports the
configurations and the result types it produces.
"""

from .guards import (
    ClauseVerdict,
    ClauseViolation,
    GuardedKernel,
    verify_clauses,
)
from .driver import (
    CompiledKernel,
    CompiledProgram,
    ProgramTiming,
)
from .options import (
    ALL_CONFIGS,
    BASE,
    CARR_KENNEDY,
    CompilerConfig,
    PGI,
    SAFARA_ONLY,
    SMALL,
    SMALL_DIM,
    SMALL_DIM_SAFARA,
    UNROLL_SAFARA,
    VECTOR_SAFARA,
)
from .session import (
    CompileJob,
    CompilerSession,
    compile_many,
    default_session,
)

__all__ = [
    "ALL_CONFIGS",
    "BASE",
    "CARR_KENNEDY",
    "ClauseVerdict",
    "ClauseViolation",
    "CompileJob",
    "CompiledKernel",
    "CompiledProgram",
    "CompilerConfig",
    "CompilerSession",
    "PGI",
    "ProgramTiming",
    "SAFARA_ONLY",
    "SMALL",
    "SMALL_DIM",
    "SMALL_DIM_SAFARA",
    "UNROLL_SAFARA",
    "VECTOR_SAFARA",
    "GuardedKernel",
    "compile_many",
    "default_session",
    "verify_clauses",
]
