"""repro — reproduction of "Optimizing GPU Register Usage: Extensions to
OpenACC and Compiler Optimizations" (Tian et al., ICPP 2016).

The stable public API is this module's ``__all__``: :func:`compile`,
:func:`run`, and :func:`tune` over the process-default
:class:`CompilerSession`, plus the session and :class:`CompilerConfig`
types for callers that want isolation, :func:`get_arch` /
:func:`list_archs` for selecting a registered GPU architecture profile
by name, and :func:`register_pass` / :func:`get_pass` /
:func:`list_passes` for the pluggable optimization-pass registry the
default pipeline is built from.  Everything else is reachable
through the subpackages but is not covered by the facade's stability
contract.  Compilation goes through a session (or this facade) only;
``docs/pipeline.md`` maps the removed free functions onto their
session methods.

Subpackages:

* :mod:`repro.lang` — MiniACC front end (OpenACC directives incl. the
  proposed ``dim``/``small`` clauses);
* :mod:`repro.ir` — typed loop-nest IR;
* :mod:`repro.analysis` — subscripts, dependences, reuse, coalescing,
  memory spaces, the SAFARA cost model;
* :mod:`repro.transforms` — LICM, Carr-Kennedy, SAFARA, unrolling,
  clause semantics;
* :mod:`repro.codegen` — PTX-like virtual ISA + CUDA-like renderer;
* :mod:`repro.gpu` — the simulated device: ptxas register allocator,
  occupancy/memory/timing models, microbenchmarks, interpreter;
* :mod:`repro.feedback` — the PTXAS-info feedback loop;
* :mod:`repro.pipeline` — the instrumented pass pipeline and the
  content-addressed compile cache (in-memory LRU + persistent sharded
  disk tier);
* :mod:`repro.compiler` — configurations, the :class:`CompilerSession`
  service (cache + pipeline + stats), runtime clause guards;
* :mod:`repro.errors` — the unified exception hierarchy, mapped 1:1
  onto the serve protocol's wire error codes;
* :mod:`repro.obs` — span tracer, metrics registry, kernel profiler;
* :mod:`repro.serve` — the long-running compile-and-run daemon (bounded
  admission, deadlines, JSON-lines protocol);
* :mod:`repro.tune` — the feedback-guided per-kernel autotuner;
* :mod:`repro.bench` — SPEC/NAS benchmark models and the per-figure
  experiment harness.
"""

__version__ = "1.1.0"

from .compiler.options import BASE, CompilerConfig
from .compiler.session import (
    CompileJob,
    CompilerSession,
    compile_many,
    default_session,
)
from .gpu.arch import get_arch, list_archs
from .pipeline.registry import get_pass, list_passes, register_pass

__all__ = [
    "CompilerConfig",
    "CompilerSession",
    "compile",
    "get_arch",
    "get_pass",
    "list_archs",
    "list_passes",
    "register_pass",
    "run",
    "tune",
]


def compile(  # noqa: A001 - the facade deliberately shadows the builtin
    source: str,
    config: CompilerConfig = BASE,
    *,
    kernel_name: str | None = None,
    filename: str = "<string>",
    env: dict[str, int] | None = None,
):
    """Compile MiniACC source through the process-default session.

    Returns a :class:`~repro.compiler.driver.CompiledProgram`; repeated
    calls with identical (source, config, env) hit the session's
    content-addressed cache.
    """
    return default_session().compile_source(
        source, config, kernel_name=kernel_name, filename=filename, env=env
    )


def run(
    source: str,
    args: dict[str, object],
    *,
    kernel_name: str | None = None,
    filename: str = "<string>",
    executor: str | None = None,
):
    """Execute MiniACC source functionally through the process-default
    session.

    ``args`` binds every array and scalar parameter of the kernel
    function.  Returns ``(arrays, stats, info)`` from the execution
    ladder — generated code, with scalar fallback unless ``executor``
    overrides the session default.  Repeated calls with the same source
    reuse its parse and generated program.
    """
    return default_session().run(
        source, args, kernel_name=kernel_name, filename=filename, executor=executor
    )


# Imported last: the binding of the `tune` *function* deliberately
# replaces the `repro.tune` submodule attribute on this package (the
# submodule stays importable via `from repro.tune import ...` through
# sys.modules).  repro.tune consumes only this facade, so it must be
# fully initialised first.
from .tune import tune  # noqa: E402
