"""The simulated GPU substrate: architecture models, the ptxas-simulator
register allocator, occupancy/memory/timing models, latency microbenchmarks
and the functional interpreter."""

from .arch import (
    ARCHES,
    CDNA2_MI250,
    FERMI_LIKE,
    KEPLER_K20XM,
    ArchRegistry,
    GpuArch,
    arch_key,
    get_arch,
    list_archs,
    register_arch,
)
from .interpreter import (
    ExecutionStats,
    Interpreter,
    InterpreterError,
    numpy_dtype,
    run_kernel,
)
from .memory import access_latency, warp_transaction_bytes, warp_transactions
from .vector_exec import (
    ExecutionInfo,
    VectorInterpreter,
    VectorUnsupported,
    execute_kernel,
)
from .microbench import LatencyMeasurement, measure_all, measure_latency
from .occupancy import Occupancy, compute_occupancy
from .registers import (
    AllocationResult,
    LiveInterval,
    PtxasInfo,
    allocate,
    compute_live_intervals,
    max_pressure,
    ptxas_info,
)
from .timing import KernelTiming, ThreadProfile, estimate_time, profile_thread

__all__ = [
    "ARCHES",
    "AllocationResult",
    "ArchRegistry",
    "CDNA2_MI250",
    "ExecutionInfo",
    "ExecutionStats",
    "FERMI_LIKE",
    "GpuArch",
    "arch_key",
    "get_arch",
    "list_archs",
    "register_arch",
    "Interpreter",
    "InterpreterError",
    "KEPLER_K20XM",
    "KernelTiming",
    "VectorInterpreter",
    "VectorUnsupported",
    "execute_kernel",
    "LatencyMeasurement",
    "LiveInterval",
    "Occupancy",
    "PtxasInfo",
    "ThreadProfile",
    "access_latency",
    "allocate",
    "compute_live_intervals",
    "compute_occupancy",
    "estimate_time",
    "max_pressure",
    "measure_all",
    "measure_latency",
    "numpy_dtype",
    "profile_thread",
    "ptxas_info",
    "run_kernel",
    "warp_transaction_bytes",
    "warp_transactions",
]
