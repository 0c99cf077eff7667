"""Code generation: the VIR virtual ISA (PTX stand-in), the region
lowering pass, and a readable CUDA-like source renderer."""

from .cuda_text import CudaRenderer, render_cuda
from .kernelgen import CodegenOptions, KernelGenerator, generate_kernel
from .vector_lower import AXIS, SEQ, KernelPlan, LoopPlan, RegionPlan, plan_kernel
from .vir import (
    Instr,
    LaunchConfig,
    MARKER_OPS,
    MEMORY_OPS,
    Op,
    VirKernel,
    VReg,
    VRegAllocator,
)

__all__ = [
    "AXIS",
    "SEQ",
    "KernelPlan",
    "LoopPlan",
    "RegionPlan",
    "plan_kernel",
    "CodegenOptions",
    "CudaRenderer",
    "render_cuda",
    "Instr",
    "KernelGenerator",
    "LaunchConfig",
    "MARKER_OPS",
    "MEMORY_OPS",
    "Op",
    "VReg",
    "VRegAllocator",
    "VirKernel",
    "generate_kernel",
]
