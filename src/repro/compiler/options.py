"""Compiler configurations — the experimental arms of the evaluation.

Each :class:`CompilerConfig` is one bar group in the paper's figures:

* ``BASE``          — OpenUH with the paper's optimisations disabled;
* ``SAFARA_ONLY``   — Figure 7 (SAFARA without the new clauses);
* ``SMALL``         — the ``small`` clause alone;
* ``SMALL_DIM``     — ``small`` + ``dim``;
* ``SMALL_DIM_SAFARA`` — everything (Figures 9/10's rightmost bars);
* ``CARR_KENNEDY``  — the classic algorithm, for the ablation benches;
* ``PGI``           — the commercial-comparator model of Figures 11/12.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from ..analysis.cost_model import LatencyModel
from ..codegen.kernelgen import CodegenOptions
from ..errors import ConfigError
from ..gpu.arch import ARCHES, GpuArch, KEPLER_K20XM


class _TokenSlot:
    """The slot :func:`repro.pipeline.cache.config_token` keeps a config's
    token in once derived.  Not a field, so it stays out of ``__init__``,
    ``repr``, equality and pickled state."""

    __slots__ = ("_token",)


@dataclass(frozen=True, slots=True)
class CompilerConfig(_TokenSlot):
    """One complete compiler configuration."""

    name: str
    #: Honor the proposed clauses in the source.
    honor_small: bool = False
    honor_dim: bool = False
    #: Run SAFARA (feedback-driven, latency-aware scalar replacement).
    safara: bool = False
    #: Cap on scalar-replacement candidates SAFARA may apply per feedback
    #: iteration (None = unlimited).  An autotuning knob: small budgets
    #: trade loads-saved for register headroom (and shorter feedback
    #: loops) without disabling SAFARA outright.
    safara_max_candidates: int | None = None
    #: Run the classic Carr-Kennedy baseline instead.
    carr_kennedy: bool = False
    #: Restrict Carr-Kennedy to intra-iteration groups (used by the PGI
    #: model: a production compiler that will not sequentialise loops but
    #: also has no latency-aware inter-iteration machinery).
    ck_intra_only: bool = False
    ck_register_budget: int = 32
    #: Use the read-only data cache for eligible arrays.
    readonly_cache: bool = True
    #: Per-thread register cap handed to ptxas (None = arch maximum).
    register_limit: int | None = None
    #: Unroll innermost sequential loops by this factor before scalar
    #: replacement (1 = off).  The paper's future-work combination.
    unroll_factor: int = 1
    #: Merge adjacent loads into vector (128-bit) loads during codegen —
    #: the future-work "memory vectorization".
    vectorize_loads: bool = False
    #: Run equality saturation (:mod:`repro.esat`) before scalar
    #: replacement: canonicalize expressions so equal-but-differently-
    #: spelled subscripts unify, and strength-reduce where bit-exact.
    #: Also turns on expression value numbering in codegen (the two are
    #: one optimization: esat canonicalizes, codegen reuses).
    saturate: bool = False
    #: Overrides for the esat extraction cost weights, as a mapping from
    #: weight key (``repro.esat.WEIGHT_KEYS``) to positive float.  Stored
    #: normalized as a sorted tuple of pairs so the frozen config stays
    #: hashable and cache keys are spelling-independent; unknown keys and
    #: non-positive values raise :class:`~repro.errors.ConfigError`.
    esat_extraction_weights: "tuple[tuple[str, float], ...] | None" = None
    #: Relative quality of the backend's scalar code (PGI's mature backend
    #: emits slightly tighter address code than the research compiler).
    issue_efficiency: float = 1.0
    #: Target architecture: a :class:`GpuArch` profile, or the registry
    #: name of one (``"cdna2-mi250"``); names are resolved through
    #: :data:`repro.gpu.arch.ARCHES` in ``__post_init__``, so every
    #: construction path (``derive``, ``replace``, direct init) validates
    #: them and unknown names raise :class:`~repro.errors.ConfigError`.
    arch: GpuArch | str = KEPLER_K20XM
    latency: LatencyModel | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.arch, GpuArch):
            object.__setattr__(self, "arch", ARCHES.get(self.arch))
        if self.esat_extraction_weights is not None:
            from ..esat.extract import validate_weights

            raw = self.esat_extraction_weights
            pairs = dict(raw.items() if isinstance(raw, dict) else raw)
            validate_weights(pairs)
            object.__setattr__(
                self,
                "esat_extraction_weights",
                tuple(sorted((k, float(v)) for k, v in pairs.items())),
            )

    def extraction_weights(self) -> "dict[str, float] | None":
        """The weight overrides as the dict :mod:`repro.esat` consumes."""
        if self.esat_extraction_weights is None:
            return None
        return dict(self.esat_extraction_weights)

    def codegen_options(self) -> CodegenOptions:
        return CodegenOptions(
            honor_dim=self.honor_dim,
            honor_small=self.honor_small,
            readonly_cache=self.readonly_cache and self.arch.has_readonly_cache,
            vectorize_loads=self.vectorize_loads,
            cse_exprs=self.saturate,
        )

    def derive(self, **overrides) -> "CompilerConfig":
        """Builder: a new frozen config with the given fields replaced.

        The canonical way to vary a configuration (configs are immutable)::

            capped = SMALL_DIM_SAFARA.derive(name="cap32", register_limit=32)

        Unknown keys are rejected with a :class:`~repro.errors.ConfigError`
        (a ``ValueError``) naming the offending key — the autotuner relies
        on this to catch knob-name typos in strategy definitions instead
        of silently tuning nothing.
        """
        valid = {f.name for f in fields(self)}
        for key in overrides:
            if key not in valid:
                raise ConfigError(
                    f"CompilerConfig.derive(): unknown field {key!r} "
                    f"(valid fields: {', '.join(sorted(valid))})"
                )
        return replace(self, **overrides)

    def with_arch(self, arch: "GpuArch | str") -> "CompilerConfig":
        return self.derive(arch=arch)


BASE = CompilerConfig(name="OpenUH(base)")
SAFARA_ONLY = BASE.derive(name="OpenUH(SAFARA)", safara=True)
SMALL = BASE.derive(name="OpenUH(small)", honor_small=True)
SMALL_DIM = SMALL.derive(name="OpenUH(small+dim)", honor_dim=True)
SMALL_DIM_SAFARA = SMALL_DIM.derive(name="OpenUH(SAFARA+small+dim)", safara=True)
CARR_KENNEDY = BASE.derive(name="OpenUH(Carr-Kennedy)", carr_kennedy=True)
#: The commercial-comparator model: solid baseline codegen (efficiency
#: factor), conservative intra-iteration replacement only, ignores the
#: proposed clauses entirely (they are not in the OpenACC standard).
PGI = CARR_KENNEDY.derive(
    name="PGI",
    ck_intra_only=True,
    ck_register_budget=16,
    issue_efficiency=0.85,
)

#: Future-work configurations (paper Section VII): unrolling and memory
#: vectorization composed with the full optimisation stack.
UNROLL_SAFARA = SMALL_DIM_SAFARA.derive(
    name="OpenUH(SAFARA+clauses+unroll)", unroll_factor=2
)
VECTOR_SAFARA = SMALL_DIM_SAFARA.derive(
    name="OpenUH(SAFARA+clauses+vec)", vectorize_loads=True
)

ALL_CONFIGS = {
    cfg.name: cfg
    for cfg in (
        BASE,
        SAFARA_ONLY,
        SMALL,
        SMALL_DIM,
        SMALL_DIM_SAFARA,
        CARR_KENNEDY,
        PGI,
        UNROLL_SAFARA,
        VECTOR_SAFARA,
    )
}
