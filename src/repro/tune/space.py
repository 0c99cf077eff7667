"""The autotuner's search space: knob points over a base configuration.

A :class:`TrialPoint` is one assignment of the tunable knobs — register
cap, SAFARA on/off and its per-iteration candidate budget, ``small``/
``dim`` clause honoring, unroll factor, equality saturation on/off and
its extraction-weight override — and maps onto a
:class:`~repro.compiler.options.CompilerConfig` via
:meth:`TrialPoint.apply` (which goes through ``derive()``, so a typoed
knob name fails loudly instead of tuning nothing).

:func:`prune_points` removes *provably equivalent* points before any
backend compile, using only front-end facts:

* clauses the source never writes cannot change codegen, so the
  ``honor_small``/``honor_dim`` axes collapse when the directives are
  absent (``dim``/``small`` inference — the tuner reads the source, not
  the user's flags);
* with SAFARA off, the candidate budget is dead;
* with saturation off, the extraction-weight override is dead — and an
  override spelling out the extractor's defaults equals ``None``;
* a candidate budget at or above the cost model's candidate count for
  the region (see :func:`safara_candidate_ceiling`) never truncates —
  SAFARA's per-iteration candidate list only shrinks as replacements
  remove reuse groups — so such budgets equal "unlimited";
* a register cap at or above the architecture's per-thread maximum is
  the same as no cap.

Every rule merges points whose compiled programs are bit-identical, so
pruning can never discard the true best configuration (the property
test in ``tests/tune/test_space.py`` checks this on the paper's table
kernels).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

#: Register caps swept by default: "no cap" plus the occupancy-tier
#: boundaries the paper's Table II discussion turns on (a Kepler SM's
#: 65536 registers / 2048 threads = 32 per thread for full occupancy;
#: 48/64/128 are the next tiers down).
DEFAULT_REGISTER_LIMITS: tuple[int | None, ...] = (None, 32, 48, 64, 128)

#: Per-iteration SAFARA candidate budgets (None = the paper's unlimited).
DEFAULT_CANDIDATE_BUDGETS: tuple[int | None, ...] = (None, 2, 4)

#: Unroll factors (1 = off; 2 = the paper's future-work combination).
DEFAULT_UNROLL_FACTORS: tuple[int, ...] = (1, 2)


@dataclass(frozen=True, slots=True)
class TrialPoint:
    """One assignment of every tunable knob."""

    register_limit: int | None = None
    safara: bool = True
    safara_max_candidates: int | None = None
    honor_small: bool = True
    honor_dim: bool = True
    unroll_factor: int = 1
    #: Target architecture: the canonical registry key of a profile, or
    #: ``None`` for the base config's arch.  A first-class axis, so one
    #: ``repro tune --fleet`` run searches configs *across* devices.
    arch: str | None = None
    #: Equality saturation (the :mod:`repro.esat` pass) on/off.
    saturate: bool = False
    #: Extraction-weight override as sorted ``(key, value)`` pairs
    #: (hashable; ``None`` = the extractor's defaults).  Dead unless
    #: ``saturate`` is on.
    esat_weights: "tuple[tuple[str, float], ...] | None" = None

    def key(self) -> str:
        """Stable content key for the ledger and within-run dedup (the
        arch/saturation suffixes appear only off their defaults, so
        ledgers written before those axes existed stay replayable)."""
        rl = "none" if self.register_limit is None else self.register_limit
        cand = (
            "none"
            if self.safara_max_candidates is None
            else self.safara_max_candidates
        )
        key = (
            f"rl={rl};safara={int(self.safara)};cand={cand};"
            f"small={int(self.honor_small)};dim={int(self.honor_dim)};"
            f"unroll={self.unroll_factor}"
        )
        if self.arch is not None:
            key += f";arch={self.arch}"
        if self.saturate:
            key += ";sat=1"
        if self.esat_weights is not None:
            pairs = ",".join(f"{k}:{v:g}" for k, v in sorted(self.esat_weights))
            key += f";esatw={pairs}"
        return key

    def apply(self, base) -> "object":
        """The :class:`CompilerConfig` this point denotes over ``base``."""
        overrides = dict(
            name=f"tune({self.key()})",
            register_limit=self.register_limit,
            safara=self.safara,
            safara_max_candidates=self.safara_max_candidates,
            honor_small=self.honor_small,
            honor_dim=self.honor_dim,
            unroll_factor=self.unroll_factor,
            saturate=self.saturate,
            esat_extraction_weights=self.esat_weights,
        )
        if self.arch is not None:
            overrides["arch"] = self.arch
        return base.derive(**overrides)

    def as_dict(self) -> dict:
        return {
            "register_limit": self.register_limit,
            "safara": self.safara,
            "safara_max_candidates": self.safara_max_candidates,
            "honor_small": self.honor_small,
            "honor_dim": self.honor_dim,
            "unroll_factor": self.unroll_factor,
            "arch": self.arch,
            "saturate": self.saturate,
            "esat_weights": (
                None
                if self.esat_weights is None
                else {k: v for k, v in self.esat_weights}
            ),
        }


#: Knob-axis names in the order coordinate-descent visits them (most
#: impactful first: the device itself, then per the paper clauses, then
#: SAFARA, then caps).
AXES = (
    "arch",
    "honor_small",
    "honor_dim",
    "safara",
    "saturate",
    "register_limit",
    "safara_max_candidates",
    "unroll_factor",
    "esat_weights",
)


@dataclass(frozen=True, slots=True)
class KnobSpace:
    """The cartesian knob space a tuning run searches."""

    register_limits: tuple = DEFAULT_REGISTER_LIMITS
    safara: tuple = (True, False)
    candidate_budgets: tuple = DEFAULT_CANDIDATE_BUDGETS
    honor_small: tuple = (True, False)
    honor_dim: tuple = (True, False)
    unroll_factors: tuple = DEFAULT_UNROLL_FACTORS
    #: Arch axis values (canonical registry keys; ``None`` = base arch).
    #: Single-valued by default — fleet tuning widens it.
    archs: tuple = (None,)
    #: Equality-saturation axis.  Single-valued (off) by default so
    #: pre-existing spaces, ledgers and budgets are unchanged; widen to
    #: ``(False, True)`` to let the tuner weigh the esat pass.
    saturate: tuple = (False,)
    #: Extraction-weight axis: ``None`` = extractor defaults; widen with
    #: sorted ``(key, value)``-pair tuples to sweep cost models.
    esat_weights: tuple = (None,)

    def axis_values(self, axis: str) -> tuple:
        return {
            "register_limit": self.register_limits,
            "safara": self.safara,
            "safara_max_candidates": self.candidate_budgets,
            "honor_small": self.honor_small,
            "honor_dim": self.honor_dim,
            "unroll_factor": self.unroll_factors,
            "arch": self.archs,
            "saturate": self.saturate,
            "esat_weights": self.esat_weights,
        }[axis]

    @property
    def size(self) -> int:
        n = 1
        for axis in AXES:
            n *= len(self.axis_values(axis))
        return n

    def points(self) -> list[TrialPoint]:
        """Every point, in a deterministic order."""
        out = []
        for arch, rl, sa, cand, small, dim, unroll, sat, ew in itertools.product(
            self.archs,
            self.register_limits,
            self.safara,
            self.candidate_budgets,
            self.honor_small,
            self.honor_dim,
            self.unroll_factors,
            self.saturate,
            self.esat_weights,
        ):
            out.append(
                TrialPoint(
                    register_limit=rl,
                    safara=sa,
                    safara_max_candidates=cand,
                    honor_small=small,
                    honor_dim=dim,
                    unroll_factor=unroll,
                    arch=arch,
                    saturate=sat,
                    esat_weights=ew,
                )
            )
        return out

    def reference_point(self) -> TrialPoint:
        """The point the run scores first and reports speedup against:
        SAFARA on, unlimited candidates, clauses honored (where the axis
        allows), no cap, no unrolling — i.e. the paper's full
        ``OpenUH(SAFARA+small+dim)`` default."""
        return TrialPoint(
            register_limit=None,
            safara=True,
            safara_max_candidates=None,
            honor_small=True in self.honor_small,
            honor_dim=True in self.honor_dim,
            unroll_factor=1,
        )


def source_uses_clauses(source: str) -> tuple[bool, bool]:
    """(uses_small, uses_dim) — inferred from directive lines only, so
    array subscripts or comments cannot fake a clause."""
    uses_small = uses_dim = False
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped.startswith("#pragma"):
            continue
        if "small(" in stripped:
            uses_small = True
        if "dim(" in stripped:
            uses_dim = True
    return uses_small, uses_dim


def default_space(source: str) -> KnobSpace:
    """The default knob space for ``source``, with the clause axes
    auto-inferred: a clause the source never writes contributes a single
    ``False`` value instead of a dead axis."""
    uses_small, uses_dim = source_uses_clauses(source)
    return KnobSpace(
        honor_small=(True, False) if uses_small else (False,),
        honor_dim=(True, False) if uses_dim else (False,),
    )


def safara_candidate_ceiling(
    source: str,
    base,
    *,
    kernel_name: str | None = None,
    filename: str = "<string>",
    session=None,
):
    """Max per-region SAFARA candidate count of the kernel the tuner
    compiles (``kernel_name``, default the first) after the pipeline
    prefix (autopar + LICM) at unroll 1, from the cost model alone — no
    backend compile.  ``None`` when the ceiling cannot be computed soundly
    (a Carr-Kennedy base mutates the region before SAFARA would see it).
    The prefix runs in place, so it analyses a clone of ``session``'s
    parse (default: the process-wide session).
    """
    if getattr(base, "carr_kennedy", False):
        return None
    from ..compiler.session import default_session
    from ..transforms.autopar import auto_parallelize
    from ..transforms.licm import apply_licm
    from ..transforms.safara import collect_candidates

    session = session if session is not None else default_session()
    fn = session.function(source, kernel_name=kernel_name, filename=filename).clone()
    has_roc = base.readonly_cache and base.arch.has_readonly_cache
    latency = base.latency or base.arch.latency
    ceiling = 0
    for region in fn.regions():
        auto_parallelize(region)
        apply_licm(region, fn.symtab)
        count = len(
            collect_candidates(region, has_readonly_cache=has_roc, latency=latency)
        )
        ceiling = max(ceiling, count)
    return ceiling


def canonicalize(
    point: TrialPoint,
    *,
    uses_small: bool,
    uses_dim: bool,
    max_register_limit: int | None = None,
    candidate_ceiling: int | None = None,
    base_arch: str | None = None,
    max_register_limits: "dict | None" = None,
    candidate_ceilings: "dict | None" = None,
) -> TrialPoint:
    """The representative of ``point``'s equivalence class (see module
    docstring for the soundness argument of each collapse).

    With the arch axis in play the register-cap and candidate-budget
    collapses are arch-dependent (a 256-cap is dead on Kepler's 255-max
    but live on CDNA2); callers pass ``max_register_limits`` /
    ``candidate_ceilings`` keyed by arch axis value (``None`` = base),
    and ``base_arch`` (the base config's canonical key) so a point that
    names the base arch explicitly merges with the ``None`` spelling.
    """
    p = point
    if p.arch is not None and base_arch is not None and p.arch == base_arch:
        p = replace(p, arch=None)
    if max_register_limits is not None:
        max_register_limit = max_register_limits.get(p.arch, max_register_limit)
    if candidate_ceilings is not None:
        candidate_ceiling = candidate_ceilings.get(p.arch, candidate_ceiling)
    if not uses_small and p.honor_small:
        p = replace(p, honor_small=False)
    if not uses_dim and p.honor_dim:
        p = replace(p, honor_dim=False)
    if not p.safara and p.safara_max_candidates is not None:
        p = replace(p, safara_max_candidates=None)
    if not p.saturate and p.esat_weights is not None:
        p = replace(p, esat_weights=None)
    if p.saturate and p.esat_weights is not None:
        from ..esat.extract import DEFAULT_WEIGHTS

        if dict(p.esat_weights) == DEFAULT_WEIGHTS:
            p = replace(p, esat_weights=None)
    if (
        p.safara
        and p.safara_max_candidates is not None
        and candidate_ceiling is not None
        and p.unroll_factor == 1
        and p.safara_max_candidates >= candidate_ceiling
    ):
        p = replace(p, safara_max_candidates=None)
    if (
        p.register_limit is not None
        and max_register_limit is not None
        and p.register_limit >= max_register_limit
    ):
        p = replace(p, register_limit=None)
    return p


def prune_points(
    points: list[TrialPoint],
    *,
    uses_small: bool,
    uses_dim: bool,
    max_register_limit: int | None = None,
    candidate_ceiling: int | None = None,
    base_arch: str | None = None,
    max_register_limits: "dict | None" = None,
    candidate_ceilings: "dict | None" = None,
) -> tuple[list[TrialPoint], dict[str, TrialPoint], int]:
    """Collapse ``points`` to canonical representatives.

    Returns ``(unique, mapping, pruned)``: the representatives in first-
    seen order, a map from every original point's key to its
    representative, and how many points were merged away.
    """
    unique: list[TrialPoint] = []
    seen: dict[str, TrialPoint] = {}
    mapping: dict[str, TrialPoint] = {}
    for point in points:
        canon = canonicalize(
            point,
            uses_small=uses_small,
            uses_dim=uses_dim,
            max_register_limit=max_register_limit,
            candidate_ceiling=candidate_ceiling,
            base_arch=base_arch,
            max_register_limits=max_register_limits,
            candidate_ceilings=candidate_ceilings,
        )
        mapping[point.key()] = canon
        ck = canon.key()
        if ck not in seen:
            seen[ck] = canon
            unique.append(canon)
    return unique, mapping, len(points) - len(unique)
