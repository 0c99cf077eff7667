"""Fleet placement: route a request to the modeled-best (arch, config).

A broker configured with a *fleet* (an ordered list of arch-registry
profile names) stops assuming one device.  For each candidate arch the
policy derives the request's :class:`~repro.compiler.options.CompilerConfig`
for that profile, compiles it through the worker's session — the
content-addressed cache already keys on the arch (it hashes the config
repr, which embeds the :class:`~repro.gpu.arch.GpuArch`), so per-arch
variants share the two-tier store without collisions — and scores it
with the analytic timing model at the request's problem size.  The
winner is the candidate with the lowest modeled time; exact ties go to
fleet order, so operators control preference by ordering the fleet.

All candidate variants go through ``CompilerSession.compile_many`` in
one call on the worker's thread, so a warm fleet of N archs costs N
cache hits and zero backend compiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.session import CompileJob, CompilerSession
from ..gpu.arch import arch_key
from ..obs.tracer import span


@dataclass(frozen=True, slots=True)
class PlacementCandidate:
    """One (arch, config) pair the policy considered."""

    arch: str  # canonical registry key
    config: str  # derived config name
    model_ms: float
    max_registers: int
    min_occupancy: float

    def as_dict(self) -> dict:
        return {
            "arch": self.arch,
            "config": self.config,
            "model_ms": round(self.model_ms, 6),
            "max_registers": self.max_registers,
            "min_occupancy": round(self.min_occupancy, 4),
        }


@dataclass(frozen=True, slots=True)
class PlacementDecision:
    """The routing verdict for one request."""

    arch: str  # canonical key of the chosen profile
    config: str
    model_ms: float
    #: Every candidate, in fleet order (the chosen one included).
    candidates: tuple[PlacementCandidate, ...]
    #: ``"modeled"`` (policy chose by modeled time) or ``"pinned"``
    #: (the request named an arch explicitly).
    reason: str = "modeled"

    def as_dict(self) -> dict:
        return {
            "arch": self.arch,
            "config": self.config,
            "model_ms": round(self.model_ms, 6),
            "reason": self.reason,
            "candidates": [c.as_dict() for c in self.candidates],
        }


def choose_placement(
    session: CompilerSession,
    source: str,
    config,
    fleet: "list[str] | tuple[str, ...]",
    env: dict[str, int],
    *,
    launches: "dict | list | int" = 1,
    kernel_name: str | None = None,
) -> PlacementDecision:
    """Score ``config`` on every fleet arch and pick the modeled-best.

    ``fleet`` entries are arch names already validated by the broker;
    ``env`` must bind the problem sizes (the timing model evaluates trip
    counts).  Raises whatever the compile raises — the caller owns the
    deadline policy.
    """
    keys = [arch_key(name) for name in fleet]
    jobs = [
        CompileJob(
            source=source,
            config=config.derive(arch=key),
            kernel_name=kernel_name,
            env=env,
        )
        for key in keys
    ]
    with span("compile", config=config.name, archs=",".join(keys)):
        programs = session.compile_many(jobs)
    candidates = []
    for key, job, program in zip(keys, jobs, programs):
        timing = session.time_program(program, env, launches=launches)
        candidates.append(
            PlacementCandidate(
                arch=key,
                config=job.config.name,
                model_ms=timing.total_ms,
                max_registers=program.max_registers,
                min_occupancy=min(
                    (kt.occupancy.occupancy for kt in timing.kernels),
                    default=0.0,
                ),
            )
        )
    # min() is stable: exact ties resolve to the earliest fleet entry.
    chosen = min(candidates, key=lambda c: c.model_ms)
    return PlacementDecision(
        arch=chosen.arch,
        config=chosen.config,
        model_ms=chosen.model_ms,
        candidates=tuple(candidates),
    )
