"""The tuner core: score trial points, track the best, persist the ledger.

One :func:`tune` call searches the knob space for one (source, base
config, env, launches) task:

1. build the space (clause axes auto-inferred from the source) and
   collapse provably-equivalent points via the cost model — no backend
   compile happens for a pruned point, ever;
2. score the *reference* point (the paper's full
   ``OpenUH(SAFARA+small+dim)`` default) so the result can never be
   worse than the default configuration;
3. let the strategy pick further points; every batch goes through the
   tuning ledger (warm re-tunes replay scores, zero compiles), then
   ``CompilerSession.compile_many`` (two-tier compile cache), then the
   analytic timing model.

Observability: the whole run is a ``tune`` span; every scored point —
ledger hit or fresh — is a ``tune.trial`` span, so a ``--trace`` export
shows the complete search.  Metrics (session registry): ``tune.trials``,
``tune.ledger.hits`` / ``.misses``, ``tune.pruned``, ``tune.batches``,
``tune.trial_ms`` (histogram) and the ``tune.best_model_ms`` gauge.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .. import BASE, CompileJob, CompilerSession, default_session
from ..errors import TuneError
from ..gpu.arch import arch_key, get_arch
from ..gpu.occupancy import compute_occupancy
from ..obs.tracer import span
from .ledger import TuneLedger, task_key
from .space import (
    KnobSpace,
    TrialPoint,
    canonicalize,
    default_space,
    prune_points,
    safara_candidate_ceiling,
    source_uses_clauses,
)
from .strategies import SearchContext, Strategy, make_strategy

#: Golden result-schema version (``repro tune --json`` consumers pin it).
#: v2: trial points carry an ``arch`` knob and the top level gains
#: ``per_arch_best`` (the fleet axis).
RESULT_VERSION = 2


@dataclass(slots=True)
class TrialResult:
    """One scored trial point."""

    point: TrialPoint
    config_name: str
    model_ms: float
    max_registers: int
    min_occupancy: float
    #: ``"evaluated"`` (compiled + timed this run) or ``"ledger"``
    #: (replayed from a previous run's ledger entry).
    source: str = "evaluated"
    trial_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "point": self.point.as_dict(),
            "config": self.config_name,
            "model_ms": round(self.model_ms, 6),
            "max_registers": self.max_registers,
            "min_occupancy": round(self.min_occupancy, 4),
            "source": self.source,
        }


@dataclass(slots=True)
class TuneResult:
    """The outcome of one tuning run (``as_dict`` is the golden schema)."""

    strategy: str
    budget: int | None
    task_key: str
    space_size: int
    unique_points: int
    pruned: int
    reference: TrialResult
    best: TrialResult
    best_config: "object"
    trials: list[TrialResult] = field(default_factory=list)
    ledger_path: str | None = None
    ledger_hits: int = 0
    ledger_misses: int = 0
    #: Best trial per arch axis value, keyed by canonical registry key
    #: (the base config's arch included) — the ``--fleet`` result table.
    per_arch_best: dict[str, TrialResult] = field(default_factory=dict)

    @property
    def evaluated(self) -> int:
        return sum(1 for t in self.trials if t.source == "evaluated")

    @property
    def speedup_over_reference(self) -> float:
        return self.reference.model_ms / self.best.model_ms

    def as_dict(self) -> dict:
        return {
            "version": RESULT_VERSION,
            "strategy": self.strategy,
            "budget": self.budget,
            "task_key": self.task_key,
            "space": {
                "size": self.space_size,
                "unique": self.unique_points,
                "pruned": self.pruned,
            },
            "evaluated": self.evaluated,
            "ledger": {
                "path": self.ledger_path,
                "hits": self.ledger_hits,
                "misses": self.ledger_misses,
            },
            "reference": self.reference.as_dict(),
            "best": self.best.as_dict(),
            "speedup_over_reference": round(self.speedup_over_reference, 6),
            "per_arch_best": {
                key: t.as_dict() for key, t in sorted(self.per_arch_best.items())
            },
            "trials": [t.as_dict() for t in self.trials],
        }


class Tuner:
    """State of one tuning run; :func:`tune` is the public entrypoint."""

    def __init__(
        self,
        source: str,
        *,
        env: dict[str, int],
        launches: "dict | list | int" = 1,
        base=BASE,
        budget: int | None = None,
        session: CompilerSession | None = None,
        ledger: "TuneLedger | str | os.PathLike | None" = None,
        kernel_name: str | None = None,
        filename: str = "<string>",
    ):
        if env is None:
            raise TuneError("tune() requires env= (the problem sizes)")
        if budget is not None and budget < 1:
            raise TuneError("budget must be >= 1 (the reference always runs)")
        self.source = source
        self.env = dict(env)
        self.launches = launches
        self.base = base
        self.budget = budget
        self.session = session or default_session()
        if ledger is not None and not isinstance(ledger, TuneLedger):
            ledger = TuneLedger(ledger)
        self.ledger = ledger
        self.kernel_name = kernel_name
        self.filename = filename
        self.task = task_key(source, base, env=self.env, launches=launches)

        m = self.session.metrics
        self._trials = m.counter("tune.trials", "trial points scored")
        self._hits = m.counter("tune.ledger.hits", "trials replayed from the ledger")
        self._misses = m.counter("tune.ledger.misses", "trials compiled and timed")
        self._pruned = m.counter("tune.pruned", "points merged away before compile")
        self._batches = m.counter("tune.batches", "evaluate() batches")
        self._trial_ms = m.histogram("tune.trial_ms", help="per-trial wall time")
        self._best_gauge = m.gauge("tune.best_model_ms", "best modeled time so far")

        self.scored: dict[str, TrialResult] = {}
        self.trials: list[TrialResult] = []
        self._started = 0
        self.ledger_hits = 0
        self.ledger_misses = 0

    # -- search-space plumbing --------------------------------------------

    def _build_space(self, space: KnobSpace | None):
        self.space = space if space is not None else default_space(self.source)
        self.uses_small, self.uses_dim = source_uses_clauses(self.source)
        self.base_arch = arch_key(self.base.arch)
        # The register-cap and candidate-budget collapses are
        # arch-dependent: compute them per arch axis value (None = base).
        self.max_register_limits: dict = {}
        self.candidate_ceilings: dict = {}
        for key in self.space.archs:
            arch_base = self.base if key is None else self.base.derive(arch=key)
            self.max_register_limits[key] = (
                arch_base.arch.max_registers_per_thread
            )
            self.candidate_ceilings[key] = safara_candidate_ceiling(
                self.source,
                arch_base,
                kernel_name=self.kernel_name,
                filename=self.filename,
                session=self.session,
            )
        self.ceiling = self.candidate_ceilings.get(None)
        points = self.space.points()
        self.points, self.mapping, self.pruned = prune_points(
            points,
            uses_small=self.uses_small,
            uses_dim=self.uses_dim,
            max_register_limit=self.base.arch.max_registers_per_thread,
            candidate_ceiling=self.ceiling,
            base_arch=self.base_arch,
            max_register_limits=self.max_register_limits,
            candidate_ceilings=self.candidate_ceilings,
        )
        self._pruned.inc(self.pruned)
        self.reference = self.canonical(self.space.reference_point())

    def canonical(self, point: TrialPoint) -> TrialPoint:
        return canonicalize(
            point,
            uses_small=self.uses_small,
            uses_dim=self.uses_dim,
            max_register_limit=self.base.arch.max_registers_per_thread,
            candidate_ceiling=self.ceiling,
            base_arch=self.base_arch,
            max_register_limits=self.max_register_limits,
            candidate_ceilings=self.candidate_ceilings,
        )

    def arch_of(self, point: TrialPoint) -> str:
        """The canonical arch key a point compiles for."""
        return point.arch if point.arch is not None else self.base_arch

    def prior(self, point: TrialPoint) -> float:
        """Analytic promise score (lower = try earlier) — ordering only,
        never filtering, so a bad prior costs time, not correctness.

        Balances the paper's two forces: a lower register cap buys
        occupancy (scored via :func:`compute_occupancy` at the cap) but
        risks spills below ~40 registers; SAFARA, the clauses, and an
        uncapped candidate budget save loads.
        """
        arch = (
            self.base.arch if point.arch is None else get_arch(point.arch)
        )
        cap = point.register_limit or arch.max_registers_per_thread
        occ = compute_occupancy(cap, 256, arch).occupancy
        score = -occ
        if cap < 40:
            score += 0.3  # spill risk overrides the occupancy win
        if point.safara:
            score -= 0.4
            if point.safara_max_candidates is not None:
                score += 0.05
        if point.honor_small:
            score -= 0.2
        if point.honor_dim:
            score -= 0.2
        score += 0.1 * (point.unroll_factor - 1)
        return score

    def remaining(self) -> float:
        if self.budget is None:
            return float("inf")
        return self.budget - self._started

    def best(self) -> TrialResult:
        """Best trial so far; exact ties go to the reference point (no
        config churn without a measured win), then to key order."""
        ref = self.reference.key()
        return min(
            self.trials,
            key=lambda t: (t.model_ms, t.point.key() != ref, t.point.key()),
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points: list[TrialPoint]) -> list[TrialResult]:
        """Score a batch: ledger replay, then batched compile + timing
        model for the misses.  Dedups against already-scored keys and
        stops admitting points once the budget is spent."""
        todo: list[TrialPoint] = []
        for p in points:
            if p.key() in self.scored:
                continue
            if self.remaining() <= 0:
                break
            self._started += 1
            todo.append(p)
        if not todo:
            return []
        misses: list[TrialPoint] = []
        for p in todo:
            entry = self.ledger.get(self.task, p.key()) if self.ledger else None
            if entry is not None and self._replay(p, entry):
                continue
            misses.append(p)
        if misses:
            jobs = [
                CompileJob(
                    source=self.source,
                    config=p.apply(self.base),
                    kernel_name=self.kernel_name,
                    filename=self.filename,
                    env=self.env,
                )
                for p in misses
            ]
            programs = self.session.compile_many(jobs)
            for p, program in zip(misses, programs):
                self._score(p, program)
            if self.ledger is not None:
                self.ledger.flush()
        self._batches.inc()
        self._best_gauge.set(self.best().model_ms)
        return [self.scored[p.key()] for p in todo]

    def _replay(self, point: TrialPoint, entry: dict) -> bool:
        """Admit a ledger entry as a trial; False if it is malformed."""
        try:
            result = TrialResult(
                point=point,
                config_name=str(entry["config"]),
                model_ms=float(entry["model_ms"]),
                max_registers=int(entry["max_registers"]),
                min_occupancy=float(entry["min_occupancy"]),
                source="ledger",
            )
        except (KeyError, TypeError, ValueError):
            return False
        with span(
            "tune.trial",
            point=point.key(),
            config=result.config_name,
            cached=True,
        ) as sp:
            sp.set(model_ms=result.model_ms, registers=result.max_registers)
        self._record(result)
        self.ledger_hits += 1
        self._hits.inc()
        return True

    def _score(self, point: TrialPoint, program) -> None:
        t0 = time.perf_counter()
        with span(
            "tune.trial", point=point.key(), config=program.config.name
        ) as sp:
            timing = self.session.time_program(
                program, self.env, launches=self.launches
            )
            result = TrialResult(
                point=point,
                config_name=program.config.name,
                model_ms=timing.total_ms,
                max_registers=program.max_registers,
                min_occupancy=min(
                    (kt.occupancy.occupancy for kt in timing.kernels),
                    default=0.0,
                ),
                trial_ms=(time.perf_counter() - t0) * 1000.0,
            )
            sp.set(model_ms=result.model_ms, registers=result.max_registers)
        self._record(result)
        self.ledger_misses += 1
        self._misses.inc()
        self._trial_ms.observe(result.trial_ms)
        if self.ledger is not None:
            self.ledger.record(
                self.task,
                point.key(),
                {
                    "config": result.config_name,
                    "model_ms": result.model_ms,
                    "max_registers": result.max_registers,
                    "min_occupancy": result.min_occupancy,
                },
            )

    def _record(self, result: TrialResult) -> None:
        self.scored[result.point.key()] = result
        self.trials.append(result)
        self._trials.inc()

    # -- the run -----------------------------------------------------------

    def run(
        self, strategy: "str | Strategy" = "beam", space: KnobSpace | None = None
    ) -> TuneResult:
        strat = make_strategy(strategy)
        with span("tune", strategy=strat.name, task=self.task) as sp:
            self._build_space(space)
            sp.set(
                space=self.space.size,
                unique=len(self.points),
                pruned=self.pruned,
            )
            # The reference scores first: the best can never be worse
            # than the default configuration.
            reference_results = self.evaluate([self.reference])
            if not reference_results:
                raise TuneError("budget exhausted before the reference point")
            reference = reference_results[0]
            strat.run(
                SearchContext(
                    space=self.space,
                    points=self.points,
                    reference=self.reference,
                    evaluate=self.evaluate,
                    canonical=self.canonical,
                    prior=self.prior,
                    remaining=self.remaining,
                    best=self.best,
                    scored=self.scored,
                )
            )
            best = self.best()
            sp.set(trials=len(self.trials), best_ms=best.model_ms)
            per_arch_best: dict[str, TrialResult] = {}
            for t in self.trials:
                key = self.arch_of(t.point)
                cur = per_arch_best.get(key)
                if cur is None or (t.model_ms, t.point.key()) < (
                    cur.model_ms, cur.point.key()
                ):
                    per_arch_best[key] = t
        return TuneResult(
            strategy=strat.name,
            budget=self.budget,
            task_key=self.task,
            space_size=self.space.size,
            unique_points=len(self.points),
            pruned=self.pruned,
            reference=reference,
            best=best,
            best_config=best.point.apply(self.base),
            trials=list(self.trials),
            ledger_path=str(self.ledger.path) if self.ledger else None,
            ledger_hits=self.ledger_hits,
            ledger_misses=self.ledger_misses,
            per_arch_best=per_arch_best,
        )


def tune(
    source: str,
    *,
    env: dict[str, int],
    launches: "dict | list | int" = 1,
    base=BASE,
    strategy: "str | Strategy" = "beam",
    budget: int | None = None,
    space: KnobSpace | None = None,
    session: CompilerSession | None = None,
    ledger: "TuneLedger | str | os.PathLike | None" = None,
    kernel_name: str | None = None,
    filename: str = "<string>",
    archs: "list | tuple | None" = None,
) -> TuneResult:
    """Autotune one kernel source: search the optimization-config space
    for the point with the best modeled runtime at ``env``.

    The returned :class:`TuneResult` carries the winning
    :class:`~repro.compiler.options.CompilerConfig` (``best_config``),
    the reference score it beat, and every trial; pass ``ledger=`` a path
    to make re-tunes resumable (a warm re-tune replays every score and
    performs zero backend compiles).

    ``archs`` widens the search to a fleet: each name is resolved in the
    arch registry (unknown names raise
    :class:`~repro.errors.ConfigError`) and becomes a value of the
    ``arch`` knob axis; ``TuneResult.per_arch_best`` then reports the
    winner per device.  Mutually exclusive with an explicit ``space``
    that already sets its own ``archs``.
    """
    if archs:
        from dataclasses import replace as _replace

        base_key = arch_key(base.arch)
        keys = []
        for name in archs:
            key = arch_key(name)
            keys.append(None if key == base_key else key)
        axis = tuple(dict.fromkeys(keys))
        space = _replace(space or default_space(source), archs=axis)
    tuner = Tuner(
        source,
        env=env,
        launches=launches,
        base=base,
        budget=budget,
        session=session,
        ledger=ledger,
        kernel_name=kernel_name,
        filename=filename,
    )
    return tuner.run(strategy, space=space)
