"""Search strategies over the knob space.

Every strategy receives a :class:`SearchContext` (built by the tuner)
whose ``evaluate()`` is the only way to score points: it dedups against
already-scored keys, batches the new points through
``CompilerSession.compile_many``, and enforces the trial budget.
The tuner scores the *reference point first*, before any strategy runs,
so the reported best can never be worse than the default configuration
regardless of how a strategy explores.

Strategies:

* ``exhaustive`` — every canonical point, in space order (the ground
  truth; bounded only by the budget);
* ``greedy``     — coordinate descent from the reference: sweep one knob
  axis at a time, move to the best seen, repeat until a full pass stops
  improving;
* ``beam``       — cost-model-guided: order points by an analytic prior
  (occupancy at the register cap, candidate-cost mass, clause credit),
  evaluate in prior order, stop after ``patience`` batches without
  improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import TuneError
from .space import AXES, KnobSpace, TrialPoint


@dataclass(slots=True)
class SearchContext:
    """What a strategy may see and do (built by the tuner)."""

    space: KnobSpace
    #: Canonical unique points (reference included), deterministic order.
    points: list[TrialPoint]
    reference: TrialPoint
    #: Score a batch; returns results for the points actually scored
    #: (dedup + budget may shrink the batch).
    evaluate: Callable[[list[TrialPoint]], list]
    #: Canonicalize an arbitrary point into the pruned space.
    canonical: Callable[[TrialPoint], TrialPoint]
    #: Analytic prior: lower = more promising (ordering only).
    prior: Callable[[TrialPoint], float]
    #: Trials still allowed (may be infinite).
    remaining: Callable[[], float]
    #: Current best scored trial (the reference is always scored first).
    best: Callable[[], "object"]
    scored: dict[str, "object"] = field(default_factory=dict)


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i : i + size]


class Strategy:
    name = "strategy"

    def run(self, ctx: SearchContext) -> None:
        raise NotImplementedError


class ExhaustiveStrategy(Strategy):
    """Grid search: every canonical point, batched for the compile pool."""

    name = "exhaustive"

    def __init__(self, batch_size: int = 8):
        self.batch_size = batch_size

    def run(self, ctx: SearchContext) -> None:
        pending = [p for p in ctx.points if p.key() not in ctx.scored]
        for batch in _chunks(pending, self.batch_size):
            if ctx.remaining() <= 0:
                return
            ctx.evaluate(batch)


class GreedyStrategy(Strategy):
    """Coordinate descent from the reference point.

    One pass sweeps every axis (in :data:`~repro.tune.space.AXES` order),
    scoring the current point varied along that axis and jumping to the
    best trial seen so far; passes repeat until one completes with no
    improvement.  Cheap (≈ sum of axis sizes per pass, not their
    product) but can miss knob interactions the exhaustive grid finds.
    """

    name = "greedy"

    def __init__(self, max_passes: int = 4):
        self.max_passes = max_passes

    def run(self, ctx: SearchContext) -> None:
        current = ctx.best().point
        for _ in range(self.max_passes):
            improved = False
            for axis in AXES:
                if ctx.remaining() <= 0:
                    return
                variants: dict[str, TrialPoint] = {}
                for value in ctx.space.axis_values(axis):
                    p = ctx.canonical(replace(current, **{axis: value}))
                    if p.key() != current.key():
                        variants[p.key()] = p
                if not variants:
                    continue
                ctx.evaluate(list(variants.values()))
                best = ctx.best()
                if best.point.key() != current.key():
                    current = best.point
                    improved = True
            if not improved:
                return


class BeamStrategy(Strategy):
    """Prior-ordered search with early stopping.

    Points are sorted by the cost-model prior and evaluated ``width`` at
    a time; after ``patience`` consecutive batches without a new best,
    the remaining (least promising) tail is skipped.
    """

    name = "beam"

    def __init__(self, width: int = 8, patience: int = 2):
        self.width = width
        self.patience = patience

    def run(self, ctx: SearchContext) -> None:
        pending = [p for p in ctx.points if p.key() not in ctx.scored]
        pending.sort(key=lambda p: (ctx.prior(p), p.key()))
        stale = 0
        for batch in _chunks(pending, self.width):
            if ctx.remaining() <= 0 or stale >= self.patience:
                return
            best_before = ctx.best().model_ms
            ctx.evaluate(batch)
            stale = 0 if ctx.best().model_ms < best_before else stale + 1


#: Registered strategies (factories, so each run gets fresh state).
STRATEGIES: dict[str, Callable[[], Strategy]] = {
    "exhaustive": ExhaustiveStrategy,
    "greedy": GreedyStrategy,
    "beam": BeamStrategy,
}


def make_strategy(spec: "str | Strategy") -> Strategy:
    """Resolve a strategy name (or pass an instance through)."""
    if isinstance(spec, Strategy):
        return spec
    factory = STRATEGIES.get(spec)
    if factory is None:
        known = ", ".join(sorted(STRATEGIES))
        raise TuneError(f"unknown strategy {spec!r}; known: {known}")
    return factory()
