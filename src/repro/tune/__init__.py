"""repro.tune — the feedback-guided per-kernel autotuner.

Searches the optimization-config space — register cap, SAFARA on/off and
candidate budget, ``dim``/``small`` clause honoring, unroll factor — for
the point with the best modeled runtime, with pluggable strategies
(``exhaustive`` / ``greedy`` / ``beam``), cost-model pruning before any
backend compile, and batched evaluation through the session compile
cache.  A session over a ``cache_dir`` makes re-tunes resumable: they
replay from the compile disk cache (``docs/tuning.md``).

This package consumes the compiler exclusively through the stable
:mod:`repro` facade; note that ``repro.tune`` the *attribute* of the
``repro`` package is the :func:`tune` function (this module stays
importable as usual).
"""

from .space import (
    AXES,
    KnobSpace,
    TrialPoint,
    canonicalize,
    default_space,
    prune_points,
    safara_candidate_ceiling,
    source_uses_clauses,
)
from .strategies import (
    STRATEGIES,
    BeamStrategy,
    ExhaustiveStrategy,
    GreedyStrategy,
    SearchContext,
    Strategy,
    make_strategy,
)
from .tuner import RESULT_VERSION, TrialResult, TuneResult, Tuner, tune

__all__ = [
    "AXES",
    "STRATEGIES",
    "BeamStrategy",
    "ExhaustiveStrategy",
    "GreedyStrategy",
    "KnobSpace",
    "RESULT_VERSION",
    "SearchContext",
    "Strategy",
    "TrialPoint",
    "TrialResult",
    "TuneResult",
    "Tuner",
    "canonicalize",
    "default_space",
    "make_strategy",
    "prune_points",
    "safara_candidate_ceiling",
    "source_uses_clauses",
    "tune",
    "tune_error_code",
]

#: The serve-protocol error code tuning failures map onto (kept here so
#: the broker and the errors module agree by construction).
tune_error_code = "tune_error"
