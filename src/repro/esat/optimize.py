"""The region driver: saturate + extract every expression in a region.

One e-graph per offload region — sharing the graph across statements is
the point: two statements spelling the same value differently land in
one e-class, extract to the *same tree object* (the region's
:class:`~repro.esat.extract.Extractor` hash-conses what it builds, in a
table that lives for that one extraction), and from then on every
structural consumer (scalar-replacement grouping, codegen value
numbering, the readonly-cache planner) sees them as identical.  The
e-graph proves the equality; the downstream passes cash it in.

Expression slots rewritten: assignment values, array-store subscripts,
local-decl initialisers and branch conditions.  Loop bounds are left
untouched on purpose — they are evaluated once to shape the launch
topology, not per thread, so rewriting them buys nothing and would
perturb the spelling that launch-config cache keys hash over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, If, LocalDecl, Region, stmt_exprs, walk_stmts
from ..obs.tracer import span as obs_span
from .egraph import EGraph
from .extract import Extractor
from .rules import Rule, default_rules


@dataclass(slots=True)
class EsatReport:
    """What one saturation+extraction run did on a region."""

    #: Expression slots fed to the e-graph.
    exprs: int = 0
    #: Final e-graph size.
    nodes: int = 0
    classes: int = 0
    #: Equalities discovered (union operations).
    unions: int = 0
    #: Rule sweeps executed.
    iterations: int = 0
    #: Reached a fixpoint within the node/iteration bounds.
    saturated: bool = False
    #: Classes holding > 1 distinct source spelling — syntactically
    #: different source expressions proven equal (the SAFARA feed).
    unified_spellings: int = 0
    #: Slots whose extracted tree differs from the original.
    rewritten: int = 0
    #: Array references that are *newly repeated* after extraction —
    #: references SAFARA's reuse analysis sees >= 2 times post-esat but
    #: saw < 2 times pre-esat (``A[i]*2 -> A[i]+A[i]`` duplicates the
    #: load; subscript canonicalisation folds distinct spellings onto one
    #: reference).  Together with :attr:`unified_spellings` these are the
    #: new scalar-replacement candidates the pass feeds downstream.
    new_candidates: int = 0
    #: Did the saturated kernel ship?  The session's register-pressure
    #: guard compiles each region both ways and falls back to the
    #: unsaturated kernel when saturation would not help (False here);
    #: set by the session, not by :func:`saturate_region`.
    applied: bool = True


def saturate_region(
    region: Region,
    *,
    rules: "list[Rule] | None" = None,
    weights: "dict[str, float] | None" = None,
    node_limit: int = 4096,
    iter_limit: int = 8,
) -> EsatReport:
    """Saturate every expression of ``region`` and rewrite in place.

    Returns the :class:`EsatReport`; the region's statements are
    mutated to hold the extracted representatives, hash-consed within
    this region.
    """
    eg = EGraph(node_limit=node_limit, iter_limit=iter_limit)
    # (statement, attribute) slots, in deterministic program order.
    slots: list[tuple[object, str, int]] = []
    for stmt in walk_stmts(region.body):
        if isinstance(stmt, Assign):
            slots.append((stmt, "value", eg.add(stmt.value)))
            if isinstance(stmt.target, ArrayRef):
                slots.append((stmt, "target", eg.add(stmt.target)))
        elif isinstance(stmt, LocalDecl) and stmt.init is not None:
            slots.append((stmt, "init", eg.add(stmt.init)))
        elif isinstance(stmt, If):
            slots.append((stmt, "cond", eg.add(stmt.cond)))

    report = EsatReport(exprs=len(slots))
    repeated_before = _repeated_refs(region)
    with obs_span("esat", slots=len(slots)):
        stats = eg.saturate(rules if rules is not None else default_rules())
        report.nodes = stats.nodes
        report.classes = stats.classes
        report.unions = stats.unions
        report.iterations = stats.iterations
        report.saturated = stats.saturated
        report.unified_spellings = eg.unified_classes()

        with obs_span("esat.extract", classes=stats.classes):
            extractor = Extractor(eg, weights)
            for stmt, attr, cid in slots:
                old = getattr(stmt, attr)
                new = extractor.expr_of(cid)
                if attr == "target" and not (
                    isinstance(new, ArrayRef) and new.sym is old.sym
                ):
                    continue  # never let a store target change shape
                if new is not old and new != old:
                    setattr(stmt, attr, new)
                    report.rewritten += 1
    report.new_candidates = len(_repeated_refs(region) - repeated_before)
    return report


def _repeated_refs(region: Region) -> "set[ArrayRef]":
    """Array references occurring at least twice in the region — the
    shapes SAFARA's reuse analysis groups into replacement candidates."""
    counts: Counter = Counter()
    for stmt in walk_stmts(region.body):
        for e in stmt_exprs(stmt):
            for node in e.walk():
                if isinstance(node, ArrayRef):
                    counts[node] += 1
    return {ref for ref, n in counts.items() if n >= 2}
