"""Cost-based extraction: pick one representative per e-class.

After saturation every e-class holds several equal spellings; extraction
chooses the cheapest one under a latency×use cost model and rebuilds a
plain IR expression from the choices, hash-consed within the extraction.

The cost of an e-node is its own operator weight plus the cost of each
**distinct** child class — children are deduplicated per node before
summing.  That single design choice is what makes strength reduction
land: the tree cost of ``x + x`` double-counts the shared ``x``, but its
extraction cost counts ``x`` once, so ``x + x`` (one add) beats
``x * 2`` (one mul plus a constant) even when ``x`` is an expensive
load.  The duplicated occurrence is then visible to the reuse analysis
as a second use of the same array reference.

Costs are solved to a fixpoint over the (possibly cyclic) class graph:
start at infinity, relax until stable.  Ties are broken by e-node
insertion order, so when a rewrite cannot beat the source spelling the
source spelling survives and extraction is the identity.

Weights are configurable per operator family (``const``, ``var``,
``load``, ``alu``, ``mul``, ``div``, ``call``, ``cast``, ``select``) and
default to the issue-cost table the SAFARA profitability model already
uses — the two models must agree on what "expensive" means or extraction
would undo what scalar replacement wants to do.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cast,
    Expr,
    FloatConst,
    IntConst,
    Select,
    UnOp,
    VarRef,
    intern_expr,
)
from .egraph import EGraph, ENode

#: The configurable weight axes, in canonical order.
WEIGHT_KEYS = (
    "const",
    "var",
    "load",
    "alu",
    "mul",
    "div",
    "call",
    "cast",
    "select",
)

#: Default weights — aligned with the SAFARA issue-cost table (loads are
#: worth ~4 ALU slots, divides and intrinsic calls ~8).
DEFAULT_WEIGHTS: dict[str, float] = {
    "const": 0.5,
    "var": 1.0,
    "load": 4.0,
    "alu": 1.0,
    "mul": 1.5,
    "div": 8.0,
    "call": 8.0,
    "cast": 1.0,
    "select": 2.0,
}


def validate_weights(weights: dict[str, float]) -> dict[str, float]:
    """Merge ``weights`` over the defaults; reject unknown keys and
    non-positive values (a zero-cost operator would make extraction
    insensitive to it and ties meaningless)."""
    unknown = sorted(set(weights) - set(WEIGHT_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown extraction weight keys {unknown} "
            f"(valid keys: {', '.join(WEIGHT_KEYS)})"
        )
    merged = dict(DEFAULT_WEIGHTS)
    for key, value in weights.items():
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ConfigError(
                f"extraction weight {key!r} must be a positive finite "
                f"number, got {value!r}"
            )
        merged[key] = value
    return merged


def _node_weight(node: ENode, weights: dict[str, float]) -> float:
    tag = node.tag
    if tag in ("int", "float"):
        return weights["const"]
    if tag == "var":
        return weights["var"]
    if tag == "aref":
        return weights["load"]
    if tag == "bin":
        op = node.payload[0]
        if op == "*":
            return weights["mul"]
        if op in ("/", "%"):
            return weights["div"]
        return weights["alu"]
    if tag == "un":
        return weights["alu"]
    if tag == "call":
        return weights["call"]
    if tag == "cast":
        return weights["cast"]
    if tag == "sel":
        return weights["select"]
    raise TypeError(f"unknown e-node tag {tag!r}")


class Extractor:
    """Solve per-class best costs once, then rebuild exprs for any root.

    Deterministic: classes are relaxed in id order and a candidate only
    replaces the incumbent on a *strictly* lower cost, so the earliest
    inserted e-node — the original source spelling, for classes the
    rules never improved — wins every tie.
    """

    def __init__(self, eg: EGraph, weights: "dict[str, float] | None" = None):
        self.eg = eg
        self.weights = validate_weights(weights or {})
        #: root class id -> fixpoint cost
        self.costs: dict[int, float] = {}
        #: root class id -> chosen e-node (first minimal, insertion order)
        self.chosen: dict[int, ENode] = {}
        self._built: dict[int, Expr] = {}
        #: Hash-cons table of the extracted trees: equal representatives
        #: are one object within this extraction.
        self._exprs: dict[Expr, Expr] = {}
        self._solve()

    def _node_cost(self, node: ENode) -> float:
        total = _node_weight(node, self.weights)
        seen: list[int] = []
        for child in node.children:
            root = self.eg.find(child)
            if root in seen:
                continue  # shared subtree: count once
            seen.append(root)
            total += self.costs.get(root, math.inf)
        return total

    def _solve(self) -> None:
        # Relax class costs to a fixpoint (costs only ever decrease)...
        changed = True
        while changed:
            changed = False
            for cid in sorted(self.eg.classes):
                best = min(
                    self._node_cost(n) for n in self.eg.classes[cid].nodes
                )
                if best < self.costs.get(cid, math.inf):
                    self.costs[cid] = best
                    changed = True
        bad = sorted(set(self.eg.classes) - set(self.costs))
        if bad:
            raise RuntimeError(
                f"extraction failed to cost classes {bad} "
                "(cycle with no tree-shaped member?)"
            )
        # ...then pick nodes once: the first node (insertion order) that
        # achieves the fixpoint cost, so source spellings win ties.
        for cid in sorted(self.eg.classes):
            target = self.costs[cid]
            for node in self.eg.classes[cid].nodes:
                if self._node_cost(node) <= target:
                    self.chosen[cid] = node
                    break

    def cost_of(self, cid: int) -> float:
        return self.costs[self.eg.find(cid)]

    def expr_of(self, cid: int) -> Expr:
        """The chosen representative of ``cid`` as an interned IR tree."""
        root = self.eg.find(cid)
        cached = self._built.get(root)
        if cached is not None:
            return cached
        expr = self._build(self.chosen[root])
        self._built[root] = expr
        return expr

    def _build(self, node: ENode) -> Expr:
        tag, payload = node.tag, node.payload
        kids = node.children
        if tag == "int":
            e: Expr = IntConst(payload[0], payload[1])
        elif tag == "float":
            e = FloatConst(payload[0], payload[1])
        elif tag == "var":
            e = VarRef(payload[0])
        elif tag == "aref":
            e = ArrayRef(payload[0], tuple(self.expr_of(c) for c in kids))
        elif tag == "bin":
            e = BinOp(payload[0], self.expr_of(kids[0]), self.expr_of(kids[1]))
        elif tag == "un":
            e = UnOp(payload[0], self.expr_of(kids[0]))
        elif tag == "call":
            e = Call(payload[0], tuple(self.expr_of(c) for c in kids))
        elif tag == "cast":
            e = Cast(payload[0], self.expr_of(kids[0]))
        elif tag == "sel":
            e = Select(
                self.expr_of(kids[0]),
                self.expr_of(kids[1]),
                self.expr_of(kids[2]),
            )
        else:
            raise TypeError(f"unknown e-node tag {tag!r}")
        return intern_expr(e, self._exprs)
