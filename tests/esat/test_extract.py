"""Extraction: the configurable-weight cost model, its validation, the
shared-subtree costing that makes strength reduction land, and the
source-spelling tie-break that makes extraction the identity when no
rewrite wins."""

import pytest

from repro.errors import ConfigError
from repro.esat.egraph import EGraph
from repro.esat.extract import (
    DEFAULT_WEIGHTS,
    WEIGHT_KEYS,
    Extractor,
    validate_weights,
)
from repro.esat.rules import default_rules
from repro.ir import BinOp, IntConst, VarRef
from repro.ir.expr import ArrayRef, FloatConst
from repro.ir.symbols import ArrayInfo, Dim, Symbol, SymbolKind
from repro.ir.types import F64, I32

X = Symbol(name="x", stype=F64, kind=SymbolKind.PARAM)
I = Symbol(name="i", stype=I32, kind=SymbolKind.LOOPVAR)
N = Symbol(name="n", stype=I32, kind=SymbolKind.PARAM)
A = Symbol(
    name="a",
    stype=F64,
    kind=SymbolKind.PARAM,
    array=ArrayInfo(elem=F64, dims=(Dim(extent=N, lower=0),)),
)


def extract(expr, weights=None):
    """Saturate one expression with the default rules and extract it."""
    eg = EGraph()
    cid = eg.add(expr)
    eg.saturate(default_rules())
    return Extractor(eg, weights).expr_of(cid)


class TestValidateWeights:
    def test_empty_yields_defaults(self):
        assert validate_weights({}) == DEFAULT_WEIGHTS

    def test_overrides_merge_over_defaults(self):
        merged = validate_weights({"div": 2.0})
        assert merged["div"] == 2.0
        assert merged["load"] == DEFAULT_WEIGHTS["load"]

    def test_unknown_key_rejected_with_valid_list(self):
        with pytest.raises(ConfigError, match="unknown extraction weight"):
            validate_weights({"sqrt": 1.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_or_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError, match="positive finite"):
            validate_weights({"alu": bad})

    def test_every_default_key_is_a_weight_key(self):
        assert set(DEFAULT_WEIGHTS) == set(WEIGHT_KEYS)


class TestCostModel:
    def test_identity_when_nothing_improves(self):
        """A class the rules never improved extracts its own spelling."""
        e = BinOp("-", VarRef(X), FloatConst(0.5))
        assert extract(e) == e

    def test_div_pow2_extracts_as_mul(self):
        """div weighs 8, mul 1.5 + const 0.5: x * 0.5 wins over x / 2.0."""
        got = extract(BinOp("/", VarRef(X), FloatConst(2.0)))
        assert got == BinOp("*", VarRef(X), FloatConst(0.5))

    def test_weights_can_flip_the_choice(self):
        """With division cheap and multiplication dear, the source
        division survives — the tuner's extraction-weight axis."""
        e = BinOp("/", VarRef(X), FloatConst(2.0))
        assert extract(e, {"div": 0.9, "mul": 5.0}) == e

    def test_shared_subtree_counts_once(self):
        """2 * A[i] extracts as A[i] + A[i]: the duplicated load costs
        one class, so the add (1.0) beats mul + const (2.0) — and the
        second occurrence is the new scalar-replacement candidate."""
        load = ArrayRef(A, (VarRef(I),))
        got = extract(BinOp("*", load, FloatConst(2.0)))
        assert got == BinOp("+", load, load)

    def test_subscript_cancellation_extracts_plain_index(self):
        """A[(i * 4) / 4] extracts as A[i]."""
        obfuscated = ArrayRef(
            A, (BinOp("/", BinOp("*", VarRef(I), IntConst(4)), IntConst(4)),)
        )
        assert extract(obfuscated) == ArrayRef(A, (VarRef(I),))

    def test_constant_folding_extracts_the_constant(self):
        got = extract(BinOp("+", IntConst(3), BinOp("*", IntConst(2),
                                                    IntConst(5))))
        assert got == IntConst(13)

    def test_cost_of_is_finite_for_every_class(self):
        eg = EGraph()
        cid = eg.add(BinOp("/", ArrayRef(A, (VarRef(I),)), FloatConst(2.0)))
        eg.saturate(default_rules())
        ex = Extractor(eg)
        for cls_id in eg.classes:
            assert ex.cost_of(cls_id) < float("inf")

    def test_extraction_is_deterministic(self):
        e = BinOp("*", BinOp("+", VarRef(I), IntConst(0)), IntConst(2))
        assert extract(e) == extract(e)

    def test_extracted_exprs_are_interned(self):
        """Within one extractor, equal classes extract to one object and
        shared subtrees stay shared — the property the region driver
        relies on when two statements spell one value differently."""
        eg = EGraph()
        load = ArrayRef(A, (VarRef(I),))
        ab = eg.add(BinOp("+", VarRef(I), IntConst(1)))
        ba = eg.add(BinOp("+", IntConst(1), VarRef(I)))
        mul = eg.add(BinOp("*", load, FloatConst(2.0)))
        add = eg.add(BinOp("+", load, FloatConst(1.0)))
        eg.saturate(default_rules())
        ex = Extractor(eg)
        assert ex.expr_of(ab) is ex.expr_of(ba)
        assert ex.expr_of(mul).left is ex.expr_of(add).left
