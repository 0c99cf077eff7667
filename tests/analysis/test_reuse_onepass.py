"""One-pass reuse grouping equals the pairwise union-find it replaced.

``find_reuse_groups`` buckets occurrences by (array, rank, strides) and
attaches each to the first cluster whose representative it has an
iteration distance to.  The reference below is the quadratic algorithm:
union every pair with a defined :func:`iteration_distance`, then derive
each group's lags against its first member.  Both must give the same
groups — members, lags, kinds and order — on every loop the pass
pipeline analyses for the 16 benchmarks under their 4 configurations
(between SAFARA iterations included), and on generated subscripts.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.transforms.carr_kennedy as carr_kennedy
import repro.transforms.licm as licm
import repro.transforms.safara as safara
from repro.analysis.reuse import (
    GroupKind,
    ReuseGroup,
    collect_occurrences,
    find_reuse_groups,
    iteration_distance,
    volatile_symbols,
)
from repro.analysis.subscripts import AffineForm, affine_of, subscript_forms
from repro.compiler import CompilerSession
from repro.ir import build_module
from repro.ir.expr import ArrayRef, BinOp, FloatConst, IntConst, VarRef
from repro.ir.stmt import Assign, LocalDecl, Loop
from repro.ir.symbols import ArrayInfo, Dim, Symbol, SymbolKind
from repro.ir.types import F64, I32
from repro.lang import parse_program

from ..pipeline.test_parse_once import bench_jobs


# -- the reference: pairwise distances, union-find ----------------------------


def pairwise_distance(a: ArrayRef, b: ArrayRef, loop: Loop) -> int | None:
    """The iteration distance as first defined: over whole subscript forms,
    re-derived for every pair."""
    if a.sym is not b.sym or len(a.indices) != len(b.indices):
        return None
    fa = subscript_forms(a)
    fb = subscript_forms(b)
    if fa is None or fb is None:
        return None
    var = loop.var
    d = None
    for da, db in zip(fa, fb):
        diff = db - da
        if diff.depends_on(var):
            return None
        cv = da.linear_coefficient(var)
        if cv is None:
            return None
        if cv.is_zero:
            if not diff.is_zero:
                return None
            continue
        ratio = diff.as_int_multiple_of(cv.scale(loop.step))
        if ratio is None:
            return None
        if d is None:
            d = ratio
        elif d != ratio:
            return None
    return 0 if d is None else d


def reference_groups(loop: Loop) -> list[ReuseGroup]:
    occs = collect_occurrences(loop)
    parent = list(range(len(occs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(occs)):
        for j in range(i + 1, len(occs)):
            if occs[i].ref.sym is not occs[j].ref.sym:
                continue
            if iteration_distance(occs[i].ref, occs[j].ref, loop) is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    clusters: dict[int, list[int]] = {}
    for i in range(len(occs)):
        clusters.setdefault(find(i), []).append(i)
    groups = []
    for members in clusters.values():
        group = _reference_group(loop, sorted((occs[i] for i in members), key=lambda o: o.order))
        if group is not None and (group.ref_count > 1 or group.kind is GroupKind.INVARIANT):
            groups.append(group)
    return groups


def _reference_group(loop, members):
    base = members[0].ref
    rel = []
    for occ in members:
        d = iteration_distance(occ.ref, base, loop)
        if d is None:
            return None
        rel.append(d)
    lags = [d - min(rel) for d in rel]
    forms = subscript_forms(base)
    if forms is None:
        return None
    volatile = volatile_symbols(loop)
    is_volatile = any(f.depends_on(sym) for f in forms for sym in volatile)
    depends = any(f.depends_on(loop.var) for f in forms)
    if is_volatile:
        if max(lags) != 0 or len(members) < 2:
            return None
        kind = GroupKind.INTRA
    elif not depends:
        kind = GroupKind.INVARIANT
    elif max(lags) == 0:
        kind = GroupKind.INTRA
    else:
        kind = GroupKind.INTER
    return ReuseGroup(array=base.sym, loop=loop, kind=kind, occurrences=members, lags=lags)


def fingerprint(groups: list[ReuseGroup]) -> list[tuple]:
    return [
        (
            id(g.array),
            g.kind,
            [(o.order, o.is_write, id(o.ref), id(o.stmt)) for o in g.occurrences],
            g.lags,
        )
        for g in groups
    ]


# -- every loop the pipeline analyses -------------------------------------------


def test_benchmarks_group_identically_in_every_pass(monkeypatch):
    """Wrap the grouping LICM, Carr-Kennedy and SAFARA call, so each call —
    every SAFARA feedback iteration included — is checked against the
    reference on the IR as it stands then."""
    calls, mismatches = [], []

    def checked(loop):
        groups = find_reuse_groups(loop)
        calls.append(loop)
        if fingerprint(groups) != fingerprint(reference_groups(loop)):
            mismatches.append(loop)
        return groups

    for module in (licm, carr_kennedy, safara):
        monkeypatch.setattr(module, "find_reuse_groups", checked)
    session = CompilerSession()
    for job in bench_jobs():
        session.compile_job(job)
    assert len(calls) > 500
    assert mismatches == []


# -- generated subscripts ---------------------------------------------------------

I = Symbol("i", I32, SymbolKind.LOOPVAR)
J = Symbol("j", I32, SymbolKind.LOOPVAR)
NX = Symbol("nx", I32, SymbolKind.PARAM)
NY = Symbol("ny", I32, SymbolKind.PARAM)
T = Symbol("t", I32)  # assigned in the loop: volatile
ARRAYS = [
    Symbol(name, F64, SymbolKind.PARAM, ArrayInfo(F64, (Dim(NX), Dim(NY))))
    for name in ("a", "b")
]


def _var(sym):
    return VarRef(sym)


def _mul(a, b):
    return BinOp("*", a, b)


def _add(a, b):
    return BinOp("+", a, b)


#: Strides of the loop variable, as expressions (``None``: absent).
STRIDES = {
    "0": None,
    "1": IntConst(1),
    "2": IntConst(2),
    "-1": IntConst(-1),
    "nx": _var(NX),
    "ny*nx": _mul(_var(NY), _var(NX)),
    "i": _var(I),  # i*i: not affine in the loop variable
}
RESTS = [IntConst(0), _var(J), _mul(_var(J), _var(NX)), _var(NY), _var(T)]


@st.composite
def subscripts(draw):
    """``i*S + R + c + m*S``: a stride, a loop-free rest, a constant and a
    symbolic multiple of the stride — or a hand-linearised
    ``((i + c)*ny + j)*nx + k``, or a non-affine ``i / 2``."""
    shape = draw(st.sampled_from(["sum", "sum", "sum", "linearised", "div"]))
    c = IntConst(draw(st.integers(-3, 3)))
    if shape == "div":
        return BinOp("/", _var(I), IntConst(2))
    if shape == "linearised":
        plane = _mul(_add(_var(I), c), _var(NY))
        return _add(_mul(_add(plane, _var(J)), _var(NX)), IntConst(draw(st.integers(-2, 2))))
    stride = STRIDES[draw(st.sampled_from(sorted(STRIDES)))]
    e = _add(draw(st.sampled_from(RESTS)), c)
    if stride is not None:
        e = _add(_mul(_var(I), stride), e)
        m = draw(st.integers(-2, 2))
        if m:
            e = _add(e, _mul(IntConst(m), stride))
    return e


@st.composite
def references(draw):
    array = draw(st.sampled_from(ARRAYS))
    rank = draw(st.integers(1, 2))
    return ArrayRef(array, tuple(draw(subscripts()) for _ in range(rank)))


@st.composite
def loops(draw):
    body = []
    if draw(st.booleans()):
        body.append(LocalDecl(T, IntConst(0)))
    for _ in range(draw(st.integers(1, 4))):
        reads = draw(st.lists(references(), min_size=0, max_size=4))
        value = FloatConst(1.0)
        for ref in reads:
            value = _add(value, ref)
        body.append(Assign(target=draw(references()), value=value))
    return Loop(
        var=I,
        init=IntConst(0),
        cond_op="<",
        bound=_var(NX),
        step=draw(st.sampled_from([1, 2, -1])),
        body=body,
        loop_id=1,
    )


@settings(max_examples=300, deadline=None)
@given(loops())
def test_generated_loops_group_identically(loop):
    occs = collect_occurrences(loop)
    for a in occs:
        for b in occs:
            assert iteration_distance(a.ref, b.ref, loop) == pairwise_distance(
                a.ref, b.ref, loop
            )
    assert fingerprint(find_reuse_groups(loop)) == fingerprint(reference_groups(loop))


# -- the memoised affine form -------------------------------------------------------


def test_affine_form_is_stored_on_the_node():
    e = _add(_mul(_var(I), _var(NX)), IntConst(3))
    form = affine_of(e)
    assert e._affine is form and affine_of(e) is form
    assert affine_of(e.left) is e.left._affine  # subtrees are memoised too
    non_affine = BinOp("/", _var(I), IntConst(2))
    assert affine_of(non_affine) is None and non_affine._affine is None


def test_unpickled_node_recomputes_its_affine_form():
    fn = build_module(parse_program("""
kernel k(double a[n][m], int n, int m) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) { a[i][1] = a[i - 1][2 * i + m]; }
}
""")).functions[0]
    ref = fn.regions()[0].body[0].body[0].value
    forms = subscript_forms(ref)
    clone = pickle.loads(pickle.dumps(ref))
    with pytest.raises(AttributeError):
        clone.indices[0]._affine  # the slot is not pickled
    again = subscript_forms(clone)

    def by_name(form: AffineForm) -> set:
        return {(tuple(s.name for s in m), c) for m, c in form.terms}

    assert [by_name(f) for f in again] == [by_name(f) for f in forms]
    assert clone.indices[1]._affine is again[1]
