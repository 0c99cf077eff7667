"""Data-reuse analysis for scalar replacement.

Implements the reuse-detection half of the paper's Section III: for a given
loop, array references are partitioned into *reuse groups* — sets of
references touching the same memory locations, either within one iteration
(intra-iteration reuse) or a constant number of iterations apart
(inter-iteration reuse), or independent of the loop variable entirely
(loop-invariant reuse).

A reuse group is the unit the scalar-replacement transformation operates
on, and the unit the SAFARA cost model prices (Section III-B.3).

Grouping takes one pass over a loop's occurrences.  Each occurrence's
*shape* is derived once: per dimension, the stride of the loop variable
(the form multiplying it) and the subscript with the loop variable
dropped.  Two references have an iteration distance only when they name
the same array with the same rank and equal strides in every dimension,
so occurrences are bucketed by (array, rank, strides).  Within a bucket
the distance is a difference of the dropped subscripts divided by
``stride × step``, so it is reflexive (0), symmetric (negated) and
additive (``d(a, c) = d(a, b) + d(b, c)``): "has a distance" is an
equivalence.  Attaching each occurrence to the first cluster whose
representative it has a distance to therefore yields exactly the
partition a pairwise union-find over :func:`iteration_distance` gives,
with each member's distance to the representative (the group's first
occurrence) computed on the way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir.expr import ArrayRef, Expr, array_refs
from ..ir.stmt import Assign, If, LocalDecl, Loop, Stmt
from ..ir.symbols import Symbol
from .subscripts import AffineForm, subscript_forms


class GroupKind(enum.Enum):
    #: Same location every iteration of the loop (subscripts do not involve
    #: the loop variable): one load hoisted before the loop.
    INVARIANT = "invariant"
    #: Same location referenced several times within one iteration.
    INTRA = "intra"
    #: Locations a constant iteration-distance apart: rotating temporaries
    #: (the classic Carr-Kennedy pattern, Figures 3–4 of the paper).
    INTER = "inter"


@dataclass(slots=True)
class RefOccurrence:
    """One textual occurrence of an array reference at the analysed level."""

    ref: ArrayRef
    stmt: Stmt
    is_write: bool
    order: int  # textual position, for first-use decisions


@dataclass(slots=True)
class ReuseGroup:
    """A set of occurrences proven to touch the same data."""

    array: Symbol
    loop: Loop
    kind: GroupKind
    occurrences: list[RefOccurrence] = field(default_factory=list)
    #: Iteration lag of each occurrence behind the generator (same length
    #: as ``occurrences``); all zero for INTRA/INVARIANT groups.
    lags: list[int] = field(default_factory=list)

    @property
    def span(self) -> int:
        """Max lag — number of extra rotating temporaries needed."""
        return max(self.lags, default=0)

    @property
    def has_write(self) -> bool:
        return any(o.is_write for o in self.occurrences)

    @property
    def ref_count(self) -> int:
        """Static reference count (paper's ``reference_count(R)``)."""
        return len(self.occurrences)

    @property
    def distinct_refs(self) -> list[ArrayRef]:
        seen: list[ArrayRef] = []
        for occ in self.occurrences:
            if occ.ref not in seen:
                seen.append(occ.ref)
        return seen

    @property
    def generator(self) -> RefOccurrence:
        """The occurrence whose load feeds the group (lag 0, first in
        textual order)."""
        best = None
        for occ, lag in zip(self.occurrences, self.lags):
            if lag == 0 and (best is None or occ.order < best.order):
                best = occ
        assert best is not None
        return best

    def temporaries_needed(self) -> int:
        """Scalar temporaries required to realise the reuse."""
        if self.kind is GroupKind.INTER:
            return self.span + 1
        return 1

    def loads_saved(self) -> int:
        """Memory loads eliminated per iteration by replacing this group.

        Every read occurrence except the generator's single load becomes a
        register read.  Stores are never eliminated (writes remain).
        """
        reads = sum(1 for o in self.occurrences if not o.is_write)
        if self.kind is GroupKind.INTER:
            # One new load per iteration (the leading reference).
            return max(0, reads - 1)
        if self.kind is GroupKind.INVARIANT:
            # Load hoisted out of the loop: all per-iteration loads saved.
            return reads
        first_is_write = min(self.occurrences, key=lambda o: o.order).is_write
        return reads if first_is_write else max(0, reads - 1)


def collect_occurrences(loop: Loop) -> list[RefOccurrence]:
    """Array references at the *immediate* body level of ``loop``.

    References nested in deeper loops are analysed when those loops are
    processed; references under ``if`` statements are excluded because
    hoisting their loads would change which locations the program touches
    (the paper's prototype makes the same simplification — conditional
    scalar replacement is the Budiu approach it argues against for GPUs).
    """
    occs: list[RefOccurrence] = []
    order = 0
    for stmt in loop.body:
        if isinstance(stmt, Assign):
            # RHS reads, evaluated before the store.
            for ref in array_refs(stmt.value):
                occs.append(RefOccurrence(ref=ref, stmt=stmt, is_write=False, order=order))
                order += 1
            # Subscript computations of the target are reads of scalars
            # only; the element itself is written.
            if isinstance(stmt.target, ArrayRef):
                for idx in stmt.target.indices:
                    for ref in array_refs(idx):
                        occs.append(
                            RefOccurrence(ref=ref, stmt=stmt, is_write=False, order=order)
                        )
                        order += 1
                occs.append(
                    RefOccurrence(ref=stmt.target, stmt=stmt, is_write=True, order=order)
                )
                order += 1
        elif isinstance(stmt, LocalDecl) and stmt.init is not None:
            for ref in array_refs(stmt.init):
                occs.append(RefOccurrence(ref=ref, stmt=stmt, is_write=False, order=order))
                order += 1
    return occs


def _shape(
    ref: ArrayRef, var: Symbol
) -> tuple[tuple[AffineForm, ...], tuple[AffineForm, ...]] | None:
    """``ref``'s shape with respect to ``var``: per dimension, the stride
    of ``var`` and the subscript with ``var`` dropped.  ``None`` when a
    subscript is non-affine, or not affine in ``var``."""
    forms = subscript_forms(ref)
    if forms is None:
        return None
    strides = []
    for f in forms:
        stride = f.linear_coefficient(var)
        if stride is None:
            return None
        strides.append(stride)
    return tuple(strides), tuple(f.drop(var) for f in forms)


def _shape_distance(
    a_rests: tuple[AffineForm, ...],
    b_rests: tuple[AffineForm, ...],
    steps: tuple[AffineForm, ...],
) -> int | None:
    """Iterations by which ``a`` trails ``b``, given equal strides (scaled
    by the loop step in ``steps``): the rests must differ by the same
    integer multiple of the step in every dimension the variable strides,
    and not at all elsewhere.  The difference may be symbolic only as an
    exact multiple of the stride (e.g. planes of size ny*nx)."""
    d: int | None = None
    for ra, rb, step in zip(a_rests, b_rests, steps):
        diff = rb - ra
        if step.is_zero:
            if not diff.is_zero:
                return None
            continue
        ratio = diff.as_int_multiple_of(step)
        if ratio is None or (d is not None and d != ratio):
            return None
        d = ratio
    return 0 if d is None else d


def iteration_distance(a: ArrayRef, b: ArrayRef, loop: Loop) -> int | None:
    """Number of ``loop`` iterations by which ``a`` trails ``b``.

    ``d`` such that the location ``a`` touches at iteration ``t + d`` equals
    the location ``b`` touches at iteration ``t`` — i.e. positive ``d``
    means ``a`` re-reads data ``b`` produced/loaded ``d`` iterations ago.
    Returns ``None`` when the references are unrelated (different arrays,
    non-affine, different strides, non-constant distance, or inconsistent
    across dimensions).
    """
    if a.sym is not b.sym or len(a.indices) != len(b.indices):
        return None
    sa = _shape(a, loop.var)
    sb = _shape(b, loop.var)
    if sa is None or sb is None or sa[0] != sb[0]:
        return None
    return _shape_distance(sa[1], sb[1], tuple(s.scale(loop.step) for s in sa[0]))


def volatile_symbols(loop: Loop) -> set[Symbol]:
    """Scalars *assigned* while ``loop`` runs (assignment targets and local
    declarations anywhere in the body).

    A subscript depending on such a symbol does not describe a fixed
    location per iteration of ``loop`` — e.g. an indirect index loaded from
    a neighbour list — so cross-iteration reuse must not be assumed.
    Inner loop *variables* are deliberately excluded: they enumerate the
    same range every outer iteration, so treating them as free symbols in
    distance arithmetic is sound (a constant distance holds pointwise for
    each of their values).
    """
    from ..ir.stmt import walk_stmts

    out: set[Symbol] = set()
    for stmt in walk_stmts(loop.body):
        if isinstance(stmt, Assign) and not isinstance(stmt.target, ArrayRef):
            out.add(stmt.target.sym)
        elif isinstance(stmt, LocalDecl):
            out.add(stmt.sym)
    return out


def find_reuse_groups(loop: Loop) -> list[ReuseGroup]:
    """Partition the loop-level references into reuse groups, in one pass
    over their shapes (see the module docstring for why it is exact).

    Groups come out in the order of their first occurrence, members in
    textual order.  Groups with a single occurrence and no reuse potential
    are still returned for INVARIANT references (hoisting a single
    invariant load out of a sequential loop already saves
    ``trip_count - 1`` loads); other singletons are filtered out.
    """
    clusters: list[tuple[list[RefOccurrence], list[int]]] = []
    #: (array, strides) -> [(representative rests, steps, cluster)].
    buckets: dict[tuple, list[tuple]] = {}
    for occ in collect_occurrences(loop):
        shape = _shape(occ.ref, loop.var)
        if shape is None:
            continue  # relates to nothing, not even itself
        strides, rests = shape
        bucket = buckets.setdefault((occ.ref.sym, strides), [])
        for rep_rests, steps, (members, rel) in bucket:
            d = _shape_distance(rests, rep_rests, steps)
            if d is not None:
                members.append(occ)
                rel.append(d)
                break
        else:
            cluster = ([occ], [0])
            clusters.append(cluster)
            steps = tuple(s.scale(loop.step) for s in strides)
            bucket.append((rests, steps, cluster))

    volatile = volatile_symbols(loop) if clusters else set()
    groups: list[ReuseGroup] = []
    for members, rel in clusters:
        group = _make_group(loop, members, rel, volatile)
        if group is None:
            continue
        if group.ref_count > 1 or group.kind is GroupKind.INVARIANT:
            groups.append(group)
    return groups


def _make_group(
    loop: Loop,
    members: list[RefOccurrence],
    rel: list[int],
    volatile: set[Symbol],
) -> ReuseGroup | None:
    """The group of ``members`` (textual order), given each one's distance
    ``rel`` behind the first, and the loop's volatile symbols."""
    # lag = how many iterations after its value was first touched; the
    # generator has the minimal relative distance (it touches newest data).
    dmin = min(rel)
    lags = [d - dmin for d in rel]
    base = members[0].ref
    forms = subscript_forms(base)
    assert forms is not None  # every member has a shape
    # Subscripts through values defined inside the loop (indirect indices,
    # inner loop variables) pin the location only *within* one iteration:
    # such groups may carry intra-iteration reuse but never inter-iteration
    # or invariant hoisting.
    is_volatile = any(f.depends_on(sym) for f in forms for sym in volatile)
    depends = any(f.depends_on(loop.var) for f in forms)
    if is_volatile:
        if max(lags) != 0:
            return None
        if len(members) < 2:
            return None
        kind = GroupKind.INTRA
    elif not depends:
        kind = GroupKind.INVARIANT
    elif max(lags) == 0:
        kind = GroupKind.INTRA
    else:
        kind = GroupKind.INTER
    return ReuseGroup(
        array=base.sym, loop=loop, kind=kind, occurrences=members, lags=lags
    )
