"""Lowering plan for the generated-code execution tier.

Decides, statically, which ``acc parallel`` loops of a kernel function can
be turned into *array axes* by :mod:`repro.gpu.vector_exec` — i.e. executed
as one batched NumPy operation per statement instead of one Python
iteration at a time — and which must stay sequential, with a recorded
reason.  The plan is purely advisory about *performance*: execution keeps
bit-for-bit equality with the scalar interpreter by construction (it runs
on array copies and falls back to the interpreter on anything unexpected),
but a wrong "axis" decision here would silently reorder memory traffic, so
every rule below is conservative.

A loop may become an axis only when all of the following hold:

* its directive maps it onto the GPU thread topology (``is_parallel``) and
  carries no ``reduction`` clause (vectorizing a reduction would reorder
  floating-point arithmetic);
* every scalar assigned in its body is written before it is read on every
  path (privatizable — SAFARA/unroll temporaries qualify because the
  transformations insert ``LocalDecl`` initialisers), and none of those
  scalars is consumed *after* the loop before being rewritten (the scalar
  interpreter leaks the final iteration's value; a lane-varying final value
  is not representable as one scalar);
* every array it writes is provably free of cross-lane aliasing under the
  whole axis set, by one of three arguments:

  1. **axis alignment** — every access to the array keeps one dedicated
     subscript dimension per axis variable, identical across all accesses
     (``sxx[k][j][i]`` under axes ``j``, ``i``); distinct lanes can then
     never touch the same element;
  2. **lattice disjointness** — for each pair of references some dimension
     differs by a constant that is not a multiple of the gcd of the
     per-variable strides (``frc[3*i-2]`` vs ``frc[3*i-1]``: offsets 1
     apart on a stride-3 lattice can never coincide), a disproof
     :func:`repro.analysis.reuse.iteration_distance` cannot make because
     the offset/stride ratio is fractional;
  3. **write-only last-wins** — the array is never read in the body and is
     written through a single lane-determined reference executing in a
     lane-uniform context (no lane-varying ``If`` guard or trip count):
     NumPy fancy-index assignment applies colliding updates in C order of
     the lane axes, which is exactly the scalar interpreter's iteration
     order, so duplicate writes resolve to the same final value;
  4. **symbolic delinearization** — hand-linearised pointer subscripts
     like ``(k*ny + j)*nx + i`` are recovered as mixed-radix digit vectors
     ``(k, j, i)`` by matching each variable's symbolic stride against the
     extents its loop bounds prove (``1 <= i <= nx-2`` fits inside radix
     ``nx``).  The decomposition makes the flat offset *injective* in the
     digits, so two references overlap only when every digit agrees; if
     all references share the structure and agree on the axis digits,
     any overlap is confined to a single lane, where batching preserves
     the scalar program order.

The cross-lane perspective matters because the per-loop dependence test in
:mod:`repro.analysis.dependence` compares two references *at the same
values of all other loop variables* (the ``(=, ..., =)`` direction) —
sound for deciding whether one loop's iterations commute, but blind to
collisions like ``a[i+j]`` hit from different ``(i, j)`` pairs once both
loops become axes of one batched operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis.subscripts import AffineForm, Monomial, affine_of, subscript_forms
from ..ir.expr import ArrayRef, Expr, VarRef, array_refs, scalar_reads
from ..ir.module import KernelFunction
from ..obs.tracer import span as _span
from ..ir.stmt import (
    Assign,
    If,
    LocalDecl,
    Loop,
    Region,
    Stmt,
    loops_in,
    stmt_exprs,
    walk_stmts,
)
from ..ir.symbols import Symbol, SymbolKind

#: Loop execution modes chosen by the planner.
AXIS = "axis"
SEQ = "seq"


@dataclass(slots=True)
class LoopPlan:
    """The planner's verdict for one loop."""

    loop_id: int
    var: str
    mode: str  # AXIS | SEQ
    #: Why a *parallel-directive* loop was demoted to sequential execution
    #: (``None`` for axis loops and for loops that are sequential anyway).
    reason: str | None = None


@dataclass(slots=True)
class RegionPlan:
    region_id: int
    loops: list[LoopPlan] = field(default_factory=list)

    @property
    def axis_loops(self) -> list[LoopPlan]:
        return [l for l in self.loops if l.mode == AXIS]

    @property
    def demoted(self) -> list[LoopPlan]:
        return [l for l in self.loops if l.reason is not None]


@dataclass(slots=True)
class KernelPlan:
    """Vectorization plan for a whole kernel function."""

    function: str
    regions: list[RegionPlan] = field(default_factory=list)
    by_loop_id: dict[int, LoopPlan] = field(default_factory=dict)

    @property
    def has_axes(self) -> bool:
        return any(r.axis_loops for r in self.regions)

    @property
    def demotion_reasons(self) -> list[str]:
        out = []
        for r in self.regions:
            out.extend(l.reason for l in r.demoted if l.reason)
        return out

    def mode_of(self, loop: Loop) -> str:
        plan = self.by_loop_id.get(loop.loop_id)
        return plan.mode if plan is not None else SEQ


# ---------------------------------------------------------------------------
# Scalar discipline: write-before-read classification
# ---------------------------------------------------------------------------


def _expr_reads(e: Expr, name: str) -> bool:
    return any(v.sym.name == name for v in scalar_reads(e))


def _scan_access(stmts: list[Stmt], name: str) -> str | None:
    """How ``stmts`` first touch scalar ``name``:

    * ``'read'`` — a read may observe the value from before ``stmts``;
    * ``'write'`` — a write definitely happens before any such read;
    * ``'maybe'`` — a write may happen (conditional branch, loop body that
      could run zero times), and no read observes prior state;
    * ``None`` — untouched.
    """
    state: str | None = None
    for stmt in stmts:
        eff = _stmt_access(stmt, name)
        if eff == "read":
            return "read"
        if eff == "write":
            return "write"
        if eff == "maybe":
            state = "maybe"
    return state


def _stmt_access(stmt: Stmt, name: str) -> str | None:
    if isinstance(stmt, Assign):
        if _expr_reads(stmt.value, name):
            return "read"
        if isinstance(stmt.target, ArrayRef):
            if any(_expr_reads(i, name) for i in stmt.target.indices):
                return "read"
            return None
        return "write" if stmt.target.sym.name == name else None
    if isinstance(stmt, LocalDecl):
        if stmt.init is not None and _expr_reads(stmt.init, name):
            return "read"
        if stmt.sym.name == name:
            # An uninitialised decl keeps any pre-existing value
            # (``setdefault``) — that observes prior state.
            return "write" if stmt.init is not None else "read"
        return None
    if isinstance(stmt, If):
        if _expr_reads(stmt.cond, name):
            return "read"
        then = _scan_access(stmt.then_body, name)
        other = _scan_access(stmt.else_body, name)
        if "read" in (then, other):
            return "read"
        if then == "write" and other == "write":
            return "write"
        return "maybe" if (then or other) else None
    if isinstance(stmt, Loop):
        if _expr_reads(stmt.init, name) or _expr_reads(stmt.bound, name):
            return "read"
        if stmt.var.name == name:
            return "maybe"  # rebound by the header unless zero trips
        body = _scan_access(stmt.body, name)
        if body == "read":
            return "read"
        return "maybe" if body else None  # body may run zero times
    if isinstance(stmt, Region):
        return _scan_access(stmt.body, name)
    return None


def _assigned_scalars(stmts: list[Stmt]) -> set[str]:
    """Names of scalars assigned (``Assign`` target or ``LocalDecl``)
    anywhere under ``stmts``."""
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, Assign) and isinstance(stmt.target, VarRef):
            out.add(stmt.target.sym.name)
        elif isinstance(stmt, LocalDecl):
            out.add(stmt.sym.name)
    return out


def _check_scalars(loop: Loop) -> str | None:
    """Privatizability of every scalar the loop body assigns."""
    for name in sorted(_assigned_scalars(loop.body)):
        if _scan_access(loop.body, name) == "read":
            return f"scalar '{name}' carried across iterations"
    return None


def _check_escapes(loop: Loop, after: list[list[Stmt]]) -> str | None:
    """The scalar interpreter leaks each private's final-iteration value
    past the loop; per-lane finals cannot be represented in one scalar, so
    any later *read* before a definite rewrite demotes the loop.  ``after``
    is the execution-ordered continuation: the suffix of each enclosing
    statement list, with enclosing loop bodies re-entered."""
    assigned = _assigned_scalars(loop.body)
    if not assigned:
        return None
    for name in sorted(assigned):
        for stmts in after:
            access = _scan_access(stmts, name)
            if access == "read":
                return f"private scalar '{name}' read after the loop"
            if access == "write":
                break
    return None


# ---------------------------------------------------------------------------
# Array safety under a joint axis set
# ---------------------------------------------------------------------------


def _expr_lane_uniform(e: Expr, nonuniform: set[str]) -> bool:
    """The expression's value is the same on every active lane: no array
    loads (element values are lane-dependent in general) and no scalars or
    loop variables known to vary per lane."""
    if array_refs(e):
        return False
    return all(v.sym.name not in nonuniform for v in scalar_reads(e))


def _collect_accesses(
    stmts: list[Stmt], nonuniform: set[str] | None = None
) -> tuple[dict[Symbol, list[tuple[ArrayRef, bool]]], dict[Symbol, list[ArrayRef]]]:
    """(writes, reads) array references under ``stmts``, keyed by symbol.

    The subscript expressions of a write target are *reads* of whatever
    arrays they mention; the element itself is the write.  Each write is
    paired with a *uniform-context* flag: True when every enclosing ``If``
    condition and every enclosing loop's trip count (within ``stmts``) is
    identical across lanes, so each engine step either writes on all lanes
    or on none — the precondition for the lane-determined last-wins
    argument.  ``nonuniform`` seeds the lane-varying names (axis variables
    and recomputed scalars).
    """
    writes: dict[Symbol, list[tuple[ArrayRef, bool]]] = {}
    reads: dict[Symbol, list[ArrayRef]] = {}
    nonuniform = set(nonuniform or ())

    def add_reads(e: Expr) -> None:
        for ref in array_refs(e):
            reads.setdefault(ref.sym, []).append(ref)

    def walk(stmts: list[Stmt], ctx_ok: bool, nonuni: set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                if isinstance(stmt.target, ArrayRef):
                    writes.setdefault(stmt.target.sym, []).append(
                        (stmt.target, ctx_ok)
                    )
                    for idx in stmt.target.indices:
                        add_reads(idx)
                add_reads(stmt.value)
            elif isinstance(stmt, LocalDecl):
                if stmt.init is not None:
                    add_reads(stmt.init)
            elif isinstance(stmt, If):
                add_reads(stmt.cond)
                sub_ok = ctx_ok and _expr_lane_uniform(stmt.cond, nonuni)
                walk(stmt.then_body, sub_ok, nonuni)
                walk(stmt.else_body, sub_ok, nonuni)
            elif isinstance(stmt, Loop):
                add_reads(stmt.init)
                add_reads(stmt.bound)
                uniform = _expr_lane_uniform(
                    stmt.init, nonuni
                ) and _expr_lane_uniform(stmt.bound, nonuni)
                child_nonuni = nonuni if uniform else nonuni | {stmt.var.name}
                walk(stmt.body, ctx_ok and uniform, child_nonuni)
            elif isinstance(stmt, Region):
                walk(stmt.body, ctx_ok, nonuni)

    walk(stmts, True, nonuniform)
    return writes, reads


def _uniform_symbols_only(
    form: AffineForm, axis_vars: list[Symbol], varying: set[str]
) -> bool:
    """True when the form's value is identical on every lane: no loop
    variables of the nest under analysis, no axis variables, and no scalars
    recomputed inside loop bodies (those take lane-dependent values)."""
    for s in form.symbols():
        if s in axis_vars or s.name in varying:
            return False
        if s.kind is SymbolKind.LOOPVAR:
            # A loop variable of the nest varies per lane or per shared
            # sequential step; only *enclosing* sequential vars are uniform
            # and those are excluded by the callers' `steps` handling.
            return False
    return True


def _axis_aligned(
    refs: list[ArrayRef], axis_vars: list[Symbol], varying: set[str]
) -> bool:
    """Each axis variable owns one dedicated subscript dimension, with an
    identical form ``c*v + uniform`` across every access."""
    all_forms = [subscript_forms(r) for r in refs]
    if not all_forms or any(f is None for f in all_forms):
        return False
    ndim = len(all_forms[0])
    if any(len(f) != ndim for f in all_forms):
        return False
    used: set[int] = set()
    for var in axis_vars:
        choice = None
        for d in range(ndim):
            if d in used:
                continue
            f0 = all_forms[0][d]
            if any(forms[d] != f0 for forms in all_forms[1:]):
                continue
            coeff = f0.linear_coefficient(var)
            if coeff is None or not coeff.is_constant or coeff.const == 0:
                continue
            rest = f0 - AffineForm.variable(var).scale(coeff.const)
            if not _uniform_symbols_only(rest, axis_vars, varying):
                continue
            choice = d
            break
        if choice is None:
            return False
        used.add(choice)
    return True


def _lane_determined(
    ref: ArrayRef, axis_vars: list[Symbol], varying: set[str]
) -> bool:
    """The element a reference touches is a function of the lane alone
    (axis variables and launch-uniform symbols) — not of sequential loop
    variables or recomputed scalars.

    This is what makes duplicate-write arguments sound: a batched store
    resolves same-statement collisions in C order of the lane axes (the
    scalar iteration order), but a collision *across* steps of an enclosing
    or nested sequential loop would be resolved step-major by the vector
    engine and lane-major by the scalar interpreter.  When the subscript is
    lane-determined, every step rewrites the same lane→element map, so the
    winning lane — and with it the winning value's iteration point — agrees.

    The argument additionally needs the write to execute on *all* lanes at
    every step: under a lane-varying ``If`` or a loop with lane-varying
    trip counts, some steps write only on some lanes, and the last step
    that touches an element need not involve the scalar order's winning
    lane.  The caller enforces that via the uniform-context flag from
    :func:`_collect_accesses`.
    """
    forms = subscript_forms(ref)
    if forms is None:
        return False
    for f in forms:
        for s in f.symbols():
            if s in axis_vars:
                continue
            if s.name in varying or s.kind is SymbolKind.LOOPVAR:
                return False
    return True


def _pair_disjoint(
    a: ArrayRef,
    b: ArrayRef,
    steps: dict[Symbol, int],
    varying: set[str],
) -> bool:
    """Can references ``a`` and ``b`` *ever* touch the same element, for
    any pair of iteration points?  True when provably not.

    Looks for a dimension where both subscripts have identical variable
    parts and a constant offset difference that is not a multiple of the
    gcd of the per-variable lattice strides (coefficient × loop step); the
    integer lattice the variables span can then never bridge the gap.
    """
    fa = subscript_forms(a)
    fb = subscript_forms(b)
    if fa is None or fb is None or len(fa) != len(fb):
        return False
    for da, db in zip(fa, fb):
        diff = da - db
        if not diff.is_constant or diff.const == 0:
            continue
        lattice = 0
        provable = True
        for sym in set(da.symbols()) | set(db.symbols()):
            ca = da.linear_coefficient(sym)
            cb = db.linear_coefficient(sym)
            if ca is None or cb is None or not ca.is_constant or not cb.is_constant:
                provable = False
                break
            step = steps.get(sym)
            if step is not None:
                # Iteration variable: contributes coefficient×step to the
                # lattice of reachable offset differences.
                for c in (ca.const, cb.const):
                    if c:
                        lattice = math.gcd(lattice, abs(c * step))
            elif sym.name in varying:
                # A recomputed scalar takes lane-dependent values; it does
                # not cancel between the two sides.
                provable = False
                break
            # Uniform symbols cancel (diff is constant, so coefficients
            # agree) — no lattice contribution.
        if not provable:
            continue
        if lattice == 0 or diff.const % lattice != 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Symbolic delinearization of flat pointer subscripts
# ---------------------------------------------------------------------------


def _var_extent(loop: Loop) -> tuple[int, AffineForm] | None:
    """Inclusive symbolic range of ``loop.var``: ``(lo, max_form)`` with
    ``lo`` a non-negative integer and the maximum an affine form over
    uniform symbols.  ``None`` when the bounds don't fit that shape."""
    if loop.step == 0:
        return None
    init = affine_of(loop.init)
    bound = affine_of(loop.bound)
    if init is None or bound is None:
        return None
    if loop.step > 0:
        if loop.cond_op not in ("<", "<=") or not init.is_constant:
            return None
        lo = init.const
        max_form = bound - AffineForm.constant(1) if loop.cond_op == "<" else bound
    else:
        if loop.cond_op not in (">", ">=") or not bound.is_constant:
            return None
        lo = bound.const + 1 if loop.cond_op == ">" else bound.const
        max_form = init
    if lo < 0:
        return None
    return lo, max_form


def _single_monomial(form: AffineForm) -> tuple[int, Monomial] | None:
    """``(c, syms)`` for a one-term form with positive coefficient."""
    if len(form.terms) != 1:
        return None
    m, c = form.terms[0]
    return (c, m) if c > 0 else None


def _monomial_ratio(
    num: tuple[int, Monomial], den: tuple[int, Monomial]
) -> AffineForm | None:
    """``num / den`` as an affine form when the division is exact."""
    cn, mn = num
    cd, md = den
    if cn % cd != 0:
        return None
    rest = list(mn)
    for s in md:
        if s not in rest:
            return None
        rest.remove(s)
    return AffineForm(((tuple(sorted(rest, key=id)), cn // cd),))


def _delinearize(
    ref: ArrayRef,
    loops_by_name: dict[str, Loop],
    varying: set[str],
) -> list[tuple[str, tuple[int, Monomial], int]] | None:
    """Recover a flat subscript as mixed-radix digits.

    Returns levels ``(var_name, stride_monomial, offset)`` sorted from the
    fastest-varying stride upward, with every level below the top proven to
    fit inside the radix implied by the next stride (digit ``v + offset``
    stays in ``[0, stride_{l+1}/stride_l)`` for all values the loop bounds
    allow).  The flat offset is then *injective* in the digit vector.
    ``None`` when the subscript doesn't delinearize."""
    forms = subscript_forms(ref)
    if forms is None or len(forms) != 1:
        return None
    f = forms[0]
    loop_syms: list[Symbol] = []
    for s in f.symbols():
        if s.name in loops_by_name:
            loop_syms.append(s)
        elif s.name in varying or s.kind is SymbolKind.LOOPVAR:
            return None  # lane/step-dependent value we cannot bound
    if not loop_syms:
        return None
    coeffs: dict[Symbol, tuple[int, Monomial]] = {}
    rem = f
    for s in loop_syms:
        stride = f.linear_coefficient(s)
        if stride is None:
            return None
        for cs in stride.symbols():
            if (
                cs.name in loops_by_name
                or cs.name in varying
                or cs.kind is SymbolKind.LOOPVAR
            ):
                return None  # non-uniform stride
        mono = _single_monomial(stride)
        if mono is None:
            return None
        coeffs[s] = mono
        prod = stride.multiply(AffineForm.variable(s))
        if prod is None:
            return None
        rem = rem - prod
    # Fastest stride first; ties (equal strides ⇒ non-injective) rejected.
    order = sorted(coeffs, key=lambda s: (len(coeffs[s][1]), coeffs[s][0]))
    offsets = {s: 0 for s in order}
    # Fold the residual constant part into per-level digit offsets: every
    # term must be an exact integer multiple of some level's stride.
    for m, c in rem.terms:
        for s in order:
            cs, ms = coeffs[s]
            if m == ms and c % cs == 0:
                offsets[s] += c // cs
                break
        else:
            return None
    levels: list[tuple[str, tuple[int, Monomial], int]] = []
    for pos, s in enumerate(order):
        rng = _var_extent(loops_by_name[s.name])
        if rng is None:
            return None
        lo, max_form = rng
        d = offsets[s]
        if lo + d < 0:
            return None
        if pos + 1 < len(order):
            radix = _monomial_ratio(coeffs[order[pos + 1]], coeffs[s])
            if radix is None:
                return None
            over = max_form + AffineForm.constant(d) - radix
            if not over.is_constant or over.const >= 0:
                return None
        levels.append((s.name, coeffs[s], d))
    return levels


def _delin_safe(
    wrefs: list[ArrayRef],
    rrefs: list[ArrayRef],
    loops_by_name: dict[str, Loop],
    axis_names: set[str],
    varying: set[str],
) -> bool:
    """All references delinearize with one shared level structure, every
    axis variable owns a level, and all references agree on the axis-level
    digit offsets.  Injectivity of the mixed-radix decomposition then
    means any two overlapping references have *equal* digits everywhere —
    in particular equal axis digits, i.e. they belong to the same lane,
    where batched execution preserves the scalar program order."""
    if not loops_by_name:
        return False
    delins = [
        _delinearize(r, loops_by_name, varying) for r in wrefs + rrefs
    ]
    if any(d is None for d in delins):
        return False
    base = delins[0]
    structure = [(var, stride) for var, stride, _ in base]
    for d in delins[1:]:
        if [(var, stride) for var, stride, _ in d] != structure:
            return False
    level_vars = {var for var, _ in structure}
    if not axis_names <= level_vars:
        return False  # a missing axis digit means cross-lane collisions
    for pos, (var, _stride) in enumerate(structure):
        if var in axis_names:
            if any(d[pos][2] != base[pos][2] for d in delins[1:]):
                return False
    return True


def _dedup(refs: list[ArrayRef]) -> list[ArrayRef]:
    out: list[ArrayRef] = []
    for r in refs:
        if r not in out:
            out.append(r)
    return out


def _check_arrays(
    loop: Loop,
    axis_vars: list[Symbol],
    varying: set[str],
    loops_by_name: dict[str, Loop] | None = None,
) -> str | None:
    """Cross-lane aliasing check for every array written in the loop,
    under the joint lane space ``axis_vars`` (the loop's own variable, its
    axis ancestors, and every nested loop assumed to become an axis).
    ``loops_by_name`` maps every in-scope loop variable (ancestors, the
    loop itself, nested loops) to its ``Loop`` for bound-based reasoning;
    it must be omitted when variable names are ambiguous."""
    axis_names = {v.name for v in axis_vars}
    writes, reads = _collect_accesses(loop.body, axis_names | varying)
    steps: dict[Symbol, int] = {}
    for var in axis_vars:
        steps[var] = 1  # conservative default; gcd(x, |c|) only shrinks
    for inner in loops_in(loop.body):
        steps[inner.var] = inner.step
    steps[loop.var] = loop.step
    for sym in sorted(writes, key=lambda s: s.name):
        wrefs = _dedup([ref for ref, _ in writes[sym]])
        # A ref is uniform-context only if *every* occurrence of it is.
        wctx = {ref: True for ref in wrefs}
        for ref, ctx_ok in writes[sym]:
            wctx[ref] = wctx[ref] and ctx_ok
        rrefs = _dedup(reads.get(sym, []))
        if _axis_aligned(wrefs + rrefs, axis_vars, varying):
            continue
        if loops_by_name is not None and _delin_safe(
            wrefs, rrefs, loops_by_name, axis_names, varying
        ):
            continue

        # A ref may collide with *itself* across lanes (or across steps of
        # a sequential loop); harmless for a pure write when lane-determined
        # (last-wins resolves in lane order, every step the same way) or
        # per-ref axis-aligned (injective — no collision at all).
        def injective(r: ArrayRef) -> bool:
            return _axis_aligned([r], axis_vars, varying)

        def self_safe(r: ArrayRef) -> bool:
            if wctx[r] and _lane_determined(r, axis_vars, varying):
                return True
            return injective(r)

        pairs_disjoint = all(
            _pair_disjoint(wrefs[i], wrefs[j], steps, varying)
            for i in range(len(wrefs))
            for j in range(i + 1, len(wrefs))
        )
        if not rrefs:
            if pairs_disjoint and all(self_safe(r) for r in wrefs):
                continue
            return f"writes to '{sym.name}' may collide across lanes"
        # Read+write array.  Each read must either be structurally equal to
        # an *injective* write (the lane reads exactly the element it
        # writes, so batching preserves the lane's program order on it) or
        # be provably disjoint from every write (it never observes one).
        def read_safe(r: ArrayRef) -> bool:
            if r in wrefs:
                return injective(r)
            return all(_pair_disjoint(r, w, steps, varying) for w in wrefs)

        if (
            pairs_disjoint
            and all(self_safe(w) for w in wrefs)
            and all(injective(w) for w in wrefs if w in rrefs)
            and all(read_safe(r) for r in rrefs)
        ):
            continue
        return f"read/write overlap on '{sym.name}' across lanes"
    return None


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def plan_kernel(fn: KernelFunction) -> KernelPlan:
    """Build the vectorization plan for every region of ``fn``.

    Two phases.  First, per-loop checks that do not depend on the axis set
    (directive, scalar privatizability, escapes) select the *candidate*
    loops.  Then the array-aliasing check runs to a fixpoint under the
    optimistic assumption that every candidate in a loop's nest becomes an
    axis: a candidate that fails is demoted, which shrinks the assumed lane
    space of the others, so their checks re-run until nothing changes.
    (Demotion only removes lane symbols, making the remaining proofs
    strictly harder, so the iteration converges.)
    """
    with _span("vector.plan", kernel=fn.name) as _sp:
        plan = _plan_kernel(fn)
        _sp.set(
            loops=len(plan.by_loop_id),
            axes=sum(
                1 for lp in plan.by_loop_id.values() if lp.mode == AXIS
            ),
            demoted=sum(
                1 for lp in plan.by_loop_id.values() if lp.reason
            ),
        )
    return plan


def _plan_kernel(fn: KernelFunction) -> KernelPlan:
    plan = KernelPlan(function=fn.name)
    # (loop, parent loop, RegionPlan, region varying-set, continuation)
    records: list[tuple[Loop, Loop | None, RegionPlan, set[str], list]] = []

    def visit(
        stmts: list[Stmt],
        parent: Loop | None,
        region: RegionPlan | None,
        varying: set[str],
        after: list[list[Stmt]],
    ) -> None:
        for pos, stmt in enumerate(stmts):
            suffix = [stmts[pos + 1 :]] + after
            if isinstance(stmt, Region):
                rp = RegionPlan(region_id=stmt.region_id)
                plan.regions.append(rp)
                # Scalars recomputed inside any loop of the region take
                # lane- or step-dependent values; everything else that
                # appears in a subscript is uniform across one launch.
                region_varying = set()
                for l in loops_in(stmt.body):
                    region_varying |= _assigned_scalars(l.body)
                visit(stmt.body, None, rp, region_varying, suffix)
            elif isinstance(stmt, Loop):
                records.append((stmt, parent, region, varying, suffix))
                # Re-enter the loop body in the continuation: statements at
                # its head run again after any inner statement completes.
                visit(stmt.body, stmt, region, varying, [stmt.body] + suffix)
            elif isinstance(stmt, If):
                visit(stmt.then_body, parent, region, varying, suffix)
                visit(stmt.else_body, parent, region, varying, suffix)

    visit(fn.body, None, None, set(), [])

    parent_of: dict[int, Loop | None] = {}
    candidates: dict[int, tuple[Loop, RegionPlan, set[str]]] = {}
    for loop, parent, region, varying, after in records:
        parent_of[loop.loop_id] = parent
        lp = LoopPlan(loop_id=loop.loop_id, var=loop.var.name, mode=SEQ)
        plan.by_loop_id[lp.loop_id] = lp
        if region is not None:
            region.loops.append(lp)
        if region is None or loop.is_seq:
            continue
        reason = None
        if loop.directive is not None and loop.directive.reductions:
            names = ", ".join(r.var for r in loop.directive.reductions)
            reason = f"reduction clause on '{names}' (FP evaluation order)"
        reason = reason or _check_scalars(loop)
        reason = reason or _check_escapes(loop, after)
        if reason is not None:
            lp.reason = reason
        else:
            candidates[loop.loop_id] = (loop, region, varying)

    def ancestors(loop_id: int) -> list[Loop]:
        out = []
        p = parent_of.get(loop_id)
        while p is not None:
            out.append(p)
            p = parent_of.get(p.loop_id)
        return out

    changed = True
    while changed:
        changed = False
        for loop_id, (loop, region, varying) in list(candidates.items()):
            axis_vars = [
                a.var for a in ancestors(loop_id) if a.loop_id in candidates
            ]
            axis_vars.append(loop.var)
            axis_vars += [
                inner.var
                for inner in loops_in(loop.body)
                if inner.loop_id in candidates
            ]
            scope = ancestors(loop_id) + [loop] + list(loops_in(loop.body))
            loops_by_name: dict[str, Loop] | None = {}
            for l in scope:
                if l.var.name in loops_by_name:
                    loops_by_name = None  # ambiguous variable names
                    break
                loops_by_name[l.var.name] = l
            reason = _check_arrays(loop, axis_vars, varying, loops_by_name)
            if reason is not None:
                plan.by_loop_id[loop_id].reason = reason
                del candidates[loop_id]
                changed = True

    for loop_id in candidates:
        plan.by_loop_id[loop_id].mode = AXIS
    return plan
