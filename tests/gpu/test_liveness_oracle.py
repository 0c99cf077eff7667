"""``compute_live_intervals`` against the rule-by-rule reference it
replaced: one pass must give the same intervals, use counts and order as
scanning every vreg's occurrences once per loop region."""

from hypothesis import given, settings, strategies as st

import repro.gpu.registers as registers
from repro.codegen.vir import Instr, Op, VRegAllocator
from repro.compiler import CompilerSession
from repro.gpu.registers import compute_live_intervals

from tests.pipeline.test_parse_once import bench_jobs, compile_job
from tests.test_properties import instruction_streams


def reference_live_intervals(instrs):
    """The multi-pass formulation: intervals first, then rules 2 and 3
    applied per loop region (inner first) over every vreg's occurrence
    list."""
    first, last, first_def, uses, regs = {}, {}, {}, {}, {}

    def touch(reg, pos, is_def):
        key = reg.id
        regs[key] = reg
        first.setdefault(key, pos)
        last[key] = max(last.get(key, pos), pos)
        if is_def:
            first_def.setdefault(key, pos)
        else:
            uses[key] = uses.get(key, 0) + 1

    loop_stack, loop_regions = [], []
    for pos, ins in enumerate(instrs):
        if ins.op is Op.LOOP_BEGIN:
            loop_stack.append(pos)
        elif ins.op is Op.LOOP_END:
            loop_regions.append((loop_stack.pop(), pos))
        for src in ins.srcs:
            touch(src, pos, is_def=False)
        if ins.dst is not None:
            touch(ins.dst, pos, is_def=True)
        if ins.dst2 is not None:
            touch(ins.dst2, pos, is_def=True)

    intervals = {
        key: registers.LiveInterval(
            vreg=regs[key], start=first[key], end=last[key], use_count=uses.get(key, 0)
        )
        for key in first
    }
    occ = {}
    for pos, ins in enumerate(instrs):
        for src in ins.srcs:
            occ.setdefault(src.id, []).append((pos, False))
        if ins.dst is not None:
            occ.setdefault(ins.dst.id, []).append((pos, True))
        if ins.dst2 is not None:
            occ.setdefault(ins.dst2.id, []).append((pos, True))

    for begin, end in loop_regions:
        for key, positions in occ.items():
            inside = [(p, d) for (p, d) in positions if begin <= p <= end]
            if not inside:
                continue
            iv = intervals[key]
            if iv.start < begin or iv.end > end:
                iv.start = min(iv.start, begin)
                iv.end = max(iv.end, end)
                continue
            in_defs = [p for (p, d) in inside if d]
            in_uses = [p for (p, d) in inside if not d]
            if in_uses and (not in_defs or min(in_uses) < min(in_defs)):
                iv.start = begin
                iv.end = end
    return sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))


def rows(intervals):
    return [(iv.vreg.id, iv.start, iv.end, iv.use_count) for iv in intervals]


@st.composite
def redefining_streams(draw):
    """Structured streams that also redefine vregs (so values cross back
    edges, rule 3), write two destinations, read in loop markers, and nest
    and sequence loops three deep."""
    ra = VRegAllocator()
    regs = [ra.fresh(bits=draw(st.sampled_from([32, 64]))) for _ in range(draw(st.integers(1, 6)))]
    instrs, depth = [], 0
    for _ in range(draw(st.integers(3, 60))):
        choice = draw(st.integers(0, 9))
        srcs = tuple(draw(st.lists(st.sampled_from(regs), max_size=3)))
        if choice == 0 and depth < 3:
            instrs.append(Instr(Op.LOOP_BEGIN, srcs=srcs))
            depth += 1
        elif choice == 1 and depth > 0:
            instrs.append(Instr(Op.LOOP_END, srcs=srcs))
            depth -= 1
        else:
            if draw(st.booleans()):
                regs.append(ra.fresh(bits=draw(st.sampled_from([32, 64]))))
            dst = draw(st.sampled_from(regs))
            dst2 = draw(st.sampled_from(regs)) if choice == 2 else None
            instrs.append(Instr(Op.LD, dst=dst, dst2=dst2, srcs=srcs))
    instrs.extend(Instr(Op.LOOP_END) for _ in range(depth))
    instrs.append(Instr(Op.RET))
    return instrs


class TestAgainstReference:
    @given(instruction_streams())
    @settings(max_examples=200)
    def test_property_streams(self, instrs):
        assert rows(compute_live_intervals(instrs)) == rows(reference_live_intervals(instrs))

    @given(redefining_streams())
    @settings(max_examples=300)
    def test_redefining_streams(self, instrs):
        assert rows(compute_live_intervals(instrs)) == rows(reference_live_intervals(instrs))

    def test_inner_widening_seen_by_outer_loop(self):
        """The inner loop widens ``u`` (rule 2: defined before it) to its
        end, and ``t`` (rule 3: read before its in-loop definition) to its
        markers; the outer loop then tests the widened intervals: ``u``
        lies inside it and is defined first, so it stays; ``t`` is read
        first, so it is widened again."""
        ra = VRegAllocator()
        t, u = ra.fresh(), ra.fresh()
        instrs = [
            Instr(Op.LOOP_BEGIN),  # 0
            Instr(Op.MOV_IMM, dst=u, imm=0),  # 1
            Instr(Op.LOOP_BEGIN),  # 2
            Instr(Op.ADD, dst=u, srcs=(t, u)),  # 3
            Instr(Op.MOV_IMM, dst=t, imm=1),  # 4
            Instr(Op.LOOP_END),  # 5
            Instr(Op.LOOP_END),  # 6
        ]
        got = rows(compute_live_intervals(instrs))
        assert got == rows(reference_live_intervals(instrs))
        assert got == [(t.id, 0, 6, 1), (u.id, 1, 5, 1)]

    def test_every_stream_the_bench_jobs_feed_the_simulator(self, monkeypatch):
        """The VIR of every backend compile of the 64 BENCH jobs."""
        real = registers.compute_live_intervals
        streams, differ = [], []

        def checking(instrs):
            got = real(instrs)
            streams.append(len(instrs))
            if rows(got) != rows(reference_live_intervals(instrs)):
                differ.append(len(streams))
            return got

        monkeypatch.setattr(registers, "compute_live_intervals", checking)
        session = CompilerSession()
        for job in bench_jobs():
            compile_job(session, job)
        assert len(streams) == 258
        assert differ == []
